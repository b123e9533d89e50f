// The campaign frame shared by the randomized fault-fuzz harnesses: the
// block-level harness (src/backend/fault_fuzz.h) and the file-system-level
// harness (src/fs/fs_fuzz.h).  Each harness keeps only its workload and its
// oracle; everything around them lives here:
//
//   - CampaignOptions / FuzzReport: the options and report both share;
//   - FuzzSchedule: one schedule's stack (SimClock → NvmDevice(nvdimm) →
//     MemBlockDevice ← FaultyBlockDevice), its Rng, deterministic crash
//     arming, the power cut + recovery step with its post-crash media
//     checks, the violation tagger and the fault / I/O counter folding;
//   - RecordingBackend: the shim that fingerprints every staged block, so
//     the harness knows which block image each commit boundary is;
//   - SnapshotPin: the snapshot-pin oracle (DESIGN.md §12);
//   - match_history: the recovered block image against the acceptable
//     histories (DESIGN.md §6).
//
// Everything is a function of the campaign seed and the schedule index, so a
// failure anywhere reproduces from the printed "reproduce:" tag alone:
// re-run the campaign with the printed seed, first_schedule and schedules=1.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "backend/stack_builder.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "tinca/verify.h"

namespace tinca::backend {

/// Deliberate stack sabotage for oracle self-tests ("does the harness
/// actually catch a corruption?").  kNone in every real campaign.
enum class FuzzSabotage : std::uint8_t {
  kNone = 0,
  /// Block harness only: commit one unrecorded update over a committed block
  /// right before verification — the recovered/live state then matches no
  /// acceptable history, and the harness must flag it.
  kCorruptCommitted,
  /// The background cleaner marks blocks clean WITHOUT their pre-writeback
  /// disk flush (DESIGN.md §11).  Stale disk data then leaks into reads
  /// after eviction or a clean remount, and the oracle must flag it.
  kCleanerSkipsFlush,
  /// The NvLog tier's absorb returns WITHOUT its clflush + sfence pass
  /// (DESIGN.md §13) — "committed" txns are only cache-resident.  Any
  /// crash then loses acknowledged commits, and the oracle must flag it.
  kNvLogSkipsCommitFlush,
  /// The sharded stack stages its cross-stream commit record WITHOUT the
  /// clflush that makes it the atomic commit point (DESIGN.md §15).  A
  /// crash then rolls back an acknowledged cross-shard transaction, and
  /// the oracle must flag the lost commit.
  kSkipCommitRecordFlush,
  /// The NvLog tier stores its watermark ring records WITHOUT the flush
  /// that makes them durable (DESIGN.md §16).  A crash then mounts a stale
  /// watermark whose oldest_live_seq can name a recycled-and-reused
  /// segment; the chain scan finds a gap at its head and every younger
  /// committed txn is lost — the oracle must flag it.
  kSkipWatermarkRecordFlush,
};

/// Parameters of one fuzz campaign (one stack kind, many schedules) that
/// both harnesses share.  The defaults are the block harness's; FsFuzzOptions
/// lowers the schedule count and the per-block-op fault rates.
struct CampaignOptions {
  StackKind kind = StackKind::kTinca;
  std::uint64_t seed = 1;
  std::uint32_t schedules = 200;
  /// First schedule index to run (schedule seeds depend only on the campaign
  /// seed and the *absolute* index, so seed + first_schedule + schedules=1
  /// replays exactly one schedule of a larger campaign).
  std::uint32_t first_schedule = 0;
  /// Probability a schedule arms a deterministic crash (power cut or torn
  /// write); random torn writes can still crash unarmed schedules.
  double crash_prob = 0.6;
  /// Disk fault rates (per block operation).
  double transient_read_rate = 0.01;
  double transient_write_rate = 0.02;
  double bad_sector_rate = 0.002;
  double torn_write_rate = 0.001;
  /// 0 = a per-kind default small enough to force evictions.
  std::uint64_t nvm_bytes = 0;
  std::uint64_t disk_blocks = 1ull << 12;
  std::uint64_t ring_bytes = 64 * 1024;    ///< Tinca ring (per shard)
  std::uint64_t journal_blocks = 512;      ///< Classic journal reservation
  std::uint32_t shards = 2;                ///< kShardedTinca / kNvLogSharded
  /// Per-shard commit streams (DESIGN.md §15).  1 keeps the single-ring
  /// layout; >1 splits each shard's ring region into per-stream rings and
  /// lets cross-shard transactions anchor to the commit directory.
  std::uint32_t streams = 1;
  /// Background cleaner mode for the stack under test (kStepped arms it
  /// deterministically: the harness drains one cleaner quantum after every
  /// commit, and crash points inside the drain are swept like any other).
  cleaner::CleanerMode cleaner = cleaner::CleanerMode::kDisabled;
  /// Cleaner watermarks.  The aggressive self-test campaigns drop these so
  /// the cleaner provably does work on every schedule; real campaigns keep
  /// the production defaults.
  std::uint32_t cleaner_low_water_pct = cleaner::CleanerConfig{}.low_water_pct;
  std::uint32_t cleaner_high_water_pct =
      cleaner::CleanerConfig{}.high_water_pct;
  /// Group commit (DESIGN.md §14): arm the sharded per-shard commit batcher;
  /// the block harness also commits 2–4 transactions at a time through
  /// TxnBackend::commit_group() on backends that support it.
  bool group_commit = false;
  /// Oracle self-test hook; leave kNone outside harness self-tests.
  FuzzSabotage sabotage = FuzzSabotage::kNone;
};

/// Campaign outcome.  `violations` is the only failure signal; everything
/// else is telemetry (how hard the campaign actually exercised the stack).
struct FuzzReport {
  std::uint64_t schedules = 0;
  std::uint64_t crashes = 0;          ///< schedules ended by CrashException
  std::uint64_t clean_remounts = 0;   ///< crash-free recover() round trips
  std::uint64_t io_errors = 0;        ///< unrecoverable-read IoError throws
  std::uint64_t wedges = 0;           ///< documented capacity wedges hit
  std::uint64_t violations = 0;       ///< invariant violations (must be 0)
  std::vector<std::string> violation_messages;  ///< first few, with seeds
  std::uint64_t io_retries = 0;
  std::uint64_t io_quarantined = 0;
  std::uint64_t io_degraded_writes = 0;
  blockdev::FaultStats faults;        ///< summed over all schedules
};

/// The constants in which the two harnesses' schedules differ.  Each harness
/// keeps its own, so every schedule draws the numbers it always drew.
struct FuzzHarness {
  std::uint64_t tinca_cache_bytes;  ///< default NVM per Tinca cache or shard
  std::uint64_t fault_salt;         ///< disk fault seed = mix(sseed, salt)
  std::uint64_t point_range;        ///< armed power cuts land on [1, this]
  std::uint64_t torn_range;         ///< armed torn writes land on [1, this]
};

/// Machine-parseable reproduce tag appended to every violation message.
/// Re-running the same harness with these exact options replays the failing
/// schedule alone (schedule seeds depend only on seed + absolute index).
inline std::string fuzz_reproduce_tag(std::uint64_t campaign_seed,
                                      std::uint64_t schedule) {
  return "reproduce: seed=" + std::to_string(campaign_seed) +
         " first_schedule=" + std::to_string(schedule) + " schedules=1";
}

/// Parse a violation message's reproduce tag back into campaign options.
/// Returns false when the message carries no tag.
inline bool fuzz_parse_reproduce(const std::string& message,
                                 std::uint64_t* seed,
                                 std::uint32_t* first_schedule) {
  const auto grab = [&message](const char* key, std::uint64_t* out) {
    const std::size_t at = message.rfind(key);
    if (at == std::string::npos) return false;
    *out = std::strtoull(message.c_str() + at + std::strlen(key), nullptr, 10);
    return true;
  };
  std::uint64_t first = 0;
  if (!grab("reproduce: seed=", seed) || !grab(" first_schedule=", &first))
    return false;
  *first_schedule = static_cast<std::uint32_t>(first);
  return true;
}

namespace detail {

/// Log-tier carve-out shared by every NvLog fuzz stack (and by the post-crash
/// verify_nvlog_media check, which must view the same range).
inline constexpr std::uint64_t kFuzzLogBytes = 1ull << 19;  // 512 KB

inline std::uint64_t fuzz_mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Per-kind NVM size: small enough that the workload overcommits the cache
/// (evictions + threshold cleaning run under faults), big enough for a valid
/// layout (FlashCache needs one full 256-slot set).  `cache` is the size of
/// one Tinca/UBJ cache or shard.
inline std::uint64_t fuzz_nvm_bytes(StackKind kind, std::uint64_t override,
                                    std::uint64_t cache) {
  if (override != 0) return override;
  switch (kind) {
    case StackKind::kClassic:
    case StackKind::kClassicNoJournal:
      return 3ull << 19;  // 1.5 MB → one 256-slot set
    case StackKind::kShardedTinca:
      return cache * 2;  // two shards
    case StackKind::kNvLogClassic:
      return (3ull << 19) + kFuzzLogBytes;  // classic cache + 512 KB log
    case StackKind::kNvLogTinca:
      return cache + kFuzzLogBytes;
    case StackKind::kNvLogSharded:
      return cache * 2 + kFuzzLogBytes;
    default:
      return cache;
  }
}

inline std::unique_ptr<TxnBackend> fuzz_build(const CampaignOptions& o,
                                              nvm::NvmDevice& nvm,
                                              blockdev::BlockDevice& disk,
                                              bool recover) {
  cleaner::CleanerConfig cl;
  cl.mode = o.cleaner;
  cl.low_water_pct = o.cleaner_low_water_pct;
  cl.high_water_pct = o.cleaner_high_water_pct;
  cl.sabotage_skip_write = o.sabotage == FuzzSabotage::kCleanerSkipsFlush;
  core::TincaConfig tc;
  tc.ring_bytes = o.ring_bytes;
  tc.num_streams = o.streams;
  tc.cleaner = cl;
  switch (o.kind) {
    case StackKind::kTinca:
      return recover ? TincaBackend::recover(nvm, disk, tc)
                     : TincaBackend::format(nvm, disk, tc);
    case StackKind::kClassic:
    case StackKind::kClassicNoJournal: {
      classic::ClassicConfig c;
      c.journaling = o.kind == StackKind::kClassic;
      c.journal_blocks = o.journal_blocks;
      return recover ? ClassicBackend::recover(nvm, disk, c)
                     : ClassicBackend::format(nvm, disk, c);
    }
    case StackKind::kUbj: {
      ubj::UbjConfig c;
      c.cleaner = cl;
      return recover ? UbjBackend::recover(nvm, disk, c)
                     : UbjBackend::format(nvm, disk, c);
    }
    case StackKind::kShardedTinca: {
      shard::ShardedConfig s;
      s.num_shards = o.shards;
      s.group_commit = o.group_commit;
      // The harnesses are single-threaded, so lingering for co-committers
      // only wastes wall clock; linger=0 keeps the full leader/batch commit
      // path (the code under test) without the wait.
      s.group_linger_us = 0;
      s.sabotage_skip_commit_record_flush =
          o.sabotage == FuzzSabotage::kSkipCommitRecordFlush;
      s.shard = tc;
      return recover ? ShardedBackend::recover(nvm, disk, s)
                     : ShardedBackend::format(nvm, disk, s);
    }
    case StackKind::kNvLogClassic:
    case StackKind::kNvLogTinca:
    case StackKind::kNvLogSharded: {
      NvLogStackedConfig c;
      c.log_bytes = kFuzzLogBytes;      // 512 KB log in front of the cache
      c.log.segment_bytes = 64 * 1024;  // 7 segments → frequent wrap + drain
      c.inner = nvlog_inner(o.kind);
      c.classic.journal_blocks = o.journal_blocks;  // same data area as Classic
      c.shards = o.shards;
      // A Tinca inner keeps its own §11 cleaner on the harness' settings;
      // the *log* cleaner (segment drains) is the one the stepped campaigns
      // arm and crash-sweep.
      c.tinca = tc;
      c.cleaner = cl;
      c.log.sabotage_skip_commit_flush =
          o.sabotage == FuzzSabotage::kNvLogSkipsCommitFlush;
      c.log.sabotage_skip_watermark_flush =
          o.sabotage == FuzzSabotage::kSkipWatermarkRecordFlush;
      return recover ? NvLogStackedBackend::recover(nvm, disk, c)
                     : NvLogStackedBackend::format(nvm, disk, c);
    }
  }
  TINCA_ENSURE(false, "unknown StackKind");
  return nullptr;
}

/// Fold the backend's retry/quarantine/degradation counters into `rep`.
inline void fuzz_collect(StackKind kind, TxnBackend& be, FuzzReport& rep) {
  const auto add = [&rep](const auto& s) {
    rep.io_retries += s.io_retries;
    rep.io_quarantined += s.io_quarantined;
    rep.io_degraded_writes += s.io_degraded_writes;
  };
  switch (kind) {
    case StackKind::kTinca:
      add(static_cast<TincaBackend&>(be).cache().stats());
      break;
    case StackKind::kClassic:
    case StackKind::kClassicNoJournal:
      add(static_cast<ClassicBackend&>(be).stack().cache().stats());
      break;
    case StackKind::kUbj:
      add(static_cast<UbjBackend&>(be).store().stats());
      break;
    case StackKind::kShardedTinca:
      add(static_cast<ShardedBackend&>(be).sharded().aggregated_stats());
      break;
    case StackKind::kNvLogClassic:
    case StackKind::kNvLogTinca:
    case StackKind::kNvLogSharded: {
      // The log tier does no disk I/O of its own: the inner store's
      // counters are the stack's.
      StackKind inner = StackKind::kShardedTinca;
      if (kind == StackKind::kNvLogClassic)
        inner = StackKind::kClassicNoJournal;
      if (kind == StackKind::kNvLogTinca) inner = StackKind::kTinca;
      fuzz_collect(inner, static_cast<NvLogStackedBackend&>(be).inner(), rep);
      break;
    }
  }
}

inline std::uint64_t zero_block_fp() {
  static const std::uint64_t fp =
      fingerprint(std::vector<std::byte>(blockdev::kBlockSize));
  return fp;
}

}  // namespace detail

/// How one schedule's workload ended.  kClean also covers a workload that
/// stopped on a recorded violation: the verification still runs.
enum class ScheduleEnd : std::uint8_t { kClean, kCrashed, kIoError, kWedged };

/// One schedule: a fresh stack over a faulty disk, formatted, plus the
/// machinery every harness wraps around its workload.  Destroying it folds
/// the schedule's disk-fault telemetry into the campaign report.
struct FuzzSchedule {
  FuzzSchedule(const CampaignOptions& o, const FuzzHarness& h,
               std::uint64_t schedule, std::uint64_t schedule_seed,
               FuzzReport& report, bool disk_faults = true)
      : opts(o),
        harness(h),
        sched(schedule),
        sseed(schedule_seed),
        rep(report),
        rng(schedule_seed),
        nvm(detail::fuzz_nvm_bytes(o.kind, o.nvm_bytes, h.tinca_cache_bytes),
            nvdimm_profile(), clock),
        mem(o.disk_blocks),
        disk(mem, fault_config(disk_faults), &nvm.injector),
        be(detail::fuzz_build(o, nvm, disk, false)) {
    ++rep.schedules;
  }

  ~FuzzSchedule() {
    blockdev::FaultStats& t = rep.faults;
    const blockdev::FaultStats& f = disk.fault_stats();
    t.transient_read_errors += f.transient_read_errors;
    t.transient_write_errors += f.transient_write_errors;
    t.bad_sectors += f.bad_sectors;
    t.bad_sector_errors += f.bad_sector_errors;
    t.torn_writes += f.torn_writes;
  }

  FuzzSchedule(const FuzzSchedule&) = delete;
  FuzzSchedule& operator=(const FuzzSchedule&) = delete;

  /// Record a violation; the first 16 keep the full schedule context (seed,
  /// fault rates in force, armed crash) and a "reproduce:" tag.
  void violation(const std::string& what) {
    ++rep.violations;
    if (rep.violation_messages.size() >= 16) return;
    rep.violation_messages.push_back(
        "schedule " + std::to_string(sched) + " (schedule_seed=" +
        std::to_string(sseed) + " faults[tr=" +
        std::to_string(opts.transient_read_rate) + " tw=" +
        std::to_string(opts.transient_write_rate) + " bad=" +
        std::to_string(opts.bad_sector_rate) + " torn=" +
        std::to_string(opts.torn_write_rate) + "] arm=" + armed + "): " +
        what + " | " + fuzz_reproduce_tag(opts.seed, sched));
  }

  /// With probability crash_prob arm one deterministic crash: half cut power
  /// at an NVM persistence point, the rest tear a disk write.
  void arm_random() {
    if (!rng.chance(opts.crash_prob)) return;
    if (rng.chance(0.5)) {
      arm_point(1 + rng.below(harness.point_range));
    } else {
      arm_torn(1 + rng.below(harness.torn_range));
    }
  }
  void arm_point(std::uint64_t step) {
    nvm.injector.arm(step);
    armed = "point@" + std::to_string(step);
  }
  void arm_torn(std::uint64_t step) {
    nvm.injector.arm_torn(step);
    armed = "torn@" + std::to_string(step);
  }

  /// Run one workload phase and classify how it ended.  Injected crashes,
  /// unrecoverable reads and documented capacity wedges are outcomes, not
  /// failures; any other ContractViolation is a violation, prefixed with
  /// `context()` (what was running).
  template <typename Body, typename Context>
  ScheduleEnd run(Body&& body, Context&& context) {
    try {
      body();
      return ScheduleEnd::kClean;
    } catch (const nvm::CrashException&) {
      return ScheduleEnd::kCrashed;
    } catch (const blockdev::IoError&) {
      ++rep.io_errors;  // unrecoverable read; state stays consistent
      return ScheduleEnd::kIoError;
    } catch (const ContractViolation& e) {
      if (std::string(e.what()).find("wedged") != std::string::npos) {
        ++rep.wedges;  // documented capacity degradation, not a bug
        return ScheduleEnd::kWedged;
      }
      violation(context() + e.what());
      return ScheduleEnd::kClean;
    }
  }

  /// End the workload: stop injecting *new* faults (already-bad sectors
  /// keep failing) and fold the backend's I/O counters.
  void quiesce() {
    nvm.injector.disarm();
    nvm.injector.disarm_torn();
    disk.quiesce();
    collect();
  }
  void collect() { detail::fuzz_collect(opts.kind, *be, rep); }

  /// Rebuild the stack from media.  False (after recording "<what> failed")
  /// when recovery throws.
  bool remount(const std::string& what) {
    be.reset();
    try {
      be = detail::fuzz_build(opts, nvm, disk, true);
    } catch (const std::exception& e) {
      violation(what + " failed: " + e.what());
      return false;
    }
    return true;
  }

  /// Power cut: each unflushed line survives with one of four odds drawn
  /// per schedule; then recover and check the media's structure.
  bool crash_and_recover() {
    ++rep.crashes;
    static constexpr double kSurvive[] = {0.0, 0.3, 0.7, 1.0};
    nvm.crash(rng, kSurvive[rng.below(4)]);
    if (!remount("recovery")) return false;
    check_media();
    return true;
  }

  /// Post-crash structural checks: every Tinca layout (the single cache, or
  /// each shard partition cut the way ShardedTinca's constructor cuts it),
  /// and the NvLog tier's metadata — the superblock and the watermark record
  /// ring (DESIGN.md §16) must decode and hold a mountable winning record; a
  /// torn record cut is acceptable only because an older valid one survives.
  void check_media() {
    const auto check = [this](const std::string& what,
                              const core::MediaReport& mr) {
      if (mr.ok) return;
      violation(what + ": " +
                (mr.problems.empty() ? "not ok" : mr.problems.front()));
    };
    switch (opts.kind) {
      case StackKind::kTinca:
        check("verify_media",
              core::verify_media(nvm, core::Layout::compute(nvm.size(),
                                                            opts.ring_bytes,
                                                            opts.streams)));
        break;
      case StackKind::kShardedTinca: {
        const std::uint64_t part =
            nvm.size() / opts.shards / core::kBlockSize * core::kBlockSize;
        const core::Layout layout =
            core::Layout::compute(part, opts.ring_bytes, opts.streams);
        for (std::uint32_t s = 0; s < opts.shards; ++s) {
          nvm::NvmDevice view(nvm, s * part, part, clock);
          check("verify_media shard " + std::to_string(s),
                core::verify_media(view, layout));
        }
        break;
      }
      case StackKind::kNvLogClassic:
      case StackKind::kNvLogTinca:
      case StackKind::kNvLogSharded: {
        nvm::NvmDevice logv(nvm, 0, detail::kFuzzLogBytes, clock);
        check("verify_nvlog_media", core::verify_nvlog_media(logv));
        break;
      }
      default:
        break;
    }
  }

  const CampaignOptions& opts;
  const FuzzHarness harness;
  const std::uint64_t sched;
  const std::uint64_t sseed;
  FuzzReport& rep;
  Rng rng;
  std::string armed = "none";
  sim::SimClock clock;
  nvm::NvmDevice nvm;
  blockdev::MemBlockDevice mem;
  blockdev::FaultyBlockDevice disk;
  std::unique_ptr<TxnBackend> be;

 private:
  blockdev::FaultConfig fault_config(bool disk_faults) const {
    blockdev::FaultConfig f;
    f.seed = detail::fuzz_mix(sseed, harness.fault_salt);
    if (disk_faults) {
      f.transient_read_rate = opts.transient_read_rate;
      f.transient_write_rate = opts.transient_write_rate;
      f.bad_sector_rate = opts.bad_sector_rate;
      f.torn_write_rate = opts.torn_write_rate;
    }
    return f;
  }
};

/// Wraps the backend under test and fingerprints every staged block, so the
/// harness knows — without trusting the layers above — exactly which block
/// image each commit boundary corresponds to.
///
///   committed() : blkno → fingerprint as of the last *completed* commit
///   pending()   : blocks staged by the currently open (or torn) txn/batch
///   universe()  : every block ever staged (the image-check read set)
///   boundaries(): number of completed commits
///
/// Every completed commit is followed by one cleaner quantum: cleaner-armed
/// campaigns drain between commits, and a crash inside the drain lands with
/// nothing pending, so the acceptable image is exactly the committed history
/// (re-clean on recovery, lose nothing).
///
/// The bookkeeping outlives the wrapped backend: after a crash or remount
/// the harness checks it against the rebuilt FuzzSchedule::be, and only the
/// forwarding calls (never made after that) need the original instance.
class RecordingBackend final : public TxnBackend {
 public:
  explicit RecordingBackend(TxnBackend& real) : real_(real) {}

  void begin() override {
    real_.begin();
    pending_.clear();
  }

  void stage(std::uint64_t blkno, std::span<const std::byte> data) override {
    real_.stage(blkno, data);
    record(blkno, data);
  }

  void commit() override {
    real_.commit();
    published();
  }

  /// The flattened member-order writes are the batch's in-flight image: a
  /// batch is all-or-nothing even across shards (DESIGN.md §14, §15).
  void commit_group(std::span<const GroupTxn> txns) override {
    pending_.clear();
    for (const GroupTxn& t : txns)
      for (const auto& [blkno, data] : t.writes) record(blkno, data);
    real_.commit_group(txns);
    published();
  }

  void abort() override {
    real_.abort();
    pending_.clear();
  }

  void read_block(std::uint64_t blkno, std::span<std::byte> dst) override {
    real_.read_block(blkno, dst);
  }

  void flush() override { real_.flush(); }

  [[nodiscard]] std::uint64_t data_block_limit() const override {
    return real_.data_block_limit();
  }
  [[nodiscard]] std::uint64_t max_txn_blocks() const override {
    return real_.max_txn_blocks();
  }
  [[nodiscard]] std::string name() const override { return real_.name(); }
  [[nodiscard]] bool supports_group_commit() const override {
    return real_.supports_group_commit();
  }
  [[nodiscard]] bool supports_snapshots() const override {
    return real_.supports_snapshots();
  }
  std::uint64_t snapshot_open() override { return real_.snapshot_open(); }
  void snapshot_read(std::uint64_t token, std::uint64_t blkno,
                     std::span<std::byte> dst) override {
    real_.snapshot_read(token, blkno, dst);
  }
  void snapshot_close(std::uint64_t token) override {
    real_.snapshot_close(token);
  }

  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& committed()
      const {
    return committed_;
  }
  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& pending() const {
    return pending_;
  }
  [[nodiscard]] const std::set<std::uint64_t>& universe() const {
    return universe_;
  }
  [[nodiscard]] std::uint64_t boundaries() const { return boundaries_; }

  /// Sabotage hook: overwrite `blkno` on the real backend *and* in the
  /// committed bookkeeping, so the block-image check stays green and only
  /// an oracle above the block layer can notice.
  void sabotage_block(std::uint64_t blkno, std::span<const std::byte> data) {
    real_.begin();
    real_.stage(blkno, data);
    real_.commit();
    committed_[blkno] = fingerprint(data);
    universe_.insert(blkno);
    ++boundaries_;
  }

 private:
  void record(std::uint64_t blkno, std::span<const std::byte> data) {
    pending_[blkno] = fingerprint(data);
    universe_.insert(blkno);
  }

  void published() {
    for (const auto& [blkno, fp] : pending_) committed_[blkno] = fp;
    pending_.clear();
    ++boundaries_;
    real_.cleaner_step();
  }

  TxnBackend& real_;
  std::map<std::uint64_t, std::uint64_t> committed_;
  std::map<std::uint64_t, std::uint64_t> pending_;
  std::set<std::uint64_t> universe_;
  std::uint64_t boundaries_ = 0;
};

/// Snapshot-pin oracle (DESIGN.md §12): pin a committed boundary mid-run,
/// keep committing, cleaning and faulting past it, and every pinned read
/// must keep returning exactly the boundary image.
struct SnapshotPin {
  bool open = false;
  std::uint64_t token = 0;
  std::map<std::uint64_t, std::uint64_t> frozen;  ///< blkno → fingerprint

  void pin(RecordingBackend& be) {
    token = be.snapshot_open();
    frozen = be.committed();
    open = true;
  }

  /// Read up to `probes` random blocks of the universe through the pin.
  /// False (after recording the violation) on the first wrong image.
  bool probe(FuzzSchedule& s, RecordingBackend& be, int probes) {
    std::vector<std::byte> buf(blockdev::kBlockSize);
    for (int i = 0; i < probes && !be.universe().empty(); ++i) {
      auto it = be.universe().begin();
      std::advance(it, static_cast<long>(s.rng.below(be.universe().size())));
      be.snapshot_read(token, *it, buf);
      const auto want = frozen.find(*it);
      if (fingerprint(buf) !=
          (want == frozen.end() ? detail::zero_block_fp() : want->second)) {
        s.violation("snapshot read of block " + std::to_string(*it) +
                    " is not the pinned boundary image");
        return false;
      }
    }
    return true;
  }

  void close(TxnBackend& be) {
    be.snapshot_close(token);
    open = false;
  }

  /// Drop a still-open pin before verification: pins defer disk
  /// write-backs, and verification should run unthrottled.  A dying
  /// instance may refuse; it is rebuilt anyway.
  void release(TxnBackend& be) {
    if (!open) return;
    try {
      be.snapshot_close(token);
    } catch (const std::exception&) {
    }
    open = false;
  }
};

/// Which acceptable history `be`'s block image is, over the recorded
/// universe: 0 = the committed image, 1 = committed + the interrupted
/// transaction (offered only when `interrupted`), -1 = neither (`*why` names
/// the mismatching block).  Every stack is held to exactly these two: a
/// cross-shard transaction is anchored to one atomic commit record
/// (DESIGN.md §15), so shard-prefix images are violations.  Blocks absent
/// from a candidate must read as zeros.
inline int match_history(TxnBackend& be, const RecordingBackend& rec,
                         bool interrupted, std::string* why) {
  std::vector<std::map<std::uint64_t, std::uint64_t>> cands{rec.committed()};
  if (interrupted && !rec.pending().empty()) {
    cands.push_back(rec.committed());
    for (const auto& [blkno, fp] : rec.pending()) cands.back()[blkno] = fp;
  }
  std::vector<std::byte> got(blockdev::kBlockSize);
  for (std::size_t c = 0; c < cands.size(); ++c) {
    bool ok = true;
    for (const std::uint64_t blkno : rec.universe()) {
      be.read_block(blkno, got);
      const auto it = cands[c].find(blkno);
      if (fingerprint(got) !=
          (it == cands[c].end() ? detail::zero_block_fp() : it->second)) {
        *why = "block " + std::to_string(blkno) + " mismatch";
        ok = false;
        break;
      }
    }
    if (ok) return static_cast<int>(c);
  }
  return -1;
}

}  // namespace tinca::backend
