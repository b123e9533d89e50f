// Shared machinery of the end-to-end benchmark: exact percentiles, the
// model clock, per-thread call recording (host time always, spans when
// traced), a forwarding TxnBackend that times the backend layer, counter
// snapshots summed over shards, the block-content oracle, and the run
// skeleton every workload plugs into.
//
// Host time counts only the intervals spent inside calls into the program.
// The benchmark's own input generation and output checking happen between
// those intervals and are reported separately (driver.self_frac).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "backend/stack_builder.h"
#include "backend/txn_backend.h"
#include "common/sim_clock.h"
#include "obs/metrics.h"

namespace perfbench {

using tinca::backend::Stack;
using tinca::backend::StackConfig;
using tinca::backend::TxnBackend;

inline constexpr std::size_t kBlock = 4096;

/// Host steady-clock nanoseconds.
inline std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64 finaliser, for seed derivation and input digests.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

/// 0..n-1 in a seeded random order (hot ranks to scattered block numbers).
std::vector<std::uint32_t> shuffled_ids(std::uint32_t n, std::uint64_t seed);

// --- Percentiles ------------------------------------------------------------

/// Per-call samples in nanoseconds (4 B each: hot_reads keeps millions).
using Samples = std::vector<std::uint32_t>;

/// Saturating conversion of a nanosecond duration to a sample.
inline std::uint32_t to_sample(std::uint64_t ns) {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(ns);
}

/// The q-quantile of `samples` (reordered in place), computed exactly from
/// every sample as Parzen's mid-quantile: the quantile function that joins
/// each distinct value v, placed at (share below v) + (share equal to v)/2,
/// to its neighbours by straight lines.  On samples without ties this is
/// the usual interpolated (Hazen) percentile.  On model-clock samples,
/// which take a few hundred distinct values, it moves with the share of
/// each value rather than sticking to one of them.  Empty when fewer than
/// 10 samples lie beyond the nearest-rank sample, i.e. when the sample
/// cannot support the percentile.
std::optional<double> exact_percentile(Samples& samples, double q);

/// Median of a small vector.
double median(std::vector<double> v);

// --- Result -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< samples behind the value (0 = a ratio)
};

/// What one run of a workload produced.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failures, for the log
  std::vector<Metric> end_to_end;   ///< filled by untraced runs
  std::vector<Metric> per_layer;    ///< filled by traced runs
  std::string setup;                ///< one-line description of the set-up
  /// Digest of the generated inputs (the seed test compares these).
  std::uint64_t input_digest = 0;

  /// Count one failed check or op and keep its message.
  void fail(const std::string& why);
  static void add(std::vector<Metric>& into, const std::string& name,
                  double value, const std::string& unit,
                  std::uint64_t samples = 0);
  /// Add `samples`' q-percentile, scaled by `scale`, as `name`.  When the
  /// sample cannot support it, a required metric fails the run and an
  /// optional one reads 0.
  void add_percentile(std::vector<Metric>& into, const std::string& name,
                      Samples& samples, double q, double scale,
                      const std::string& unit, bool required);
  /// Value of a metric by name (NaN when absent).
  [[nodiscard]] double value(const std::string& name) const;
};

/// Run options shared by every workload.
struct Options {
  std::uint64_t seed = 1;
  std::uint32_t seconds = 10;
  bool trace = false;
  /// Times set-up is repeated; setup_s is their median.
  std::uint32_t setups = 3;
  /// Where a traced run writes its spans ("" = nowhere).
  std::string span_path;
};

Result run_oltp(const Options& o);
Result run_hot_reads(const Options& o);
Result run_fs_varmail(const Options& o);

// --- Stack set-up shared by every workload -----------------------------------

/// pcm NVM, 64 MiB, 4 shards, 1 MiB ring per shard, ssd disk with async
/// writes, stepped cleaners.
StackConfig base_config(tinca::backend::StackKind kind);
std::string describe(const StackConfig& cfg);

/// The sharded cache inside a kShardedTinca or kNvLogSharded stack.
tinca::shard::ShardedTinca& sharded_of(TxnBackend& backend);

/// A stack remounted after a power cut.
struct Remount {
  std::unique_ptr<TxnBackend> backend;
  double model_ms = 0.0;  ///< root clock delta plus the new shard clocks
  double host_ms = 0.0;   ///< host time of the recover call
};

/// Power-cut the stack's NVM so that no unflushed line survives, then mount
/// a new backend over the same NVM and disk through the backend's public
/// recover, with the configuration the stack was formatted with.  The
/// stack's own backend is left idle.
Remount crash_and_remount(Stack& stack);

// --- Model clock --------------------------------------------------------------

/// Sum of the root Stack clock and every shard clock.  The commit-directory
/// view's own clock is private to ShardedTinca and not included.
class ModelClock {
 public:
  ModelClock(tinca::sim::SimClock& root, tinca::shard::ShardedTinca& sharded);
  [[nodiscard]] std::uint64_t now() const;
  [[nodiscard]] std::uint64_t root() const { return root_->now(); }

 private:
  tinca::sim::SimClock* root_;
  std::vector<tinca::sim::SimClock*> shards_;
};

// --- Call recording -----------------------------------------------------------

/// Program functions the benchmark calls, named "<layer>.<function>".
enum class Fn : std::uint8_t {
  kOp,  ///< one client operation (root span; not a program call)
  kFsCreate, kFsWrite, kFsAppend, kFsRead, kFsRemove, kFsFsync,
  kBeBegin, kBeStage, kBeCommit, kBeCommitGroup, kBeRead, kBeCleanerStep,
  kShStage, kShRead, kShCommit, kShStepCleaners,
  kCount,
};
const char* fn_name(Fn f);

/// One traced span.
struct Span {
  std::uint64_t op = 0;          ///< client op id
  std::uint64_t h0 = 0, h1 = 0;  ///< host ns
  std::uint64_t m0 = 0, m1 = 0;  ///< model ns (0 on threads without one)
  std::uint32_t parent = 0;      ///< index + 1 of the parent span, 0 = none
  Fn fn = Fn::kOp;
};

/// Per-thread recorder of the program calls one client makes.  Every call
/// adds its host duration to the current op's program time; nested calls
/// count once, at their outermost level.  Functions named in keep_samples()
/// keep one host and one model sample per call.  Traced recorders also keep
/// a span per call, up to kMaxSpans.
class Recorder {
 public:
  static constexpr std::size_t kMaxSpans = 1u << 18;

  /// `model` may be null: the thread then reads no model clock.
  Recorder(const ModelClock* model, bool trace);

  void keep_samples(Fn f) { keep_[static_cast<int>(f)] = true; }

  /// Start / finish one client op.
  void start_op();
  void finish_op();

  /// RAII timer around one call into the program.
  class Call {
   public:
    Call(Recorder& r, Fn f);
    ~Call();
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    Recorder& r_;
    Fn f_;
    bool model_;
    std::uint32_t span_ = 0;
    std::uint64_t m0_ = 0;
    std::uint64_t h0_ = 0;
  };

  struct FnStats {
    std::uint64_t calls = 0;
    std::uint64_t host_ns = 0;
    std::uint64_t model_ns = 0;  ///< kept or traced calls only
    Samples host;                ///< per-call host ns (kept functions)
    Samples model;               ///< per-call model ns (kept functions)
  };
  [[nodiscard]] FnStats& fn(Fn f) { return fns_[static_cast<int>(f)]; }
  [[nodiscard]] const FnStats& fn(Fn f) const {
    return fns_[static_cast<int>(f)];
  }

  /// Program ns per finished op (skipped when `op_samples` is false).
  Samples op_ns;
  bool op_samples = true;
  std::uint64_t ops = 0;         ///< finished ops
  std::uint64_t program_ns = 0;  ///< host ns inside program calls
  std::uint64_t wall_ns = 0;     ///< host ns from first op start to last end
  std::vector<Span> spans;       ///< traced recorders only

 private:
  const ModelClock* model_;
  bool trace_;
  std::uint64_t op_id_ = 0;
  std::uint64_t op_program_ = 0;
  std::uint64_t first_start_ = 0;
  std::uint32_t depth_ = 0;
  std::uint32_t open_ = 0;  ///< index + 1 of the innermost open span
  bool keep_[static_cast<int>(Fn::kCount)] = {};
  FnStats fns_[static_cast<int>(Fn::kCount)];
};

/// Host self time per layer from a recorder's spans: each span's duration
/// minus what its child spans cover, summed by the span's layer prefix.
std::map<std::string, std::uint64_t> self_host_ns(const Recorder& r);

/// Write the recorders' spans as CSV, one row per span.
bool write_spans(const std::string& path,
                 const std::vector<const Recorder*>& recorders);

/// Forwarding TxnBackend that times every call into the backend layer.
class TimedBackend final : public TxnBackend {
 public:
  TimedBackend(TxnBackend& inner, Recorder& rec) : inner_(&inner), rec_(&rec) {}

  /// Point the forwarder at another recorder (one per measured window).
  void set_recorder(Recorder& rec) { rec_ = &rec; }

  void begin() override;
  void stage(std::uint64_t blkno, std::span<const std::byte> data) override;
  void commit() override;
  void abort() override { inner_->abort(); }
  [[nodiscard]] bool supports_group_commit() const override {
    return inner_->supports_group_commit();
  }
  void commit_group(std::span<const tinca::backend::GroupTxn> txns) override;
  void read_block(std::uint64_t blkno, std::span<std::byte> dst) override;
  void flush() override { inner_->flush(); }
  [[nodiscard]] std::uint64_t data_block_limit() const override {
    return inner_->data_block_limit();
  }
  [[nodiscard]] std::uint64_t max_txn_blocks() const override {
    return inner_->max_txn_blocks();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void cleaner_step() override;

 private:
  TxnBackend* inner_;
  Recorder* rec_;
};

// --- Counters -----------------------------------------------------------------

/// One snapshot of every count the benchmark reports.  NVM op counts sum
/// the root device and every shard view; registry keys sum the
/// `shard<i>.` prefixes ("tinca.*", "cleaner.*") or name the log tier
/// ("nvlog.*").
struct Counters {
  tinca::nvm::NvmStats nvm;
  std::uint64_t media_lines = 0;  ///< NVM line writes to media, every view
  tinca::blockdev::BlockStats disk;
  std::uint64_t model_ns = 0;  ///< ModelClock::now()
  std::uint64_t root_ns = 0;   ///< root clock alone (disk and log tier)
  std::map<std::string, std::uint64_t> reg;

  /// `after - before` for registry key `k` (0 when absent).
  static double delta(const Counters& after, const Counters& before,
                      const std::string& k);
};

/// Snapshots the counters of one assembled stack.
class CounterProbe {
 public:
  CounterProbe(Stack& stack, tinca::shard::ShardedTinca& sharded,
               const ModelClock& model);
  [[nodiscard]] Counters read() const;
  /// Sum of the shards' cache capacities, in blocks.
  [[nodiscard]] std::uint64_t capacity_blocks() const;

 private:
  Stack& stack_;
  tinca::shard::ShardedTinca& sharded_;
  const ModelClock& model_;
  tinca::obs::MetricsRegistry reg_;
};

/// One assembled stack of the fixed set-up with the benchmark's probes on
/// it.  Not copyable or movable: the probes hold references into it.
struct StackRig {
  explicit StackRig(tinca::backend::StackKind kind);
  StackRig(const StackRig&) = delete;
  StackRig& operator=(const StackRig&) = delete;

  StackConfig cfg;
  Stack stack;
  tinca::shard::ShardedTinca& sharded;
  ModelClock model;
  CounterProbe probe;
};

// --- Inputs and the oracle ------------------------------------------------------

/// Block contents as a function of (block, version): a 16 B header naming
/// both, then 4080 B of a seeded random pool at an offset the pair selects.
/// Version 0 is the all-zero block a fresh disk returns.
class BlockContent {
 public:
  explicit BlockContent(std::uint64_t seed);
  void fill(std::uint64_t blkno, std::uint32_t version,
            std::span<std::byte> dst) const;
  /// Whether `got` is exactly the contents of (blkno, version).
  [[nodiscard]] bool matches(std::uint64_t blkno, std::uint32_t version,
                             std::span<const std::byte> got) const;
  /// Version named in a block's header.
  static std::uint32_t version_of(std::span<const std::byte> got);

 private:
  [[nodiscard]] std::size_t body_offset(std::uint64_t blkno,
                                        std::uint32_t version) const;
  std::vector<std::byte> pool_;
};

/// Byte stream of a file as a function of (file id, offset), so a file
/// written once and appended to can be checked from its id and size alone.
class FileContent {
 public:
  static constexpr std::size_t kMaxFile = 128 * 1024;
  explicit FileContent(std::uint64_t seed);
  [[nodiscard]] std::span<const std::byte> bytes(std::uint64_t file_id,
                                                 std::uint64_t offset,
                                                 std::size_t len) const;

 private:
  std::vector<std::byte> pool_;
};

// --- Run skeleton ---------------------------------------------------------------

/// What one measured window produced.
struct Window {
  std::vector<std::unique_ptr<Recorder>> recs;  ///< one per client thread
  Counters before, after;
  std::uint64_t ops = 0;         ///< client ops finished
  std::uint64_t txns = 0;        ///< durable commits / fsyncs
  std::uint64_t user_bytes = 0;  ///< bytes of user data made durable
  Samples op_host, commit_host, commit_model, read_host;
  double cross_shard_frac = 0.0;          ///< oltp, hot_reads
  double blocks_staged_per_fsync = 0.0;   ///< fs_varmail
};

/// One workload: builds and warms its stack, runs windows of client ops,
/// then crashes the stack and checks what recovery kept.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build, preload and warm the stack (timed as set-up).
  virtual void setup(Result& r) = 0;
  /// Client ops one second of the run budget buys (the window length is a
  /// fixed op count, so model and count fields repeat for a seed).
  [[nodiscard]] virtual double ops_per_budget_second() const = 0;
  /// Run `ops` client ops.
  virtual void window(std::uint64_t ops, bool trace, Window& w, Result& r) = 0;
  /// Power-cut the NVM (no unflushed line survives), remount through the
  /// backend's recover, and check every acknowledged write.  Returns the
  /// model ms and host ms of the remount.
  virtual std::pair<double, double> crash_and_verify(Result& r) = 0;
  [[nodiscard]] virtual std::string describe_setup() const = 0;
  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;
};

/// Set up (several times), measure, crash, verify, report.
Result run_workload(const Options& o,
                    const std::function<std::unique_ptr<Workload>()>& make);

/// Warm-up governor (call chunk_done once before the first chunk, then
/// after each).  Set-up ends after at least `min_chunks` once the cleaners
/// have retired `cycle_blocks` (the smaller of the cache and the working
/// set) and the disk write amplification has levelled off (the mean over
/// the last four chunks within 5 % of the four before), or after
/// `max_chunks`.  The minimum lets the workload's state reach its steady
/// mix, so the warm-up length, and with it set-up time, hardly depends on
/// the seed.
class Levelling {
 public:
  Levelling(std::uint64_t cycle_blocks, std::uint32_t min_chunks,
            std::uint32_t max_chunks)
      : cycle_(cycle_blocks), min_chunks_(min_chunks), max_chunks_(max_chunks) {}
  /// Feed the counters after one chunk and the user blocks it committed;
  /// true once warm.
  bool chunk_done(const Counters& now, std::uint64_t user_blocks);
  [[nodiscard]] std::uint32_t chunks() const { return chunks_; }

 private:
  std::uint64_t cycle_;
  std::uint32_t min_chunks_;
  std::uint32_t max_chunks_;
  std::uint32_t chunks_ = 0;
  std::optional<Counters> start_, last_;
  std::vector<double> was_;  ///< disk write amplification per chunk
};

/// Peak resident set of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
