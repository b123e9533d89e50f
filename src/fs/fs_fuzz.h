// File-system-level fault-fuzz / model-check harness for MiniFs, shared by
// tests/fs_fuzz_test.cc and bench/bench_fs_fuzz_sweep.cc.
//
// Where src/backend/fault_fuzz.h checks the *block* transactional contract,
// this harness checks the contract the paper actually sells (§2.3, §5.1):
// run a file system over the cache stack, cut power at arbitrary points,
// and after recovery the visible tree must equal the application's view at
// some fsync boundary — the last committed compound transaction, or
// committed + the one transaction that was mid-commit — and fsck() must be
// clean.
//
// Mechanics: each schedule builds a fresh stack (SimClock → NvmDevice →
// MemBlockDevice ← FaultyBlockDevice), wraps the backend in a recording shim
// that fingerprints every committed compound transaction, then drives MiniFs
// with a random, model-validated op history (create/mkdir/remove/rename/
// write/append/truncate/read/fsync, path- and size-skewed).  A DRAM
// reference model (a literal tree of directories and byte vectors) is
// updated in lockstep, and snapshotted at every commit boundary the shim
// observes.  After a crash (armed CrashInjector point/torn step or a random
// torn disk write) the NVM loses a random fraction of unflushed lines, the
// backend recovers, and the harness:
//
//   1. matches the recovered *block image* against the acceptable histories
//      (committed, or committed + in-flight txn) — for EVERY backend: a
//      cross-shard transaction is anchored to one atomic commit record
//      (DESIGN.md §15), so no shard-prefix states are acceptable;
//   2. for a match, mounts the file system and checks the recovered tree
//      against the corresponding model snapshot, and runs the strengthened
//      fsck() which must be clean.
//
// A sweep mode (run_fs_crash_sweep) replays one fixed op script and steps
// the injector through every NVM-store point and every torn disk-write site
// inside the script's final mutation batch + compound commit.
//
// Only the workload, the reference model and the fs-level oracle live here;
// options, stack construction, crash arming, recovery, media checks, the
// recording shim, the snapshot-pin oracle, the block-image check and
// reproduce tags come from the campaign frame in src/backend/fuzz_common.h,
// shared with the block-level harness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/fuzz_common.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "fs/minifs.h"

namespace tinca::fs {

/// Deliberate corruption for the fs-level oracle's self-tests ("does it
/// catch corruption the block image check cannot?").  kNone in every real
/// campaign.  Stack-level sabotage (cleaner, commit record) is set through
/// CampaignOptions::sabotage like in the block harness.
enum class FsSabotage : std::uint8_t {
  kNone = 0,
  /// After the final fsync, overwrite one committed *data* block behind
  /// MiniFs's back, updating the shim's bookkeeping so the block-image check
  /// passes.  Only the tree-vs-model comparison can catch it.
  kCorruptData,
  /// Same, but flip bits in the block allocation bitmap.  Only fsck()'s
  /// bitmap cross-check can catch it.
  kCorruptBitmap,
};

/// Parameters of one fs-level campaign: the shared campaign options plus the
/// MiniFs workload's shape.
struct FsFuzzOptions : backend::CampaignOptions {
  FsFuzzOptions() {
    schedules = 100;
    // One fs op issues dozens of block ops, so the per-block-op fault rates
    // sit below the block harness's.
    transient_read_rate = 0.005;
    transient_write_rate = 0.01;
    bad_sector_rate = 0.0005;
    torn_write_rate = 0.0005;
  }
  /// File-system operations attempted per schedule.
  std::uint32_t ops_per_schedule = 36;
  /// MiniFs knobs: small inode table (fast mkfs) and a short group-commit
  /// window (many small compound txns → many commit boundaries to cut).
  std::uint64_t inode_count = 512;
  std::uint64_t group_commit_ops = 6;
  /// Oracle self-test hook; leave kNone outside harness self-tests.
  FsSabotage fs_sabotage = FsSabotage::kNone;
};

/// Campaign outcome.  `violations` and `fsck_dirty` are the failure signals
/// (must both be 0); everything else is telemetry.
struct FsFuzzReport : backend::FuzzReport {
  std::uint64_t mkfs_crashes = 0;    ///< crashes during mkfs itself
  std::uint64_t fsck_runs = 0;
  std::uint64_t fsck_dirty = 0;      ///< fsck reports with problems (must be 0)
  std::uint64_t ops_executed = 0;
  std::uint64_t txns_committed = 0;
  /// Sweep mode only: how many injector steps each sweep covered.
  std::uint64_t sweep_points = 0;
  std::uint64_t sweep_torn_points = 0;
};

namespace detail {

using backend::detail::fuzz_mix;

// --- Reference model --------------------------------------------------------

/// A literal in-DRAM tree: what the file system should look like.
struct ModelNode {
  bool dir = false;
  std::vector<std::byte> data;             // files only
  std::map<std::string, ModelNode> kids;   // dirs only (sorted → stable)
};

/// One generated file-system operation.
struct FsOp {
  enum Kind : std::uint8_t {
    kCreate,
    kMkdir,
    kRemove,
    kRename,
    kWrite,
    kAppend,
    kTruncate,
    kRead,
    kFsync,
  };
  Kind kind = kFsync;
  std::string a;            // primary path
  std::string b;            // rename destination
  std::uint64_t offset = 0; // write/read
  std::uint64_t size = 0;   // write/append/truncate/read length
  std::uint64_t pattern = 0;  // payload seed for write/append
};

inline const char* fs_op_name(FsOp::Kind k) {
  switch (k) {
    case FsOp::kCreate: return "create";
    case FsOp::kMkdir: return "mkdir";
    case FsOp::kRemove: return "remove";
    case FsOp::kRename: return "rename";
    case FsOp::kWrite: return "write";
    case FsOp::kAppend: return "append";
    case FsOp::kTruncate: return "truncate";
    case FsOp::kRead: return "read";
    case FsOp::kFsync: return "fsync";
  }
  return "?";
}

inline ModelNode* model_find(ModelNode& root, const std::string& path) {
  ModelNode* n = &root;
  std::size_t at = 0;
  while (at < path.size()) {
    if (path[at] == '/') {
      ++at;
      continue;
    }
    const std::size_t end = std::min(path.find('/', at), path.size());
    const std::string name = path.substr(at, end - at);
    if (!n->dir) return nullptr;
    const auto it = n->kids.find(name);
    if (it == n->kids.end()) return nullptr;
    n = &it->second;
    at = end;
  }
  return n;
}

inline ModelNode* model_parent(ModelNode& root, const std::string& path,
                               std::string* leaf) {
  const std::size_t slash = path.find_last_of('/');
  *leaf = path.substr(slash + 1);
  return model_find(root, path.substr(0, slash));
}

inline void model_apply(ModelNode& root, const FsOp& op) {
  std::string leaf;
  switch (op.kind) {
    case FsOp::kCreate:
      model_parent(root, op.a, &leaf)->kids[leaf] = ModelNode{};
      break;
    case FsOp::kMkdir: {
      ModelNode d;
      d.dir = true;
      model_parent(root, op.a, &leaf)->kids[leaf] = std::move(d);
      break;
    }
    case FsOp::kRemove:
      model_parent(root, op.a, &leaf)->kids.erase(leaf);
      break;
    case FsOp::kRename: {
      ModelNode* from_parent = model_parent(root, op.a, &leaf);
      auto node = from_parent->kids.extract(leaf);
      ModelNode* to_parent = model_parent(root, op.b, &leaf);
      node.key() = leaf;
      to_parent->kids.insert(std::move(node));
      break;
    }
    case FsOp::kWrite:
    case FsOp::kAppend: {
      ModelNode* n = model_find(root, op.a);
      const std::uint64_t off =
          op.kind == FsOp::kAppend ? n->data.size() : op.offset;
      if (n->data.size() < off + op.size) n->data.resize(off + op.size);
      fill_pattern(std::span<std::byte>(n->data.data() + off, op.size),
                   op.pattern);
      break;
    }
    case FsOp::kTruncate:
      model_find(root, op.a)->data.resize(op.size);
      break;
    case FsOp::kRead:
    case FsOp::kFsync:
      break;
  }
}

/// Apply `op` to the real file system (kRead and the model check are the
/// caller's job — they need the model).
inline void fs_apply(MiniFs& f, const FsOp& op) {
  switch (op.kind) {
    case FsOp::kCreate:
      f.create(op.a);
      break;
    case FsOp::kMkdir:
      f.mkdir(op.a);
      break;
    case FsOp::kRemove:
      f.remove(op.a);
      break;
    case FsOp::kRename:
      f.rename(op.a, op.b);
      break;
    case FsOp::kWrite:
    case FsOp::kAppend: {
      std::vector<std::byte> bytes(op.size);
      fill_pattern(bytes, op.pattern);
      if (op.kind == FsOp::kWrite)
        f.write(op.a, op.offset, bytes);
      else
        f.append(op.a, bytes);
      break;
    }
    case FsOp::kTruncate:
      f.truncate(op.a, op.size);
      break;
    case FsOp::kRead:
      break;
    case FsOp::kFsync:
      f.fsync();
      break;
  }
}

inline void model_paths(const ModelNode& n, const std::string& p,
                        std::vector<std::string>* dirs,
                        std::vector<std::string>* files) {
  if (n.dir) {
    dirs->push_back(p.empty() ? "/" : p);
    for (const auto& [name, kid] : n.kids)
      model_paths(kid, p + "/" + name, dirs, files);
  } else {
    files->push_back(p);
  }
}

inline std::string path_join(const std::string& dir, const std::string& name) {
  return dir == "/" ? "/" + name : dir + "/" + name;
}

/// Workload-shaping caps.  The generator stays far below the file system's
/// block/inode capacity by construction: MiniFs ops are not exception-atomic
/// under ENOSPC-style contract violations, so a correctness fuzzer must not
/// trigger them (the wedge/capacity behavior is the block harness's beat).
struct GenCtx {
  std::uint64_t name_ctr = 0;
  std::uint64_t pat_ctr = 0;
  std::uint64_t sseed = 0;
  static constexpr std::uint64_t kMaxFileBytes = 120 * 1024;
  static constexpr std::size_t kMaxFiles = 32;
  static constexpr std::size_t kMaxDirs = 10;
  static constexpr int kMaxDepth = 3;
};

/// Generate the next valid operation.  Every draw is validated against the
/// model so the op cannot fail for namespace reasons; notably rename never
/// moves a directory into its own subtree (MiniFs accepts that and orphans
/// the subtree — a known sharp edge, excluded from generation the same way
/// real callers are expected to avoid it).
inline FsOp gen_op(Rng& rng, ModelNode& model, GenCtx& ctx) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::vector<std::string> dirs, files;
    model_paths(model, "", &dirs, &files);
    const std::uint64_t roll = rng.below(100);
    FsOp op;
    if (roll < 18) {  // create
      if (files.size() >= GenCtx::kMaxFiles) continue;
      const std::string& dir = dirs[rng.below(dirs.size())];
      op.kind = FsOp::kCreate;
      op.a = path_join(dir, "f" + std::to_string(ctx.name_ctr++));
      return op;
    } else if (roll < 26) {  // mkdir
      if (dirs.size() >= GenCtx::kMaxDirs) continue;
      const std::string& dir = dirs[rng.below(dirs.size())];
      const int depth =
          static_cast<int>(std::count(dir.begin(), dir.end(), '/'));
      if (depth >= GenCtx::kMaxDepth) continue;
      op.kind = FsOp::kMkdir;
      op.a = path_join(dir, "d" + std::to_string(ctx.name_ctr++));
      return op;
    } else if (roll < 48) {  // write (occasionally large → indirect block)
      if (files.empty()) continue;
      op.kind = FsOp::kWrite;
      op.a = files[rng.below(files.size())];
      const std::uint64_t cur = model_find(model, op.a)->data.size();
      op.size = rng.chance(0.12) ? 16384 + rng.below(65536)
                                 : 1 + rng.below(6000);
      op.offset = rng.below(cur + 2048);
      if (op.offset + op.size > GenCtx::kMaxFileBytes) {
        op.offset = 0;
        op.size = std::min(op.size, GenCtx::kMaxFileBytes);
      }
      op.pattern = fuzz_mix(ctx.sseed, ++ctx.pat_ctr);
      return op;
    } else if (roll < 58) {  // append
      if (files.empty()) continue;
      op.kind = FsOp::kAppend;
      op.a = files[rng.below(files.size())];
      const std::uint64_t cur = model_find(model, op.a)->data.size();
      op.size = 1 + rng.below(4000);
      if (cur + op.size > GenCtx::kMaxFileBytes) continue;
      op.pattern = fuzz_mix(ctx.sseed, ++ctx.pat_ctr);
      return op;
    } else if (roll < 66) {  // truncate (shrink or extend-with-hole)
      if (files.empty()) continue;
      op.kind = FsOp::kTruncate;
      op.a = files[rng.below(files.size())];
      const std::uint64_t cur = model_find(model, op.a)->data.size();
      op.size = rng.chance(0.5) ? rng.below(cur + 1)
                                : rng.below(GenCtx::kMaxFileBytes);
      return op;
    } else if (roll < 74) {  // remove
      if (files.empty()) continue;
      op.kind = FsOp::kRemove;
      op.a = files[rng.below(files.size())];
      return op;
    } else if (roll < 82) {  // rename (file or dir, fresh destination name)
      std::vector<std::string> movable = files;
      for (const std::string& d : dirs)
        if (d != "/") movable.push_back(d);
      if (movable.empty()) continue;
      const std::string& src = movable[rng.below(movable.size())];
      const std::string& dst_dir = dirs[rng.below(dirs.size())];
      // Never move a node into its own subtree (or onto itself).
      if (dst_dir == src ||
          (dst_dir.size() > src.size() &&
           dst_dir.compare(0, src.size(), src) == 0 &&
           dst_dir[src.size()] == '/'))
        continue;
      op.kind = FsOp::kRename;
      op.a = src;
      op.b = path_join(dst_dir, "r" + std::to_string(ctx.name_ctr++));
      return op;
    } else if (roll < 92) {  // read (checked live against the model)
      if (files.empty()) continue;
      op.kind = FsOp::kRead;
      op.a = files[rng.below(files.size())];
      const std::uint64_t cur = model_find(model, op.a)->data.size();
      op.offset = rng.below(cur + 1);
      op.size = 1 + rng.below(8192);
      return op;
    } else {
      op.kind = FsOp::kFsync;
      return op;
    }
  }
  return FsOp{};  // fsync — always valid
}

// --- Verification -----------------------------------------------------------

/// Compare the mounted tree under `path` against the model node.
inline bool tree_matches(MiniFs& f, const ModelNode& n, const std::string& path,
                         std::string* why) {
  const std::string at = path.empty() ? "/" : path;
  if (n.dir) {
    std::vector<std::string> names = f.list(at);
    std::sort(names.begin(), names.end());
    std::vector<std::string> want;
    want.reserve(n.kids.size());
    for (const auto& [name, kid] : n.kids) want.push_back(name);
    if (names != want) {
      *why = "directory " + at + " listing mismatch";
      return false;
    }
    for (const auto& [name, kid] : n.kids)
      if (!tree_matches(f, kid, path + "/" + name, why)) return false;
    return true;
  }
  const std::uint64_t size = f.file_size(at);
  if (size != n.data.size()) {
    *why = "file " + at + " size " + std::to_string(size) + " != model " +
           std::to_string(n.data.size());
    return false;
  }
  std::vector<std::byte> got(n.data.size());
  if (f.read(at, 0, got) != n.data.size()) {
    *why = "file " + at + " short read";
    return false;
  }
  if (fingerprint(got) != fingerprint(n.data)) {
    *why = "file " + at + " content mismatch";
    return false;
  }
  return true;
}

/// Run one schedule end to end, folding results into `rep`.
///
///  * `script == nullptr` → generate ops from the schedule seed;
///    otherwise replay `*script` verbatim (sweep mode).
///  * `arm_kind`: 0 none, 1 random (draws from rng), 2 point@arm_step,
///    3 torn@arm_step.  Deterministic arms are set when op index
///    `mark_at_op` is reached (the injector counters reset there), so sweep
///    steps are relative to the start of the final mutation batch.
///  * `zero_faults` disables random disk faults (sweep mode: step numbering
///    must be identical across replays).
///
/// Returns the number of point()/point_torn() steps observed after
/// `mark_at_op` (used by the sweep's learning pass).
struct ScheduleOutcome {
  std::uint64_t marked_points = 0;
  std::uint64_t marked_torn = 0;
};

inline ScheduleOutcome run_fs_schedule(const FsFuzzOptions& opts,
                                       std::uint64_t sched,
                                       std::uint64_t sseed,
                                       const std::vector<FsOp>* script,
                                       int arm_kind, std::uint64_t arm_step,
                                       std::size_t mark_at_op,
                                       bool zero_faults, FsFuzzReport& rep) {
  using backend::ScheduleEnd;
  // 1 MB per Tinca cache or shard: MiniFs needs a compound-transaction budget
  // of ≥ 64 blocks (Tinca's is half its data slots, UBJ's a third), yet a
  // busy schedule still evicts and writes back under fault pressure.
  const backend::FuzzHarness harness{1ull << 20, 0xFB02, 600, 60};
  backend::FuzzSchedule s(opts, harness, sched, sseed, rep, !zero_faults);
  Rng& rng = s.rng;
  backend::RecordingBackend shim(*s.be);

  MiniFsConfig fscfg;
  fscfg.inode_count = opts.inode_count;
  fscfg.group_commit_ops = opts.group_commit_ops;

  const auto set_arm = [&] {
    if (arm_kind == 1) {
      s.arm_random();
    } else if (arm_kind == 2) {
      s.arm_point(arm_step);
    } else if (arm_kind == 3) {
      s.arm_torn(arm_step);
    } else {
      // Learning pass: reset both counters so steps are measured from here.
      s.nvm.injector.disarm();
      s.nvm.injector.disarm_torn();
    }
  };

  // --- mkfs -----------------------------------------------------------------
  // mark_at_op == 0 arms before mkfs (fuzz mode: mkfs itself is in scope).
  if (mark_at_op == 0) set_arm();

  std::unique_ptr<MiniFs> fsys;
  ScheduleEnd end = s.run([&] { fsys = MiniFs::mkfs(shim, fscfg); },
                          [] { return std::string("mkfs failed: "); });
  const bool mkfs_done = fsys != nullptr;

  ModelNode live;
  live.dir = true;
  ModelNode committed_model = live;  // model at the last commit boundary
  std::uint64_t last_boundary = shim.boundaries();
  GenCtx ctx;
  ctx.sseed = sseed;
  FsOp last_op;  // the op interrupted by a crash (if any)
  bool op_in_flight = false;
  // Snapshot oracle (DESIGN.md §12): pin one fsync boundary mid-workload
  // and hold it across later compound commits.
  backend::SnapshotPin pin;
  std::uint64_t pin_close_boundary = 0;

  // --- workload -------------------------------------------------------------
  const auto workload = [&] {
    const std::size_t total_ops =
        script ? script->size() : opts.ops_per_schedule;
    for (std::size_t i = 0; i < total_ops; ++i) {
      if (i == mark_at_op && mark_at_op != 0) set_arm();
      FsOp op = script ? (*script)[i] : gen_op(rng, live, ctx);
      last_op = op;
      op_in_flight = true;
      if (op.kind == FsOp::kRead) {
        std::vector<std::byte> got(op.size);
        const std::size_t nread = fsys->read(op.a, op.offset, got);
        const ModelNode* n = model_find(live, op.a);
        const std::uint64_t msize = n->data.size();
        const std::size_t expect =
            op.offset >= msize
                ? 0
                : static_cast<std::size_t>(
                      std::min<std::uint64_t>(op.size, msize - op.offset));
        if (nread != expect ||
            (expect != 0 &&
             std::memcmp(got.data(), n->data.data() + op.offset, expect) !=
                 0)) {
          s.violation("live read of " + op.a + " disagrees with the model");
          break;
        }
      } else {
        fs_apply(*fsys, op);
        model_apply(live, op);
      }
      op_in_flight = false;
      ++rep.ops_executed;
      if (shim.boundaries() != last_boundary) {
        last_boundary = shim.boundaries();
        committed_model = live;  // new fsync boundary reached
      }
      // Snapshot oracle — fuzz mode only: the sweep's step numbering must
      // stay identical across its learning and replay passes, and pinned
      // snapshots shift when deferred writebacks reach the disk.
      if (!script && shim.supports_snapshots()) {
        if (!pin.open && shim.boundaries() != 0 && rng.chance(0.15)) {
          pin.pin(shim);
          pin_close_boundary = shim.boundaries() + 2;
        } else if (pin.open) {
          if (!pin.probe(s, shim, 2)) break;
          if (shim.boundaries() >= pin_close_boundary) pin.close(shim);
        }
      }
    }
    // Close the history at a boundary so the clean path verifies a
    // well-defined state (sweep scripts end with their own fsync).
    if (!script) fsys->fsync();
    if (shim.boundaries() != last_boundary) {
      last_boundary = shim.boundaries();
      committed_model = live;
    }
  };
  if (mkfs_done) {
    end = s.run(workload, [&] {
      return std::string(fs_op_name(last_op.kind)) + " failed: ";
    });
  }

  const ScheduleOutcome out{s.nvm.injector.steps_seen(),
                            s.nvm.injector.torn_steps_seen()};
  pin.release(shim);
  s.quiesce();
  rep.txns_committed += shim.boundaries();

  if (end == ScheduleEnd::kWedged) return out;
  // Campaign already drowning: skip the expensive verification.
  if (rep.violations != 0 && rep.violation_messages.size() >= 16) return out;

  // --- crash / recovery -----------------------------------------------------
  // The interrupted op (if any) defines the "committed + 1" candidate: if
  // the cut landed mid-commit and the commit actually published, the visible
  // tree is the model *with* that op applied.
  const bool interrupted =
      end == ScheduleEnd::kCrashed || end == ScheduleEnd::kIoError;
  if (interrupted) {
    fsys.reset();
    if (end == ScheduleEnd::kCrashed) {
      if (!mkfs_done) ++rep.mkfs_crashes;
      if (!s.crash_and_recover()) return out;
    } else if (!s.remount("recovery")) {
      return out;
    }
  }
  bool remounted = interrupted;

  // --- sabotage (oracle self-test, clean schedules only) --------------------
  if (!interrupted && mkfs_done && opts.fs_sabotage != FsSabotage::kNone) {
    try {
      const MiniFs::Geometry& g = fsys->geometry();
      std::vector<std::byte> junk(blockdev::kBlockSize);
      fill_pattern(junk, fuzz_mix(sseed, 0x5AB0));
      if (opts.fs_sabotage == FsSabotage::kCorruptData) {
        // Highest committed data block — some file's payload or a directory.
        std::uint64_t victim = 0;
        for (const auto& [blkno, fp] : shim.committed())
          if (blkno >= g.data_start) victim = blkno;
        if (victim != 0) shim.sabotage_block(victim, junk);
      } else {
        shim.sabotage_block(g.bbmap_start, junk);
      }
      // The corruption lives on media; MiniFs's in-DRAM bitmaps and the
      // backend cache would mask it, so force the remount path below.
      fsys.reset();
      if (!s.remount("sabotage setup")) return out;
      remounted = true;
    } catch (const std::exception& e) {
      s.violation(std::string("sabotage setup failed: ") + e.what());
      return out;
    }
  }

  // --- verification ---------------------------------------------------------
  try {
    // Both candidate images are fsync boundaries: 0 = committed, 1 =
    // committed + the interrupted txn.
    std::string why;
    const int matched = backend::match_history(*s.be, shim, interrupted, &why);
    if (matched < 0) {
      s.violation("recovered image matches no acceptable history (" + why +
                  ")");
      return out;
    }

    if (!mkfs_done) {
      // Crash during mkfs: the image is consistent; the volume is only
      // required to mount if the *final* mkfs transaction (superblock +
      // root) published.  A failed mount of a half-formatted device is the
      // documented outcome, not a violation.
      try {
        std::unique_ptr<MiniFs> m = MiniFs::mount(*s.be, fscfg);
        ++rep.fsck_runs;
        const FsckReport fr = m->fsck();
        if (!fr.ok) {
          ++rep.fsck_dirty;
          s.violation("fsck dirty after mkfs crash: " + fr.summary());
        } else if (!m->list("/").empty()) {
          s.violation("mkfs crash recovered to a non-empty root");
        }
      } catch (const ContractViolation&) {
        // Not a mountable MiniFs volume — acceptable for a torn format.
      }
      return out;
    }

    // Full fsync boundary: the mounted tree must equal the model snapshot.
    // A crash can also land *after* a commit published but before the op
    // returned — e.g., inside the cleaner's post-commit quantum.  Then the
    // pending set is empty but the boundary count advanced past the last
    // snapshot, and the new boundary's tree is the live model plus the
    // interrupted op (MiniFs commits are the final mutating action of an
    // op), i.e. exactly the role-1 construction.
    const bool committed_then_crashed =
        matched == 0 && interrupted && shim.boundaries() != last_boundary;
    const ModelNode* want = &committed_model;
    ModelNode committed_plus;
    if (matched == 1 || committed_then_crashed) {
      // The interrupted txn carries every op since the previous boundary,
      // ending with the in-flight one: that is exactly the live model (plus
      // the interrupted op, which validated against the live model).
      committed_plus = live;
      if (op_in_flight && last_op.kind != FsOp::kRead &&
          last_op.kind != FsOp::kFsync) {
        model_apply(committed_plus, last_op);
      }
      want = &committed_plus;
    }

    if (remounted) fsys = MiniFs::mount(*s.be, fscfg);
    ++rep.fsck_runs;
    const FsckReport fr = fsys->fsck();
    if (!fr.ok) {
      ++rep.fsck_dirty;
      s.violation("fsck dirty: " + fr.summary());
    }
    if (!tree_matches(*fsys, *want, "", &why)) {
      s.violation("recovered tree diverges from the model (" + why + ")");
    }
    // Live instance verified; also exercise the crash-free recover+mount
    // round trip half the time.
    if (!remounted && rng.chance(0.5)) {
      ++rep.clean_remounts;
      fsys.reset();
      if (!s.remount("clean remount")) return out;
      fsys = MiniFs::mount(*s.be, fscfg);
      ++rep.fsck_runs;
      const FsckReport fr2 = fsys->fsck();
      if (!fr2.ok) {
        ++rep.fsck_dirty;
        s.violation("fsck dirty after clean remount: " + fr2.summary());
      }
      if (!tree_matches(*fsys, *want, "", &why)) {
        s.violation("clean remount lost data (" + why + ")");
      }
    }
  } catch (const std::exception& e) {
    s.violation(std::string("verification threw: ") + e.what());
  }
  return out;
}

/// Fixed op script for the crash-point sweep: a committed setup phase, then
/// one batch of mutations (rename, shrinking truncate, append, remove,
/// create+write) staged into a single compound transaction and committed by
/// the final fsync.  `batch_at` receives the index of the first batch op —
/// the sweep arms (and the learning pass measures) from there.
inline std::vector<FsOp> sweep_script(std::uint64_t seed,
                                      std::size_t* batch_at) {
  const auto pat = [seed](std::uint64_t k) { return fuzz_mix(seed, k); };
  const auto w = [&](const char* path, std::uint64_t off, std::uint64_t len,
                     std::uint64_t k) {
    FsOp op;
    op.kind = FsOp::kWrite;
    op.a = path;
    op.offset = off;
    op.size = len;
    op.pattern = pat(k);
    return op;
  };
  const auto simple = [](FsOp::Kind kind, const char* a, const char* b = "") {
    FsOp op;
    op.kind = kind;
    op.a = a;
    op.b = b;
    return op;
  };
  std::vector<FsOp> script;
  // Setup: two directories, four files (one spilling into its single
  // indirect block), fsync'd in small groups so setup spans several
  // committed transactions.
  script.push_back(simple(FsOp::kMkdir, "/d0"));
  script.push_back(simple(FsOp::kMkdir, "/d1"));
  script.push_back(simple(FsOp::kFsync, ""));
  script.push_back(simple(FsOp::kCreate, "/d0/a"));
  script.push_back(w("/d0/a", 0, 30 * 1024, 1));
  script.push_back(simple(FsOp::kFsync, ""));
  script.push_back(simple(FsOp::kCreate, "/d0/b"));
  script.push_back(w("/d0/b", 0, 90 * 1024, 2));  // > 48 KB → indirect
  script.push_back(simple(FsOp::kFsync, ""));
  script.push_back(simple(FsOp::kCreate, "/d1/c"));
  script.push_back(w("/d1/c", 0, 6000, 3));
  script.push_back(simple(FsOp::kCreate, "/big"));
  script.push_back(w("/big", 0, 100 * 1024, 4));
  script.push_back(simple(FsOp::kFsync, ""));
  *batch_at = script.size();
  // Mutation batch: every structural op class in one compound commit.
  script.push_back(w("/d0/a", 1000, 9000, 5));
  script.push_back(simple(FsOp::kRename, "/d0/a", "/d1/a2"));
  FsOp tr;
  tr.kind = FsOp::kTruncate;
  tr.a = "/d0/b";
  tr.size = 8 * 1024;  // shrinks back out of the indirect block
  script.push_back(tr);
  FsOp ap;
  ap.kind = FsOp::kAppend;
  ap.a = "/d1/c";
  ap.size = 5000;
  ap.pattern = pat(6);
  script.push_back(ap);
  script.push_back(simple(FsOp::kRemove, "/big"));
  script.push_back(simple(FsOp::kCreate, "/d0/new"));
  script.push_back(w("/d0/new", 0, 4096, 7));
  script.push_back(simple(FsOp::kFsync, ""));
  return script;
}

}  // namespace detail

/// Run the randomized campaign.  Never throws for injected faults — every
/// anomaly is classified into the report.
inline FsFuzzReport run_fs_fuzz(const FsFuzzOptions& opts) {
  FsFuzzReport rep;
  const std::uint64_t last =
      static_cast<std::uint64_t>(opts.first_schedule) + opts.schedules;
  for (std::uint64_t sched = opts.first_schedule; sched < last; ++sched) {
    const std::uint64_t sseed = detail::fuzz_mix(opts.seed, sched);
    detail::run_fs_schedule(opts, sched, sseed, nullptr, /*arm_kind=*/1,
                            /*arm_step=*/0, /*mark_at_op=*/0,
                            /*zero_faults=*/false, rep);
  }
  return rep;
}

/// Crash-point sweep: replay one fixed script (fault-free, so step numbering
/// is stable), learning how many NVM-store points and torn disk-write sites
/// the final mutation batch + compound commit passes, then re-run once per
/// step (stride-able) with the injector armed exactly there.  Covers every
/// persistence site inside one compound commit, plus the cache traffic of
/// staging it.
inline FsFuzzReport run_fs_crash_sweep(const FsFuzzOptions& opts,
                                       std::uint32_t stride = 1) {
  FsFuzzReport rep;
  std::size_t batch_at = 0;
  const std::vector<detail::FsOp> script =
      detail::sweep_script(opts.seed, &batch_at);
  const std::uint32_t step_stride = std::max<std::uint32_t>(1, stride);

  // Learning pass: run clean, counters reset at the batch boundary.
  const detail::ScheduleOutcome learn = detail::run_fs_schedule(
      opts, /*sched=*/0, detail::fuzz_mix(opts.seed, 0xD0), &script,
      /*arm_kind=*/0, /*arm_step=*/0, batch_at, /*zero_faults=*/true, rep);
  rep.sweep_points = learn.marked_points;
  rep.sweep_torn_points = learn.marked_torn;

  for (std::uint64_t step = 1; step <= learn.marked_points;
       step += step_stride) {
    detail::run_fs_schedule(opts, step, detail::fuzz_mix(opts.seed, step),
                            &script, /*arm_kind=*/2, step, batch_at,
                            /*zero_faults=*/true, rep);
  }
  for (std::uint64_t step = 1; step <= learn.marked_torn;
       step += step_stride) {
    detail::run_fs_schedule(opts, step,
                            detail::fuzz_mix(opts.seed, 0x70000000ULL + step),
                            &script, /*arm_kind=*/3, step, batch_at,
                            /*zero_faults=*/true, rep);
  }
  return rep;
}

}  // namespace tinca::fs
