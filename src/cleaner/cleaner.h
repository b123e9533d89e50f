// Deterministic background cleaner: retires dirty blocks off the commit path.
//
// Every write-back cache in this repository eventually pays a disk write for
// each dirty block; the question the cleaner answers is *when and on whose
// clock*.  Without it, the write is charged to the foreground commit that
// happens to trigger eviction, threshold cleaning or degraded write-through.
// With it, commits only enqueue (a DRAM push) and a drain pass — driven
// between commits — performs the disk writes, so the foreground path touches
// nothing slower than NVM until the cache genuinely runs out of space
// (DESIGN.md §11).
//
// The cleaner is deliberately *mechanism without policy knowledge*: it owns
// a bounded queue of opaque keys (Tinca: disk block numbers; UBJ: txn
// sequence numbers) and calls back into its CleanerClient to clean one key.
// The client does the cache-specific work — load the NVM copy, write it to
// disk durably, only then mark the entry clean — and classifies the outcome:
//
//   kRetired  the key's data is durable on disk; the dirty set shrank
//   kStale    the key no longer needs cleaning (evicted, re-frozen, clean)
//   kPinned   temporarily uncleanable (log-role block mid-commit): requeue
//   kFailed   the disk refused (bad sector / retries exhausted): back off
//             and retry later on the cleaner's budget, not the foreground's
//
// Crash safety is entirely the client's obligation and is the same argument
// as synchronous write-back: a block leaves the dirty set only *after* its
// disk write is durable, so a power cut mid-drain merely re-cleans on
// recovery (nothing is lost, something may be written twice).
//
// Two execution modes share this one code path:
//   * kStepped — step() is called explicitly from the harness event loop, so
//     fault-fuzz and crash sweeps stay bit-for-bit deterministic;
//   * kThread  — a real std::thread calls step() under the owner's mutex
//     (bench_shard_scale), for wall-clock concurrency measurements.
//
// Pacing: step() cleans nothing below the low watermark unless blocks are
// already queued (a trickle drains explicit requests), ramps up to
// kMaxBatchBlocks per step above the high watermark, and — when several
// cleaners share one Pacer (the sharded front-end) — competes for a global
// token budget so N shards don't multiply the background write rate by N.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/histogram.h"
#include "common/sim_clock.h"
#include "obs/trace.h"

namespace tinca::cleaner {

/// How the cleaner is driven (one shared code path — see file comment).
enum class CleanerMode : std::uint8_t {
  kDisabled = 0,  ///< no cleaner; caches write back inline (PR 4 behaviour)
  kStepped = 1,   ///< step() called from the harness loop (deterministic)
  kThread = 2,    ///< a std::thread calls step() (bench_shard_scale)
};

/// Client's verdict on one clean attempt.
enum class CleanOutcome : std::uint8_t {
  kRetired = 0,  ///< durable on disk, dirty set shrank
  kStale = 1,    ///< no longer dirty / no longer exists — drop silently
  kPinned = 2,   ///< uncleanable right now (mid-commit) — requeue
  kFailed = 3,   ///< disk refused — retry later with backoff
};

/// The cache-side half of the cleaner: cleans one key and exposes the dirty
/// ratio the watermarks act on.  All calls arrive on the cleaner's driving
/// context (the step() caller), which the owner serializes with its own
/// mutations — same single-writer discipline as the rest of the cache.
class CleanerClient {
 public:
  virtual ~CleanerClient() = default;

  /// Make `key` durable on disk and remove it from the dirty set (in that
  /// order — the crash-safety contract).  Transient-retry backoff spent here
  /// must be charged to `*io_retries`, NOT the client's foreground counter:
  /// that is what moves retry storms off the commit path's books.
  virtual CleanOutcome cleaner_clean(std::uint64_t key,
                                     std::uint64_t* io_retries) = 0;

  /// Current dirty-unit count and total capacity (same unit as keys' data).
  [[nodiscard]] virtual std::uint64_t cleaner_dirty_blocks() const = 0;
  [[nodiscard]] virtual std::uint64_t cleaner_capacity_blocks() const = 0;

  /// Append up to `max` dirty keys worth cleaning, oldest first, skipping
  /// keys already pending in the cleaner.  Must iterate a deterministic
  /// order (LRU list, checkpoint queue) — never an unordered container.
  virtual void cleaner_collect(std::uint32_t max,
                               std::vector<std::uint64_t>& out) = 0;
};

/// Fixed pacing policy (DESIGN.md §11).  None of these has a caller that
/// wants another value, so they are constants rather than config fields.
/// Bounded queue capacity: try_enqueue on a full queue returns false — the
/// block simply stays dirty and the watermark pull finds it later.
inline constexpr std::uint32_t kQueueCap = 256;
/// Blocks drained per step below the high watermark (explicit enqueues).
inline constexpr std::uint32_t kTricklePerStep = 4;
/// Max blocks drained per step above the high watermark.  Also the batch
/// window for coalescing contiguous disk blocks (the drain sorts each
/// batch, so ascending runs hit the disk's sequential fast path) and the
/// burst size of a shared Pacer.
inline constexpr std::uint32_t kMaxBatchBlocks = 16;
/// A kFailed key waits this many steps before its next attempt.
inline constexpr std::uint32_t kRetryBackoffSteps = 8;

/// Token bucket shared by several cleaners (one per shard): each step grants
/// a slice, each clean attempt takes one token, so the aggregate background
/// write rate stays bounded no matter how many shards are hot.  Thread-safe
/// (thread-mode cleaners pull from it concurrently).
class Pacer {
 public:
  /// `capacity` caps banked tokens (burst size); each of the `sharers`
  /// cleaners' steps grants a 1/sharers slice of it (at least one token).
  explicit Pacer(std::int64_t capacity, std::int64_t sharers = 1)
      : capacity_(capacity),
        step_grant_(std::max<std::int64_t>(1, capacity / sharers)) {}

  /// Deposit `n` tokens, clamped at capacity.
  void grant(std::int64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    tokens_ = std::min(capacity_, tokens_ + n);
  }

  /// Deposit one sharer's per-step slice.
  void grant_step() { grant(step_grant_); }

  /// Take one token; false when the bucket is empty.
  bool try_take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (tokens_ <= 0) return false;
    --tokens_;
    return true;
  }

  [[nodiscard]] std::int64_t tokens() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tokens_;
  }

 private:
  mutable std::mutex mu_;
  std::int64_t capacity_;
  std::int64_t step_grant_;
  std::int64_t tokens_ = 0;
};

/// Cleaner tunables (embedded in TincaConfig / UbjConfig).
struct CleanerConfig {
  CleanerMode mode = CleanerMode::kDisabled;
  /// Dirty-ratio watermarks in percent of capacity.  Above high: drain hard
  /// (up to kMaxBatchBlocks per step, pulling from the client as needed)
  /// until dirty drops toward low.  Below high: only trickle explicit
  /// enqueues.
  std::uint32_t low_water_pct = 20;
  std::uint32_t high_water_pct = 50;
  /// Thread-mode poll period (wall microseconds).
  std::uint32_t thread_poll_us = 200;
  /// Chrome-trace thread-track id (the sharded front-end sets it per shard).
  int trace_tid = 0;
  /// Oracle self-test only (fuzz harness): the client marks blocks clean
  /// WITHOUT writing them to disk.  The recovery oracle must catch this.
  bool sabotage_skip_write = false;
  /// Shared pacing budget; null = unpaced (single-cache deployments).
  std::shared_ptr<Pacer> pacer;
};

/// Cleaner counters (registered under "<layer>.cleaner.").
struct CleanerStats {
  std::uint64_t enqueued = 0;            ///< keys accepted by try_enqueue
  std::uint64_t dup_skips = 0;           ///< try_enqueue hits on pending keys
  std::uint64_t queue_rejects = 0;       ///< try_enqueue on a full queue
  std::uint64_t retired = 0;             ///< keys made durable + clean
  std::uint64_t stale_drops = 0;         ///< keys stale by clean time
  std::uint64_t pinned_requeues = 0;     ///< mid-commit keys requeued
  std::uint64_t failures = 0;            ///< kFailed outcomes
  std::uint64_t retries = 0;             ///< backed-off re-attempts issued
  std::uint64_t io_retries = 0;          ///< transient disk retries (client)
  std::uint64_t batches = 0;             ///< contiguous runs written
  std::uint64_t coalesced_blocks = 0;    ///< blocks inside runs of >= 2
  std::uint64_t backpressure_drains = 0; ///< foreground drain_blocking calls
  std::uint64_t pulls = 0;               ///< watermark pulls from the client
  std::uint64_t steps = 0;               ///< step() invocations
  /// Queue-to-retired latency per key (virtual ns): how far behind the
  /// foreground the cleaner runs.
  Histogram drain_lag;
};

/// The background cleaner.  Not thread-safe by itself: the owner serializes
/// step()/try_enqueue()/drain_blocking() with its own mutations (in thread
/// mode via the mutex passed to start_thread).
class Cleaner {
 public:
  /// `client` and `clock` must outlive the cleaner.
  Cleaner(CleanerConfig cfg, CleanerClient& client, const sim::SimClock& clock);
  ~Cleaner();  // stops the thread-mode thread if running

  Cleaner(const Cleaner&) = delete;
  Cleaner& operator=(const Cleaner&) = delete;

  /// Hand a dirty key to the cleaner.  Never blocks and never performs I/O.
  /// Returns false only when the queue is full (the key stays dirty in the
  /// cache and will be found again); duplicates return true and are counted.
  bool try_enqueue(std::uint64_t key);

  /// Whether `key` is queued or awaiting a failure retry.
  [[nodiscard]] bool pending(std::uint64_t key) const {
    return queued_.contains(key);
  }

  /// One pacing quantum: grant pacer tokens, issue one due failure retry,
  /// then drain by the watermark policy.  Returns keys retired.  Virtual
  /// device time spent here is charged to the owner's clock as usual — in
  /// stepped mode that time lands *between* commits, which is precisely the
  /// off-the-commit-path effect the subsystem exists for.
  std::uint64_t step();

  /// Foreground backpressure path: the cache is out of free blocks and
  /// found no clean victim.  Drains queued keys (ignoring pacing) and, if
  /// nothing retired, forces failure retries ignoring backoff.  Returns keys
  /// retired; 0 means no forward progress is possible (caller wedges).
  std::uint64_t drain_blocking();

  /// Thread mode: spawn the drain thread.  Each wakeup locks `*client_mu`
  /// (when non-null) around step(), serializing against the owner's
  /// foreground operations.
  void start_thread(std::mutex* client_mu);

  /// Stop and join the drain thread (idempotent; safe when never started).
  void stop_thread();

  [[nodiscard]] std::size_t queue_depth() const {
    return queue_.size() + retry_.size();
  }
  [[nodiscard]] const CleanerConfig& config() const { return cfg_; }
  [[nodiscard]] const CleanerStats& stats() const { return stats_; }

  /// Spans: cleaner.step / cleaner.drain / cleaner.retire (virtual time).
  [[nodiscard]] obs::Tracer& tracer() { return trace_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return trace_; }

  /// Register queue_depth gauge, all counters, the drain-lag histogram and
  /// the span histograms under `prefix` (e.g. "tinca.cleaner.").
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const;

 private:
  struct Item {
    std::uint64_t key;
    std::uint64_t enq_ns;    ///< virtual enqueue time (drain-lag source)
    std::uint64_t due_step;  ///< retry items: earliest step to re-attempt
  };

  /// Clean one item and route it by outcome.  Returns the outcome.
  CleanOutcome clean_one(const Item& item);

  /// Drain up to `budget` queued keys as one sorted batch.  `use_pacer`
  /// false bypasses the shared budget (backpressure must make progress).
  std::uint64_t drain_upto(std::uint32_t budget, bool use_pacer);

  /// Watermark pull: ask the client for more dirty keys when the queue has
  /// fewer than `want`.
  void pull_from_client(std::uint32_t want);

  void thread_main();

  CleanerConfig cfg_;
  CleanerClient& client_;
  const sim::SimClock& clock_;

  std::deque<Item> queue_;             ///< FIFO of keys to clean
  std::deque<Item> retry_;             ///< failed keys, due_step ascending
  std::unordered_set<std::uint64_t> queued_;  ///< keys in queue_ or retry_
  std::uint64_t step_no_ = 0;
  CleanerStats stats_;

  // Thread mode.
  std::thread thread_;
  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  bool thread_stop_ = false;
  std::mutex* client_mu_ = nullptr;

  obs::Tracer trace_;
  obs::Tracer::Site* ts_step_;
  obs::Tracer::Site* ts_drain_;
  obs::Tracer::Site* ts_retire_;
};

}  // namespace tinca::cleaner
