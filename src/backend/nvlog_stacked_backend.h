// TxnBackend stacking the NVM write-ahead tier (src/nvlog/) on top of an
// inner store (DESIGN.md §13/§16): a journal-less Classic store, a full
// TincaCache or a ShardedTinca front-end.  Commits absorb into the log with
// one flush + fence; sealed segments drain into the inner *through its
// commit_group path*.  The Classic inner runs WITHOUT its journal — the log
// tier *is* the write-ahead journal, so any BlockDevice-backed store gains
// crash consistency by being wrapped here — and TxnBackend's default
// commit_group turns each drained chunk into begin/stage/commit, every
// block individually durable on return.  The transactional inners merge a
// whole coalesced chunk into one flush pass and one sfence (§14 fence
// economics) and keep their own crash consistency — a power cut inside an
// apply tears nothing.
//
// Sharded inners additionally get shard-affine parallel drains: the tier
// partitions a segment's coalesced run by `ShardedTinca::shard_of`, this
// sink drains the per-shard batches concurrently (modeled virtual time by
// default, real threads for the TSan stress), and the tier advances its
// persisted watermark only after drain_apply_shards returns — the barrier
// where EVERY shard's batch is durable.  Re-crash anywhere mid-drain is
// idempotent: the watermark still names the segment, recovery re-drains it,
// and last-writer-wins block applies make the replay harmless.
//
// Threading: the tier itself is single-threaded; every tier access here is
// serialized by `tier_mu_`, making `absorb_txn`, `read_block`, `drain_pass`
// and cleaner callbacks safe to call concurrently (the TSan stress drives
// absorbers against a drainer).  The begin/stage/commit staging surface
// stays single-caller like every other backend.
#pragma once

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "backend/classic_backend.h"
#include "backend/sharded_backend.h"
#include "backend/tinca_backend.h"
#include "backend/txn_backend.h"
#include "blockdev/io_status.h"
#include "cleaner/cleaner.h"
#include "nvlog/nvlog_tier.h"
#include "obs/trace.h"

namespace tinca::backend {

/// Which store the log drains into.
enum class NvLogInner : std::uint8_t {
  kClassic,  ///< journal-less Classic (Flashcache) store
  kTinca,    ///< full TincaCache
  kSharded,  ///< ShardedTinca front-end, shard-affine drains
};

/// Assembly parameters for the NvLog stacks.
struct NvLogStackedConfig {
  /// Leading bytes of the NVM device carved out for the log tier; the
  /// remainder backs the inner stack.
  std::uint64_t log_bytes = 8ull << 20;
  nvlog::NvLogConfig log;
  NvLogInner inner = NvLogInner::kTinca;
  /// Inner store config for kClassic; `journaling` is forced off (the log
  /// replaces it).
  classic::ClassicConfig classic;
  /// Inner cache config for kTinca (per shard for kSharded).
  core::TincaConfig tinca;
  /// Shard count for the kSharded inner.
  std::uint32_t shards = 4;
  /// Background drain driver; kDisabled leaves draining to backpressure
  /// and explicit flush().
  cleaner::CleanerConfig cleaner;
  /// Shard-affine parallel drains (kSharded only): per-shard batches are
  /// modeled as draining concurrently — the tier's drain_apply histogram
  /// records the barrier time (max over shards) instead of the sum.
  /// Execution stays deterministic; only the time model changes.
  bool parallel_drain = true;
  /// Drain each shard batch on a real std::thread (kSharded only; implies
  /// parallel semantics).  For the TSan stress — the modeled mode is what
  /// benches and fuzz use.
  bool drain_threads = false;
};

class NvLogStackedBackend final : public TxnBackend,
                                  public cleaner::CleanerClient,
                                  public nvlog::NvLogTier::DrainSink {
 public:
  static std::unique_ptr<NvLogStackedBackend> format(
      nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
      NvLogStackedConfig cfg = {}) {
    return std::unique_ptr<NvLogStackedBackend>(
        new NvLogStackedBackend(nvm, disk, std::move(cfg), /*recover=*/false));
  }

  static std::unique_ptr<NvLogStackedBackend> recover(
      nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
      NvLogStackedConfig cfg = {}) {
    return std::unique_ptr<NvLogStackedBackend>(
        new NvLogStackedBackend(nvm, disk, std::move(cfg), /*recover=*/true));
  }

  void begin() override {
    TINCA_EXPECT(!txn_open_, "transaction already open");
    txn_open_ = true;
  }

  void stage(std::uint64_t blkno, std::span<const std::byte> data) override {
    TINCA_EXPECT(txn_open_, "stage without begin");
    auto [it, inserted] = staged_.try_emplace(blkno);
    if (inserted) order_.push_back(blkno);
    it->second.assign(data.begin(), data.end());
  }

  void commit() override {
    TINCA_EXPECT(txn_open_, "commit without begin");
    if (order_.empty()) {
      txn_open_ = false;
      return;
    }
    std::vector<std::pair<std::uint64_t, std::span<const std::byte>>> blocks;
    blocks.reserve(order_.size());
    for (std::uint64_t blkno : order_) {
      TINCA_EXPECT(blkno < data_block_limit(), "write past the data area");
      blocks.emplace_back(blkno, staged_[blkno]);
    }
    // Throws (disk error inside a backpressure drain) leave the staging
    // intact — the txn stays open for the caller to retry or abort.
    absorb_txn(blocks);
    txn_open_ = false;
    staged_.clear();
    order_.clear();
    trickle_collect();
  }

  /// Thread-safe commit entry: durably absorb one committed transaction
  /// without touching the begin/stage staging area.  Concurrent absorbers
  /// serialize on the tier mutex (the TSan stress drives several against a
  /// draining thread).
  void absorb_txn(
      const std::vector<std::pair<std::uint64_t, std::span<const std::byte>>>&
          blocks) {
    TINCA_TRACE_SPAN(trace_, site_commit_);
    std::lock_guard<std::mutex> lock(tier_mu_);
    tier_->absorb_commit(blocks, *this);
  }

  [[nodiscard]] bool supports_group_commit() const override { return true; }

  void commit_group(std::span<const GroupTxn> txns) override {
    TINCA_EXPECT(!txn_open_, "group commit with a transaction open");
    if (txns.empty()) return;
    {
      TINCA_TRACE_SPAN(trace_, site_commit_);
      std::vector<
          std::vector<std::pair<std::uint64_t, std::span<const std::byte>>>>
          members;
      members.reserve(txns.size());
      for (const GroupTxn& t : txns) {
        members.emplace_back();
        members.back().reserve(t.writes.size());
        for (const auto& [blkno, data] : t.writes) {
          TINCA_EXPECT(blkno < data_block_limit(), "write past the data area");
          members.back().emplace_back(blkno, data);
        }
      }
      std::lock_guard<std::mutex> lock(tier_mu_);
      tier_->absorb_commit_group(members, *this);
    }
    trickle_collect();
  }

  void abort() override {
    TINCA_EXPECT(txn_open_, "abort without begin");
    txn_open_ = false;
    staged_.clear();
    order_.clear();
  }

  void read_block(std::uint64_t blkno, std::span<std::byte> dst) override {
    {
      std::lock_guard<std::mutex> lock(tier_mu_);
      if (tier_->lookup(blkno, dst)) return;
    }
    inner_->read_block(blkno, dst);
  }

  void flush() override {
    {
      std::lock_guard<std::mutex> lock(tier_mu_);
      tier_->drain_all(*this);
    }
    inner_->flush();
  }

  /// Drain up to `max` sealed segments now (thread-safe).  The TSan stress
  /// drainer loops this against concurrent absorbers; returns the number of
  /// segments retired.
  std::uint64_t drain_pass(std::uint32_t max = 4) {
    std::vector<std::uint64_t> seqs;
    std::lock_guard<std::mutex> lock(tier_mu_);
    tier_->collect_drainable(max, seqs);
    std::uint64_t retired = 0;
    for (std::uint64_t s : seqs) {
      if (tier_->drain_segment(s, *this) ==
          nvlog::NvLogTier::DrainResult::kDrained)
        ++retired;
    }
    return retired;
  }

  void cleaner_step() override {
    if (cleaner_) cleaner_->step();
    inner_->cleaner_step();  // the inner cache's own §11 cleaner, if any
  }

  [[nodiscard]] std::uint64_t data_block_limit() const override {
    return inner_->data_block_limit();
  }

  [[nodiscard]] std::uint64_t max_txn_blocks() const override {
    return std::min(tier_->max_txn_blocks(), inner_->max_txn_blocks());
  }

  [[nodiscard]] std::string name() const override {
    switch (cfg_.inner) {
      case NvLogInner::kClassic:
        return "NvLog-Classic";
      case NvLogInner::kTinca:
        return "NvLog-Tinca";
      case NvLogInner::kSharded:
        return "NvLog-Sharded";
    }
    return "NvLog";
  }

  void enable_tracing(bool on = true) override {
    trace_.enable(on);
    if (cleaner_) cleaner_->tracer().enable(on);
    inner_->enable_tracing(on);
  }

  void attach_trace_sink(obs::TraceSink* sink) override {
    trace_.attach_sink(sink);
    if (cleaner_) cleaner_->tracer().attach_sink(sink);
    inner_->attach_trace_sink(sink);
  }

  [[nodiscard]] const obs::Tracer* tracer() const override { return &trace_; }

  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const override {
    tier_->register_metrics(reg, prefix + "nvlog.");
    trace_.register_into(reg, prefix + "nvlog.lat.");
    if (cleaner_) cleaner_->register_metrics(reg, prefix + "nvlog.cleaner.");
    inner_->register_metrics(reg, prefix);
  }

  // --- DrainSink -----------------------------------------------------------

  // Both apply paths honour the cleaner's oracle sabotage knob, as the
  // other caches' cleaner clients do: "mark clean without writing" is a
  // drain that retires its segment with nothing applied to the inner store.
  void drain_apply(const DrainBatch& blocks) override {
    if (cfg_.cleaner.sabotage_skip_write) return;
    apply_chunked(blocks);
  }

  [[nodiscard]] std::uint32_t drain_shard_count() const override {
    return sharded_ != nullptr ? sharded_->sharded().shard_count() : 1;
  }

  [[nodiscard]] std::uint32_t drain_shard_of(
      std::uint64_t blkno) const override {
    return sharded_ != nullptr ? sharded_->sharded().shard_of(blkno) : 0;
  }

  std::uint64_t drain_apply_shards(
      const std::vector<DrainBatch>& shard_batches) override {
    if (cfg_.cleaner.sabotage_skip_write) return 0;
    if (cfg_.drain_threads) return drain_shards_threaded(shard_batches);
    // Deterministic mode: apply the shard batches one after another —
    // they touch disjoint shards, so order is immaterial — but model the
    // barrier time.  Each batch's cost lands on its shard's private clock
    // plus the shared (disk) clock; concurrent drains overlap those costs,
    // so the modeled apply duration is the longest batch (vs. the sum when
    // parallel_drain is off).  The injector point between batches is a
    // shard-batch boundary: the per-step crash sweeps cut there.
    std::uint64_t sum = 0;
    std::uint64_t longest = 0;
    bool first = true;
    for (std::uint32_t s = 0; s < shard_batches.size(); ++s) {
      if (shard_batches[s].empty()) continue;
      if (!first) nvm_.injector.point();  // CP: shard-batch boundary
      first = false;
      const std::uint64_t shard0 = sharded_->sharded().shard_clock(s).now();
      const std::uint64_t outer0 = nvm_.clock().now();
      apply_chunked(shard_batches[s]);
      const std::uint64_t d =
          (sharded_->sharded().shard_clock(s).now() - shard0) +
          (nvm_.clock().now() - outer0);
      sum += d;
      longest = std::max(longest, d);
    }
    return cfg_.parallel_drain ? longest : sum;
  }

  // --- CleanerClient (keys are log segment seqs) ---------------------------

  cleaner::CleanOutcome cleaner_clean(std::uint64_t key,
                                      std::uint64_t* io_retries) override {
    (void)io_retries;  // inner retries charge its own per-shard counters
    try {
      std::lock_guard<std::mutex> lock(tier_mu_);
      switch (tier_->drain_segment(key, *this)) {
        case nvlog::NvLogTier::DrainResult::kDrained:
          return cleaner::CleanOutcome::kRetired;
        case nvlog::NvLogTier::DrainResult::kStale:
          return cleaner::CleanOutcome::kStale;
        case nvlog::NvLogTier::DrainResult::kPinned:
          return cleaner::CleanOutcome::kPinned;
      }
      return cleaner::CleanOutcome::kStale;
    } catch (const blockdev::IoError&) {
      return cleaner::CleanOutcome::kFailed;
    }
  }

  [[nodiscard]] std::uint64_t cleaner_dirty_blocks() const override {
    std::lock_guard<std::mutex> lock(tier_mu_);
    return tier_->live_records();
  }

  [[nodiscard]] std::uint64_t cleaner_capacity_blocks() const override {
    return tier_->record_capacity();
  }

  void cleaner_collect(std::uint32_t max,
                       std::vector<std::uint64_t>& out) override {
    std::lock_guard<std::mutex> lock(tier_mu_);
    tier_->collect_drainable(max, out);
  }

  /// The log tier, for stats and tests.
  [[nodiscard]] nvlog::NvLogTier& tier() { return *tier_; }
  /// The inner store the log drains into.
  [[nodiscard]] TxnBackend& inner() { return *inner_; }
  /// The sharded inner, or nullptr for the other inners.
  [[nodiscard]] ShardedBackend* inner_sharded() { return sharded_; }

 private:
  NvLogStackedBackend(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
                      NvLogStackedConfig cfg, bool recover)
      : trace_(nvm.clock(), /*tid=*/0, "nvlog."), nvm_(nvm), cfg_(cfg) {
    TINCA_EXPECT(cfg.log_bytes % nvm::NvmDevice::kLineSize == 0 &&
                     cfg.log_bytes < nvm.size(),
                 "log carve-out must be line-aligned and leave cache room");
    log_view_ = std::make_unique<nvm::NvmDevice>(nvm, 0, cfg.log_bytes,
                                                 nvm.clock());
    store_view_ = std::make_unique<nvm::NvmDevice>(
        nvm, cfg.log_bytes, nvm.size() - cfg.log_bytes, nvm.clock());
    switch (cfg.inner) {
      case NvLogInner::kClassic:
        cfg.classic.journaling = false;
        inner_ = recover
                     ? ClassicBackend::recover(*store_view_, disk, cfg.classic)
                     : ClassicBackend::format(*store_view_, disk, cfg.classic);
        break;
      case NvLogInner::kTinca:
        inner_ = recover ? TincaBackend::recover(*store_view_, disk, cfg.tinca)
                         : TincaBackend::format(*store_view_, disk, cfg.tinca);
        break;
      case NvLogInner::kSharded: {
        shard::ShardedConfig sc;
        sc.num_shards = cfg.shards;
        sc.shard = cfg.tinca;
        std::unique_ptr<ShardedBackend> sharded =
            recover ? ShardedBackend::recover(*store_view_, disk, sc)
                    : ShardedBackend::format(*store_view_, disk, sc);
        sharded_ = sharded.get();
        inner_ = std::move(sharded);
        break;
      }
    }
    tier_ = recover ? nvlog::NvLogTier::recover(*log_view_, cfg.log)
                    : nvlog::NvLogTier::format(*log_view_, cfg.log);
    if (cfg.cleaner.mode != cleaner::CleanerMode::kDisabled)
      cleaner_ = std::make_unique<cleaner::Cleaner>(cfg.cleaner, *this,
                                                    nvm.clock());
    site_commit_ = trace_.site("commit");
  }

  /// Apply one ascending batch through the inner's group-commit path,
  /// chunked to its transaction capacity: each chunk is ONE inner
  /// commit_group — for the Tinca inners one flush pass and one sfence
  /// (§14) — and durable on return.  A crash between chunks (or between a
  /// Classic inner's per-block commits) just replays the segment: the
  /// watermark has not advanced.
  void apply_chunked(const DrainBatch& blocks) {
    const std::uint64_t chunk =
        std::max<std::uint64_t>(1, inner_->max_txn_blocks());
    for (std::size_t i = 0; i < blocks.size(); i += chunk) {
      const std::size_t end = std::min(blocks.size(), i + chunk);
      GroupTxn g;
      g.writes.assign(blocks.begin() + static_cast<std::ptrdiff_t>(i),
                      blocks.begin() + static_cast<std::ptrdiff_t>(end));
      inner_->commit_group(std::span<const GroupTxn>(&g, 1));
    }
  }

  /// Real concurrency (TSan stress): one thread per non-empty shard batch.
  /// Safe because each batch's blocks home to one ShardedTinca shard (its
  /// own mutex, cache and clock) and the shared disk is behind
  /// LockedBlockDevice.  No injector points here — crash sweeps use the
  /// deterministic mode.  Returns 0: with real threads the wall time is
  /// genuine, so the tier's clock delta is the honest measure.
  std::uint64_t drain_shards_threaded(
      const std::vector<DrainBatch>& shard_batches) {
    std::vector<std::thread> workers;
    std::vector<std::exception_ptr> errors(shard_batches.size());
    for (std::uint32_t s = 0; s < shard_batches.size(); ++s) {
      if (shard_batches[s].empty()) continue;
      workers.emplace_back([this, &shard_batches, &errors, s] {
        try {
          apply_chunked(shard_batches[s]);
        } catch (...) {
          errors[s] = std::current_exception();
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    return 0;
  }

  /// Feed freshly drainable segments to the background cleaner.
  void trickle_collect() {
    if (!cleaner_) return;
    std::vector<std::uint64_t> seqs;
    {
      std::lock_guard<std::mutex> lock(tier_mu_);
      tier_->collect_drainable(cleaner::kTricklePerStep, seqs);
    }
    for (std::uint64_t s : seqs) cleaner_->try_enqueue(s);
  }

  obs::Tracer trace_;
  obs::Tracer::Site* site_commit_ = nullptr;
  nvm::NvmDevice& nvm_;
  NvLogStackedConfig cfg_;
  std::unique_ptr<nvm::NvmDevice> log_view_;
  std::unique_ptr<nvm::NvmDevice> store_view_;
  std::unique_ptr<TxnBackend> inner_;
  ShardedBackend* sharded_ = nullptr;  ///< inner_, when it is kSharded
  std::unique_ptr<nvlog::NvLogTier> tier_;
  std::unique_ptr<cleaner::Cleaner> cleaner_;

  /// Serializes every tier_ access (the tier is single-threaded).  Sink
  /// callbacks run *inside* drain_segment while this is held; they touch
  /// only the inner stack, never the tier, so there is no recursion.
  mutable std::mutex tier_mu_;

  bool txn_open_ = false;
  std::map<std::uint64_t, std::vector<std::byte>> staged_;
  std::vector<std::uint64_t> order_;
};

}  // namespace tinca::backend
