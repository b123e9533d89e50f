#include "shard/sharded_tinca.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "common/expect.h"
#include "obs/metrics.h"
#include "tinca/commit_directory.h"

namespace tinca::shard {

// ---------------------------------------------------------------------------
// ShardedTxn
// ---------------------------------------------------------------------------

void ShardedTxn::add(std::uint64_t disk_blkno,
                     std::span<const std::byte> data) {
  TINCA_EXPECT(open_, "add to a closed transaction");
  TINCA_EXPECT(data.size() == core::kBlockSize, "transaction blocks are 4 KB");
  auto [it, inserted] = blocks_.try_emplace(disk_blkno);
  if (inserted) order_.push_back(disk_blkno);
  it->second.assign(data.begin(), data.end());
}

// ---------------------------------------------------------------------------
// Construction / format / recovery
// ---------------------------------------------------------------------------

ShardedTinca::ShardedTinca(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
                           ShardedConfig cfg, bool do_format)
    : disk_(disk), cfg_(cfg) {
  TINCA_EXPECT(cfg.num_shards >= 1, "at least one shard required");
  // A zero cap would let a group-commit leader close empty batches forever.
  TINCA_EXPECT(cfg.group_max_batch >= 1,
               "group_max_batch must be at least 1");
  // The cross-stream commit record names participants as (shard, stream)
  // bits of one 64-bit mask (DESIGN.md §15).
  TINCA_EXPECT(static_cast<std::uint64_t>(cfg.num_shards) *
                       std::max(1u, cfg.shard.num_streams) <=
                   64,
               "shards × streams must fit the 64-bit commit-record mask");
  // Equal 4 KB-aligned partitions; the tail remainder (< one partition) is
  // left unused.  Geometry is a pure function of (device size, num_shards),
  // so recovery reconstructs identical views without any extra metadata —
  // each shard's own superblock then validates its layout.
  const std::uint64_t part =
      nvm.size() / cfg.num_shards / core::kBlockSize * core::kBlockSize;
  TINCA_EXPECT(part > 0, "NVM device too small for this many shards");

  // Shared pacing budget: one Pacer for all shards' cleaners, each step
  // granting a 1/num_shards slice of the global batch budget (DESIGN.md §11).
  if (cfg_.shard.cleaner.mode != cleaner::CleanerMode::kDisabled &&
      cfg_.shard.cleaner.pacer == nullptr) {
    cfg_.shard.cleaner.pacer = std::make_shared<cleaner::Pacer>(
        cleaner::kMaxBatchBlocks, cfg.num_shards);
  }

  shards_.reserve(cfg.num_shards);
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->clock = std::make_unique<sim::SimClock>();
    sh->view = std::make_unique<nvm::NvmDevice>(
        nvm, static_cast<std::uint64_t>(s) * part, part, *sh->clock);
    core::TincaConfig shard_cfg = cfg_.shard;
    shard_cfg.trace_tid = static_cast<int>(s);  // own Chrome track per shard
    sh->cache = do_format
                    ? core::TincaCache::format(*sh->view, disk_, shard_cfg)
                    : core::TincaCache::mount_for_recovery(*sh->view, disk_,
                                                           shard_cfg);
    shards_.push_back(std::move(sh));
  }

  if (!do_format) {
    // Coordinated crash recovery (DESIGN.md §15).  A shard recovering alone
    // cannot adjudicate an anchored batch — the commit record lives in
    // shard 0's directory and names OTHER shards' batches — so recovery is
    // three-phase across the set: scan every shard (no mutation), decide
    // which cross-stream commit ids are effective globally, then apply.
    std::vector<core::TincaCache::RecoveryScan> scans;
    scans.reserve(shards_.size());
    for (auto& sh : shards_) scans.push_back(sh->cache->recovery_scan());

    // Read the directory under the PRE-recovery epoch: records were salted
    // with the epoch in force when they were written, and recovery_apply
    // bumps it.
    const std::uint64_t pre_epoch =
        shards_[0]->view->load8(core::Layout::kFormatEpochOff);
    const std::uint32_t streams = shards_[0]->cache->num_streams();
    std::unordered_set<std::uint32_t> effective;
    for (const core::CommitRecord& rec :
         core::CommitDirectory::scan(*shards_[0]->view, pre_epoch)) {
      // A durable record proves every participant's batch is durable: the
      // record is staged strictly AFTER every participant's flush pass, and
      // a flush is the simulated media's durability point.  So the record's
      // presence alone makes the commit id effective.  A participant whose
      // scan window no longer contains the id is equally fine — its durable
      // hint only ever advances past durably-placed batches.  The one check
      // kept is defensive: a participant whose NEWEST batch carries this id
      // but is not fully placed contradicts the protocol order, and the
      // commit is withheld rather than half-applied.
      bool ok = true;
      for (std::uint32_t bit = 0; bit < 64 && ok; ++bit) {
        if ((rec.stream_mask >> bit & 1) == 0) continue;
        const std::uint32_t sid = bit / streams;
        if (sid >= shards_.size()) {
          ok = false;
          break;
        }
        for (const auto& ab : scans[sid].anchored) {
          if (ab.commit_id != rec.commit_id) continue;
          ok = !ab.is_last || ab.placed;
          break;
        }
      }
      if (ok) effective.insert(static_cast<std::uint32_t>(rec.commit_id));
    }

    for (auto& sh : shards_) sh->cache->recovery_apply(effective);
  }

  // Dedicated directory view + clock (offsets within shard 0's partition).
  dir_clock_ = std::make_unique<sim::SimClock>();
  dir_view_ = std::make_unique<nvm::NvmDevice>(
      nvm, 0, core::Layout::kSuperblockBytes, *dir_clock_);
  dir_epoch_ = dir_view_->load8(core::Layout::kFormatEpochOff);
}

std::unique_ptr<ShardedTinca> ShardedTinca::format(nvm::NvmDevice& nvm,
                                                   blockdev::BlockDevice& disk,
                                                   ShardedConfig cfg) {
  return std::unique_ptr<ShardedTinca>(
      new ShardedTinca(nvm, disk, cfg, /*do_format=*/true));
}

std::unique_ptr<ShardedTinca> ShardedTinca::recover(nvm::NvmDevice& nvm,
                                                    blockdev::BlockDevice& disk,
                                                    ShardedConfig cfg) {
  return std::unique_ptr<ShardedTinca>(
      new ShardedTinca(nvm, disk, cfg, /*do_format=*/false));
}

ShardedTinca::~ShardedTinca() { stop_cleaner_threads(); }

// ---------------------------------------------------------------------------
// Background cleaners
// ---------------------------------------------------------------------------

void ShardedTinca::step_cleaners() {
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->cache->cleaner_step();
  }
}

void ShardedTinca::start_cleaner_threads() {
  for (auto& sh : shards_)
    if (sh->cache->cleaner() != nullptr)
      sh->cache->cleaner()->start_thread(&sh->mu);
}

void ShardedTinca::stop_cleaner_threads() {
  for (auto& sh : shards_)
    if (sh->cache->cleaner() != nullptr) sh->cache->cleaner()->stop_thread();
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

std::uint32_t ShardedTinca::shard_of(std::uint64_t disk_blkno) const {
  // SplitMix64 finalizer: avalanches every input bit so that sequential disk
  // block numbers (the common allocation pattern) spread across shards
  // instead of striding.
  std::uint64_t x = disk_blkno + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x % shards_.size());
}

// ---------------------------------------------------------------------------
// Transactional primitives
// ---------------------------------------------------------------------------

void ShardedTinca::commit(ShardedTxn& txn) {
  TINCA_EXPECT(txn.open_, "commit of a closed transaction");
  // With the batcher enabled, a single-shard transaction — the common case —
  // joins its home shard's group-commit queue instead of taking the shard
  // lock directly; concurrent committers then share one ring append, one
  // flush pass and one fence.
  if (cfg_.group_commit && !txn.order_.empty()) {
    const std::uint32_t sid = shard_of(txn.order_.front());
    if (std::all_of(txn.order_.begin(), txn.order_.end(),
                    [&](std::uint64_t b) { return shard_of(b) == sid; })) {
      commit_grouped(sid, txn);
      return;
    }
  }
  ShardedTxn* const one = &txn;
  commit_batch(std::span<ShardedTxn* const>(&one, 1));
}

void ShardedTinca::commit_grouped(std::uint32_t sid, ShardedTxn& txn) {
  TINCA_TRACE_SPAN(trace_, ts_commit_);
  Shard& sh = *shards_[sid];
  GroupWaiter me{&txn};
  std::unique_lock<std::mutex> bl(sh.bmu);
  sh.queue.push_back(&me);

  if (sh.leader_active) {
    // Follower: a leader is already draining this shard's queue and will
    // commit our transaction inside one of its batches.  Sleep until it
    // posts the verdict; the batch is all-or-nothing, so a failure anywhere
    // in our batch is our failure too.
    sh.bcv.wait(bl, [&me] { return me.done; });
    if (me.error) std::rethrow_exception(me.error);
    return;
  }

  // Leader election is implicit: the first committer to find no active
  // leader becomes one.  Linger briefly so concurrent committers can pile
  // into the batch (closing early once the queue hits capacity), then drain
  // the queue — including followers that arrive while we are committing —
  // before stepping down.
  sh.leader_active = true;
  if (cfg_.group_linger_us > 0 && cfg_.group_max_batch > 1) {
    sh.bcv.wait_for(bl, std::chrono::microseconds(cfg_.group_linger_us),
                    [&] { return sh.queue.size() >= cfg_.group_max_batch; });
  }

  while (!sh.queue.empty()) {
    // Close a batch: longest queue prefix that fits the batch-size cap and
    // the shard's per-commit block budget.  The first member always joins
    // even if oversized — tinca_commit's own contract check rejects it.
    std::vector<GroupWaiter*> batch;
    std::vector<ShardPart> parts;
    std::uint64_t blocks = 0;
    const std::uint64_t cap = sh.cache->max_txn_blocks();
    while (!sh.queue.empty() && batch.size() < cfg_.group_max_batch) {
      GroupWaiter* w = sh.queue.front();
      const std::uint64_t n = w->txn->order_.size();
      if (!batch.empty() && blocks + n > cap) break;
      sh.queue.pop_front();
      batch.push_back(w);
      parts.emplace_back(w->txn, w->txn->order_);
      blocks += n;
    }

    // Commit the batch outside the batcher mutex so late arrivals can keep
    // enqueueing (they will see leader_active and wait).
    bl.unlock();
    std::exception_ptr err;
    try {
      commit_on_shard(sid, parts);
    } catch (...) {
      err = std::current_exception();
    }
    bl.lock();
    for (GroupWaiter* w : batch) {
      w->txn->open_ = false;
      w->txn->blocks_.clear();
      w->txn->order_.clear();
      w->error = err;
      w->done = true;
    }
    sh.bcv.notify_all();
  }

  // Step down while still holding bmu: any committer that enqueued before
  // this point was drained above; any that arrives after sees no leader and
  // becomes one.  No window where the queue can strand.
  sh.leader_active = false;
  bl.unlock();
  if (me.error) std::rethrow_exception(me.error);
}

void ShardedTinca::commit_batch(std::span<ShardedTxn* const> txns) {
  for (ShardedTxn* t : txns)
    TINCA_EXPECT(t->open_, "commit of a closed transaction");
  TINCA_TRACE_SPAN(trace_, ts_commit_);

  // Split every member by home shard, preserving staging order inside each
  // portion and member order inside each shard.  std::map iterates shards
  // in ascending id — both the lock order and the publication order, so any
  // two commits contending on several shards acquire them in the same
  // global total order (no deadlocks).
  XShardGroups groups;
  for (ShardedTxn* t : txns) {
    for (std::uint64_t blkno : t->order_) {
      std::vector<ShardPart>& parts = groups[shard_of(blkno)];
      if (parts.empty() || parts.back().first != t)
        parts.emplace_back(t, std::vector<std::uint64_t>{});
      parts.back().second.push_back(blkno);
    }
  }

  if (groups.size() > 1) {
    // The batch spans shards: commit every shard's portion atomically
    // through one cross-stream commit record (§15).
    commit_across_shards(groups, txns.size());
  } else if (!groups.empty()) {
    commit_on_shard(groups.begin()->first, groups.begin()->second);
  }

  for (ShardedTxn* t : txns) {
    t->open_ = false;
    t->blocks_.clear();
    t->order_.clear();
  }
}

ShardedTinca::ShardSubs ShardedTinca::build_subs(
    std::uint32_t sid, const std::vector<ShardPart>& parts) {
  core::TincaCache& cache = *shards_[sid]->cache;
  ShardSubs subs;
  subs.txns.reserve(parts.size());
  for (const auto& [t, blocks] : parts) {
    subs.txns.emplace_back(cache.tinca_init_txn());
    for (std::uint64_t blkno : blocks)
      subs.txns.back().add(blkno, t->blocks_.at(blkno));
  }
  subs.ptrs.reserve(subs.txns.size());
  for (core::Transaction& t : subs.txns) subs.ptrs.push_back(&t);
  return subs;
}

void ShardedTinca::commit_on_shard(std::uint32_t sid,
                                   const std::vector<ShardPart>& parts) {
  Shard& sh = *shards_[sid];
  std::unique_lock<std::mutex> lock(sh.mu, std::defer_lock);
  {
    // Lock-wait span: under contention this is where commit time goes,
    // and it is invisible to the shards' virtual clocks (lock waits charge
    // no device time) — hence the wall-clock tracer.
    TINCA_TRACE_SPAN(trace_, ts_lock_wait_);
    lock.lock();
  }
  TINCA_TRACE_SPAN(trace_, ts_publish_);
  ShardSubs subs = build_subs(sid, parts);
  sh.cache->commit_group(subs.ptrs);
}

std::uint64_t ShardedTinca::dir_acquire_slot(std::uint32_t& cid_out) {
  for (;;) {
    std::vector<DirDep> blocking;
    {
      std::lock_guard<std::mutex> lk(dir_mu_);
      // Retire every slot whose anchored batches all participants' durable
      // hints have passed: recovery's scan windows no longer reach those
      // batches, so the records are unreachable and the slots reusable.  A
      // slot with no deps yet belongs to a commit still in flight (deps are
      // registered after its publish): handing it out again would let two
      // commits write one record line, and the loser's acked batches would
      // be dropped by recovery.
      for (DirSlot& slot : dir_slots_) {
        if (!slot.used || slot.deps.empty()) continue;
        bool retirable = true;
        for (const DirDep& d : slot.deps) {
          if (shards_[d.shard]->cache->stream_ring(d.stream).durable_hint() <
              d.end) {
            retirable = false;
            break;
          }
        }
        if (retirable) {
          slot.used = false;
          slot.deps.clear();
        }
      }
      for (std::uint64_t i = 0; i < dir_slots_.size(); ++i) {
        if (!dir_slots_[i].used) {
          dir_slots_[i].used = true;
          cid_out = next_commit_id_++;
          TINCA_ENSURE(cid_out != 0, "commit-id space exhausted");
          return i;
        }
      }
      // Every slot is pinned by a still-scannable batch.  Collect the
      // blockers, then force their hints forward OUTSIDE dir_mu_ — each
      // sync takes one shard mutex as a leaf, so no lock cycle.
      for (const DirSlot& slot : dir_slots_)
        blocking.insert(blocking.end(), slot.deps.begin(), slot.deps.end());
    }
    // Only in-flight commits pin the slots: wait for one to register.
    if (blocking.empty()) std::this_thread::yield();
    std::unordered_set<std::uint32_t> synced;
    for (const DirDep& d : blocking) {
      if (!synced.insert(d.shard).second) continue;
      Shard& sh = *shards_[d.shard];
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.cache->sync_commit_hints();
    }
  }
}

void ShardedTinca::commit_across_shards(const XShardGroups& groups,
                                        std::uint64_t member_count) {
  TINCA_EXPECT(groups.size() >= 2, "cross-shard commit needs two shards");

  // Directory slot + commit id first, while holding NO shard locks — the
  // slow path inside (forcing hint syncs) takes shard mutexes itself.
  std::uint32_t cid = 0;
  const std::uint64_t slot = dir_acquire_slot(cid);

  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(groups.size());
  {
    TINCA_TRACE_SPAN(trace_, ts_lock_wait_);
    for (auto& [sid, parts] : groups) locks.emplace_back(shards_[sid]->mu);
  }

  TINCA_TRACE_SPAN(trace_, ts_publish_);
  const std::uint32_t streams = shards_[0]->cache->num_streams();

  // Phase 1 — stage: one anchored batch per shard, each on one of that
  // shard's commit streams.  The sub-transactions must outlive publish
  // (which closes them), hence the per-shard store.
  std::uint64_t mask = 0;
  std::vector<DirDep> deps;
  deps.reserve(groups.size());
  std::vector<ShardSubs> subs_store;
  subs_store.reserve(groups.size());
  try {
    for (auto& [sid, parts] : groups) {
      core::TincaCache& cache = *shards_[sid]->cache;
      ShardSubs subs = build_subs(sid, parts);
      const bool staged = cache.batch_stage(subs.ptrs, cid);
      TINCA_ENSURE(staged, "cross-shard member with no blocks on its shard");
      mask |= 1ull << (static_cast<std::uint64_t>(sid) * streams +
                       cache.batch_stream());
      deps.push_back({sid, cache.batch_stream(), cache.batch_end()});
      subs_store.push_back(std::move(subs));
    }
  } catch (...) {
    // No record was staged yet: give the in-flight slot back, or it would
    // stay pinned forever (retirement skips slots without deps).
    std::lock_guard<std::mutex> lk(dir_mu_);
    dir_slots_[slot].used = false;
    throw;
  }

  // Phase 2 — flush every participant's batch (no fences yet).
  for (auto& [sid, parts] : groups) shards_[sid]->cache->batch_flush();

  {
    // Cross-shard commits on disjoint shard sets reach this point
    // concurrently: the directory view's counters and clock are shared, and
    // the seqlock needs a single writer.
    std::lock_guard<std::mutex> xl(xshard_mu_);

    // Phase 3 — the commit record: ONE 64 B line naming every participating
    // (shard, stream), flushed in the same pass, then ONE sfence for the
    // whole transaction.  The record's flush is the atomic commit point: a
    // crash before it rolls every shard back, after it commits every shard.
    const core::CommitRecord rec{cid, mask, member_count};
    const auto [rec_off, rec_len] =
        core::CommitDirectory::stage(*dir_view_, slot, rec, dir_epoch_);
    dir_view_->injector.point();  // CP: batches flushed, record staged only
    if (!cfg_.sabotage_skip_commit_record_flush)
      dir_view_->clflush(rec_off, rec_len);
    dir_view_->injector.point();  // CP: record durable, nothing published
    shards_[groups.begin()->first]->view->sfence();
    shards_[groups.begin()->first]->cache->note_shared_fence();

    // Phase 4 — publish all participants inside the seqlock's odd window,
    // so open_snapshot() can never pin a cut between two shards' epoch
    // bumps.
    xshard_seq_.fetch_add(1, std::memory_order_acq_rel);
    for (auto& [sid, parts] : groups) shards_[sid]->cache->batch_publish();
    xshard_seq_.fetch_add(1, std::memory_order_release);
  }

  // Register the slot's reuse gate: the record must stay until every
  // participant's durable hint passes its anchored batch.
  {
    std::lock_guard<std::mutex> lk(dir_mu_);
    dir_slots_[slot].deps = std::move(deps);
  }
}

void ShardedTinca::abort(ShardedTxn& txn) {
  TINCA_EXPECT(txn.open_, "abort of a closed transaction");
  txn.open_ = false;
  txn.blocks_.clear();
  txn.order_.clear();
}

// ---------------------------------------------------------------------------
// Cached block I/O
// ---------------------------------------------------------------------------

void ShardedTinca::read_block(std::uint64_t disk_blkno,
                              std::span<std::byte> dst) {
  Shard& sh = *shards_[shard_of(disk_blkno)];
  // Lock-free fast path: pin the shard's commit epoch, resolve through the
  // version chains, copy, unpin — no mutex, no clock, no LRU traffic.  The
  // pin covers the copy, so a concurrent commit/reclaim cannot reuse the
  // NVM block mid-read.
  const core::SnapshotPin pin = sh.cache->snapshot_pin();
  if (pin.valid()) {
    const bool hit = sh.cache->snapshot_try_read(pin, disk_blkno, dst);
    sh.cache->snapshot_unpin(pin);
    if (hit) return;
  }
  read_block_locked(disk_blkno, dst);
}

void ShardedTinca::read_block_locked(std::uint64_t disk_blkno,
                                     std::span<std::byte> dst) {
  Shard& sh = *shards_[shard_of(disk_blkno)];
  std::lock_guard<std::mutex> lock(sh.mu);
  sh.cache->read_block(disk_blkno, dst);
}

// ---------------------------------------------------------------------------
// Snapshot reads (MVCC, DESIGN.md §12)
// ---------------------------------------------------------------------------

void ShardedSnapshot::release() noexcept {
  if (!open_) return;
  for (std::uint32_t s = 0; s < pins_.size(); ++s)
    owner_->shards_[s]->cache->snapshot_unpin(pins_[s]);
  pins_.clear();
  open_ = false;
  owner_ = nullptr;
}

ShardedSnapshot ShardedTinca::open_snapshot() {
  ShardedSnapshot snap;
  snap.pins_.reserve(shards_.size());
  // Seqlock against the cross-shard publish window: retry whenever the pins
  // were taken while (or across) a cross-stream commit was publishing its
  // per-shard epoch bumps, so the snapshot can never hold shard A's epoch
  // from after an atomic transaction and shard B's from before it.
  for (;;) {
    const std::uint64_t seq = xshard_seq_.load(std::memory_order_acquire);
    if (seq & 1) {
      std::this_thread::yield();
      continue;
    }
    for (auto& sh : shards_) snap.pins_.push_back(sh->cache->snapshot_pin());
    if (xshard_seq_.load(std::memory_order_acquire) == seq) break;
    for (std::uint32_t s = 0; s < shards_.size(); ++s)
      shards_[s]->cache->snapshot_unpin(snap.pins_[s]);
    snap.pins_.clear();
  }
  snap.owner_ = this;
  snap.open_ = true;
  return snap;
}

void ShardedTinca::snapshot_read(const ShardedSnapshot& snap,
                                 std::uint64_t disk_blkno,
                                 std::span<std::byte> dst) {
  TINCA_EXPECT(snap.open_, "read against a closed snapshot");
  const std::uint32_t sid = shard_of(disk_blkno);
  const core::SnapshotPin& pin = snap.pins_[sid];
  if (pin.valid()) {
    // Chain hit or disk fallback — both lock-free (the shared disk is
    // behind LockedBlockDevice, and the defer rule keeps its content from
    // advancing past the pin).
    shards_[sid]->cache->snapshot_read(pin, disk_blkno, dst);
    return;
  }
  // Pin registry was full at open time: degrade to the locked path.  The
  // result is a current read, not a pinned one — same contract as a reader
  // that failed to start a snapshot at all.
  read_block_locked(disk_blkno, dst);
}

void ShardedTinca::close_snapshot(ShardedSnapshot& snap) {
  TINCA_EXPECT(snap.open_, "close of a closed snapshot");
  TINCA_EXPECT(snap.owner_ == this, "snapshot closed by a different cache");
  snap.release();
}

void ShardedTinca::write_block(std::uint64_t disk_blkno,
                               std::span<const std::byte> data) {
  ShardedTxn txn = init_txn();
  txn.add(disk_blkno, data);
  commit(txn);
}

void ShardedTinca::flush_dirty() {
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->cache->flush_dirty();
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

bool ShardedTinca::cached(std::uint64_t disk_blkno) {
  Shard& sh = *shards_[shard_of(disk_blkno)];
  std::lock_guard<std::mutex> lock(sh.mu);
  return sh.cache->cached(disk_blkno);
}

bool ShardedTinca::dirty(std::uint64_t disk_blkno) {
  Shard& sh = *shards_[shard_of(disk_blkno)];
  std::lock_guard<std::mutex> lock(sh.mu);
  return sh.cache->dirty(disk_blkno);
}

std::uint64_t ShardedTinca::max_txn_blocks() const {
  std::uint64_t m = UINT64_MAX;
  for (const auto& sh : shards_)
    m = std::min(m, sh->cache->max_txn_blocks());
  return m;
}

core::TincaCacheStats ShardedTinca::aggregated_stats() const {
  core::TincaCacheStats agg;
  for (const auto& sh : shards_) {
    // A kThread cleaner mutates this shard's stats under its mutex.
    std::lock_guard<std::mutex> lock(sh->mu);
    const core::TincaCacheStats& s = sh->cache->stats();
    agg.txns_committed += s.txns_committed;
    agg.txns_aborted += s.txns_aborted;
    agg.blocks_committed += s.blocks_committed;
    agg.write_hits += s.write_hits;
    agg.write_misses += s.write_misses;
    agg.read_hits += s.read_hits;
    agg.read_misses += s.read_misses;
    agg.evictions += s.evictions;
    agg.dirty_writebacks += s.dirty_writebacks;
    agg.writethrough_writes += s.writethrough_writes;
    agg.role_switches += s.role_switches;
    agg.cow_writes += s.cow_writes;
    agg.background_cleanings += s.background_cleanings;
    agg.revoked_blocks += s.revoked_blocks;
    agg.dropped_clean_entries += s.dropped_clean_entries;
    agg.recovered_entries += s.recovered_entries;
    agg.io_retries += s.io_retries;
    agg.io_quarantined += s.io_quarantined;
    agg.io_degraded_writes += s.io_degraded_writes;
    agg.commit_fences += s.commit_fences;
    agg.commit_batches += s.commit_batches;
    agg.hint_syncs += s.hint_syncs;
    agg.group_merged_writes += s.group_merged_writes;
    agg.xstream_commits += s.xstream_commits;
    agg.blocks_per_txn.merge(s.blocks_per_txn);
    agg.commit_batch_size.merge(s.commit_batch_size);
  }
  return agg;
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

void ShardedTinca::enable_tracing(bool on) {
  trace_.enable(on);
  for (auto& sh : shards_) sh->cache->enable_tracing(on);
}

void ShardedTinca::attach_trace_sink(obs::TraceSink* sink) {
  trace_.attach_sink(sink);
  for (std::uint32_t s = 0; s < shards_.size(); ++s)
    shards_[s]->cache->attach_trace_sink(sink);
  if (sink != nullptr)
    for (std::uint32_t s = 0; s < shards_.size(); ++s)
      sink->set_track_name(obs::kVirtualPid, static_cast<int>(s),
                           "shard " + std::to_string(s));
}

void ShardedTinca::register_metrics(obs::MetricsRegistry& reg,
                                    const std::string& prefix) const {
  trace_.register_into(reg, prefix + "lat.");
  for (std::uint32_t s = 0; s < shards_.size(); ++s)
    shards_[s]->cache->register_metrics(
        reg, prefix + "shard" + std::to_string(s) + ".");
}

}  // namespace tinca::shard
