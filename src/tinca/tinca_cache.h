// Tinca: the transactional NVM disk cache (paper §4).
//
// TincaCache is the self-contained cache manager the paper proposes.  It
// exports the transactional primitives of §4.1 (tinca_init_txn /
// tinca_commit / tinca_abort) to the layer above (a file system, a database,
// or a raw-block workload), caches 4 KB blocks in byte-addressable NVM, and
// guarantees crash consistency of both the cached data and its own metadata
// without ever writing a data block twice:
//
//   * write hits are **COW block writes** (§4.3): the new version goes to a
//     freshly allocated NVM block and the 16 B cache entry — holding both the
//     previous and the current NVM block number — is installed with one
//     atomic 16 B store + clflush + sfence;
//   * committing (§4.4, reworked for group commit — DESIGN.md §14) merges a
//     batch of transactions last-writer-wins, stages their COW installs and
//     self-validating ring records with plain stores, and makes the whole
//     batch durable with ONE clflush pass + ONE sfence — that fence is the
//     batch's commit point; role switches and the recovery hint are staged at
//     publish and swept out by the NEXT batch's flush pass (pipelining);
//   * recovery (§4.5) scans validated ring records upward from the durable
//     hint, rolls committed batches' lost role switches forward, revokes the
//     in-flight batch all-or-nothing, and rebuilds the DRAM index, LRU list
//     and free-block monitor from the entry table;
//   * replacement (§4.6) is LRU with one extra rule: blocks involved in the
//     committing transaction (log role — and therefore also their previous
//     versions) are never evicted; dirty victims are written back to disk.
//
// Deviations from the paper's text, both documented in DESIGN.md:
//   1. a revoked (rolled-back) entry is marked by prev == curr so that a
//      crash *during recovery* cannot mis-revoke twice;
//   2. recovery drops clean (unmodified) entries, because read-cache fills
//      are installed without flushes and their data is not guaranteed
//      durable; they are mere cache and re-fetchable from disk.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blockdev/block_device.h"
#include "cleaner/cleaner.h"
#include "common/histogram.h"
#include "nvm/nvm_device.h"
#include "obs/trace.h"
#include "tinca/cache_entry.h"
#include "tinca/layout.h"
#include "tinca/mvcc.h"
#include "tinca/ring_buffer.h"
#include "tinca/slot_lru.h"

namespace tinca::core {

/// Tunables for a TincaCache instance.
struct TincaConfig {
  /// Ring buffer bytes (paper default 1 MB, §5.1).  Must be 4 KB aligned.
  std::uint64_t ring_bytes = 1 << 20;
  /// Commit streams (DESIGN.md §15): the ring region is split into this many
  /// equal per-stream rings over the one shared entry table; batches are
  /// assigned to streams round-robin, and each stream has its own hint line,
  /// so commit metadata never contends across streams.  1 = the paper's
  /// single-ring layout.  Max Layout::kMaxStreams.
  std::uint32_t num_streams = 1;
  /// Cache mode: write-back (the paper's default, §5.1) keeps committed
  /// blocks dirty until replacement; write-through additionally writes them
  /// to disk at the end of every commit (durability on *two* devices at the
  /// cost of foreground disk writes).
  bool write_through = false;
  /// Wear-aware NVM data-block allocation: the free list becomes a FIFO
  /// rotation (freed blocks rejoin at the back) and is seeded least-worn
  /// first from NvmDevice::wear() at format/recovery, so hot disk blocks
  /// cycle over the whole data area instead of rewriting one region.  Off
  /// by default: the paper's prototype allocates LIFO, and rotation trades
  /// a little DRAM locality for media lifetime.
  bool wear_level = false;
  /// Chrome-trace thread-track id for this instance's trace spans (the
  /// sharded front-end assigns each shard its own track).
  int trace_tid = 0;
  /// Retry policy for disk I/O that fails transiently.  Permanent (bad
  /// sector) write failures additionally quarantine the block in NVM and
  /// force write-through degradation (DESIGN.md §9).
  blockdev::RetryPolicy io{};
  /// Background cleaner (DESIGN.md §11).  With mode != kDisabled, eviction
  /// of dirty victims, high-watermark cleaning and degraded write-through
  /// enqueue to the cleaner instead of writing to disk on the commit path.
  /// kDisabled is the paper's behaviour: dirty blocks stay until replaced.
  cleaner::CleanerConfig cleaner{};
};

/// Runtime counters; everything the benches need to reproduce the paper's
/// per-operation metrics.
struct TincaCacheStats {
  std::uint64_t txns_committed = 0;
  std::uint64_t txns_aborted = 0;
  std::uint64_t blocks_committed = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t evictions = 0;
  /// Replacement-path disk writes only: eviction of a dirty victim,
  /// background cleaning, and explicit flush_dirty().  Foreground
  /// write-through traffic is counted separately (`writethrough_writes`) so
  /// the Fig 12 media accounting can tell replacement from commit traffic.
  std::uint64_t dirty_writebacks = 0;
  std::uint64_t writethrough_writes = 0;  ///< write-through commit disk writes
  std::uint64_t role_switches = 0;
  std::uint64_t cow_writes = 0;
  std::uint64_t background_cleanings = 0;  ///< threshold-triggered writebacks
  std::uint64_t revoked_blocks = 0;       ///< rolled back by recovery/abort
  std::uint64_t dropped_clean_entries = 0;  ///< clean entries shed at mount
  std::uint64_t recovered_entries = 0;    ///< entries kept by recovery
  std::uint64_t io_retries = 0;           ///< disk I/O retry attempts
  std::uint64_t io_quarantined = 0;       ///< blocks quarantined (bad sector)
  std::uint64_t io_degraded_writes = 0;   ///< forced write-through disk writes
  // Group commit (DESIGN.md §14).
  std::uint64_t commit_fences = 0;   ///< sfences issued by batch flush passes
  std::uint64_t commit_batches = 0;  ///< batches committed (>= 1 txn each)
  std::uint64_t hint_syncs = 0;      ///< forced durable-hint publications
  std::uint64_t group_merged_writes = 0;  ///< staged writes absorbed by
                                          ///< last-writer-wins batch merging
  // Multi-stream commit (DESIGN.md §15).
  std::uint64_t xstream_commits = 0;  ///< batches anchored to a cross-stream
                                      ///< commit-directory record
  Histogram blocks_per_txn;        ///< Fig 13 source data
  Histogram commit_batch_size;     ///< transactions per committed batch
};

/// A running transaction: blocks staged in DRAM (paper Fig 6a).
///
/// `add()` stages a whole-block update; staging the same block twice keeps
/// the latest contents.  The transaction is *running* until it is passed to
/// tinca_commit (which turns it into the committing transaction) or
/// tinca_abort.
class Transaction {
 public:
  /// Stage a 4 KB block update for `disk_blkno`.
  void add(std::uint64_t disk_blkno, std::span<const std::byte> data);

  /// Number of distinct blocks staged.
  [[nodiscard]] std::size_t block_count() const { return order_.size(); }

  /// Whether the transaction is still open (not committed/aborted).
  [[nodiscard]] bool open() const { return open_; }

  /// Transaction id (diagnostic only).
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  friend class TincaCache;
  explicit Transaction(std::uint64_t id) : id_(id) {}

  std::uint64_t id_;
  bool open_ = true;
  std::vector<std::uint64_t> order_;  ///< staging order, deduplicated
  std::unordered_map<std::uint64_t, std::vector<std::byte>> blocks_;
};

/// The transactional NVM disk cache.
class TincaCache : private cleaner::CleanerClient {
 public:
  /// Initialize a fresh cache on `nvm` (like mkfs): formats the superblock,
  /// ring and entry table.
  static std::unique_ptr<TincaCache> format(nvm::NvmDevice& nvm,
                                            blockdev::BlockDevice& disk,
                                            TincaConfig cfg = {});

  /// Mount an existing cache, running crash recovery (§4.5).  This is both
  /// the clean-restart and the after-crash path.  Anchored batches (staged
  /// by a cross-cache coordinator) are adjudicated against this cache's own
  /// commit directory; a multi-cache mount must instead use the three-phase
  /// API below so one directory adjudicates every participant.
  static std::unique_ptr<TincaCache> recover(nvm::NvmDevice& nvm,
                                             blockdev::BlockDevice& disk,
                                             TincaConfig cfg = {});

  // --- Coordinated recovery (DESIGN.md §15) --------------------------------
  //
  // The sharded front-end recovers its caches in three phases so a single
  // commit directory can adjudicate cross-cache transactions all-or-nothing:
  // mount every cache without mutating media, scan every ring, decide which
  // anchored commit ids survived on EVERY participant, then apply.

  /// An anchored batch (commit_id != 0 in its ring seal) found by the scan.
  struct AnchoredBatch {
    std::uint32_t commit_id = 0;
    /// Whether this is the cache's newest batch — the only one whose commit
    /// fence may not have completed, hence the only one needing `placed`.
    bool is_last = false;
    /// Whether every record of the batch survived whole (always true for a
    /// non-last batch: a successor batch proves its fence completed).
    bool placed = false;
  };
  struct RecoveryScan {
    std::vector<AnchoredBatch> anchored;
  };

  /// Phase 1: construct against existing media and load the entry table and
  /// ring state.  No media mutation.
  static std::unique_ptr<TincaCache> mount_for_recovery(
      nvm::NvmDevice& nvm, blockdev::BlockDevice& disk, TincaConfig cfg = {});

  /// Phase 2: scan every stream's ring from its durable hint, collecting
  /// sealed batches and trailing in-flight runs; reports the anchored
  /// batches the coordinator must adjudicate.  No media mutation.
  RecoveryScan recovery_scan();

  /// Phase 3: demote the newest batch unless it survives adjudication (a
  /// plain batch must be placed whole; an anchored batch must be in
  /// `effective_commits`), roll committed batches forward, revoke in-flight
  /// runs, and rebuild the DRAM state.  Ends with the epoch bump + ring
  /// formats that invalidate every scanned record.
  void recovery_apply(
      const std::unordered_set<std::uint32_t>& effective_commits);

  // --- Multi-stream commit phases (DESIGN.md §15) --------------------------
  //
  // tinca_commit / commit_group compose these internally (stage → flush →
  // one sfence → publish).  A cross-cache coordinator drives them directly:
  // it stages one batch per participating cache (each tagged with a shared
  // nonzero commit id), flushes them all, stages + flushes the commit
  // directory record, issues ONE sfence, then publishes every batch.  All
  // calls owner-locked, like tinca_commit.

  /// Stage a batch: merge `txns` last-writer-wins, install every block and
  /// seal the batch on the next round-robin stream, tagged with `commit_id`
  /// (0 = plain self-committing batch).  Returns false when the merge is
  /// empty (the transactions are closed; no batch is open).
  bool batch_stage(std::span<Transaction* const> txns, std::uint32_t commit_id);

  /// Flush the staged batch's dirtied ranges (and the previous batch's
  /// pending publish metadata).  NO fence — the caller's single sfence is
  /// the commit point.
  void batch_flush();

  /// After the commit fence: publish role switches, the stream's commit
  /// hint, and the MVCC versions (one epoch bump), then close the batch's
  /// transactions.
  void batch_publish();

  /// The coordinator issued the batch's single sfence on some participant's
  /// device; account it against this cache's commit-fence counter.
  void note_shared_fence() { ++stats_.commit_fences; }

  /// Stream the currently staged batch was sealed on.
  [[nodiscard]] std::uint32_t batch_stream() const { return batch_.stream; }

  /// Ring index one past the staged batch's seal record (commit-directory
  /// slot retirement waits for the stream's durable hint to pass this).
  [[nodiscard]] std::uint64_t batch_end() const { return batch_.end; }

  /// Commit streams of this cache.
  [[nodiscard]] std::uint32_t num_streams() const { return layout_.num_streams; }

  /// Per-stream ring introspection (tests, coordinator retirement polls —
  /// durable_hint() is safe to read without the owner lock).
  [[nodiscard]] const RingBuffer& stream_ring(std::uint32_t s) const {
    return rings_[s];
  }

  /// Durably sync every stream's commit hint now (flush + fence).  Public
  /// for the cross-shard coordinator: retiring a commit-directory slot
  /// needs the participants' durable hints past the anchored batches.
  /// Owner-locked, like tinca_commit.
  void sync_commit_hints() { hint_sync(); }

  // --- Transactional primitives (paper §4.1) -------------------------------

  /// Initiate a running transaction resident in DRAM.
  Transaction tinca_init_txn();

  /// Convert `txn` to the committing transaction and commit all its blocks
  /// into the NVM cache (§4.4).  On return the transaction is durable.
  /// Equivalent to a commit_group() of one.
  void tinca_commit(Transaction& txn);

  /// Group commit (DESIGN.md §14): commit several running transactions as
  /// ONE batch — their staged blocks are merged last-writer-wins (in span
  /// order), installed with staged (unflushed) stores, sealed by a single
  /// ring commit record, and made durable by ONE clflush pass + ONE sfence
  /// for the whole batch.  Role switches and the commit hint are published
  /// as staged stores swept out by the NEXT batch's flush pass (the
  /// pipelining).  The batch is atomic: a crash surfaces either every
  /// transaction in it or none.  On return every transaction is durable.
  void commit_group(std::span<Transaction* const> txns);

  /// Abort a *running* transaction: staged blocks are discarded; nothing has
  /// reached the cache.
  void tinca_abort(Transaction& txn);

  /// Durably sweep out the lazily-published commit metadata (the newest
  /// batch's staged role switches and the commit hint) with one fence.
  /// Commits are already durable without this — recovery replays the role
  /// switches from the ring — so it is purely a quiesce: after it returns,
  /// the media carries no staged commit state at all.
  void sync_metadata() { hint_sync(); }

  // --- Cached block I/O ----------------------------------------------------

  /// Read a 4 KB block through the cache (LRU updated, misses filled from
  /// disk and optionally cached).
  void read_block(std::uint64_t disk_blkno, std::span<std::byte> dst);

  /// Convenience: durably write one block as a single-block transaction.
  void write_block(std::uint64_t disk_blkno, std::span<const std::byte> data);

  /// Write every dirty cached block back to disk (blocks stay cached clean).
  void flush_dirty();

  // --- Snapshot reads (MVCC, DESIGN.md §12) --------------------------------

  /// Pin the current commit epoch for lock-free snapshot reads.  The pin is
  /// taken without the owner's mutex and MUST be released with
  /// snapshot_unpin().  A failed pin (pin.valid() == false) means the pin
  /// registry is full; callers fall back to the locked read path.
  [[nodiscard]] SnapshotPin snapshot_pin() { return mvcc_.pin(); }

  /// Release a pin from snapshot_pin().  Lock-free.
  void snapshot_unpin(const SnapshotPin& pin) { mvcc_.unpin(pin); }

  /// Read `disk_blkno` as of the pinned epoch, without taking any lock:
  /// resolve the block's version chain to the newest version <= pin.epoch
  /// and copy it out of NVM; blocks with no such version fall back to disk
  /// (whose content is guaranteed not to have advanced past the pin — see
  /// the writeback defer rule in DESIGN.md §12).  Thread-safe concurrently
  /// with the owner thread iff `disk` is (the sharded front-end wraps the
  /// shared disk in LockedBlockDevice).  Does not touch the LRU, the stats
  /// block or the simulated clock.  Throws IoError on an unrecoverable
  /// disk read.
  void snapshot_read(const SnapshotPin& pin, std::uint64_t disk_blkno,
                     std::span<std::byte> dst) const;

  /// Chain-only variant of snapshot_read: returns false instead of falling
  /// back to disk.  This is the sharded front-end's lock-free read fast
  /// path — a false return sends the caller to the locked read path, which
  /// fills the cache and updates the LRU as usual.
  [[nodiscard]] bool snapshot_try_read(const SnapshotPin& pin,
                                       std::uint64_t disk_blkno,
                                       std::span<std::byte> dst) const;

  /// The MVCC version-chain table (test/bench hook).
  [[nodiscard]] const MvccTable& mvcc() const { return mvcc_; }

  /// One epoch-based reclamation pass: trims version-chain suffixes no pin
  /// can reach and returns their NVM blocks to the free pool.  Called
  /// automatically from commits, cleaner_step() and eviction pressure; the
  /// explicit hook exists for tests.  Owner thread only.
  void mvcc_reclaim();

  // --- Background cleaner (DESIGN.md §11) ----------------------------------

  /// One cleaner pacing quantum (stepped mode).  Also runs an MVCC
  /// reclamation pass (the quantum is the natural amortization point).
  /// No-op when no cleaner is configured, so harness loops can call it
  /// unconditionally.
  void cleaner_step() {
    mvcc_reclaim();
    if (cleaner_) cleaner_->step();
  }

  /// The cleaner instance, or nullptr when mode is kDisabled.
  [[nodiscard]] cleaner::Cleaner* cleaner() { return cleaner_.get(); }
  [[nodiscard]] const cleaner::Cleaner* cleaner() const {
    return cleaner_.get();
  }

  // --- Introspection -------------------------------------------------------

  /// Whether `disk_blkno` is currently cached.
  [[nodiscard]] bool cached(std::uint64_t disk_blkno) const;

  /// Whether `disk_blkno` is cached and dirty.
  [[nodiscard]] bool dirty(std::uint64_t disk_blkno) const;

  /// The persistent entry for a cached block (test hook).
  [[nodiscard]] CacheEntry entry_for(std::uint64_t disk_blkno) const;

  /// Data-block capacity of the cache.
  [[nodiscard]] std::uint64_t capacity_blocks() const { return layout_.num_blocks; }

  /// Number of valid cached blocks.
  [[nodiscard]] std::uint64_t cached_blocks() const { return index_.size(); }

  /// Number of free NVM data blocks.
  [[nodiscard]] std::uint64_t free_blocks() const { return free_blocks_.count(); }

  /// Number of cached blocks that are dirty (maintained incrementally, so
  /// the per-commit cleaner check costs O(1) — see clean_to_threshold).
  [[nodiscard]] std::uint64_t dirty_blocks() const { return dirty_count_; }

  /// Largest transaction (in blocks) this cache can commit.
  [[nodiscard]] std::uint64_t max_txn_blocks() const;

  /// Disk blocks currently quarantined after a permanent write failure
  /// (their newest data is pinned dirty in NVM; DESIGN.md §9).
  [[nodiscard]] std::uint64_t quarantined_blocks() const {
    return quarantine_.size();
  }

  /// Whether a permanent disk fault forced write-through degradation.
  [[nodiscard]] bool degraded() const { return degraded_; }

  [[nodiscard]] const TincaCacheStats& stats() const { return stats_; }
  [[nodiscard]] const Layout& layout() const { return layout_; }
  [[nodiscard]] nvm::NvmDevice& nvm() { return nvm_; }
  [[nodiscard]] blockdev::BlockDevice& disk() { return disk_; }

  // --- Observability (src/obs/) --------------------------------------------

  /// Per-op trace spans: tinca.commit / tinca.cow_write / tinca.ring_append /
  /// tinca.role_switch / tinca.evict / tinca.writeback / tinca.recovery /
  /// tinca.read / tinca.abort / tinca.io_retry (one span per disk retry,
  /// covering its backoff wait).  Disabled by default (one branch per span);
  /// enable() for latency histograms, attach_sink() for Chrome traces.
  [[nodiscard]] obs::Tracer& tracer() { return trace_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return trace_; }

  /// Enable/disable span recording for this cache *and* its cleaner.
  void enable_tracing(bool on = true) {
    trace_.enable(on);
    if (cleaner_) cleaner_->tracer().enable(on);
  }

  /// Attach a Chrome-trace sink to this cache *and* its cleaner.
  void attach_trace_sink(obs::TraceSink* sink) {
    trace_.attach_sink(sink);
    if (cleaner_) cleaner_->tracer().attach_sink(sink);
  }

  /// Register every stats counter, the capacity/occupancy gauges and the
  /// span histograms into `reg` under `prefix` (e.g. "tinca.").  The
  /// registry must not outlive this cache.
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const;

 private:
  TincaCache(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk, TincaConfig cfg);

  void format_media();
  /// Recovery phase 1 body: identity checks + ring/table load, no mutation.
  void load_for_recovery();
  /// Seed the free-block pool least-worn first (no-op unless wear_level).
  void order_free_blocks_by_wear();

  // Recovery scratch carried from recovery_scan() to recovery_apply().
  struct RecoveredBatch {
    std::vector<RingRecord> records;
    std::uint32_t seq = 0;
    std::uint32_t commit_id = 0;
    std::uint32_t stream = 0;
  };
  struct RecoveryState {
    std::vector<RecoveredBatch> batches;          ///< sealed, all streams
    std::vector<std::vector<RingRecord>> runs;    ///< per-stream in-flight
    int last = -1;          ///< index of the max-seq (newest) batch
    bool last_placed = false;
  };
  [[nodiscard]] std::uint64_t block_fp(std::uint32_t nvm_block) const;
  [[nodiscard]] bool record_placed(const RingRecord& r) const;

  // Commit-protocol stages (DESIGN.md §14).  stage_block_install stages one
  // merged block's COW/miss install (unflushed stores, ranges collected into
  // flush_ranges_); publish_switches stages the batch's role switches into
  // pending_ranges_ (swept out by the NEXT batch's flush pass).
  void stage_block_install(std::uint64_t disk_blkno,
                           std::span<const std::byte> data);
  void publish_switches(const std::vector<std::uint64_t>& blocks);
  // Close a transaction whose blocks just committed (stats + reset).
  void close_committed(Transaction& t);
  // Flush pending_ranges_ (the newest batch's role switches + hint line) and
  // durably publish hint := tail, so recovery never re-validates that batch.
  // Forced by ring-full backpressure and by eviction of a newest-batch block.
  void hint_sync();

  // Entry plumbing.  The _staged variants store without flushing and append
  // the dirtied byte range to `ranges` for a later batch flush pass.
  void write_entry(std::uint32_t slot, const CacheEntry& e);
  void write_entry_staged(std::uint32_t slot, const CacheEntry& e,
                          std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranges);
  void invalidate_entry(std::uint32_t slot);
  [[nodiscard]] CacheEntry read_entry_from_nvm(std::uint32_t slot) const;
  void write_data_block(std::uint32_t nvm_block, std::span<const std::byte> data);
  void write_data_block_staged(std::uint32_t nvm_block,
                               std::span<const std::byte> data);

  // Replacement.  evict_one scans from `scan_from` (SlotLru::kNil → the LRU
  // end) and returns the slot to resume scanning from, so that one
  // ensure_free pass visits each skipped victim at most once (O(n) total
  // instead of O(n²) rescans from the tail).
  void ensure_free(std::uint32_t entries, std::uint32_t blocks);
  std::uint32_t evict_one(std::uint32_t scan_from);
  bool writeback(std::uint32_t slot);
  /// After each commit: above the cleaner's high watermark, enqueue the
  /// oldest dirty blocks for its next steps.  No-op without a cleaner.
  void clean_to_threshold();

  // CleanerClient (the cleaner retires dirty blocks through these).
  cleaner::CleanOutcome cleaner_clean(std::uint64_t key,
                                      std::uint64_t* io_retries) override;
  [[nodiscard]] std::uint64_t cleaner_dirty_blocks() const override;
  [[nodiscard]] std::uint64_t cleaner_capacity_blocks() const override;
  void cleaner_collect(std::uint32_t max,
                       std::vector<std::uint64_t>& out) override;

  // Disk I/O with the retry/quarantine policy (DESIGN.md §9).  The 3-arg
  // overload charges retry waits to `retry_counter` (foreground commits use
  // stats_.io_retries; the cleaner passes its own counter).
  blockdev::IoStatus disk_write(std::uint64_t blkno,
                                std::span<const std::byte> buf);
  blockdev::IoStatus disk_write(std::uint64_t blkno,
                                std::span<const std::byte> buf,
                                std::uint64_t* retry_counter);
  blockdev::IoStatus disk_read(std::uint64_t blkno, std::span<std::byte> dst);
  void note_bad_block(std::uint64_t blkno);

  // Debug-build cross-check of the incremental dirty counter against a full
  // index scan (compiled out under NDEBUG).
  void assert_dirty_count() const;

  // Recovery helpers.
  void revoke_slot(std::uint32_t slot);

  // MVCC helpers (DESIGN.md §12).
  // Publish `nvm_block` as the version of `disk_blkno` for the *next* epoch
  // and track the chain's 1→2 transition for reclamation.
  void mvcc_publish(std::uint64_t disk_blkno, std::uint32_t nvm_block);
  // Ensure the block's *current* committed bytes are reachable through a
  // chain before a COW overwrites the entry: clean fills and recovery
  // survivors have no chain yet, so their NVM block is published as an
  // epoch-1 baseline version (the chain takes ownership of the block).
  void mvcc_baseline(std::uint64_t disk_blkno, std::uint32_t nvm_block);
  // Whether writing this block's newest version to disk could rob a pinned
  // reader of the only copy of the version it needs (no chain rec <= its
  // pin).  Writebacks and cleaning defer while this is true.
  [[nodiscard]] bool mvcc_defer_disk_write(std::uint64_t disk_blkno) const;

  nvm::NvmDevice& nvm_;
  blockdev::BlockDevice& disk_;
  TincaConfig cfg_;
  Layout layout_;
  std::vector<RingBuffer> rings_;  ///< one per commit stream (§15)

  std::vector<CacheEntry> mirror_;                       ///< DRAM copy of entries
  std::unordered_map<std::uint64_t, std::uint32_t> index_;  ///< disk blk → slot
  SlotLru lru_;
  FreeMonitor free_entries_;
  FreeMonitor free_blocks_;

  std::uint64_t next_txn_id_ = 1;
  std::uint64_t dirty_count_ = 0;  ///< valid+modified entries (incremental)
  std::uint64_t format_epoch_ = 0;  ///< cached superblock format epoch

  // Multi-stream commit state (DESIGN.md §15).
  std::uint32_t next_stream_ = 0;  ///< round-robin batch → stream assignment
  /// Cache-wide monotonic batch sequence, carried in every seal's commit
  /// tag: recovery uses it to identify THE newest batch across all streams —
  /// the only one whose fence may not have completed.  DRAM; restarts at 1
  /// per mount (the epoch bump retires all earlier records).
  std::uint32_t batch_seq_ = 1;
  /// The staged-but-unpublished batch (at most one per cache: the owner
  /// mutex serializes commits).
  struct OpenBatch {
    bool active = false;
    std::uint32_t stream = 0;
    std::uint32_t commit_id = 0;
    std::uint64_t start = 0;  ///< ring index of the batch's first record
    std::uint64_t end = 0;    ///< ring index one past the seal record
    std::vector<std::uint64_t> order;    ///< merged block order
    std::vector<Transaction*> txns;      ///< closed at publish
  };
  OpenBatch batch_;
  std::unique_ptr<RecoveryState> recovery_;  ///< scan → apply scratch

  // Group-commit pipeline state (DESIGN.md §14).
  /// Byte ranges dirtied by the OPEN batch (staged data, entries, ring
  /// records); flushed and cleared by its own flush pass.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> flush_ranges_;
  /// Byte ranges staged at the last publish (role-switched entries + the
  /// commit hint line); swept out by the NEXT batch's flush pass or by
  /// hint_sync().
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pending_ranges_;
  /// Disk blocks of the newest published batch.  Evicting or invalidating
  /// one of these before the durable hint has moved past the batch would let
  /// recovery demote an acked batch, so eviction hint_sync()s first.
  std::unordered_set<std::uint64_t> last_batch_blocks_;
  /// Disk blocks with permanent write failures; their data stays pinned
  /// dirty in NVM.  DRAM-only: quarantined blocks remain dirty, recovery
  /// keeps dirty entries, and the next writeback attempt re-discovers the
  /// fault, so nothing is lost by forgetting the set across a crash.
  std::unordered_set<std::uint64_t> quarantine_;
  bool degraded_ = false;  ///< permanent fault seen → forced write-through
  TincaCacheStats stats_;

  /// Per-block version chains + commit epoch + pin registry (DRAM-only;
  /// rebuilt from the entry table at mount like the index and LRU).
  MvccTable mvcc_;
  std::vector<std::uint32_t> mvcc_freed_;  ///< reclaim scratch buffer

  obs::Tracer trace_;  ///< virtual-time tracer (nvm_'s clock)
  obs::Tracer::Site* ts_commit_;
  obs::Tracer::Site* ts_abort_;
  obs::Tracer::Site* ts_cow_;
  obs::Tracer::Site* ts_ring_;
  obs::Tracer::Site* ts_role_switch_;
  obs::Tracer::Site* ts_evict_;
  obs::Tracer::Site* ts_writeback_;
  obs::Tracer::Site* ts_recovery_;
  obs::Tracer::Site* ts_read_;
  obs::Tracer::Site* ts_io_retry_;
  // Pipeline-stage spans (DESIGN.md §14): append / flush / publish phases of
  // commit_group, so traces show how much of a batch overlaps its successor.
  obs::Tracer::Site* ts_batch_append_;
  obs::Tracer::Site* ts_batch_flush_;
  obs::Tracer::Site* ts_batch_publish_;

  /// Background cleaner (DESIGN.md §11); null when cfg_.cleaner.mode is
  /// kDisabled.  Declared last: it references this cache as its client, so
  /// it must be destroyed first.
  std::unique_ptr<cleaner::Cleaner> cleaner_;
};

}  // namespace tinca::core
