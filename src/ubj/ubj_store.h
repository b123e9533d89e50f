// UBJ-style unioned buffer cache + journal (Lee, Bahn, Noh — FAST'13),
// the design the paper compares against qualitatively in §5.4.4.
//
// UBJ treats NVM main memory as both the buffer cache and the journal:
//
//   * writes land in NVM buffer-cache blocks in place (no DRAM staging);
//   * commit is **commit-in-place**: the transaction's blocks are *frozen* —
//     a state change, not a copy — and become the journal;
//   * writing to a frozen block cannot overwrite it (it is a journal copy):
//     UBJ performs a **memcpy to a fresh block on the write's critical
//     path**, which the paper singles out as UBJ's first weakness;
//   * **checkpointing is transaction-granular**: to free NVM, whole
//     committed transactions are written to disk and unfrozen — the paper's
//     second criticism (a large transaction blocks for many disk writes),
//     and stale frozen copies superseded by newer transactions are still
//     carried until their transaction checkpoints.
//
// The model reuses this repository's 16 B entry format with a per-entry
// transaction sequence number and a persistent last-committed-sequence field
// that publishes commits atomically (UBJ's commit record).  Recovery keeps
// the newest frozen copy of every block whose sequence is committed and
// discards everything else.
#pragma once

#include <cstdint>
#include <deque>
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
#include "tinca/slot_lru.h"

namespace tinca::ubj {

/// UBJ tunables.
struct UbjConfig {
  /// Checkpoint when the free fraction of NVM blocks drops below this.
  static constexpr double kCheckpointLowWater = 0.15;
  /// Committed transactions checkpointed per trigger (batch size).
  static constexpr std::uint32_t kCheckpointTxnBatch = 8;
  /// Retry/backoff policy for disk I/O (DESIGN.md §9).
  blockdev::RetryPolicy io{};
  /// Background cleaner (DESIGN.md §11).  Keys are transaction sequence
  /// numbers: one retired key = one whole transaction checkpointed off the
  /// commit path (UBJ checkpointing stays txn-granular and FIFO).
  cleaner::CleanerConfig cleaner{};
};

/// Counters.
struct UbjStats {
  std::uint64_t txns_committed = 0;
  std::uint64_t blocks_committed = 0;
  std::uint64_t frozen_cow_copies = 0;   ///< memcpy-on-critical-path events
  std::uint64_t checkpointed_txns = 0;
  std::uint64_t checkpoint_writes = 0;   ///< disk writes from checkpointing
  std::uint64_t stale_checkpoint_writes = 0;  ///< superseded copies written
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t recovered_entries = 0;
  std::uint64_t discarded_uncommitted = 0;
  std::uint64_t io_retries = 0;          ///< disk retries after kTransient
  std::uint64_t io_quarantined = 0;      ///< blocks quarantined (bad sector)
  std::uint64_t io_degraded_writes = 0;  ///< eager checkpoint writes while degraded
  Histogram blocks_per_txn;
};

/// The UBJ store: NVM buffer cache with in-place commit and txn checkpoints.
class UbjStore : private cleaner::CleanerClient {
 public:
  static std::unique_ptr<UbjStore> format(nvm::NvmDevice& nvm,
                                          blockdev::BlockDevice& disk,
                                          UbjConfig cfg = {});

  static std::unique_ptr<UbjStore> recover(nvm::NvmDevice& nvm,
                                           blockdev::BlockDevice& disk,
                                           UbjConfig cfg = {});

  /// Stage + commit a transaction of whole-block updates; on return it is
  /// durable (all blocks frozen, sequence published).
  void commit_txn(
      const std::vector<std::pair<std::uint64_t, std::vector<std::byte>>>& blocks);

  /// Read a block: working copy, else newest frozen copy, else disk.
  void read_block(std::uint64_t disk_blkno, std::span<std::byte> dst);

  /// Checkpoint everything (unmount path).
  void checkpoint_all();

  // --- Background cleaner (DESIGN.md §11) ----------------------------------

  /// One cleaner pacing quantum; no-op without a configured cleaner.
  void cleaner_step() {
    if (cleaner_) cleaner_->step();
  }

  /// The cleaner instance, or nullptr when mode is kDisabled.
  [[nodiscard]] cleaner::Cleaner* cleaner() { return cleaner_.get(); }

  /// Enable/disable span recording for this store *and* its cleaner.
  void enable_tracing(bool on = true) {
    trace_.enable(on);
    if (cleaner_) cleaner_->tracer().enable(on);
  }

  /// Attach a Chrome-trace sink to this store *and* its cleaner.
  void attach_trace_sink(obs::TraceSink* sink) {
    trace_.attach_sink(sink);
    if (cleaner_) cleaner_->tracer().attach_sink(sink);
  }

  [[nodiscard]] bool cached(std::uint64_t disk_blkno) const;
  [[nodiscard]] std::uint64_t capacity_blocks() const { return num_blocks_; }
  [[nodiscard]] std::uint64_t frozen_blocks() const { return frozen_count_; }
  [[nodiscard]] const UbjStats& stats() const { return stats_; }

  /// Blocks quarantined after a permanent bad sector.  Their frozen NVM
  /// slots stay pinned forever (UBJ's checkpoint cannot retire them), so
  /// quarantine shows up as capacity degradation.
  [[nodiscard]] std::size_t quarantined_blocks() const {
    return quarantine_.size();
  }

  /// Whether a permanent disk fault has switched the store to eager
  /// (write-through-like) checkpointing.
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Trace spans: ubj.freeze (commit-in-place) / ubj.checkpoint /
  /// ubj.recovery (virtual-time; disabled by default).
  [[nodiscard]] obs::Tracer& tracer() { return trace_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return trace_; }

  /// Register the UBJ counters, gauges and span histograms under `prefix`.
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const;

 private:
  UbjStore(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk, UbjConfig cfg);

  struct Slot {
    bool valid = false;
    bool frozen = false;
    std::uint64_t disk_blkno = 0;
    std::uint32_t seq = 0;  ///< committing transaction sequence
  };

  void format_media();
  void run_recovery();
  void persist_slot(std::uint32_t slot);
  void publish_seq(std::uint64_t seq);
  std::uint32_t allocate_slot();
  /// Checkpoint the oldest outstanding transaction (always consumes the
  /// front record); retry backoff spent on disk is charged to `*io_retries`.
  void checkpoint_front(std::uint64_t* io_retries);
  void checkpoint_batch();
  void evict_one_clean();

  // CleanerClient: keys are txn sequence numbers, cleaned strictly FIFO.
  cleaner::CleanOutcome cleaner_clean(std::uint64_t key,
                                      std::uint64_t* io_retries) override;
  [[nodiscard]] std::uint64_t cleaner_dirty_blocks() const override;
  [[nodiscard]] std::uint64_t cleaner_capacity_blocks() const override;
  void cleaner_collect(std::uint32_t max,
                       std::vector<std::uint64_t>& out) override;

  /// Disk I/O with the configured retry policy (traced per retry); the 3-arg
  /// write charges retries to `retry_counter` (the cleaner's or our own).
  blockdev::IoStatus disk_write(std::uint64_t blkno,
                                std::span<const std::byte> buf);
  blockdev::IoStatus disk_write(std::uint64_t blkno,
                                std::span<const std::byte> buf,
                                std::uint64_t* retry_counter);
  blockdev::IoStatus disk_read(std::uint64_t blkno, std::span<std::byte> buf);
  void note_bad_block(std::uint64_t disk_blkno);

  [[nodiscard]] std::uint64_t entry_off(std::uint32_t slot) const;
  [[nodiscard]] std::uint64_t data_off(std::uint32_t slot) const;

  nvm::NvmDevice& nvm_;
  blockdev::BlockDevice& disk_;
  UbjConfig cfg_;
  std::uint64_t num_blocks_ = 0;
  std::uint64_t entry_table_off_ = 0;
  std::uint64_t data_off_ = 0;

  std::vector<Slot> slots_;
  /// Latest (working or newest-frozen) slot per disk block.
  std::unordered_map<std::uint64_t, std::uint32_t> latest_;
  core::SlotLru lru_;          ///< over clean, unfrozen slots only
  core::FreeMonitor free_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t committed_seq_ = 0;
  std::uint64_t frozen_count_ = 0;

  struct TxnRecord {
    std::uint64_t seq;
    std::vector<std::uint32_t> slots;
  };
  std::deque<TxnRecord> unchkpt_;

  UbjStats stats_;
  /// Disk blocks that hit a permanent bad sector (DRAM-only: their slots
  /// stay frozen in NVM, so a restart re-discovers them at checkpoint time).
  std::unordered_set<std::uint64_t> quarantine_;
  bool degraded_ = false;

  obs::Tracer trace_;  ///< virtual-time tracer (nvm_'s clock)
  obs::Tracer::Site* ts_freeze_;
  obs::Tracer::Site* ts_checkpoint_;
  obs::Tracer::Site* ts_recovery_;
  obs::Tracer::Site* ts_io_retry_;

  /// Background cleaner; null when cfg_.cleaner.mode is kDisabled.  Last
  /// member: it references this store as its client.
  std::unique_ptr<cleaner::Cleaner> cleaner_;
};

}  // namespace tinca::ubj
