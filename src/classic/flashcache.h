// Flashcache-style NVM block cache (the "Classic" baseline's middle layer).
//
// Facebook's Flashcache — the cache manager the paper uses for its Classic
// competitor (§5.1) — is a set-associative write-back cache that keeps its
// cache metadata in *block* format on the cache device and updates it
// *synchronously*: every time the file system writes a block, the containing
// metadata block is rewritten too (§3.2).  That is the second source of the
// write amplification Tinca removes, so this model is faithful on exactly
// those axes:
//
//   * one 4 KB metadata block per set of 256 slots (16 B per slot record);
//   * every state-changing cache operation persists the whole metadata
//     block of the affected set (64 cache-line flushes);
//   * data blocks are persisted before metadata acknowledges them, giving
//     the cache its own crash consistency;
//   * replacement is per-set LRU.
//
// The `sync_metadata` and `use_flush` switches implement the paper's §3
// motivation ablations (Fig 3(b), Fig 4): disabling them removes the
// corresponding consistency cost without changing the data path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blockdev/block_device.h"
#include "nvm/nvm_device.h"

namespace tinca::obs {
class MetricsRegistry;
}  // namespace tinca::obs

namespace tinca::classic {

/// Tunables for the Flashcache model.
struct FlashCacheConfig {
  /// Slots per set == slot records per metadata block (4096 / 16).
  static constexpr std::uint32_t kAssoc = 256;
  /// Background-writeback dirty threshold per set, in percent (Flashcache's
  /// `dirty_thresh_pct` default): when a set's dirty fraction exceeds this,
  /// dirty blocks are written back oldest-first until it is met.
  static constexpr std::uint32_t kDirtyThreshPct = 20;
  /// Synchronously persist the set's metadata block on every write
  /// (Flashcache's behaviour).  Off = the Fig 4 "no metadata updating"
  /// ablation.
  bool sync_metadata = true;
  /// Issue clflush/sfence when persisting (off = the Fig 3(b) "without
  /// clflush" ablation; data still reaches NVM but unordered/undurable).
  bool use_flush = true;
  /// Block numbers below this boundary are counted in the data_* hit/miss
  /// statistics (the stack above sets it to the journal base so workload
  /// data and journal traffic can be told apart).  Default: everything.
  std::uint64_t hit_stats_boundary = UINT64_MAX;
  /// Retry/backoff policy for disk I/O (DESIGN.md §9).
  blockdev::RetryPolicy io{};
};

/// Counters for one FlashCache instance.
struct FlashCacheStats {
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t data_write_hits = 0;    ///< hits below hit_stats_boundary
  std::uint64_t data_write_misses = 0;  ///< misses below hit_stats_boundary
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_writebacks = 0;
  std::uint64_t threshold_cleanings = 0;  ///< dirty-threshold writebacks
  std::uint64_t metadata_block_writes = 0;
  std::uint64_t io_retries = 0;          ///< disk retries after kTransient
  std::uint64_t io_quarantined = 0;      ///< blocks quarantined (bad sector)
  std::uint64_t io_degraded_writes = 0;  ///< forced write-through writes
};

/// Set-associative write-back NVM cache with block-format metadata.
class FlashCache {
 public:
  /// Format a fresh cache over `nvm` (like `flashcache_create`).
  static std::unique_ptr<FlashCache> format(nvm::NvmDevice& nvm,
                                            blockdev::BlockDevice& disk,
                                            FlashCacheConfig cfg = {});

  /// Mount an existing cache, reconstructing state from the metadata blocks
  /// (Flashcache's "slow full boot").
  static std::unique_ptr<FlashCache> recover(nvm::NvmDevice& nvm,
                                             blockdev::BlockDevice& disk,
                                             FlashCacheConfig cfg = {});

  /// Write one 4 KB block through the cache (write-back).  Returns the
  /// worst disk-I/O status encountered while servicing the call (internal
  /// writebacks, degraded write-through); the cached copy itself is always
  /// updated, so a non-kOk result means reduced durability, not data loss.
  blockdev::IoStatus write_block(std::uint64_t disk_blkno,
                                 std::span<const std::byte> data);

  /// Read one 4 KB block through the cache.  On a miss whose disk read
  /// fails even after retries, returns the failure status and leaves `dst`
  /// unspecified (the block is not cached).
  blockdev::IoStatus read_block(std::uint64_t disk_blkno,
                                std::span<std::byte> dst);

  /// Write every dirty block back to disk (blocks stay cached clean).
  void flush_dirty();

  /// Whether a block is cached.
  [[nodiscard]] bool cached(std::uint64_t disk_blkno) const {
    return index_.contains(disk_blkno);
  }

  /// Whether a block is cached dirty.
  [[nodiscard]] bool dirty(std::uint64_t disk_blkno) const;

  /// Total data-slot capacity.
  [[nodiscard]] std::uint64_t capacity_blocks() const { return num_slots_; }

  /// Currently valid slots.
  [[nodiscard]] std::uint64_t cached_blocks() const { return index_.size(); }

  [[nodiscard]] const FlashCacheStats& stats() const { return stats_; }
  [[nodiscard]] nvm::NvmDevice& nvm() { return nvm_; }

  /// Blocks quarantined after hitting a permanent bad sector (DRAM-only:
  /// they stay dirty in NVM, so a restart re-discovers them on the next
  /// writeback attempt).
  [[nodiscard]] std::size_t quarantined_blocks() const {
    return quarantine_.size();
  }

  /// Whether a permanent disk fault has forced write-through degradation.
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Register the cache counters and occupancy gauges under `prefix`.
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const;

 private:
  FlashCache(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
             FlashCacheConfig cfg);

  struct Slot {
    std::uint64_t disk_blkno = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru_tick = 0;  ///< DRAM-only recency stamp
  };

  void format_media();
  void run_recovery();

  [[nodiscard]] std::uint32_t set_of(std::uint64_t disk_blkno) const;
  /// Find a slot in `set` for `disk_blkno`, evicting the set-LRU victim if
  /// the set is full.  Returns the global slot id.
  std::uint32_t provision_slot(std::uint32_t set, std::uint64_t disk_blkno);
  /// Enforce the dirty threshold on `set`: write back oldest dirty blocks.
  void clean_set_to_threshold(std::uint32_t set);
  void persist_set_metadata(std::uint32_t set);
  void persist_data(std::uint32_t slot, std::span<const std::byte> data);

  /// Disk I/O with the configured retry policy; folds the final status into
  /// the running per-operation aggregate (`op_st_`).
  blockdev::IoStatus disk_write(std::uint64_t blkno,
                                std::span<const std::byte> buf);
  blockdev::IoStatus disk_read(std::uint64_t blkno, std::span<std::byte> buf);
  /// Quarantine `disk_blkno` after a kBadSector write and degrade the cache
  /// to forced write-through.
  void note_bad_block(std::uint64_t disk_blkno);
  /// Write slot `slot` back to disk; false when it could not be written
  /// (quarantined or failing) and must stay dirty.
  bool writeback_slot(std::uint32_t slot);

  [[nodiscard]] std::uint64_t metadata_off(std::uint32_t set) const;
  [[nodiscard]] std::uint64_t data_off(std::uint32_t slot) const;

  nvm::NvmDevice& nvm_;
  blockdev::BlockDevice& disk_;
  FlashCacheConfig cfg_;
  std::uint32_t num_sets_ = 0;
  std::uint64_t num_slots_ = 0;
  std::uint64_t data_region_off_ = 0;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> set_dirty_;  ///< dirty count per set
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  std::uint64_t lru_clock_ = 0;
  FlashCacheStats stats_;
  /// Disk blocks that hit a permanent bad sector (DRAM-only; see
  /// quarantined_blocks()).
  std::unordered_set<std::uint64_t> quarantine_;
  bool degraded_ = false;
  /// Worst disk status seen while servicing the current public operation.
  blockdev::IoStatus op_st_ = blockdev::IoStatus::kOk;
};

}  // namespace tinca::classic
