// JBD2-style redo journal (the "Classic" baseline's top layer).
//
// Reproduces the on-disk journal structure of §2.3 / Fig 2(b): a journal
// superblock, then transactions made of descriptor blocks (tagging the home
// addresses of the following log blocks), the log blocks themselves, and a
// commit block that seals the transaction.  Committed transactions are later
// *checkpointed* — every logged block is written a second time to its home
// location — when journal space runs low.  Those are exactly the double
// writes Tinca eliminates.
//
// The journal lives in a reserved block range of the disk address space and
// performs all its I/O through the cache layer below (FlashCache), so
// journal traffic both amplifies NVM writes and competes for cache capacity,
// as the paper observes (§3.1, §5.4.2).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "classic/flashcache.h"
#include "obs/trace.h"

namespace tinca::classic {

/// Journal geometry and policy.
struct JournalConfig {
  /// First disk block of the journal area.
  std::uint64_t base_blkno = 0;
  /// Length of the journal area in blocks (superblock + ring).
  std::uint64_t length_blocks = 8192;
  /// Checkpoint when the free fraction of the ring drops below this.
  static constexpr double kCheckpointLowWater = 0.25;
};

/// Counters for one journal instance.
struct JournalStats {
  std::uint64_t txns_committed = 0;
  std::uint64_t log_blocks_written = 0;
  std::uint64_t descriptor_blocks_written = 0;
  std::uint64_t commit_blocks_written = 0;
  std::uint64_t checkpoint_writes = 0;  ///< second (home-location) writes
  std::uint64_t superblock_writes = 0;
  std::uint64_t txns_replayed = 0;      ///< recovered by replay
  /// Cache operations that reported a disk fault (non-kOk status from the
  /// FlashCache below).  The journal's own data is safe in NVM either way;
  /// this counts how often the backing disk degraded under journal traffic.
  std::uint64_t io_errors_observed = 0;
};

/// Redo journal over a FlashCache-managed device.
class Journal {
 public:
  /// Initialize a fresh journal in its reserved area.
  static std::unique_ptr<Journal> format(FlashCache& cache, JournalConfig cfg);

  /// Mount an existing journal, replaying committed transactions
  /// (JBD2-style recovery: replay == checkpoint-all).
  static std::unique_ptr<Journal> recover(FlashCache& cache, JournalConfig cfg);

  /// Commit one transaction: descriptor block(s) + log blocks + commit
  /// block, all through the cache.  `blocks` pairs home block numbers with
  /// their 4 KB contents.
  void commit(const std::vector<std::pair<std::uint64_t, std::vector<std::byte>>>& blocks);

  /// If `blkno` is committed but not yet checkpointed, return its latest
  /// logged contents (models the page cache holding dirty buffers); nullptr
  /// otherwise.
  [[nodiscard]] const std::vector<std::byte>* pending(std::uint64_t blkno) const;

  /// Checkpoint every outstanding transaction (unmount path).
  void checkpoint_all();

  /// Number of free ring blocks.
  [[nodiscard]] std::uint64_t free_ring_blocks() const;

  /// Largest number of data blocks one transaction may log.
  [[nodiscard]] std::uint64_t max_txn_blocks() const;

  [[nodiscard]] const JournalStats& stats() const { return stats_; }
  [[nodiscard]] const JournalConfig& config() const { return cfg_; }

  /// Trace spans: classic.journal_commit / classic.checkpoint /
  /// classic.replay (virtual-time; disabled by default).
  [[nodiscard]] obs::Tracer& tracer() { return trace_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return trace_; }

  /// Register the journal counters and span histograms under `prefix`.
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const;

 private:
  Journal(FlashCache& cache, JournalConfig cfg);

  struct TxnRecord {
    std::uint64_t seq;
    std::uint64_t ring_blocks;  ///< descriptor + log + commit blocks used
    std::vector<std::uint64_t> home_blknos;
  };

  void format_media();
  void run_recovery();
  void write_superblock();
  void checkpoint_one();
  void make_room(std::uint64_t needed_blocks);
  /// Fold a cache-returned status into io_errors_observed.
  void observe(blockdev::IoStatus st);

  [[nodiscard]] std::uint64_t ring_len() const { return cfg_.length_blocks - 1; }
  [[nodiscard]] std::uint64_t ring_blkno(std::uint64_t off) const {
    return cfg_.base_blkno + 1 + (off % ring_len());
  }

  FlashCache& cache_;
  JournalConfig cfg_;

  std::uint64_t head_off_ = 0;  ///< monotonic ring offset of next write
  std::uint64_t tail_off_ = 0;  ///< monotonic ring offset of oldest txn
  std::uint64_t next_seq_ = 1;
  std::uint64_t tail_seq_ = 1;

  std::deque<TxnRecord> unchkpt_;
  /// Latest committed-but-unchckpointed contents per home block, with a
  /// reference count of how many outstanding transactions logged the block.
  struct Pending {
    std::vector<std::byte> data;
    std::uint32_t refs = 0;
  };
  std::unordered_map<std::uint64_t, Pending> pending_;

  JournalStats stats_;

  obs::Tracer trace_;  ///< virtual-time tracer (the cache's NVM clock)
  obs::Tracer::Site* ts_commit_;
  obs::Tracer::Site* ts_checkpoint_;
  obs::Tracer::Site* ts_replay_;
};

}  // namespace tinca::classic
