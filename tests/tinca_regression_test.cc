// Regression tests for the write-path eviction/accounting fixes.
//
// Guards four distinct bugs:
//   1. commit_block reserved an entry slot it never consumed on write hits
//      (ensure_free(1,1) instead of (0,1)) — and did so *before* the lookup,
//      so on a full cache the eviction could hit the very block being
//      written, silently converting every write hit into an eviction +
//      writeback + write miss in steady state;
//   2. the dirty-block count was recomputed by an O(capacity) index scan on
//      every commit; it is now maintained incrementally (dirty_blocks());
//   3. write-through commit disk writes were folded into `dirty_writebacks`,
//      skewing the Fig 12 replacement-traffic accounting; they are now
//      `writethrough_writes`;
//   4. FreeMonitor accepted double-give, silently handing one NVM block to
//      two owners; it now fails fast.
#include <gtest/gtest.h>

#include <vector>

#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "tinca/slot_lru.h"
#include "tinca/tinca_cache.h"

namespace tinca::core {
namespace {

constexpr std::size_t kNvmBytes = 256 << 10;
constexpr std::uint64_t kDiskBlocks = 1 << 14;

TincaConfig small_cfg() { return TincaConfig{.ring_bytes = 4096}; }

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlockSize);
  fill_pattern(b, seed);
  return b;
}

/// Commit single-block write transactions for distinct blocks until exactly
/// `leave_free` NVM data blocks remain free.  Returns the block numbers
/// written.
std::vector<std::uint64_t> fill_cache(TincaCache& cache,
                                      std::uint64_t leave_free) {
  std::vector<std::uint64_t> blocks;
  std::uint64_t next = 0;
  while (cache.free_blocks() > leave_free) {
    cache.write_block(next, block_of(next + 1));
    blocks.push_back(next++);
  }
  return blocks;
}

TEST(WriteHitRegression, HitStreamOnNearlyFullCacheEvictsNothing) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto cache = TincaCache::format(dev, disk, small_cfg());

  // Fill to capacity - 1: exactly the COW slack a write hit needs.
  const auto blocks = fill_cache(*cache, 1);
  ASSERT_GT(blocks.size(), 4u);
  ASSERT_EQ(cache->free_blocks(), 1u);
  ASSERT_EQ(cache->stats().evictions, 0u);

  // A long write-hit stream over the resident blocks must run entirely on
  // the COW slack: zero evictions, zero writebacks, hits stay hits.
  std::uint64_t seed = 1000;
  for (int round = 0; round < 3; ++round)
    for (std::uint64_t b : blocks) cache->write_block(b, block_of(seed++));

  EXPECT_EQ(cache->stats().evictions, 0u)
      << "write hits must not evict when one free block exists";
  EXPECT_EQ(cache->stats().dirty_writebacks, 0u);
  EXPECT_EQ(cache->stats().write_hits, 3 * blocks.size());
  EXPECT_EQ(cache->stats().write_misses, blocks.size());  // the fills only
}

TEST(WriteHitRegression, HitStreamOnCompletelyFullCacheEvictsExactlyOnce) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto cache = TincaCache::format(dev, disk, small_cfg());

  const auto blocks = fill_cache(*cache, 0);  // 100% full, zero slack
  ASSERT_EQ(cache->free_blocks(), 0u);
  const std::uint64_t misses_before = cache->stats().write_misses;

  // The first hit must carve out the COW slack with exactly one eviction;
  // after that the freed previous version sustains the stream forever.
  // The old code instead evicted the *write target* (the LRU block) on
  // every operation, so each "hit" became eviction + miss — the stream
  // would show zero write hits and one eviction per write.
  std::uint64_t seed = 5000;
  for (int round = 0; round < 3; ++round)
    for (std::uint64_t b : blocks) {
      if (!cache->cached(b)) continue;  // the one evicted slack victim
      cache->write_block(b, block_of(seed++));
    }

  EXPECT_EQ(cache->stats().evictions, 1u)
      << "one eviction to create slack, then zero";
  EXPECT_EQ(cache->stats().write_misses, misses_before)
      << "no hit may degrade into a miss";
  EXPECT_GE(cache->stats().write_hits, 3 * (blocks.size() - 1));
}

TEST(DirtyAccounting, IncrementalCounterTracksCommitsFlushesAndRecovery) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto cache = TincaCache::format(dev, disk, small_cfg());
  EXPECT_EQ(cache->dirty_blocks(), 0u);

  auto txn = cache->tinca_init_txn();
  for (std::uint64_t b = 0; b < 5; ++b) txn.add(b, block_of(b + 1));
  cache->tinca_commit(txn);
  EXPECT_EQ(cache->dirty_blocks(), 5u);

  // Read misses fill clean entries: the dirty count must not move.
  std::vector<std::byte> buf(kBlockSize);
  for (std::uint64_t b = 100; b < 110; ++b) cache->read_block(b, buf);
  EXPECT_EQ(cache->dirty_blocks(), 5u);

  // Rewriting a dirty block keeps it dirty (no double count).
  cache->write_block(3, block_of(99));
  EXPECT_EQ(cache->dirty_blocks(), 5u);

  cache->flush_dirty();
  EXPECT_EQ(cache->dirty_blocks(), 0u);
  EXPECT_EQ(cache->stats().dirty_writebacks, 5u);

  // Dirty state survives remount; the counter is rebuilt by recovery.
  cache->write_block(7, block_of(7));
  cache.reset();
  auto remounted = TincaCache::recover(dev, disk, small_cfg());
  EXPECT_EQ(remounted->dirty_blocks(), 1u);
  EXPECT_TRUE(remounted->dirty(7));
}

TEST(DirtyAccounting, BackgroundCleaningDrivesTheCounterDown) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  TincaConfig cfg = small_cfg();
  cfg.cleaner.mode = cleaner::CleanerMode::kStepped;
  cfg.cleaner.high_water_pct = 25;
  auto cache = TincaCache::format(dev, disk, cfg);

  const std::uint64_t limit = cache->capacity_blocks() * 25 / 100;
  for (std::uint64_t b = 0; b < cache->capacity_blocks() - 2; ++b) {
    cache->write_block(b, block_of(b + 1));
    cache->cleaner_step();
  }

  EXPECT_LE(cache->dirty_blocks(), limit)
      << "cleaning must hold the dirty count at the threshold";
  EXPECT_GT(cache->stats().background_cleanings, 0u);
}

TEST(WritebackSplit, WriteThroughTrafficIsNotCountedAsReplacement) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  TincaConfig cfg = small_cfg();
  cfg.write_through = true;
  auto cache = TincaCache::format(dev, disk, cfg);

  auto txn = cache->tinca_init_txn();
  for (std::uint64_t b = 0; b < 4; ++b) txn.add(b, block_of(b + 1));
  cache->tinca_commit(txn);

  EXPECT_EQ(cache->stats().writethrough_writes, 4u);
  EXPECT_EQ(cache->stats().dirty_writebacks, 0u)
      << "foreground write-through is commit traffic, not replacement";
  EXPECT_EQ(cache->dirty_blocks(), 0u);

  // And the converse: write-back traffic never lands in the WT counter.
  sim::SimClock clock2;
  nvm::NvmDevice dev2(kNvmBytes, nvdimm_profile(), clock2);
  blockdev::MemBlockDevice disk2(kDiskBlocks);
  auto wb = TincaCache::format(dev2, disk2, small_cfg());
  for (std::uint64_t b = 0; b < 4; ++b) wb->write_block(b, block_of(b + 1));
  wb->flush_dirty();
  EXPECT_EQ(wb->stats().dirty_writebacks, 4u);
  EXPECT_EQ(wb->stats().writethrough_writes, 0u);
}

TEST(FreeMonitorRegression, DoubleGiveAndDoubleTakeFailFast) {
  FreeMonitor fm(4);
  EXPECT_EQ(fm.count(), 4u);
  EXPECT_TRUE(fm.holds(2));

  const std::uint32_t id = fm.take();
  EXPECT_FALSE(fm.holds(id));
  EXPECT_THROW(fm.give(5), ContractViolation);   // out of range
  fm.give(id);
  EXPECT_TRUE(fm.holds(id));
  EXPECT_THROW(fm.give(id), ContractViolation);  // double give
  EXPECT_EQ(fm.count(), 4u) << "failed give must not grow the pool";

  // Draining the pool and over-taking also fails fast.
  for (int i = 0; i < 4; ++i) fm.take();
  EXPECT_THROW(fm.take(), ContractViolation);
}

}  // namespace
}  // namespace tinca::core
