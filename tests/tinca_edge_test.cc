// Edge-case tests for TincaCache: ring wraparound over many transactions,
// pinning under extreme pressure, the background cleaner extension, and
// recovery statistics.
#include <gtest/gtest.h>

#include <map>

#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "tinca/tinca_cache.h"
#include "tinca/verify.h"

namespace tinca::core {
namespace {

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlockSize);
  fill_pattern(b, seed);
  return b;
}

TEST(TincaEdge, RingWrapsManyTimesWithoutDrift) {
  sim::SimClock clock;
  nvm::NvmDevice dev(1 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  // Tiny ring: 4096 bytes = 512 slots; commit thousands of blocks.
  const TincaConfig cfg{.ring_bytes = 4096};
  auto cache = TincaCache::format(dev, disk, cfg);
  std::uint64_t seed = 1;
  for (int round = 0; round < 300; ++round) {
    auto txn = cache->tinca_init_txn();
    for (int b = 0; b < 10; ++b) {
      txn.add((seed * 7 + b) % 300, block_of(seed));
      ++seed;
    }
    cache->tinca_commit(txn);
  }
  const MediaReport r = verify_media(dev, cache->layout());
  EXPECT_TRUE(r.ok) << (r.problems.empty() ? "" : r.problems[0]);
  EXPECT_EQ(r.in_flight, 0u);
}

TEST(TincaEdge, TxnAtExactlyMaxSizeCommits) {
  sim::SimClock clock;
  nvm::NvmDevice dev(2 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  auto cache = TincaCache::format(dev, disk, TincaConfig{.ring_bytes = 65536});
  const std::uint64_t n = cache->max_txn_blocks();
  auto txn = cache->tinca_init_txn();
  for (std::uint64_t i = 0; i < n; ++i) txn.add(i, block_of(i));
  cache->tinca_commit(txn);
  EXPECT_EQ(cache->stats().blocks_committed, n);
  std::vector<std::byte> buf(kBlockSize);
  cache->read_block(n - 1, buf);
  EXPECT_EQ(buf, block_of(n - 1));
}

TEST(TincaEdge, MaxTxnFitsEvenWhenCacheIsFullOfDirtyBlocks) {
  // Every cached block dirty, then commit a max-size transaction of fresh
  // blocks: eviction must clear exactly enough room without touching the
  // in-flight (log-role) blocks.
  sim::SimClock clock;
  nvm::NvmDevice dev(1 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  auto cache = TincaCache::format(dev, disk, TincaConfig{.ring_bytes = 4096});
  const std::uint64_t cap = cache->capacity_blocks();
  for (std::uint64_t i = 0; i < cap; ++i) cache->write_block(i, block_of(i));
  const std::uint64_t n = cache->max_txn_blocks();
  auto txn = cache->tinca_init_txn();
  for (std::uint64_t i = 0; i < n; ++i)
    txn.add(10000 + i, block_of(10000 + i));
  cache->tinca_commit(txn);
  // All evicted dirty blocks must be on disk with committed contents.
  std::vector<std::byte> buf(kBlockSize);
  for (std::uint64_t i = 0; i < cap; i += 13) {
    cache->read_block(i, buf);
    ASSERT_EQ(buf, block_of(i)) << "block " << i;
  }
}

TEST(TincaEdge, BackgroundCleanerKeepsDirtyFractionBounded) {
  sim::SimClock clock;
  nvm::NvmDevice dev(1 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  TincaConfig cfg{.ring_bytes = 4096};
  cfg.cleaner.mode = cleaner::CleanerMode::kStepped;
  cfg.cleaner.high_water_pct = 25;
  auto cache = TincaCache::format(dev, disk, cfg);
  const std::uint64_t cap = cache->capacity_blocks();
  for (std::uint64_t i = 0; i < cap; ++i) {
    cache->write_block(i, block_of(i));
    cache->cleaner_step();
  }
  EXPECT_GT(cache->stats().background_cleanings, 0u);
  std::uint64_t dirty = 0;
  for (std::uint64_t i = 0; i < cap; ++i)
    if (cache->cached(i) && cache->dirty(i)) ++dirty;
  EXPECT_LE(dirty, cap * 25 / 100 + 1);
  // Cleaned blocks stay cached and readable.
  std::vector<std::byte> buf(kBlockSize);
  cache->read_block(0, buf);
  EXPECT_EQ(buf, block_of(0));
}

TEST(TincaEdge, BackgroundCleanerOffByDefault) {
  sim::SimClock clock;
  nvm::NvmDevice dev(1 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  auto cache = TincaCache::format(dev, disk, TincaConfig{.ring_bytes = 4096});
  for (std::uint64_t i = 0; i < 64; ++i) cache->write_block(i, block_of(i));
  EXPECT_EQ(cache->stats().background_cleanings, 0u);
  EXPECT_EQ(disk.stats().blocks_written, 0u);
}

TEST(TincaEdge, RecoveryStatsReportWork) {
  sim::SimClock clock;
  nvm::NvmDevice dev(1 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  const TincaConfig cfg{.ring_bytes = 4096};
  {
    auto cache = TincaCache::format(dev, disk, cfg);
    for (std::uint64_t i = 0; i < 10; ++i) cache->write_block(i, block_of(i));
    // Cut mid-flush, just before the batch's commit record goes durable:
    // the staged installs (2 blocks x data+entry+record ranges) are already
    // flushed, the seal is not, so recovery must revoke both blocks.
    // Crash points: 4 per COW install (x2) + 1 batch seal + 7 mid-flush
    // ranges; the 16th fires before the last (commit-record) flush.
    dev.injector.arm(16);
    try {
      auto txn = cache->tinca_init_txn();
      txn.add(0, block_of(99));
      txn.add(1, block_of(98));
      cache->tinca_commit(txn);
    } catch (const nvm::CrashException&) {
    }
    dev.injector.disarm();
  }
  dev.crash_discard_all();
  auto recovered = TincaCache::recover(dev, disk, cfg);
  EXPECT_EQ(recovered->stats().recovered_entries, 10u);
  EXPECT_GE(recovered->stats().revoked_blocks, 1u);
}

TEST(TincaEdge, SequentialThenRandomMixedPattern) {
  // Regression-style soak: sequential fill, random overwrites, verify all.
  sim::SimClock clock;
  nvm::NvmDevice dev(2 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  auto cache = TincaCache::format(dev, disk, TincaConfig{.ring_bytes = 8192});
  std::map<std::uint64_t, std::uint64_t> expect;
  std::uint64_t seed = 1;
  for (std::uint64_t i = 0; i < 600; ++i) {
    cache->write_block(i, block_of(seed));
    expect[i] = seed++;
  }
  Rng rng(6);
  for (int i = 0; i < 800; ++i) {
    const std::uint64_t blkno = rng.below(600);
    cache->write_block(blkno, block_of(seed));
    expect[blkno] = seed++;
  }
  std::vector<std::byte> buf(kBlockSize);
  for (const auto& [blkno, s] : expect) {
    cache->read_block(blkno, buf);
    ASSERT_EQ(fingerprint(buf), fingerprint(block_of(s))) << blkno;
  }
}

}  // namespace
}  // namespace tinca::core
