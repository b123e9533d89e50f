// Tests for the background cleaner (DESIGN.md §11): stepped draining with
// watermark pacing, trickle of explicitly enqueued keys, contiguous-run
// coalescing, backpressure drains, crash-mid-drain safety, bad-sector
// retry/backoff, thread mode, the shared pacer, and the UBJ variant where
// cleaner keys are transaction sequence numbers.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "blockdev/faulty_block_device.h"
#include "blockdev/mem_block_device.h"
#include "cleaner/cleaner.h"
#include "common/bytes.h"
#include "obs/metrics.h"
#include "shard/sharded_tinca.h"
#include "tinca/tinca_cache.h"
#include "ubj/ubj_store.h"

namespace tinca::core {
namespace {

constexpr std::size_t kNvmBytes = 1 << 19;  // ~120 blocks: watermarks bite

struct Fixture {
  sim::SimClock clock;
  nvm::NvmDevice dev{kNvmBytes, pcm_profile(), clock};
  blockdev::MemBlockDevice disk{1 << 16};
  TincaConfig cfg;
  std::unique_ptr<TincaCache> cache;

  explicit Fixture(cleaner::CleanerMode mode = cleaner::CleanerMode::kStepped,
                   std::uint64_t ring_bytes = 8192) {
    cfg.ring_bytes = ring_bytes;
    cfg.cleaner.mode = mode;
    cfg.cleaner.low_water_pct = 10;
    cfg.cleaner.high_water_pct = 30;
    cache = TincaCache::format(dev, disk, cfg);
  }

  std::vector<std::byte> block(std::uint64_t seed) const {
    std::vector<std::byte> b(kBlockSize);
    fill_pattern(b, seed);
    return b;
  }

  std::vector<std::byte> read(std::uint64_t blkno) {
    std::vector<std::byte> b(kBlockSize);
    cache->read_block(blkno, b);
    return b;
  }

  void commit_one(std::uint64_t blkno, std::uint64_t seed) {
    auto txn = cache->tinca_init_txn();
    txn.add(blkno, block(seed));
    cache->tinca_commit(txn);
  }

  /// Commit blknos [0, n) with seed == blkno + 1.
  void fill_dirty(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) commit_one(i, i + 1);
  }
};

TEST(Cleaner, SteppedDrainRetiresDirtyBlocksAboveHighWater) {
  Fixture f;
  const std::uint64_t cap = f.cache->capacity_blocks();
  const std::uint64_t n = cap * f.cfg.cleaner.high_water_pct / 100 + 10;
  f.fill_dirty(n);
  ASSERT_GT(f.cache->dirty_blocks() * 100,
            cap * f.cfg.cleaner.high_water_pct);

  for (int i = 0; i < 200 && f.cache->dirty_blocks() * 100 >
                                cap * f.cfg.cleaner.low_water_pct;
       ++i)
    f.cache->cleaner_step();

  // Drained to (at or below) the low watermark, via the cleaner.
  EXPECT_LE(f.cache->dirty_blocks() * 100, cap * f.cfg.cleaner.low_water_pct);
  const cleaner::CleanerStats& s = f.cache->cleaner()->stats();
  EXPECT_GT(s.retired, 0u);
  EXPECT_GT(s.enqueued, 0u);  // commits nominate oldest-first above high water
  EXPECT_GT(s.steps, 0u);
  EXPECT_GT(s.drain_lag.count(), 0u);
  // Retired blocks are durable on disk and still correct through the cache.
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(f.read(i), f.block(i + 1));
  // Write accounting: every retirement was a real disk write.
  EXPECT_EQ(f.cache->stats().background_cleanings, s.retired);
}

TEST(Cleaner, BelowHighWaterOnlyExplicitKeysTrickle) {
  Fixture f;
  f.fill_dirty(8);  // well below the high watermark
  const std::uint64_t dirty_before = f.cache->dirty_blocks();
  for (int i = 0; i < 10; ++i) f.cache->cleaner_step();
  // No watermark pressure and nothing enqueued: the cleaner stays idle.
  EXPECT_EQ(f.cache->dirty_blocks(), dirty_before);
  EXPECT_EQ(f.cache->cleaner()->stats().retired, 0u);

  // Explicitly enqueued keys trickle out at kTricklePerStep per quantum.
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_TRUE(f.cache->cleaner()->try_enqueue(i));
  f.cache->cleaner_step();
  EXPECT_EQ(f.cache->cleaner()->stats().retired, cleaner::kTricklePerStep);
  while (f.cache->cleaner()->queue_depth() > 0) f.cache->cleaner_step();
  EXPECT_EQ(f.cache->dirty_blocks(), dirty_before - 8);
}

TEST(Cleaner, ContiguousKeysCoalesceIntoRuns) {
  Fixture f;
  f.fill_dirty(12);  // blknos 0..11 — one contiguous span
  for (std::uint64_t i = 0; i < 12; ++i) f.cache->cleaner()->try_enqueue(i);
  while (f.cache->cleaner()->queue_depth() > 0) f.cache->cleaner_step();
  const cleaner::CleanerStats& s = f.cache->cleaner()->stats();
  EXPECT_EQ(s.retired, 12u);
  EXPECT_GT(s.coalesced_blocks, 0u);
  // 12 contiguous keys in trickle batches of kTricklePerStep: every batch
  // is one ascending run, so runs == steps that drained, far below 12.
  EXPECT_LT(s.batches, 12u);
}

TEST(Cleaner, StaleAndRewrittenKeysDropWithoutDiskWrites) {
  Fixture f;
  f.commit_one(5, 1);
  f.cache->cleaner()->try_enqueue(5);
  f.cache->cleaner()->try_enqueue(999);  // never written: no index entry
  // Re-dirtying key 5 before the drain is fine (the cleaner writes the
  // newest committed image); key 999 must drop as stale.
  while (f.cache->cleaner()->queue_depth() > 0) f.cache->cleaner_step();
  const cleaner::CleanerStats& s = f.cache->cleaner()->stats();
  EXPECT_EQ(s.retired, 1u);
  EXPECT_EQ(s.stale_drops, 1u);
  EXPECT_EQ(f.read(5), f.block(1));
}

TEST(Cleaner, DuplicateEnqueueIsIdempotent) {
  Fixture f;
  f.commit_one(3, 7);
  EXPECT_TRUE(f.cache->cleaner()->try_enqueue(3));
  EXPECT_TRUE(f.cache->cleaner()->try_enqueue(3));
  EXPECT_EQ(f.cache->cleaner()->stats().dup_skips, 1u);
  EXPECT_EQ(f.cache->cleaner()->queue_depth(), 1u);
}

TEST(Cleaner, BackpressureDrainKeepsOvercommitEvictionsAlive) {
  // Overcommit the cache without ever stepping the cleaner: evictions find
  // only dirty victims, enqueue them, and fall back to drain_blocking().
  Fixture f;
  const std::uint64_t cap = f.cache->capacity_blocks();
  const std::uint64_t universe = cap * 3;
  for (std::uint64_t i = 0; i < universe; ++i) f.commit_one(i, i + 1);
  const cleaner::CleanerStats& s = f.cache->cleaner()->stats();
  EXPECT_GT(s.backpressure_drains, 0u);
  EXPECT_GT(s.retired, 0u);
  // Everything committed is still readable (cache or disk).
  for (std::uint64_t i = 0; i < universe; i += 17)
    EXPECT_EQ(f.read(i), f.block(i + 1)) << "blkno " << i;
}

TEST(Cleaner, CrashMidDrainLosesNothing) {
  // Arm a power cut inside the cleaner's drain (NVM persistence points fire
  // both before the disk write and after it, before the entry is marked
  // clean).  Whatever step the cut lands on, recovery must still serve every
  // committed block — the block only leaves the dirty set once durable.
  for (std::uint64_t crash_step = 1; crash_step <= 40; crash_step += 3) {
    Fixture f;
    f.fill_dirty(24);
    for (std::uint64_t i = 0; i < 24; ++i) f.cache->cleaner()->try_enqueue(i);
    f.dev.injector.disarm();
    f.dev.injector.arm(crash_step);
    bool crashed = false;
    try {
      for (int i = 0; i < 50; ++i) f.cache->cleaner_step();
    } catch (const nvm::CrashException&) {
      crashed = true;
    }
    f.dev.injector.disarm();
    if (!crashed) continue;  // cut landed beyond the drain: nothing to check
    f.cache.reset();
    f.cache = TincaCache::recover(f.dev, f.disk, f.cfg);
    for (std::uint64_t i = 0; i < 24; ++i)
      ASSERT_EQ(f.read(i), f.block(i + 1))
          << "blkno " << i << " lost after crash at step " << crash_step;
  }
}

TEST(Cleaner, SabotagedCleanerIsCaughtAfterRemount) {
  // Oracle self-test: a cleaner that marks blocks clean WITHOUT the
  // pre-writeback disk flush must surface as stale disk data once recovery
  // drops the (wrongly) clean NVM entries.
  sim::SimClock clock;
  nvm::NvmDevice dev{kNvmBytes, pcm_profile(), clock};
  blockdev::MemBlockDevice disk{1 << 16};
  TincaConfig cfg;
  cfg.ring_bytes = 8192;
  cfg.cleaner.mode = cleaner::CleanerMode::kStepped;
  cfg.cleaner.sabotage_skip_write = true;
  auto cache = TincaCache::format(dev, disk, cfg);

  std::vector<std::byte> want(kBlockSize);
  fill_pattern(want, 42);
  auto txn = cache->tinca_init_txn();
  txn.add(7, want);
  cache->tinca_commit(txn);
  cache->cleaner()->try_enqueue(7);
  while (cache->cleaner()->queue_depth() > 0) cache->cleaner_step();
  ASSERT_EQ(cache->dirty_blocks(), 0u);  // lied clean, never written

  cache.reset();
  cache = TincaCache::recover(dev, disk, cfg);
  std::vector<std::byte> got(kBlockSize);
  cache->read_block(7, got);
  EXPECT_NE(got, want) << "sabotaged cleaner went unnoticed: block 7 read "
                          "back committed data that was never flushed";
}

TEST(Cleaner, BadSectorFailuresBackOffThenQuarantine) {
  sim::SimClock clock;
  nvm::NvmDevice dev{kNvmBytes, pcm_profile(), clock};
  blockdev::MemBlockDevice mem{1 << 16};
  blockdev::FaultyBlockDevice disk(mem, blockdev::FaultConfig{},
                                   &dev.injector);
  TincaConfig cfg;
  cfg.ring_bytes = 8192;
  cfg.cleaner.mode = cleaner::CleanerMode::kStepped;
  auto cache = TincaCache::format(dev, disk, cfg);

  disk.mark_bad(9);
  std::vector<std::byte> b(kBlockSize);
  fill_pattern(b, 1);
  auto txn = cache->tinca_init_txn();
  txn.add(9, b);
  cache->tinca_commit(txn);
  cache->cleaner()->try_enqueue(9);

  // Enough steps to cover several backoff rounds.
  const std::uint32_t rounds = 3 * (cleaner::kRetryBackoffSteps + 1);
  for (std::uint32_t i = 0; i < rounds; ++i) cache->cleaner_step();

  const cleaner::CleanerStats& s = cache->cleaner()->stats();
  EXPECT_GT(s.failures, 1u);                      // failed more than once
  EXPECT_GT(s.retries, 0u);                       // ... via backed-off retries
  EXPECT_GE(s.failures, s.retries);               // one probe per quantum
  EXPECT_EQ(s.retired, 0u);
  EXPECT_GE(cache->quarantined_blocks(), 1u);     // DESIGN.md §9 kicked in
  // The block stays dirty in NVM and stays readable.
  EXPECT_GE(cache->dirty_blocks(), 1u);
  std::vector<std::byte> got(kBlockSize);
  cache->read_block(9, got);
  EXPECT_EQ(got, b);
}

TEST(Cleaner, PacerClampsAndMetersTokens) {
  cleaner::Pacer pacer(4);
  EXPECT_EQ(pacer.tokens(), 0);
  EXPECT_FALSE(pacer.try_take());
  pacer.grant(10);  // clamped at capacity
  EXPECT_EQ(pacer.tokens(), 4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(pacer.try_take());
  EXPECT_FALSE(pacer.try_take());
  pacer.grant(1);
  EXPECT_TRUE(pacer.try_take());
}

TEST(Cleaner, PacerThrottlesStepDrains) {
  Fixture f;
  // Private pacer with a 1-token budget and 1-token grants: at most one
  // retirement per step no matter how full the queue is.
  f.cache.reset();
  f.cfg.cleaner.pacer = std::make_shared<cleaner::Pacer>(1);
  f.cache = TincaCache::format(f.dev, f.disk, f.cfg);
  f.fill_dirty(6);
  for (std::uint64_t i = 0; i < 6; ++i) f.cache->cleaner()->try_enqueue(i);
  std::uint64_t prev = 0;
  for (int i = 0; i < 6; ++i) {
    f.cache->cleaner_step();
    const std::uint64_t now = f.cache->cleaner()->stats().retired;
    EXPECT_LE(now - prev, 1u);
    prev = now;
  }
  EXPECT_EQ(prev, 6u);
}

TEST(Cleaner, ThreadModeDrainsShardsUnderTheirMutexes) {
  sim::SimClock clock;
  nvm::NvmDevice dev{2 * kNvmBytes, pcm_profile(), clock};
  blockdev::MemBlockDevice disk{1 << 16};
  shard::ShardedConfig cfg;
  cfg.num_shards = 2;
  cfg.shard.ring_bytes = 8192;
  cfg.shard.cleaner.mode = cleaner::CleanerMode::kThread;
  cfg.shard.cleaner.thread_poll_us = 50;
  // 64 blocks over 2 shards is ~27% dirty; drop the watermarks so the
  // threads actually have work without overcommitting the cache.
  cfg.shard.cleaner.high_water_pct = 10;
  cfg.shard.cleaner.low_water_pct = 0;
  auto st = shard::ShardedTinca::format(dev, disk, cfg);

  std::vector<std::byte> b(kBlockSize);
  for (std::uint64_t i = 0; i < 64; ++i) {
    fill_pattern(b, i + 1);
    auto txn = st->init_txn();
    txn.add(i, b);
    st->commit(txn);
  }

  st->start_cleaner_threads();
  // Real threads, real time: poll until the dirty set visibly shrinks.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (st->aggregated_stats().background_cleanings > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  st->stop_cleaner_threads();
  EXPECT_GT(st->aggregated_stats().background_cleanings, 0u);

  // Everything is still readable after concurrent cleaning.
  for (std::uint64_t i = 0; i < 64; ++i) {
    fill_pattern(b, i + 1);
    std::vector<std::byte> got(kBlockSize);
    st->read_block(i, got);
    EXPECT_EQ(got, b) << "blkno " << i;
  }
}

TEST(Cleaner, UbjCleanerCheckpointsFifoBySequence) {
  sim::SimClock clock;
  nvm::NvmDevice dev{kNvmBytes, pcm_profile(), clock};
  blockdev::MemBlockDevice disk{1 << 16};
  ubj::UbjConfig cfg;
  cfg.cleaner.mode = cleaner::CleanerMode::kStepped;
  auto store = ubj::UbjStore::format(dev, disk, cfg);

  std::vector<std::byte> b(kBlockSize);
  for (std::uint64_t t = 0; t < 8; ++t) {
    std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> blocks;
    fill_pattern(b, t + 1);
    blocks.emplace_back(t, b);
    store->commit_txn(blocks);
  }
  ASSERT_GT(store->frozen_blocks(), 0u);

  // Commits enqueue their seqs; steps trickle them out front-to-back.
  for (int i = 0; i < 50 && store->frozen_blocks() > 0; ++i)
    store->cleaner_step();
  EXPECT_EQ(store->frozen_blocks(), 0u);
  EXPECT_EQ(store->stats().checkpointed_txns, 8u);
  EXPECT_GT(store->cleaner()->stats().retired, 0u);

  // Checkpointed data is durable: a remount reads every block back.
  store.reset();
  store = ubj::UbjStore::recover(dev, disk, cfg);
  for (std::uint64_t t = 0; t < 8; ++t) {
    fill_pattern(b, t + 1);
    std::vector<std::byte> got(kBlockSize);
    store->read_block(t, got);
    EXPECT_EQ(got, b) << "blkno " << t;
  }
}

TEST(Cleaner, MetricsExposeQueueDepthAndDrainLag) {
  Fixture f;
  f.fill_dirty(6);
  for (std::uint64_t i = 0; i < 6; ++i) f.cache->cleaner()->try_enqueue(i);
  obs::MetricsRegistry reg;
  f.cache->register_metrics(reg, "tinca.");
  ASSERT_TRUE(reg.has("tinca.cleaner.queue_depth"));
  ASSERT_TRUE(reg.has("tinca.cleaner.retired"));
  ASSERT_TRUE(reg.has("tinca.cleaner.drain_lag"));
  EXPECT_EQ(reg.value("tinca.cleaner.queue_depth"), 6u);

  while (f.cache->cleaner()->queue_depth() > 0) f.cache->cleaner_step();
  EXPECT_EQ(reg.value("tinca.cleaner.queue_depth"), 0u);
  EXPECT_EQ(reg.value("tinca.cleaner.retired"), 6u);
  const Histogram* lag = reg.histogram("tinca.cleaner.drain_lag");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->count(), 6u);
}

TEST(Cleaner, QueueDepthGaugeIsExactAcrossFailureRequeues) {
  // Regression for the queue_depth gauge: a key bouncing through the
  // failure-retry queue must count exactly once (queue_ + retry_, never
  // both, never neither), and its drain-lag sample must be recorded exactly
  // once — at retirement, against the ORIGINAL enqueue time — no matter how
  // many failed attempts happened in between.
  sim::SimClock clock;
  nvm::NvmDevice dev{kNvmBytes, pcm_profile(), clock};
  blockdev::MemBlockDevice mem{1 << 16};
  blockdev::FaultyBlockDevice disk(mem, blockdev::FaultConfig{},
                                   &dev.injector);
  TincaConfig cfg;
  cfg.ring_bytes = 8192;
  cfg.cleaner.mode = cleaner::CleanerMode::kStepped;
  auto cache = TincaCache::format(dev, disk, cfg);
  cleaner::Cleaner& cl = *cache->cleaner();

  std::vector<std::byte> b(kBlockSize);
  fill_pattern(b, 1);
  auto txn = cache->tinca_init_txn();
  txn.add(5, b);
  cache->tinca_commit(txn);

  disk.mark_bad(5);
  EXPECT_TRUE(cl.try_enqueue(5));
  EXPECT_EQ(cl.queue_depth(), 1u);
  // Stall well past any single I/O's virtual cost: if the failure requeue
  // were to re-stamp the key's enqueue time, the final drain-lag sample
  // would miss this window and come out far below kStallNs.
  constexpr std::uint64_t kStallNs = 10'000'000;
  clock.advance(kStallNs);

  // First attempt fails: the key moves queue_ -> retry_.  The gauge must
  // not drop to 0 (the key is still the cleaner's obligation) and must not
  // read 2 (it is one key, not two), and no drain-lag sample exists yet.
  cache->cleaner_step();
  EXPECT_EQ(cl.stats().failures, 1u);
  EXPECT_EQ(cl.queue_depth(), 1u);
  EXPECT_TRUE(cl.pending(5));
  EXPECT_EQ(cl.stats().drain_lag.count(), 0u);

  // Through the whole backoff window the gauge stays pinned at 1.
  for (std::uint32_t i = 0; i < cleaner::kRetryBackoffSteps - 1; ++i) {
    cache->cleaner_step();
    ASSERT_EQ(cl.queue_depth(), 1u) << "step " << i;
  }

  // Sector recovers; the due retry retires the key.
  disk.heal(5);
  for (int i = 0; i < 20 && cl.queue_depth() > 0; ++i) cache->cleaner_step();
  EXPECT_EQ(cl.queue_depth(), 0u);
  EXPECT_FALSE(cl.pending(5));
  EXPECT_EQ(cl.stats().retired, 1u);
  EXPECT_GE(cl.stats().retries, 1u);
  // Exactly one drain-lag sample, measured from the original enqueue — the
  // requeue must not have reset the key's enqueue timestamp, so the sample
  // covers the whole failed-and-backed-off window including the stall.
  ASSERT_EQ(cl.stats().drain_lag.count(), 1u);
  EXPECT_GE(cl.stats().drain_lag.max(), kStallNs)
      << "drain-lag sample lost the pre-failure wait: the requeue reset the "
         "key's enqueue timestamp";
}

TEST(Cleaner, PinnedRequeueKeepsDepthAndDefersDrainLag) {
  // Same gauge contract on the kPinned path: a snapshot pin makes the
  // block's disk write deferrable (DESIGN.md §12), the cleaner requeues it
  // each quantum, and the gauge must hold steady at 1 with no premature
  // drain-lag sample until the pin is released and the key finally retires.
  Fixture f;
  const SnapshotPin pin = f.cache->snapshot_pin();
  ASSERT_TRUE(pin.valid());
  f.commit_one(7, 3);  // committed after the pin: disk write must defer

  cleaner::Cleaner& cl = *f.cache->cleaner();
  EXPECT_TRUE(cl.try_enqueue(7));
  for (int i = 0; i < 5; ++i) {
    f.cache->cleaner_step();
    ASSERT_EQ(cl.queue_depth(), 1u) << "step " << i;
  }
  EXPECT_GE(cl.stats().pinned_requeues, 5u);
  EXPECT_EQ(cl.stats().retired, 0u);
  EXPECT_EQ(cl.stats().drain_lag.count(), 0u);
  EXPECT_EQ(f.cache->dirty_blocks(), 1u);

  f.cache->snapshot_unpin(pin);
  for (int i = 0; i < 10 && cl.queue_depth() > 0; ++i) f.cache->cleaner_step();
  EXPECT_EQ(cl.queue_depth(), 0u);
  EXPECT_EQ(cl.stats().retired, 1u);
  EXPECT_EQ(cl.stats().drain_lag.count(), 1u);
  EXPECT_EQ(f.cache->dirty_blocks(), 0u);
}

TEST(Cleaner, FullyQuarantinedCacheRecoversEvictionAfterHeal) {
  // Regression for the eviction scan-cursor staleness: fill the cache with
  // dirty blocks, fail every disk write so the cleaner quarantines all of
  // them, then heal the device.  The next write miss finds no evictable
  // victim on its first scan (everything quarantined), must fall back to a
  // blocking cleaner drain — which now succeeds and de-quarantines — and
  // must then RESCAN FROM THE LRU END rather than resuming a stale cursor
  // that has already walked past every victim.  One write_block call, no
  // wedge.
  sim::SimClock clock;
  nvm::NvmDevice dev{kNvmBytes, pcm_profile(), clock};
  blockdev::MemBlockDevice mem{1 << 16};
  blockdev::FaultyBlockDevice disk(mem, blockdev::FaultConfig{},
                                   &dev.injector);
  TincaConfig cfg;
  cfg.ring_bytes = 8192;
  cfg.cleaner.mode = cleaner::CleanerMode::kStepped;
  auto cache = TincaCache::format(dev, disk, cfg);

  // Fill to capacity with dirty blocks.
  std::vector<std::uint64_t> blocks;
  std::uint64_t next = 0;
  std::vector<std::byte> b(kBlockSize);
  while (cache->free_blocks() > 0) {
    fill_pattern(b, next + 1);
    auto txn = cache->tinca_init_txn();
    txn.add(next, b);
    cache->tinca_commit(txn);
    blocks.push_back(next++);
  }
  ASSERT_GT(blocks.size(), 8u);

  // Every sector is bad: cleaner attempts quarantine all of them (and keep
  // them on the retry queue — quarantine must stay leavable, DESIGN.md §9).
  for (std::uint64_t blkno : blocks) disk.mark_bad(blkno);
  for (std::uint64_t blkno : blocks)
    ASSERT_TRUE(cache->cleaner()->try_enqueue(blkno));
  for (int i = 0; i < 40 && cache->quarantined_blocks() < blocks.size(); ++i)
    cache->cleaner_step();
  ASSERT_EQ(cache->quarantined_blocks(), blocks.size());
  ASSERT_EQ(cache->cleaner()->queue_depth(), blocks.size());

  // The disk comes back.  A single write miss must recover end to end:
  // backpressure-drain the healed blocks, de-quarantine, evict one victim.
  for (std::uint64_t blkno : blocks) disk.heal(blkno);
  fill_pattern(b, 777);
  cache->write_block(blocks.size(), b);

  EXPECT_GE(cache->stats().evictions, 1u);
  EXPECT_GT(cache->cleaner()->stats().backpressure_drains, 0u);
  EXPECT_EQ(cache->quarantined_blocks(), 0u);
  std::vector<std::byte> got(kBlockSize);
  cache->read_block(blocks.size(), got);
  EXPECT_EQ(got, b);
  // Nothing was lost along the way.
  for (std::uint64_t blkno : blocks) {
    fill_pattern(b, blkno + 1);
    cache->read_block(blkno, got);
    ASSERT_EQ(got, b) << "blkno " << blkno;
  }
}

}  // namespace
}  // namespace tinca::core
