// Differential test of Tinca's replacement bookkeeping (DESIGN.md §11).
//
// With a cleaner configured, eviction picks the oldest clean buffer-role
// slot and offers every unqueued dirty slot older than it to the cleaner;
// TincaCache finds both through skip cursors instead of walking the LRU
// tail.  The reference model below is the plain linear scan from the LRU
// end.  Two identical caches are driven through the same seeded sequence of
// reads, commits, cleaner steps, blocking drains, bad sectors and held MVCC
// pins; at random points one cache evicts through its cursors and the other
// through the reference scan, and the two must pick the same victim and
// leave the same cleaner queue.  After every operation both caches must
// agree slot for slot, and their cursor invariants must hold.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "blockdev/faulty_block_device.h"
#include "blockdev/mem_block_device.h"
#include "cleaner/cleaner.h"
#include "common/bytes.h"
#include "common/expect.h"
#include "tinca/tinca_cache.h"

namespace tinca::core {

struct TincaCacheTestPeer {
  /// Listed slots, least recently used first.
  static std::vector<std::uint32_t> lru_order(const TincaCache& c) {
    std::vector<std::uint32_t> order;
    for (std::uint32_t s = c.lru_.lru(); s != SlotLru::kNil; s = c.lru_.newer(s))
      order.push_back(s);
    return order;
  }

  static const CacheEntry& entry(const TincaCache& c, std::uint32_t slot) {
    return c.mirror_[slot];
  }

  static bool cursors_hold(const TincaCache& c) { return c.skip_cursors_hold(); }

  /// One eviction through the skip cursors; returns the victim.
  static std::uint32_t evict(TincaCache& c) {
    const std::vector<std::uint32_t> before = lru_order(c);
    c.evict_one(SlotLru::kNil);
    for (std::uint32_t s : before)
      if (!c.lru_.contains(s)) return s;
    return SlotLru::kNil;
  }

  /// The reference: the linear scan from the LRU end that the cursors
  /// replace.  Log-role slots are pinned, the first clean slot is the
  /// victim, and every dirty slot before it is offered to the cleaner; with
  /// no clean slot at all, a blocking drain and a rescan.
  static std::uint32_t reference_evict(TincaCache& c) {
    for (;;) {
      std::uint32_t victim = c.lru_.lru();
      while (victim != SlotLru::kNil) {
        const CacheEntry& e = c.mirror_[victim];
        if (e.role == Role::kLog) {
          victim = c.lru_.newer(victim);
          continue;
        }
        if (!e.modified) break;
        c.cleaner_->try_enqueue(e.disk_blkno);
        victim = c.lru_.newer(victim);
      }
      if (victim == SlotLru::kNil) {
        TINCA_ENSURE(c.cleaner_->drain_blocking() > 0, "reference wedged");
        continue;
      }
      c.evict_slot(victim, /*wrote_back=*/false);
      return victim;
    }
  }
};

namespace {

constexpr std::size_t kNvmBytes = 5 << 19;    // ~620 data blocks
constexpr std::uint64_t kDiskBlocks = 1600;   // ~2.5x the cache
constexpr int kOps = 4000;

struct Stack {
  sim::SimClock clock;
  nvm::NvmDevice nvm{kNvmBytes, pcm_profile(), clock};
  blockdev::MemBlockDevice mem{kDiskBlocks};
  blockdev::FaultyBlockDevice disk{mem, blockdev::FaultConfig{}};
  std::unique_ptr<TincaCache> cache;
  std::optional<SnapshotPin> pin;

  Stack() {
    TincaConfig cfg;
    cfg.ring_bytes = 16 << 10;
    cfg.cleaner.mode = cleaner::CleanerMode::kStepped;
    // A high watermark near the top lets the dirty tail grow long enough
    // for eviction's offers to fill the cleaner queue.
    cfg.cleaner.low_water_pct = 60;
    cfg.cleaner.high_water_pct = 90;
    cache = TincaCache::format(nvm, disk, cfg);
  }
};

/// Slot-for-slot equality of the two caches' replacement state.
void expect_same(const Stack& a, const Stack& b, int op) {
  using P = TincaCacheTestPeer;
  const auto order = P::lru_order(*a.cache);
  ASSERT_EQ(order, P::lru_order(*b.cache)) << "op " << op;
  for (std::uint32_t s : order) {
    const CacheEntry& x = P::entry(*a.cache, s);
    const CacheEntry& y = P::entry(*b.cache, s);
    ASSERT_EQ(x.disk_blkno, y.disk_blkno) << "op " << op;
    ASSERT_EQ(x.modified, y.modified) << "op " << op;
    ASSERT_EQ(x.role, y.role) << "op " << op;
    ASSERT_EQ(x.curr_nvm, y.curr_nvm) << "op " << op;
  }
  ASSERT_EQ(a.cache->cleaner()->pending_keys(),
            b.cache->cleaner()->pending_keys())
      << "op " << op;
  ASSERT_EQ(a.cache->stats().evictions, b.cache->stats().evictions);
  ASSERT_EQ(a.cache->cleaner()->stats().enqueued,
            b.cache->cleaner()->stats().enqueued);
  ASSERT_EQ(a.cache->cleaner()->stats().retired,
            b.cache->cleaner()->stats().retired);
  ASSERT_EQ(a.clock.now(), b.clock.now()) << "op " << op;
  ASSERT_TRUE(P::cursors_hold(*a.cache)) << "op " << op;
  ASSERT_TRUE(P::cursors_hold(*b.cache)) << "op " << op;
}

/// What one seeded run exercised.
struct Coverage {
  std::uint64_t explicit_evictions = 0;
  std::uint64_t full_queue_evictions = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t pinned_requeues = 0;
  std::uint64_t blocking_drains = 0;
};

/// One operation of a run, drawn from the shared RNG.
struct Op {
  enum Kind { kRead, kCommit, kStep, kEvict, kDrain, kBadSector, kHeal, kPin };
  Kind kind = kRead;
  std::uint64_t blkno = 0;
  std::vector<std::uint64_t> blocks;  ///< kCommit
};

/// Apply `op` to one stack; the reference stack evicts by linear scan.
/// Returns the victim of a kEvict, else SlotLru::kNil.
std::uint32_t apply(Stack& s, const Op& op, bool reference,
                    std::uint64_t version) {
  std::vector<std::byte> buf(kBlockSize);
  switch (op.kind) {
    case Op::kRead:
      s.cache->read_block(op.blkno, buf);
      break;
    case Op::kCommit: {
      auto txn = s.cache->tinca_init_txn();
      for (std::uint64_t blk : op.blocks) {
        fill_pattern(buf, ++version);
        txn.add(blk, buf);
      }
      s.cache->tinca_commit(txn);
      break;
    }
    case Op::kStep:
      s.cache->cleaner_step();
      break;
    case Op::kEvict:
      return reference ? TincaCacheTestPeer::reference_evict(*s.cache)
                       : TincaCacheTestPeer::evict(*s.cache);
    case Op::kDrain:
      s.cache->cleaner()->drain_blocking();
      break;
    case Op::kBadSector:
      s.disk.mark_bad(op.blkno);
      break;
    case Op::kHeal:
      s.disk.heal(op.blkno);
      break;
    case Op::kPin:
      s.pin = s.cache->snapshot_pin();
      break;
  }
  return SlotLru::kNil;
}

Coverage run(std::uint64_t seed) {
  Stack a, b;
  Coverage cov;
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  std::vector<std::uint64_t> bad;
  std::uint64_t version = 1;

  for (int i = 0; i < kOps; ++i) {
    // Draw the operation.
    Op op;
    const std::uint64_t dice = pick(100);
    if (dice < 20) {
      op.kind = Op::kRead;
      op.blkno = pick(kDiskBlocks);
    } else if (dice < 70) {
      op.kind = Op::kCommit;
      for (std::uint64_t n = 1 + pick(8); n > 0; --n)
        // A quarter of the writes go to a hot eighth of the disk.
        op.blocks.push_back(pick(4) == 0 ? pick(kDiskBlocks / 8)
                                         : pick(kDiskBlocks));
    } else if (dice < 76) {
      op.kind = Op::kStep;
    } else if (dice < 90) {
      // Not under a pin: with every block dirty and its writeback deferred
      // by the pin, a forced eviction wedges by design.
      op.kind = a.pin || a.cache->cached_blocks() == 0 ? Op::kStep : Op::kEvict;
    } else if (dice < 92) {
      op.kind = Op::kDrain;
    } else if (dice < 95) {
      // Bad sectors only in the second half: the first one degrades the
      // cache to forced write-through for the rest of the run.
      if (i > kOps / 2 && bad.size() < 4) {
        op.kind = Op::kBadSector;
        op.blkno = pick(kDiskBlocks / 8);
        bad.push_back(op.blkno);
      } else if (!bad.empty()) {
        op.kind = Op::kHeal;
        op.blkno = bad.back();
        bad.pop_back();
      } else {
        op.kind = Op::kStep;
      }
    } else {
      // A short-lived MVCC pin: writebacks of blocks committed after it
      // defer (the cleaner requeues them as pinned).
      op.kind = a.pin ? Op::kStep : Op::kPin;
    }
    if (op.kind == Op::kEvict) {
      ++cov.explicit_evictions;
      if (a.cache->cleaner()->queue_depth() >= cleaner::kQueueCap)
        ++cov.full_queue_evictions;
    }
    if (op.kind == Op::kDrain) ++cov.blocking_drains;

    // Apply it to both stacks.  A wedge (every block pinned or stuck dirty)
    // must hit both alike, and ends the run.
    bool wedged_a = false, wedged_b = false;
    std::uint32_t victim_a = SlotLru::kNil, victim_b = SlotLru::kNil;
    try {
      victim_a = apply(a, op, /*reference=*/false, version);
    } catch (const ContractViolation&) {
      wedged_a = true;
    }
    try {
      victim_b = apply(b, op, /*reference=*/true, version);
    } catch (const ContractViolation&) {
      wedged_b = true;
    }
    version += op.blocks.size();
    EXPECT_EQ(wedged_a, wedged_b) << "seed " << seed << " op " << i;
    if (wedged_a || wedged_b) break;
    if (op.kind == Op::kEvict) {
      EXPECT_NE(victim_a, SlotLru::kNil) << "seed " << seed << " op " << i;
      EXPECT_EQ(victim_a, victim_b) << "seed " << seed << " op " << i;
    }
    expect_same(a, b, i);
    if (::testing::Test::HasFatalFailure()) return cov;

    // A pin lives through the one operation after it.
    if (op.kind != Op::kPin && a.pin) {
      for (Stack* s : {&a, &b}) {
        s->cache->snapshot_unpin(*s->pin);
        s->pin.reset();
      }
    }
  }
  cov.quarantined = a.cache->stats().io_quarantined;
  cov.pinned_requeues = a.cache->cleaner()->stats().pinned_requeues;
  return cov;
}

TEST(ReplacementModel, CursorsPickTheReferenceScansVictimsAndOffers) {
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Coverage c = run(seed);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "seed " << seed;
    total.explicit_evictions += c.explicit_evictions;
    total.full_queue_evictions += c.full_queue_evictions;
    total.quarantined += c.quarantined;
    total.pinned_requeues += c.pinned_requeues;
    total.blocking_drains += c.blocking_drains;
  }
  // The sequences reached every state the cursors have to get right.
  EXPECT_GT(total.explicit_evictions, 1000u);
  EXPECT_GT(total.full_queue_evictions, 0u);
  EXPECT_GT(total.quarantined, 0u);
  EXPECT_GT(total.pinned_requeues, 0u);
  EXPECT_GT(total.blocking_drains, 0u);
}

}  // namespace
}  // namespace tinca::core
