// Multi-stream commit rings and the atomic cross-stream commit record
// (DESIGN.md §15).
//
// Layer by layer:
//   - Layout: the ring region splits into per-stream slices with disjoint
//     slots and per-stream hint lines;
//   - RingBuffer: streams wrap, fill and validate independently — one full
//     stream exerts no backpressure on its empty siblings, and a recycled
//     slot's remnant never validates on another stream or after an epoch
//     bump;
//   - TincaCache: round-robin batch placement really uses every stream;
//   - ShardedTinca: a cross-shard transaction anchored to the §15 commit
//     record is all-or-nothing at EVERY persistence cut point (exhaustive
//     injector sweep × survival lotteries), and the sabotage self-test
//     proves the record's flush is load-bearing (skip it and an acked
//     transaction rolls back — which the harness must observe).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "blockdev/faulty_block_device.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "nvm/nvm_device.h"
#include "shard/sharded_tinca.h"
#include "tinca/commit_directory.h"
#include "tinca/layout.h"
#include "tinca/ring_buffer.h"
#include "tinca/tinca_cache.h"
#include "tinca/verify.h"

namespace tinca::core {
namespace {

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlockSize);
  fill_pattern(b, seed);
  return b;
}

// --- Layout ----------------------------------------------------------------

TEST(MultiStreamLayout, StreamsPartitionTheRingRegion) {
  const Layout l = Layout::compute(1 << 20, 64 * 1024, /*num_streams=*/4);
  EXPECT_EQ(l.num_streams, 4u);
  EXPECT_EQ(l.stream_capacity, l.ring_capacity / 4);
  // Slot 0 of each stream lands in its own quarter of the region; slices
  // never overlap.
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(l.ring_slot_off(s, 0),
              l.ring_off + s * l.stream_capacity * Layout::kRingSlotBytes);
    const std::uint64_t last = l.ring_slot_off(s, l.stream_capacity - 1);
    EXPECT_LT(last, l.ring_off +
                        (s + 1) * l.stream_capacity * Layout::kRingSlotBytes);
  }
  // Wrap stays inside the stream's own slice.
  EXPECT_EQ(l.ring_slot_off(2, l.stream_capacity), l.ring_slot_off(2, 0));
  // Per-stream hint lines are distinct cache lines in the superblock, below
  // the commit directory.
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(Layout::stream_hint_off(s) % 64, 0u);
    EXPECT_LT(Layout::stream_hint_off(s), Layout::kDirOff);
    for (std::uint32_t t = s + 1; t < 4; ++t)
      EXPECT_NE(Layout::stream_hint_off(s), Layout::stream_hint_off(t));
  }
}

TEST(MultiStreamLayout, TooManyOrTooThinStreamsRejected) {
  EXPECT_THROW(Layout::compute(1 << 20, 64 * 1024, Layout::kMaxStreams + 1),
               ContractViolation);
  // 4096-byte ring = 128 slots; 64 streams would leave 2 < 4 slots each.
  EXPECT_THROW(Layout::compute(1 << 20, 4096, 64), ContractViolation);
}

// --- RingBuffer ------------------------------------------------------------

struct StreamsFixture {
  static constexpr std::size_t kNvm = 1 << 20;
  sim::SimClock clock;
  nvm::NvmDevice dev{kNvm, nvdimm_profile(), clock};
  Layout layout = Layout::compute(kNvm, 4096, /*num_streams=*/2);
  RingBuffer ring0{dev, layout, 0};
  RingBuffer ring1{dev, layout, 1};
  std::uint64_t epoch = 1;

  StreamsFixture() {
    dev.atomic_store8(Layout::kFormatEpochOff, epoch);
    dev.persist(Layout::kFormatEpochOff, 8);
    ring0.format();
    ring1.format();
  }

  // Stage one single-record batch on `ring`, seal, flush, publish, persist.
  void commit_one(RingBuffer& ring, std::uint64_t blkno, std::uint64_t tag) {
    const std::uint64_t start = ring.head();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> rs;
    rs.push_back(ring.stage_block(blkno, 0, 0x5eed));
    rs.push_back(ring.stage_commit(start, 1, tag));
    for (const auto& [off, len] : rs) dev.clflush(off, len);
    dev.sfence();
    ring.note_staged_hint_durable();
    rs.push_back(ring.publish(start));
    ring.persist_hint();
  }
};

TEST(MultiStreamRing, StreamsWrapIndependently) {
  StreamsFixture f;
  // Push stream 0 through several laps of its 64-slot slice; stream 1 never
  // moves.
  const std::uint64_t laps = 3 * f.ring0.capacity();
  for (std::uint64_t i = 0; i < laps; i += 2) f.commit_one(f.ring0, i, i + 1);
  EXPECT_GT(f.ring0.head(), f.ring0.capacity());
  EXPECT_EQ(f.ring1.head(), 0u);
  EXPECT_EQ(f.ring1.tail(), 0u);
  EXPECT_EQ(f.ring1.durable_hint(), 0u);
  // Stream 1 still validates nothing: its slice was never written.
  EXPECT_FALSE(f.ring1.scan(0, f.epoch).has_value());
  // And stream 0's records validate only on stream 0 — a fresh ring over
  // stream 1 cannot adopt them even at matching indices, because the
  // checksum mixes the stream id.
  const std::uint64_t idx = f.ring0.tail() - 2;  // newest block record
  EXPECT_TRUE(f.ring0.scan(idx, f.epoch).has_value());
}

TEST(MultiStreamRing, ChecksumsAreStreamSpecific) {
  StreamsFixture f;
  // Write the same words at the same index on both streams; each validates
  // only through its own ring.
  f.commit_one(f.ring0, 7, 1);
  ASSERT_TRUE(f.ring0.scan(0, f.epoch).has_value());
  // Copy stream 0's slot 0 bytes into stream 1's slot 0 verbatim.
  std::array<std::byte, Layout::kRingSlotBytes> raw{};
  f.dev.load(f.layout.ring_slot_off(0, 0), raw);
  f.dev.store(f.layout.ring_slot_off(1, 0), raw);
  f.dev.persist(f.layout.ring_slot_off(1, 0), Layout::kRingSlotBytes);
  // The remnant carries stream 0's checksum salt: stream 1 must reject it.
  EXPECT_FALSE(f.ring1.scan(0, f.epoch).has_value());
}

TEST(MultiStreamRing, BackpressureIsPerStream) {
  StreamsFixture f;
  // Fill stream 0 without ever syncing its hint: head races a full slice
  // ahead of the durable hint and has_room collapses — on stream 0 only.
  std::uint64_t staged = 0;
  while (f.ring0.has_room(2)) {
    const std::uint64_t start = f.ring0.head();
    auto r1 = f.ring0.stage_block(staged, 0, 0);
    auto r2 = f.ring0.stage_commit(start, 1, ++staged);
    f.dev.clflush(r1.first, r1.second);
    f.dev.clflush(r2.first, r2.second);
    f.dev.sfence();
    f.ring0.publish(start);  // hint staged lazily, never made durable
  }
  EXPECT_FALSE(f.ring0.has_room(2));
  EXPECT_TRUE(f.ring1.has_room(f.ring1.capacity()));
  EXPECT_EQ(f.ring1.in_flight(), 0u);
  // The stream-0 slow path (persist_hint) clears its own backpressure.
  f.ring0.persist_hint();
  EXPECT_TRUE(f.ring0.has_room(2));
}

TEST(MultiStreamRing, RecycledRemnantsNeverValidateAfterEpochBump) {
  StreamsFixture f;
  f.commit_one(f.ring0, 3, 1);
  f.commit_one(f.ring1, 4, 2);
  ASSERT_TRUE(f.ring0.scan(0, f.epoch).has_value());
  ASSERT_TRUE(f.ring1.scan(0, f.epoch).has_value());
  // A reformat bumps the epoch; every surviving slot remnant (and every
  // commit-directory record) is dead on arrival under the new epoch.
  f.dev.atomic_store8(Layout::kFormatEpochOff, f.epoch + 1);
  f.dev.persist(Layout::kFormatEpochOff, 8);
  EXPECT_FALSE(f.ring0.scan(0, f.epoch + 1).has_value());
  EXPECT_FALSE(f.ring1.scan(0, f.epoch + 1).has_value());
}

// --- TincaCache round-robin ------------------------------------------------

TEST(MultiStreamCache, RoundRobinUsesEveryStream) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(1 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice mem(1 << 12);
  blockdev::FaultyBlockDevice disk(mem, {}, &nvm.injector);

  TincaConfig cfg;
  cfg.ring_bytes = 64 * 1024;
  cfg.num_streams = 4;
  auto cache = TincaCache::format(nvm, disk, cfg);
  ASSERT_EQ(cache->num_streams(), 4u);

  std::vector<std::byte> buf(kBlockSize);
  for (std::uint64_t t = 0; t < 8; ++t) {
    Transaction txn = cache->tinca_init_txn();
    fill_pattern(buf, t + 1);
    txn.add(t, buf);
    cache->tinca_commit(txn);
  }
  // 8 commits over 4 streams round-robin: every stream carries 2 batches
  // (2 block records + 2 seals = tail 4).
  for (std::uint32_t s = 0; s < 4; ++s)
    EXPECT_EQ(cache->stream_ring(s).tail(), 4u) << "stream " << s;

  // And the media verifier agrees across all streams.
  const MediaReport mr =
      verify_media(nvm, Layout::compute(1 << 20, 64 * 1024, 4));
  EXPECT_TRUE(mr.ok) << (mr.problems.empty() ? "?" : mr.problems[0]);
  // Every stream's newest batch is inside its scan window (lazier hints may
  // hide older ones).
  EXPECT_GE(mr.committed_batches, 4u);
}

// --- Cross-shard atomic commit ---------------------------------------------

namespace {
constexpr std::size_t kShardNvm = 4 << 20;
constexpr std::uint64_t kDiskBlocks = 1 << 14;
constexpr std::uint64_t kOldBase = 10;
constexpr std::uint64_t kNewBase = 50;

shard::ShardedConfig streamed_cfg(bool sabotage = false) {
  shard::ShardedConfig cfg;
  cfg.num_shards = 2;
  cfg.shard.ring_bytes = 4096;
  cfg.shard.num_streams = 2;
  cfg.sabotage_skip_commit_record_flush = sabotage;
  return cfg;
}

std::vector<std::uint64_t> one_block_per_shard(const shard::ShardedTinca& st) {
  std::vector<std::uint64_t> home(st.shard_count(), UINT64_MAX);
  std::uint32_t found = 0;
  for (std::uint64_t b = 0; found < st.shard_count(); ++b) {
    const std::uint32_t s = st.shard_of(b);
    if (home[s] == UINT64_MAX) {
      home[s] = b;
      ++found;
    }
  }
  return home;
}

struct VictimRun {
  bool crashed = false;
  std::uint64_t steps = 0;
};

/// Format, commit a cross-shard prelude, then (injector armed at
/// `crash_step` if nonzero) commit the cross-shard victim transaction.
VictimRun run_victim(nvm::NvmDevice& dev, blockdev::MemBlockDevice& disk,
                     std::uint64_t crash_step, bool sabotage = false) {
  auto st = shard::ShardedTinca::format(dev, disk, streamed_cfg(sabotage));
  const auto home = one_block_per_shard(*st);

  auto prelude = st->init_txn();
  for (std::uint32_t s = 0; s < 2; ++s)
    prelude.add(home[s], block_of(kOldBase + s));
  st->commit(prelude);

  dev.injector.disarm();
  if (crash_step > 0) dev.injector.arm(crash_step);

  VictimRun result;
  try {
    auto victim = st->init_txn();
    for (std::uint32_t s = 0; s < 2; ++s)
      victim.add(home[s], block_of(kNewBase + s));
    st->commit(victim);
  } catch (const nvm::CrashException&) {
    result.crashed = true;
  }
  result.steps = dev.injector.steps_seen();
  dev.injector.disarm();
  return result;
}
}  // namespace

// Exhaustive crash-point sweep over a two-shard, two-streams-per-shard
// commit, crossed with line-survival lotteries from "every dirty line dies"
// to "every dirty line survives".  This covers every {stream records
// persisted} × {commit record torn/persisted} × {role switches staged}
// combination the protocol can produce: whatever subset of lines lands, the
// recovered state must carry BOTH shard portions of the victim or NEITHER.
TEST(MultiStreamCrash, CrossShardCommitIsAtomicAtEveryCut) {
  sim::SimClock probe_clock;
  nvm::NvmDevice probe_dev(kShardNvm, nvdimm_profile(), probe_clock);
  blockdev::MemBlockDevice probe_disk(kDiskBlocks);
  const VictimRun full = run_victim(probe_dev, probe_disk, 0);
  ASSERT_FALSE(full.crashed);
  ASSERT_GT(full.steps, 10u);

  Rng rng(20260808);
  static constexpr double kSurvive[] = {0.0, 0.5, 1.0};
  for (std::uint64_t step = 1; step <= full.steps; ++step) {
    for (const double survive : kSurvive) {
      sim::SimClock clock;
      nvm::NvmDevice dev(kShardNvm, nvdimm_profile(), clock);
      blockdev::MemBlockDevice disk(kDiskBlocks);
      const VictimRun run = run_victim(dev, disk, step);
      ASSERT_TRUE(run.crashed) << "step " << step << " did not crash";

      if (survive == 0.0) {
        dev.crash_discard_all();
      } else {
        dev.crash(rng, survive);
      }
      auto st = shard::ShardedTinca::recover(dev, disk, streamed_cfg());

      ASSERT_EQ(dev.dirty_lines(), 0u)
          << "recovery left unflushed state at step " << step;

      const auto home = one_block_per_shard(*st);
      std::vector<bool> committed(2);
      std::vector<std::byte> buf(kBlockSize);
      for (std::uint32_t s = 0; s < 2; ++s) {
        st->read_block(home[s], buf);
        const std::uint64_t got = fingerprint(buf);
        const std::uint64_t old_fp = fingerprint(block_of(kOldBase + s));
        const std::uint64_t new_fp = fingerprint(block_of(kNewBase + s));
        ASSERT_TRUE(got == old_fp || got == new_fp)
            << "shard " << s << " torn at step " << step << " survive "
            << survive;
        committed[s] = got == new_fp;
      }
      EXPECT_EQ(committed[0], committed[1])
          << "cross-shard txn half-applied at step " << step << " survive "
          << survive;

      for (std::uint32_t s = 0; s < st->shard_count(); ++s) {
        const auto report =
            verify_media(st->shard_nvm(s), st->shard_cache(s).layout());
        ASSERT_TRUE(report.ok)
            << "shard " << s << " media corrupt after step " << step << ": "
            << (report.problems.empty() ? "?" : report.problems[0]);
      }
    }
  }
}

// Sabotage self-test: skip ONLY the commit record's clflush.  The record is
// then still a dirty line when power dies, so a full-loss crash must roll
// back the acknowledged cross-shard transaction — on both shards.  If the
// victim ever survived this, the record's flush would not be load-bearing
// and the §15 protocol (and every test above) would be vacuous.
TEST(MultiStreamCrash, SabotagedCommitRecordFlushLosesTheAckedTxn) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kShardNvm, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  const VictimRun run = run_victim(dev, disk, 0, /*sabotage=*/true);
  ASSERT_FALSE(run.crashed);  // the commit was acknowledged

  dev.crash_discard_all();
  auto st = shard::ShardedTinca::recover(dev, disk, streamed_cfg());

  const auto home = one_block_per_shard(*st);
  std::vector<std::byte> buf(kBlockSize);
  for (std::uint32_t s = 0; s < 2; ++s) {
    st->read_block(home[s], buf);
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(kOldBase + s)))
        << "shard " << s
        << ": acked txn survived a skipped commit-record flush — the flush "
           "is not load-bearing";
  }
}

// Control for the sabotage test: with the flush in place the identical
// sequence KEEPS the acknowledged transaction through total line loss.
TEST(MultiStreamCrash, FlushedCommitRecordKeepsTheAckedTxn) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kShardNvm, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  const VictimRun run = run_victim(dev, disk, 0, /*sabotage=*/false);
  ASSERT_FALSE(run.crashed);

  dev.crash_discard_all();
  auto st = shard::ShardedTinca::recover(dev, disk, streamed_cfg());

  const auto home = one_block_per_shard(*st);
  std::vector<std::byte> buf(kBlockSize);
  for (std::uint32_t s = 0; s < 2; ++s) {
    st->read_block(home[s], buf);
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(kNewBase + s)))
        << "shard " << s << " lost an acked, fully flushed cross-shard txn";
  }
}

}  // namespace
}  // namespace tinca::core
