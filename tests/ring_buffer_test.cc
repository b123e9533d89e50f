// Tests for the persistent ring of self-validating records (§4.4 reworked
// for group commit, DESIGN.md §14): staged records, checksum validation
// against index/lap/epoch, the lazily-persisted commit hint, and backpressure.
#include <gtest/gtest.h>

#include <map>

#include "blockdev/faulty_block_device.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "nvm/nvm_device.h"
#include "tinca/layout.h"
#include "tinca/ring_buffer.h"
#include "tinca/tinca_cache.h"
#include "tinca/verify.h"

namespace tinca::core {
namespace {

struct Fixture {
  sim::SimClock clock;
  nvm::NvmDevice dev{1 << 20, nvdimm_profile(), clock};
  Layout layout = Layout::compute(1 << 20, 4096);
  RingBuffer ring{dev, layout};
  std::uint64_t epoch = 1;

  Fixture() {
    // The cache owns the epoch field; stand in for it here.
    dev.atomic_store8(Layout::kFormatEpochOff, epoch);
    dev.persist(Layout::kFormatEpochOff, 8);
    ring.format();
  }

  // A batch flush pass: flush the staged ranges and fence, like
  // TincaCache::commit_group stage C.
  void flush(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& rs) {
    for (const auto& [off, len] : rs) dev.clflush(off, len);
    dev.sfence();
    ring.note_staged_hint_durable();
  }
};

TEST(Layout, ComputePartitionsDevice) {
  const Layout l = Layout::compute(8 << 20, 1 << 20);
  EXPECT_EQ(l.ring_off, Layout::kSuperblockBytes);
  EXPECT_EQ(l.ring_capacity, (1u << 20) / Layout::kRingSlotBytes);
  EXPECT_GT(l.num_blocks, 0u);
  EXPECT_LE(l.data_off + l.num_blocks * kBlockSize, 8u << 20);
  // Entry table is 16 B per block, 4 KB aligned.
  EXPECT_EQ(l.data_off % kBlockSize, 0u);
  EXPECT_EQ(l.entry_off(0) % 16, 0u);
}

TEST(Layout, EntryAndDataOffsetsDisjoint) {
  const Layout l = Layout::compute(4 << 20, 4096);
  EXPECT_GE(l.data_block_off(0), l.entry_off(l.num_blocks - 1) + 16);
  EXPECT_THROW((void)l.entry_off(l.num_blocks), ContractViolation);
  EXPECT_THROW((void)l.data_block_off(l.num_blocks), ContractViolation);
}

TEST(Layout, TooSmallDeviceRejected) {
  EXPECT_THROW(Layout::compute(8192, 4096), ContractViolation);
  EXPECT_THROW(Layout::compute((1 << 20) + 1, 4096), ContractViolation);
}

TEST(Layout, RingSlotWrapsModuloCapacity) {
  const Layout l = Layout::compute(1 << 20, 4096);
  EXPECT_EQ(l.ring_slot_off(0), l.ring_slot_off(l.ring_capacity));
  EXPECT_EQ(l.ring_slot_off(1), l.ring_slot_off(l.ring_capacity + 1));
}

TEST(RingBuffer, FormatZeroesIndices) {
  Fixture f;
  EXPECT_EQ(f.ring.head(), 0u);
  EXPECT_EQ(f.ring.tail(), 0u);
  EXPECT_EQ(f.ring.in_flight(), 0u);
  EXPECT_EQ(f.ring.durable_hint(), 0u);
}

TEST(RingBuffer, StageSealScanRoundTrip) {
  Fixture f;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rs;
  rs.push_back(f.ring.stage_block(101, 7, 0xABCDu));
  rs.push_back(f.ring.stage_block(202, 9, 0x1234u));
  EXPECT_EQ(f.ring.in_flight(), 2u);
  rs.push_back(
      f.ring.stage_commit(/*batch_start=*/0, /*txn_count=*/2, /*tag=*/1));
  f.flush(rs);
  f.ring.publish(0);
  EXPECT_EQ(f.ring.in_flight(), 0u);
  EXPECT_EQ(f.ring.head(), 3u);

  const auto b0 = f.ring.scan(0, f.epoch);
  ASSERT_TRUE(b0.has_value());
  EXPECT_EQ(b0->kind, RingRecord::Kind::kBlock);
  EXPECT_EQ(b0->disk_blkno, 101u);
  EXPECT_EQ(b0->curr_nvm, 7u);
  EXPECT_EQ(b0->payload_fp, 0xABCDu);
  const auto b1 = f.ring.scan(1, f.epoch);
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(b1->disk_blkno, 202u);
  const auto c = f.ring.scan(2, f.epoch);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, RingRecord::Kind::kCommit);
  EXPECT_EQ(c->txn_count, 2u);
  EXPECT_EQ(c->batch_start(), 0u);
  // Nothing was ever staged at index 3.
  EXPECT_FALSE(f.ring.scan(3, f.epoch).has_value());
}

TEST(RingBuffer, StagedRecordsDieWithACrash) {
  Fixture f;
  f.ring.stage_block(7, 1, 0x1u);
  f.ring.stage_commit(0, 1, 1);
  f.dev.crash_discard_all();  // nothing was flushed
  RingBuffer other(f.dev, f.layout);
  other.load();
  EXPECT_EQ(other.durable_hint(), 0u);
  EXPECT_FALSE(other.scan(0, f.epoch).has_value());
  EXPECT_FALSE(other.scan(1, f.epoch).has_value());
}

TEST(RingBuffer, FencedRecordsSurviveACrash) {
  Fixture f;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rs;
  rs.push_back(f.ring.stage_block(7, 1, 0x1u));
  rs.push_back(f.ring.stage_commit(0, 1, 1));
  f.flush(rs);
  f.dev.crash_discard_all();
  RingBuffer other(f.dev, f.layout);
  other.load();
  // The hint was never published, so recovery scans from 0 and finds the
  // whole fenced batch.
  EXPECT_EQ(other.durable_hint(), 0u);
  ASSERT_TRUE(other.scan(0, f.epoch).has_value());
  ASSERT_TRUE(other.scan(1, f.epoch).has_value());
  EXPECT_EQ(other.scan(1, f.epoch)->kind, RingRecord::Kind::kCommit);
}

TEST(RingBuffer, HintStagedAtPublishSweptByNextFlush) {
  Fixture f;
  // Three batches of (1 block + 1 commit) records.  Each publish stages the
  // hint; each successor's flush pass sweeps the predecessor's hint out.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rs;
  std::pair<std::uint64_t, std::uint64_t> hint_range{};
  for (std::uint64_t b = 0; b < 3; ++b) {
    const std::uint64_t start = 2 * b;
    if (b > 0) rs.push_back(hint_range);  // sweep the previous publish
    rs.push_back(f.ring.stage_block(7 + b, 1 + b, 0x1u + b));
    rs.push_back(f.ring.stage_commit(start, 1, b + 1));
    f.flush(rs);
    rs.clear();
    hint_range = f.ring.publish(start);
    EXPECT_EQ(hint_range.first, Layout::kCommitHintOff);
  }
  // Batch 3's publish (hint := 4) is staged but unfenced; the last FENCED
  // hint value is batch 2's start (2), swept out by batch 3's flush pass.
  EXPECT_EQ(f.ring.durable_hint(), 2u);

  f.dev.crash_discard_all();
  RingBuffer other(f.dev, f.layout);
  other.load();
  EXPECT_EQ(other.durable_hint(), 2u);
  // Both fenced batches above the hint are scannable (batch 2 at 2..3,
  // batch 3 at 4..5).
  for (std::uint64_t idx = 2; idx < 6; ++idx)
    ASSERT_TRUE(other.scan(idx, f.epoch).has_value()) << idx;
  EXPECT_FALSE(other.scan(6, f.epoch).has_value());
}

TEST(RingBuffer, PersistHintAdvancesDurably) {
  Fixture f;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rs;
  rs.push_back(f.ring.stage_block(7, 1, 0x1u));
  rs.push_back(f.ring.stage_commit(0, 1, 1));
  f.flush(rs);
  f.ring.publish(0);
  f.ring.persist_hint();  // hint := tail = 2
  EXPECT_EQ(f.ring.durable_hint(), 2u);
  f.dev.crash_discard_all();
  RingBuffer other(f.dev, f.layout);
  other.load();
  EXPECT_EQ(other.durable_hint(), 2u);
  EXPECT_EQ(other.head(), 2u);
}

TEST(RingBuffer, StaleLapRecordsDoNotValidate) {
  Fixture f;
  const std::uint64_t cap = f.ring.capacity();
  // Fill exactly one lap with fenced batches of 1 block + 1 commit record.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rs;
  for (std::uint64_t i = 0; i < cap / 2; ++i) {
    rs.push_back(f.ring.stage_block(i, 1, i));
    rs.push_back(f.ring.stage_commit(2 * i, 1, i + 1));
    f.flush(rs);
    rs.clear();
    rs.push_back(f.ring.publish(2 * i));
    f.ring.persist_hint();  // keep has_room() true forever
    rs.clear();
  }
  EXPECT_EQ(f.ring.head(), cap);
  // Index cap lands on slot 0, which holds the (fenced) record staged for
  // index 0 — the checksum's index mixing must reject it.
  EXPECT_FALSE(f.ring.scan(cap, f.epoch).has_value());
  // And an old record does not validate under a bumped format epoch.
  EXPECT_FALSE(f.ring.scan(0, f.epoch + 1).has_value());
  EXPECT_TRUE(f.ring.scan(0, f.epoch).has_value());
}

TEST(RingBuffer, HasRoomTracksDurableHint) {
  Fixture f;
  const std::uint64_t cap = f.ring.capacity();
  EXPECT_TRUE(f.ring.has_room(cap));
  EXPECT_FALSE(f.ring.has_room(cap + 1));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rs;
  for (std::uint64_t i = 0; i < cap - 1; ++i)
    rs.push_back(f.ring.stage_block(i, 1, i));
  rs.push_back(f.ring.stage_commit(0, 1, 1));
  f.flush(rs);
  f.ring.publish(0);
  // The hint still sits at 0: the full lap is the scan window.
  EXPECT_FALSE(f.ring.has_room(1));
  EXPECT_THROW(f.ring.stage_block(99, 1, 0x9u), ContractViolation);
  // Syncing the hint empties the window.
  f.ring.persist_hint();
  EXPECT_TRUE(f.ring.has_room(cap));
}

TEST(RingBuffer, ResetHeadToTailDropsStagedRun) {
  Fixture f;
  f.ring.stage_block(9, 1, 0x1u);
  f.ring.reset_head_to_tail();
  EXPECT_EQ(f.ring.head(), 0u);
  EXPECT_EQ(f.ring.in_flight(), 0u);
}

// Integration: the monotonic record indices wrap their slot capacity many
// times while the backing disk throws transient errors into the write-back
// stream.  The ring protocol must stay consistent, committed data must stay
// readable, and a remount after the wraps must still verify and serve
// everything.
TEST(RingBuffer, WrapAroundSurvivesDiskErrorsMidAppendStream) {
  constexpr std::size_t kNvm = 1 << 20;
  constexpr std::uint64_t kRing = 4096;  // 128 slots — wraps fast
  sim::SimClock clock;
  nvm::NvmDevice nvm(kNvm, nvdimm_profile(), clock);
  blockdev::MemBlockDevice mem(1 << 12);
  blockdev::FaultyBlockDevice disk(mem, {}, &nvm.injector);

  // No cleaner: evictions write dirty victims back inside the commit loop,
  // so the transients below land on foreground write-backs.
  TincaConfig cfg;
  cfg.ring_bytes = kRing;
  auto cache = TincaCache::format(nvm, disk, cfg);

  // 150 transactions × 4 blocks = 750 ring records > 128 slots: many wraps.
  constexpr std::uint64_t kTxns = 150;
  constexpr std::uint64_t kUniverse = 300;  // > capacity → steady eviction
  std::map<std::uint64_t, std::uint64_t> expected;
  std::vector<std::byte> buf(kBlockSize);
  for (std::uint64_t t = 0; t < kTxns; ++t) {
    if (t % 3 == 0) disk.fail_next_writes(1);  // mid-stream transient error
    Transaction txn = cache->tinca_init_txn();
    for (std::uint64_t i = 0; i < 4; ++i) {
      const std::uint64_t blkno = (t * 37 + i * 11) % kUniverse;
      const std::uint64_t seed = t * 8 + i + 1;
      fill_pattern(buf, seed);
      txn.add(blkno, buf);
      expected[blkno] = seed;
    }
    cache->tinca_commit(txn);
  }
  EXPECT_GT(cache->stats().io_retries, 0u);  // the transients really hit

  // The monotonic indices wrapped the slot capacity; the durable hint (the
  // reload point) tracked them upward.
  const Layout layout = Layout::compute(kNvm, kRing);
  RingBuffer ring(nvm, layout);
  ring.load();
  EXPECT_GT(ring.head(), ring.capacity());
  EXPECT_EQ(ring.in_flight(), 0u);

  const MediaReport before = verify_media(nvm, layout);
  EXPECT_TRUE(before.ok) << (before.problems.empty() ? ""
                                                     : before.problems[0]);

  // Remount: every committed block must still be intact after the wraps.
  cache.reset();
  cache = TincaCache::recover(nvm, disk, cfg);
  for (const auto& [blkno, seed] : expected) {
    cache->read_block(blkno, buf);
    const std::uint64_t got = fingerprint(buf);
    fill_pattern(buf, seed);
    EXPECT_EQ(got, fingerprint(buf)) << "block " << blkno;
  }
}

}  // namespace
}  // namespace tinca::core
