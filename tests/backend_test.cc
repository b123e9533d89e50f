// Tests for the uniform TxnBackend surface and the stack builder: both
// backends must satisfy the same behavioural contract.
#include <gtest/gtest.h>

#include "backend/stack_builder.h"
#include "common/bytes.h"

namespace tinca::backend {
namespace {

StackConfig small_config(StackKind kind) {
  StackConfig cfg;
  cfg.kind = kind;
  cfg.nvm_bytes = 8 << 20;
  cfg.disk_blocks = 1 << 14;
  cfg.classic.journal_blocks = 512;
  cfg.tinca.ring_bytes = 64 * 1024;
  return cfg;
}

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(blockdev::kBlockSize);
  fill_pattern(b, seed);
  return b;
}

/// Contract tests parameterized over every backend kind.
class BackendContract : public ::testing::TestWithParam<StackKind> {};

TEST_P(BackendContract, CommitMakesDataReadable) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  be.stage(10, block_of(1));
  be.stage(11, block_of(2));
  be.commit();
  std::vector<std::byte> got(blockdev::kBlockSize);
  be.read_block(10, got);
  EXPECT_EQ(got, block_of(1));
  be.read_block(11, got);
  EXPECT_EQ(got, block_of(2));
}

TEST_P(BackendContract, AbortLeavesNoTrace) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  be.stage(5, block_of(9));
  be.abort();
  std::vector<std::byte> got(blockdev::kBlockSize);
  be.read_block(5, got);
  EXPECT_EQ(got, std::vector<std::byte>(blockdev::kBlockSize, std::byte{0}));
}

TEST_P(BackendContract, DoubleBeginRejected) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  EXPECT_THROW(be.begin(), ContractViolation);
  be.abort();
}

TEST_P(BackendContract, StageWithoutBeginRejected) {
  Stack stack(small_config(GetParam()));
  EXPECT_THROW(stack.backend().stage(1, block_of(1)), ContractViolation);
  EXPECT_THROW(stack.backend().commit(), ContractViolation);
}

TEST_P(BackendContract, FlushPushesToDisk) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  be.stage(20, block_of(7));
  be.commit();
  be.flush();
  EXPECT_GT(stack.disk_blocks_written(), 0u);
}

TEST_P(BackendContract, RewriteKeepsLatest) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  for (std::uint64_t v = 1; v <= 10; ++v) {
    be.begin();
    be.stage(3, block_of(v));
    be.commit();
  }
  std::vector<std::byte> got(blockdev::kBlockSize);
  be.read_block(3, got);
  EXPECT_EQ(got, block_of(10));
}

TEST_P(BackendContract, MaxTxnBlocksIsPositive) {
  Stack stack(small_config(GetParam()));
  EXPECT_GT(stack.backend().max_txn_blocks(), 16u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendContract,
                         ::testing::Values(StackKind::kTinca,
                                           StackKind::kClassic,
                                           StackKind::kClassicNoJournal,
                                           StackKind::kUbj),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case StackKind::kTinca: return "Tinca";
                             case StackKind::kClassic: return "Classic";
                             case StackKind::kUbj: return "Ubj";
                             default: return "ClassicNoJournal";
                           }
                         });

TEST(StackBuilder, NamesIdentifyBackends) {
  EXPECT_EQ(Stack(small_config(StackKind::kTinca)).name(), "Tinca");
  EXPECT_EQ(Stack(small_config(StackKind::kClassic)).name(), "Classic");
  EXPECT_EQ(Stack(small_config(StackKind::kClassicNoJournal)).name(),
            "Classic-nojournal");
}

TEST(StackBuilder, ProfilesAreApplied) {
  StackConfig cfg = small_config(StackKind::kTinca);
  cfg.nvm_profile = "sttram";
  cfg.disk_profile = "hdd";
  Stack stack(cfg);
  EXPECT_EQ(stack.nvm().profile().name, "STT-RAM");
}

TEST(StackBuilder, TincaWritesCostFewerFlushesThanClassic) {
  // The paper's core claim at the unit scale (Fig 7(b) mechanism).
  Stack tinca(small_config(StackKind::kTinca));
  Stack classic(small_config(StackKind::kClassic));
  for (auto* stack : {&tinca, &classic}) {
    auto& be = stack->backend();
    for (std::uint64_t i = 0; i < 64; ++i) {
      be.begin();
      be.stage(i, block_of(i));
      be.commit();
    }
    be.flush();
  }
  EXPECT_LT(tinca.clflush_count() * 2, classic.clflush_count())
      << "Tinca should need less than half of Classic's flushes";
  EXPECT_LT(tinca.disk_blocks_written(), classic.disk_blocks_written());
}

TEST(StackBuilder, ClflushCountCoversEveryStackKind) {
  // Sharded and NvLog stacks run on sub-range views of the root NVM device
  // (shards, commit directory, log and store), each with its own counters;
  // clflush_count() must add them all up, and stay the root's own count on
  // the stacks that use the root directly.
  for (const StackKind kind :
       {StackKind::kTinca, StackKind::kClassic, StackKind::kClassicNoJournal,
        StackKind::kUbj, StackKind::kShardedTinca, StackKind::kNvLogClassic,
        StackKind::kNvLogTinca, StackKind::kNvLogSharded}) {
    StackConfig cfg = small_config(kind);
    cfg.nvlog_stacked.log_bytes = 1 << 20;
    Stack stack(cfg);
    SCOPED_TRACE(stack.name());
    auto& be = stack.backend();
    for (std::uint64_t i = 0; i < 8; ++i) {
      be.begin();
      be.stage(i, block_of(i));
      be.commit();
    }
    EXPECT_GT(stack.clflush_count(), 0u);
    switch (kind) {
      case StackKind::kTinca:
      case StackKind::kClassic:
      case StackKind::kClassicNoJournal:
      case StackKind::kUbj:
        EXPECT_EQ(stack.clflush_count(), stack.nvm().stats().clflush);
        break;
      case StackKind::kShardedTinca: {
        shard::ShardedTinca& st = static_cast<ShardedBackend&>(be).sharded();
        std::uint64_t shard_sum = 0;
        for (std::uint32_t s = 0; s < st.shard_count(); ++s)
          shard_sum += st.shard_nvm(s).stats().clflush;
        EXPECT_GT(shard_sum, 0u);
        EXPECT_GE(stack.clflush_count(), shard_sum);
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace
}  // namespace tinca::backend
