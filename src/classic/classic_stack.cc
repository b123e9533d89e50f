#include "classic/classic_stack.h"

#include "common/expect.h"

namespace tinca::classic {

void ClassicTxn::add(std::uint64_t disk_blkno, std::span<const std::byte> data) {
  TINCA_EXPECT(open_, "add to a closed transaction");
  TINCA_EXPECT(data.size() == blockdev::kBlockSize, "blocks are 4 KB");
  auto [it, inserted] = blocks_.try_emplace(disk_blkno);
  if (inserted) order_.push_back(disk_blkno);
  it->second.assign(data.begin(), data.end());
}

ClassicStack::ClassicStack(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
                           ClassicConfig cfg)
    : cfg_(cfg) {
  TINCA_EXPECT(disk.block_count() > cfg_.journal_blocks + 16,
               "disk too small for the journal area");
  journal_base_ = disk.block_count() - cfg_.journal_blocks;
  (void)nvm;  // bound via cache_ in format/recover
}

std::unique_ptr<ClassicStack> ClassicStack::format(nvm::NvmDevice& nvm,
                                                   blockdev::BlockDevice& disk,
                                                   ClassicConfig cfg) {
  auto s = std::unique_ptr<ClassicStack>(new ClassicStack(nvm, disk, cfg));
  FlashCacheConfig cache_cfg = cfg.cache;
  if (cfg.journaling) cache_cfg.hit_stats_boundary = s->journal_base_;
  s->cache_ = FlashCache::format(nvm, disk, cache_cfg);
  if (cfg.journaling) {
    JournalConfig jc;
    jc.base_blkno = s->journal_base_;
    jc.length_blocks = cfg.journal_blocks;
    s->journal_ = Journal::format(*s->cache_, jc);
  }
  return s;
}

std::unique_ptr<ClassicStack> ClassicStack::recover(nvm::NvmDevice& nvm,
                                                    blockdev::BlockDevice& disk,
                                                    ClassicConfig cfg) {
  auto s = std::unique_ptr<ClassicStack>(new ClassicStack(nvm, disk, cfg));
  FlashCacheConfig cache_cfg = cfg.cache;
  if (cfg.journaling) cache_cfg.hit_stats_boundary = s->journal_base_;
  s->cache_ = FlashCache::recover(nvm, disk, cache_cfg);
  if (cfg.journaling) {
    JournalConfig jc;
    jc.base_blkno = s->journal_base_;
    jc.length_blocks = cfg.journal_blocks;
    s->journal_ = Journal::recover(*s->cache_, jc);
  }
  return s;
}

ClassicTxn ClassicStack::begin_txn() { return ClassicTxn{}; }

void ClassicStack::commit(ClassicTxn& txn) {
  TINCA_EXPECT(txn.open_, "commit of a closed transaction");
  txn.open_ = false;
  if (txn.order_.empty()) return;

  if (cfg_.journaling) {
    std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> blocks;
    blocks.reserve(txn.order_.size());
    for (std::uint64_t blkno : txn.order_) {
      TINCA_EXPECT(blkno < journal_base_, "data write inside the journal area");
      blocks.emplace_back(blkno, std::move(txn.blocks_[blkno]));
    }
    journal_->commit(blocks);
  } else {
    // No-journal ablation: single direct write per block, no consistency.
    for (std::uint64_t blkno : txn.order_)
      cache_->write_block(blkno, txn.blocks_[blkno]);
  }
  txn.order_.clear();
  txn.blocks_.clear();
}

void ClassicStack::abort(ClassicTxn& txn) {
  TINCA_EXPECT(txn.open_, "abort of a closed transaction");
  txn.open_ = false;
  txn.order_.clear();
  txn.blocks_.clear();
}

void ClassicStack::read_block(std::uint64_t disk_blkno,
                              std::span<std::byte> dst) {
  if (journal_) {
    if (const auto* data = journal_->pending(disk_blkno)) {
      std::copy(data->begin(), data->end(), dst.begin());
      return;
    }
  }
  cache_->read_block(disk_blkno, dst);
}

void ClassicStack::flush_all() {
  if (journal_) journal_->checkpoint_all();
  cache_->flush_dirty();
}

}  // namespace tinca::classic
