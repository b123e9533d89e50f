#include "classic/journal.h"

#include <cstring>

#include "common/bytes.h"
#include "common/expect.h"
#include "obs/metrics.h"

namespace tinca::classic {

namespace {
constexpr std::uint64_t kBlockSize = blockdev::kBlockSize;
constexpr std::uint64_t kSuperMagic = 0x4A4F55524E414C53ULL;  // "JOURNALS"
constexpr std::uint64_t kDescMagic = 0x4445534352495054ULL;   // "DESCRIPT"
constexpr std::uint64_t kCommitMagic = 0x434F4D4D49542121ULL; // "COMMIT!!"
/// Home-address tags per descriptor block: (4096 - 24 B header) / 8 B.
constexpr std::uint64_t kTagsPerDescriptor = (kBlockSize - 24) / 8;
}  // namespace

Journal::Journal(FlashCache& cache, JournalConfig cfg)
    : cache_(cache),
      cfg_(cfg),
      trace_(cache.nvm().clock(), /*tid=*/0, "classic."),
      ts_commit_(trace_.site("journal_commit")),
      ts_checkpoint_(trace_.site("checkpoint")),
      ts_replay_(trace_.site("replay")) {
  TINCA_EXPECT(cfg_.length_blocks >= 8, "journal area too small");
}

std::unique_ptr<Journal> Journal::format(FlashCache& cache, JournalConfig cfg) {
  auto j = std::unique_ptr<Journal>(new Journal(cache, cfg));
  j->format_media();
  return j;
}

std::unique_ptr<Journal> Journal::recover(FlashCache& cache, JournalConfig cfg) {
  auto j = std::unique_ptr<Journal>(new Journal(cache, cfg));
  j->run_recovery();
  return j;
}

std::uint64_t Journal::free_ring_blocks() const {
  return ring_len() - (head_off_ - tail_off_);
}

std::uint64_t Journal::max_txn_blocks() const {
  // commit() requires ndesc + n + 1 <= ring_len/2; bound n conservatively.
  const std::uint64_t budget = ring_len() / 2;
  return budget > 4 ? (budget - 2) * kTagsPerDescriptor / (kTagsPerDescriptor + 1)
                    : 1;
}

void Journal::observe(blockdev::IoStatus st) {
  if (st != blockdev::IoStatus::kOk) ++stats_.io_errors_observed;
}

void Journal::write_superblock() {
  std::vector<std::byte> sb(kBlockSize, std::byte{0});
  store_le(sb.data(), kSuperMagic, 8);
  store_le(sb.data() + 8, tail_seq_, 8);
  store_le(sb.data() + 16, tail_off_, 8);
  observe(cache_.write_block(cfg_.base_blkno, sb));
  ++stats_.superblock_writes;
}

void Journal::format_media() {
  head_off_ = 0;
  tail_off_ = 0;
  next_seq_ = 1;
  tail_seq_ = 1;
  write_superblock();
}

void Journal::commit(
    const std::vector<std::pair<std::uint64_t, std::vector<std::byte>>>& blocks) {
  TINCA_TRACE_SPAN(trace_, ts_commit_);
  const std::uint64_t n = blocks.size();
  if (n == 0) {
    ++stats_.txns_committed;
    return;
  }
  const std::uint64_t ndesc = (n + kTagsPerDescriptor - 1) / kTagsPerDescriptor;
  const std::uint64_t needed = ndesc + n + 1;
  TINCA_EXPECT(needed <= ring_len() / 2,
               "transaction too large for the journal ring");
  make_room(needed);

  TxnRecord rec;
  rec.seq = next_seq_++;
  rec.ring_blocks = needed;

  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t tags = std::min<std::uint64_t>(kTagsPerDescriptor, n - i);
    // Descriptor block: header + home-address tags (Fig 2(b)).
    std::vector<std::byte> desc(kBlockSize, std::byte{0});
    store_le(desc.data(), kDescMagic, 8);
    store_le(desc.data() + 8, rec.seq, 8);
    store_le(desc.data() + 16, tags, 8);
    for (std::uint64_t t = 0; t < tags; ++t)
      store_le(desc.data() + 24 + t * 8, blocks[i + t].first, 8);
    observe(cache_.write_block(ring_blkno(head_off_++), desc));
    ++stats_.descriptor_blocks_written;

    // The log blocks this descriptor covers.
    for (std::uint64_t t = 0; t < tags; ++t) {
      const auto& [home, data] = blocks[i + t];
      TINCA_EXPECT(data.size() == kBlockSize, "journal logs whole 4 KB blocks");
      observe(cache_.write_block(ring_blkno(head_off_++), data));
      ++stats_.log_blocks_written;
      rec.home_blknos.push_back(home);
      Pending& p = pending_[home];
      p.data = data;
      ++p.refs;
    }
    i += tags;
  }

  // Commit block seals the transaction.
  std::vector<std::byte> commit_blk(kBlockSize, std::byte{0});
  store_le(commit_blk.data(), kCommitMagic, 8);
  store_le(commit_blk.data() + 8, rec.seq, 8);
  observe(cache_.write_block(ring_blkno(head_off_++), commit_blk));
  ++stats_.commit_blocks_written;

  unchkpt_.push_back(std::move(rec));
  ++stats_.txns_committed;
}

const std::vector<std::byte>* Journal::pending(std::uint64_t blkno) const {
  auto it = pending_.find(blkno);
  return it == pending_.end() ? nullptr : &it->second.data;
}

void Journal::checkpoint_one() {
  TINCA_TRACE_SPAN(trace_, ts_checkpoint_);
  TINCA_EXPECT(!unchkpt_.empty(), "checkpoint with no outstanding transaction");
  TxnRecord rec = std::move(unchkpt_.front());
  unchkpt_.pop_front();
  for (std::uint64_t home : rec.home_blknos) {
    auto it = pending_.find(home);
    TINCA_ENSURE(it != pending_.end(), "pending entry missing at checkpoint");
    if (--it->second.refs == 0) {
      // Last transaction holding this buffer: write it home — the second
      // write of the double write.  (A block re-logged by a newer
      // transaction is skipped here, as JBD2 skips buffers that have moved
      // to a newer transaction; the newer one will checkpoint it.)
      observe(cache_.write_block(home, it->second.data));
      ++stats_.checkpoint_writes;
      pending_.erase(it);
    }
  }
  tail_off_ += rec.ring_blocks;
  tail_seq_ = rec.seq + 1;
}

void Journal::make_room(std::uint64_t needed_blocks) {
  const auto low_water = static_cast<std::uint64_t>(
      JournalConfig::kCheckpointLowWater * static_cast<double>(ring_len()));
  bool advanced = false;
  while (!unchkpt_.empty() &&
         (free_ring_blocks() < needed_blocks || free_ring_blocks() < low_water)) {
    checkpoint_one();
    advanced = true;
  }
  if (advanced) write_superblock();
  TINCA_ENSURE(free_ring_blocks() >= needed_blocks, "journal ring wedged");
}

void Journal::checkpoint_all() {
  if (unchkpt_.empty()) return;
  while (!unchkpt_.empty()) checkpoint_one();
  write_superblock();
}

void Journal::run_recovery() {
  TINCA_TRACE_SPAN(trace_, ts_replay_);
  std::vector<std::byte> sb(kBlockSize);
  observe(cache_.read_block(cfg_.base_blkno, sb));
  TINCA_EXPECT(load_le(sb.data(), 8) == kSuperMagic,
               "no journal superblock found");
  tail_seq_ = load_le(sb.data() + 8, 8);
  tail_off_ = load_le(sb.data() + 16, 8);

  // Replay committed transactions in sequence order until the chain breaks.
  std::uint64_t off = tail_off_;
  std::uint64_t seq = tail_seq_;
  std::vector<std::byte> blk(kBlockSize);
  while (true) {
    cache_.read_block(ring_blkno(off), blk);
    if (load_le(blk.data(), 8) != kDescMagic || load_le(blk.data() + 8, 8) != seq)
      break;

    // Gather this transaction's (descriptor, logs)* chain.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> tags_and_offs;
    std::uint64_t scan = off;
    bool sealed = false;
    while (true) {
      cache_.read_block(ring_blkno(scan), blk);
      const std::uint64_t magic = load_le(blk.data(), 8);
      if (magic == kCommitMagic && load_le(blk.data() + 8, 8) == seq) {
        ++scan;
        sealed = true;
        break;
      }
      if (magic != kDescMagic || load_le(blk.data() + 8, 8) != seq) break;
      const std::uint64_t tags = load_le(blk.data() + 16, 8);
      if (tags == 0 || tags > kTagsPerDescriptor) break;
      ++scan;
      for (std::uint64_t t = 0; t < tags; ++t)
        tags_and_offs.emplace_back(load_le(blk.data() + 24 + t * 8, 8), scan + t);
      scan += tags;
      if (scan - tail_off_ > ring_len()) break;  // wrapped past ourselves
    }
    if (!sealed) break;  // uncommitted transaction: discard (redo journaling)

    // Replay: copy every log block to its home location.
    for (const auto& [home, log_off] : tags_and_offs) {
      observe(cache_.read_block(ring_blkno(log_off), blk));
      observe(cache_.write_block(home, blk));
    }
    ++stats_.txns_replayed;
    off = scan;
    ++seq;
  }

  // Replay doubles as checkpoint-all: the journal restarts empty.
  head_off_ = off;
  tail_off_ = off;
  tail_seq_ = seq;
  next_seq_ = seq;
  write_superblock();
}

void Journal::register_metrics(obs::MetricsRegistry& reg,
                               const std::string& prefix) const {
  reg.add_counter(prefix + "txns_committed", &stats_.txns_committed);
  reg.add_counter(prefix + "log_blocks_written", &stats_.log_blocks_written);
  reg.add_counter(prefix + "descriptor_blocks_written",
                  &stats_.descriptor_blocks_written);
  reg.add_counter(prefix + "commit_blocks_written",
                  &stats_.commit_blocks_written);
  reg.add_counter(prefix + "checkpoint_writes", &stats_.checkpoint_writes);
  reg.add_counter(prefix + "superblock_writes", &stats_.superblock_writes);
  reg.add_counter(prefix + "txns_replayed", &stats_.txns_replayed);
  reg.add_counter(prefix + "io_errors_observed", &stats_.io_errors_observed);
  reg.add_gauge(prefix + "free_ring_blocks",
                [this] { return free_ring_blocks(); });
  trace_.register_into(reg, prefix + "lat.");
}

}  // namespace tinca::classic
