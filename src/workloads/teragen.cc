#include "workloads/teragen.h"

#include <algorithm>

#include "blockdev/block_device.h"
#include "common/bytes.h"
#include "common/expect.h"

namespace tinca::workloads {

TeraGenSink::TeraGenSink(backend::TxnBackend& backend, std::uint64_t base_blkno,
                         std::uint64_t limit_blocks, const TeraGenConfig& cfg)
    : backend_(backend),
      cfg_(cfg),
      base_blkno_(base_blkno),
      limit_blocks_(limit_blocks),
      packet_(TeraGenConfig::kRowsPerPacket * TeraGenConfig::kRowBytes),
      rng_(cfg.seed) {
  TINCA_EXPECT(limit_blocks_ >= 16, "TeraGen sink range too small");
  TINCA_EXPECT(base_blkno_ + limit_blocks_ <= backend.data_block_limit(),
               "TeraGen range exceeds the device");
}

void TeraGenSink::flush_packet() {
  if (packet_fill_ == 0) return;
  const std::uint64_t nblocks =
      (packet_fill_ + blockdev::kBlockSize - 1) / blockdev::kBlockSize;
  backend_.begin();
  std::vector<std::byte> blk(blockdev::kBlockSize, std::byte{0});
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    const std::size_t off = b * blockdev::kBlockSize;
    const std::size_t chunk =
        std::min<std::size_t>(blockdev::kBlockSize, packet_fill_ - off);
    std::fill(blk.begin(), blk.end(), std::byte{0});
    std::copy_n(packet_.begin() + static_cast<std::ptrdiff_t>(off), chunk,
                blk.begin());
    backend_.stage(base_blkno_ + (next_block_ % limit_blocks_), blk);
    ++next_block_;
  }
  backend_.commit();
  packet_fill_ = 0;
}

void TeraGenSink::generate(std::uint64_t bytes) {
  std::uint64_t produced = 0;
  while (produced < bytes) {
    // One 100 B row: 10 B pseudo-random key + filler value, like TeraGen.
    std::byte* row = packet_.data() + packet_fill_;
    fill_pattern(std::span(row, TeraGenConfig::kRowBytes), rng_.next());
    packet_fill_ += TeraGenConfig::kRowBytes;
    produced += TeraGenConfig::kRowBytes;
    bytes_ += TeraGenConfig::kRowBytes;
    ++rows_;
    if (packet_fill_ + TeraGenConfig::kRowBytes > packet_.size())
      flush_packet();
  }
  flush_packet();
}

}  // namespace tinca::workloads
