#include "blockdev/faulty_block_device.h"

#include <cstring>
#include <vector>

#include "common/expect.h"

namespace tinca::blockdev {

FaultyBlockDevice::FaultyBlockDevice(BlockDevice& inner, FaultConfig cfg,
                                     nvm::CrashInjector* injector)
    : inner_(inner),
      cfg_(cfg),
      injector_(injector),
      rng_(cfg.seed) {}

void FaultyBlockDevice::mark_bad(std::uint64_t blkno) {
  if (bad_.insert(blkno).second) ++faults_.bad_sectors;
}

void FaultyBlockDevice::tear(std::uint64_t blkno,
                             std::span<const std::byte> src) {
  // Compose the half-applied block: the first half of the new data over the
  // old suffix, exactly what a 4 KB write interrupted mid-transfer leaves.
  std::vector<std::byte> torn(kBlockSize);
  inner_.read(blkno, torn);
  std::memcpy(torn.data(), src.data(), kBlockSize / 2);
  inner_.write(blkno, torn);
  ++faults_.torn_writes;
  throw nvm::CrashException();
}

IoStatus FaultyBlockDevice::read(std::uint64_t blkno,
                                 std::span<std::byte> dst) {
  TINCA_EXPECT(dst.size() == kBlockSize, "short read buffer");
  if (forced_read_failures_ > 0) {
    --forced_read_failures_;
    ++faults_.transient_read_errors;
    return IoStatus::kTransient;
  }
  if (cfg_.transient_read_rate > 0.0 && rng_.chance(cfg_.transient_read_rate)) {
    ++faults_.transient_read_errors;
    return IoStatus::kTransient;
  }
  return inner_.read(blkno, dst);
}

IoStatus FaultyBlockDevice::write(std::uint64_t blkno,
                                  std::span<const std::byte> src) {
  TINCA_EXPECT(src.size() == kBlockSize, "short write buffer");
  if (injector_ != nullptr && injector_->point_torn()) tear(blkno, src);
  if (forced_tear_countdown_ > 0 && --forced_tear_countdown_ == 0)
    tear(blkno, src);
  if (cfg_.torn_write_rate > 0.0 && rng_.chance(cfg_.torn_write_rate))
    tear(blkno, src);
  if (forced_write_failures_ > 0) {
    --forced_write_failures_;
    ++faults_.transient_write_errors;
    return IoStatus::kTransient;
  }
  if (bad_.contains(blkno)) {
    ++faults_.bad_sector_errors;
    return IoStatus::kBadSector;
  }
  if (cfg_.transient_write_rate > 0.0 &&
      rng_.chance(cfg_.transient_write_rate)) {
    ++faults_.transient_write_errors;
    return IoStatus::kTransient;
  }
  if (cfg_.bad_sector_rate > 0.0 && rng_.chance(cfg_.bad_sector_rate)) {
    // The defect grows under this write: the write itself is the discovery.
    bad_.insert(blkno);
    ++faults_.bad_sectors;
    ++faults_.bad_sector_errors;
    return IoStatus::kBadSector;
  }
  return inner_.write(blkno, src);
}

}  // namespace tinca::blockdev
