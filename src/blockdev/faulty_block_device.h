// Fault-injecting block-device decorator.
//
// Wraps any BlockDevice and subjects its traffic to a seeded, scriptable
// fault schedule (DESIGN.md §9):
//
//   * transient read/write errors — the operation fails with kTransient and
//     does not reach the inner device; a retry may succeed;
//   * permanent bad sectors — discovered on write: the write fails with
//     kBadSector and the block is bad forever after.  Reads of a bad sector
//     still return the last successfully written contents (the defect grew
//     on the write path; read-side media loss would need replication or
//     checksums above this layer and is documented as out of scope);
//   * torn writes — a simulated power cut lands mid-write, the inner device
//     receives a half-new/half-old 4 KB block, and CrashException is thrown
//     (either randomly via `torn_write_rate` or deterministically via a
//     CrashInjector torn point, see nvm/crash.h).
//
// Randomized faults draw from a private xoshiro generator seeded by
// FaultConfig::seed, so every schedule is reproducible from the seed alone.
// Scripted faults (mark_bad, fail_next_reads/writes) let unit tests hit an
// exact path without probability tuning.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>

#include "blockdev/block_device.h"
#include "common/rng.h"
#include "nvm/crash.h"

namespace tinca::blockdev {

/// Probabilities and parameters of the randomized fault schedule.  All
/// rates are per-operation Bernoulli probabilities; zero (the default)
/// disables that fault class, so a default FaultConfig is a transparent
/// pass-through.
struct FaultConfig {
  std::uint64_t seed = 1;            ///< fault-schedule RNG seed
  double transient_read_rate = 0.0;  ///< P(read fails with kTransient)
  double transient_write_rate = 0.0; ///< P(write fails with kTransient)
  double bad_sector_rate = 0.0;      ///< P(write discovers a new bad sector)
  double torn_write_rate = 0.0;      ///< P(write tears + CrashException)
};

/// Counters of injected faults.
struct FaultStats {
  std::uint64_t transient_read_errors = 0;
  std::uint64_t transient_write_errors = 0;
  std::uint64_t bad_sectors = 0;        ///< distinct sectors gone bad
  std::uint64_t bad_sector_errors = 0;  ///< writes failed on a bad sector
  std::uint64_t torn_writes = 0;
};

/// BlockDevice decorator injecting the configured faults.
class FaultyBlockDevice final : public BlockDevice {
 public:
  /// `injector` (optional) is consulted for deterministic torn-write
  /// points — pass the stack's NvmDevice injector so one armed counter
  /// covers NVM stores and disk writes alike.
  FaultyBlockDevice(BlockDevice& inner, FaultConfig cfg,
                    nvm::CrashInjector* injector = nullptr);

  [[nodiscard]] std::uint64_t block_count() const override {
    return inner_.block_count();
  }

  IoStatus read(std::uint64_t blkno, std::span<std::byte> dst) override;
  IoStatus write(std::uint64_t blkno, std::span<const std::byte> src) override;

  [[nodiscard]] const BlockStats& stats() const override {
    return inner_.stats();
  }

  // --- Scripted faults (tests) ---------------------------------------------

  /// Permanently mark `blkno` bad: every future write to it fails.
  void mark_bad(std::uint64_t blkno);

  /// Heal a bad sector: writes to `blkno` succeed again.  Models sector
  /// remapping / a transient controller fault clearing, and lets tests
  /// drive the quarantine-then-recover paths deterministically.
  void heal(std::uint64_t blkno) { bad_.erase(blkno); }

  /// Fail the next `n` reads with kTransient (counts down per read).
  void fail_next_reads(std::uint32_t n) { forced_read_failures_ = n; }

  /// Fail the next `n` writes with kTransient (counts down per write).
  void fail_next_writes(std::uint32_t n) { forced_write_failures_ = n; }

  /// Tear the `n`-th write from now (1-based): the inner device gets a
  /// half-new/half-old block and CrashException is thrown.
  void tear_write_after(std::uint32_t n) { forced_tear_countdown_ = n; }

  /// Zero every randomized fault rate (already-grown bad sectors and
  /// scripted faults keep applying).  Harnesses call this before verifying
  /// recovered state so verification reads don't grow new faults.
  void quiesce() {
    cfg_.transient_read_rate = 0.0;
    cfg_.transient_write_rate = 0.0;
    cfg_.bad_sector_rate = 0.0;
    cfg_.torn_write_rate = 0.0;
  }

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] bool is_bad(std::uint64_t blkno) const {
    return bad_.contains(blkno);
  }
  [[nodiscard]] std::size_t bad_sector_count() const { return bad_.size(); }
  [[nodiscard]] const FaultStats& fault_stats() const { return faults_; }
  [[nodiscard]] const FaultConfig& config() const { return cfg_; }

 private:
  /// Apply a torn write (prefix new, suffix old) and raise CrashException.
  [[noreturn]] void tear(std::uint64_t blkno, std::span<const std::byte> src);

  BlockDevice& inner_;
  FaultConfig cfg_;
  nvm::CrashInjector* injector_;
  Rng rng_;
  std::unordered_set<std::uint64_t> bad_;
  std::uint32_t forced_read_failures_ = 0;
  std::uint32_t forced_write_failures_ = 0;
  std::uint32_t forced_tear_countdown_ = 0;
  FaultStats faults_;
};

}  // namespace tinca::blockdev
