// Latency models for every simulated medium.
//
// These tables are the executable form of the paper's Table 1 (NVM
// technologies) and §5.1 prototype configuration: the authors ran NVDIMM at
// DRAM speed and *added* write/read delays of 180 ns / 50 ns to emulate PCM
// and 50 ns / 50 ns to emulate STT-RAM (§5.4.1).  We reproduce exactly that
// scheme: a DRAM base cost per 64 B cache line plus a per-technology extra
// charged on clflush (write path) and on load (read path).
#pragma once

#include <cstdint>
#include <string>

#include "common/sim_clock.h"

namespace tinca {

/// Modelled software overhead of one cache operation (lookup, bookkeeping),
/// charged in virtual time by every cache model (Tinca, Flashcache, UBJ).
inline constexpr sim::Ns kCpuOpNs = 150;

/// Per-technology NVM timing, charged per 64 B cache line.
struct NvmProfile {
  std::string name;
  /// Extra latency charged when a dirty line is flushed (clflush reaching
  /// the media), on top of the DRAM base.
  sim::Ns write_extra_ns = 0;
  /// Extra latency charged when a line is loaded from the media.
  sim::Ns read_extra_ns = 0;
  /// DRAM base cost of moving one line across the memory bus.
  sim::Ns base_line_ns = 15;
  /// Cost of the clflush instruction itself (invalidate + writeback issue).
  sim::Ns clflush_ns = 40;
  /// Cost of an sfence (store-buffer drain).
  sim::Ns sfence_ns = 10;

  /// Total charge for flushing one dirty line to the media.
  [[nodiscard]] sim::Ns line_flush_cost() const {
    return clflush_ns + base_line_ns + write_extra_ns;
  }
  /// Total charge for reading one line from the media.
  [[nodiscard]] sim::Ns line_read_cost() const {
    return base_line_ns + read_extra_ns;
  }
};

/// NVDIMM as shipped: DRAM-speed reads and writes (paper §5.1).
NvmProfile nvdimm_profile();
/// NVDIMM + 180/50 ns write/read delays = emulated PCM (the paper default).
NvmProfile pcm_profile();
/// NVDIMM + 50/50 ns write/read delays = emulated STT-RAM (§5.4.1).
NvmProfile sttram_profile();
/// NVDIMM + 250/100 ns delays ≈ ReRAM per Table 1 (not benchmarked in the
/// paper but listed; provided for completeness / ablations).
NvmProfile reram_profile();
/// Variant of `base` using clwb instead of clflush (§2.1: clflushopt/clwb
/// were proposed to replace clflush; clwb does not invalidate the line and
/// issues more cheaply).  Media write latency is unchanged.
NvmProfile with_clwb(NvmProfile base);

/// Look up a profile by case-insensitive name ("pcm", "nvdimm", "sttram",
/// "reram", each optionally suffixed "+clwb").  Throws ContractViolation
/// for unknown names.
NvmProfile nvm_profile_by_name(const std::string& name);

/// Block-device timing, charged per 4 KB block.
struct DiskProfile {
  std::string name;
  /// Fixed per-request overhead (interface, interrupt, FTL…).
  sim::Ns request_overhead_ns = 20 * sim::kUsec;
  /// Media cost per 4 KB write.
  sim::Ns write_block_ns = 0;
  /// Media cost per 4 KB read.
  sim::Ns read_block_ns = 0;
  /// Positioning cost charged when the access is not sequential to the
  /// previous one (HDD seek + rotational latency; ~0 for SSD).
  sim::Ns seek_ns = 0;
  /// Internal command parallelism exploited by queued (async) writes:
  /// NAND channels/planes for an SSD (~4 effective under NCQ), 1 for HDD.
  std::uint32_t internal_parallelism = 1;
};

/// SATA SSD model (~70 µs 4 KB write, ~60 µs read), the paper's default disk.
DiskProfile ssd_profile();
/// 7.2k RPM HDD model (~5 ms average positioning), §5.4.1's slow disk.
DiskProfile hdd_profile();
/// Look up by name ("ssd", "hdd").
DiskProfile disk_profile_by_name(const std::string& name);

/// Network link model: the clusters in §5.3 use 10 Gigabit Ethernet.
struct NetProfile {
  std::string name;
  /// One-way propagation + stack latency per message.
  sim::Ns rtt_ns = 100 * sim::kUsec;
  /// Bytes per second of link bandwidth.
  double bytes_per_sec = 1.25e9;  // 10 Gb/s

  /// Time to push `bytes` through the link (serialization only).
  [[nodiscard]] sim::Ns transfer_ns(std::uint64_t bytes) const {
    return static_cast<sim::Ns>(static_cast<double>(bytes) / bytes_per_sec *
                                1e9);
  }
};

/// 10 GbE as used by the paper's cluster testbed.
NetProfile tengig_profile();

}  // namespace tinca
