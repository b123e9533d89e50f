// Bench — MVCC snapshot reads: lock-free read throughput vs the mutex
// baseline under concurrent commit traffic (DESIGN.md §12).
//
// The claim under test: ShardedTinca clean read hits never take the shard
// mutex, so N concurrent readers scale their aggregate throughput ~N× while
// the locked baseline serializes every read (and the writer) behind one
// mutex.  The machine running CI may have a single core, so concurrency is
// measured in *virtual* time, the same discipline as every other bench
// here:
//
//   * locked baseline — read_block_locked() charges the shard's one
//     SimClock for every NVM line it loads (plus the modelled per-op CPU
//     cost), exactly what mutex serialization costs: the makespan is the
//     shard clock's total advance across readers and writer alike.
//   * MVCC readers — read_block()'s lock-free path by design touches no
//     shared clock (load_nocharge), so each simulated reader charges a
//     PRIVATE clock with the same modelled cost per read:
//     kCpuOpNs + 64 lines × line_read_cost.  Readers overlap each other
//     and the writer, so the makespan is the MAXIMUM of the private clocks
//     and the shard clock's advance (the writer's commits).
//
// Every read is verified against the committed content (any torn or stale
// image aborts the bench), and a writer keeps committing throughout, so the
// lock-free path is measured against live publication and reclamation, not
// a quiesced cache.
//
// Usage:
//   bench_mvcc_reads [--reads N] [--json <path>]
//
// Exit status is nonzero unless MVCC read throughput at 4 readers is at
// least 3x the locked baseline (the PR's acceptance gate), and unless the
// verified-read check passes at every point.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench_reporter.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "common/histogram.h"
#include "shard/sharded_tinca.h"

using namespace tinca;
using namespace tinca::bench;

namespace {

constexpr std::size_t kNvmBytes = 32 << 20;
constexpr std::uint64_t kDiskBlocks = 1 << 16;
constexpr std::uint64_t kWorkingSet = 512;   ///< resident blocks readers hit
constexpr std::uint64_t kCommitEvery = 256;  ///< reads between writer commits
constexpr std::uint64_t kWriterBatch = 4;    ///< blocks per writer txn

struct RunResult {
  std::uint64_t reads = 0;
  std::uint64_t makespan_ns = 0;       ///< virtual completion time
  double reads_per_sec_m = 0.0;        ///< aggregate, millions/s (virtual)
  Histogram commit_lat;                ///< writer commit spans (shard clock)
  std::uint64_t snapshot_reads = 0;    ///< resolved via version chains
  std::uint64_t disk_fallbacks = 0;
  std::uint64_t lock_fallbacks = 0;
  bool verified = true;
};

/// The per-read virtual cost a lock-free reader charges its private clock:
/// the modelled CPU op plus one whole block of NVM line reads — the same
/// bill read_block_locked pays on the shared clock.
std::uint64_t modelled_read_ns(const NvmProfile& profile) {
  return kCpuOpNs + (core::kBlockSize / nvm::NvmDevice::kLineSize) *
                        profile.line_read_cost();
}

/// `seed_of[blkno]` tracks the newest committed seed per block; a read is
/// valid if it matches the seed at pin time or any later one (the reader
/// raced the writer; both images are committed states).
RunResult run_one(bool mvcc, std::uint64_t readers, std::uint64_t reads) {
  sim::SimClock clock;
  const NvmProfile profile = pcm_profile();
  nvm::NvmDevice dev(kNvmBytes, profile, clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  shard::ShardedConfig cfg;
  cfg.num_shards = 1;  // one mutex, one clock: the contention under test
  cfg.shard.ring_bytes = 64 << 10;
  auto sharded = shard::ShardedTinca::format(dev, disk, cfg);

  std::vector<std::uint64_t> seed_of(kWorkingSet, 0);
  std::vector<std::byte> blk(core::kBlockSize);
  std::uint64_t next_seed = 1;

  // Resident working set, all committed (clean or dirty is irrelevant to
  // the read path; what matters is an NVM-resident version chain).
  for (std::uint64_t b = 0; b < kWorkingSet; ++b) {
    auto txn = sharded->init_txn();
    fill_pattern(blk, next_seed);
    txn.add(b, blk);
    sharded->commit(txn);
    seed_of[b] = next_seed++;
  }

  const std::uint64_t per_read_ns = modelled_read_ns(profile);
  const auto mvcc_before = [&] {
    const core::MvccStats& s = sharded->shard_cache(0).mvcc().stats;
    return std::array<std::uint64_t, 3>{s.snapshot_reads.load(),
                                        s.disk_fallbacks.load(),
                                        s.lock_fallbacks.load()};
  }();

  RunResult r;
  std::vector<std::uint64_t> reader_clock(readers, 0);
  std::vector<std::mt19937_64> rng;
  for (std::uint64_t i = 0; i < readers; ++i) rng.emplace_back(977 + i);
  std::uniform_int_distribution<std::uint64_t> pick(0, kWorkingSet - 1);
  std::vector<std::byte> buf(core::kBlockSize);

  sim::SimClock& shard_clock = sharded->shard_clock(0);
  const std::uint64_t start_ns = shard_clock.now();
  std::uint64_t issued = 0;
  while (issued < reads) {
    // Round-robin one read per simulated reader — the interleaving a fair
    // scheduler would produce.
    for (std::uint64_t rd = 0; rd < readers && issued < reads; ++rd) {
      const std::uint64_t blkno = pick(rng[rd]);
      const std::uint64_t seed_at_pin = seed_of[blkno];
      if (mvcc) {
        sharded->read_block(blkno, buf);
        reader_clock[rd] += per_read_ns;
      } else {
        sharded->read_block_locked(blkno, buf);
      }
      // Committed-boundary check: the image must be the seed at pin time or
      // a later committed one (the writer runs between reads, never during
      // one — reads are atomic units of virtual time here).
      const std::uint64_t got = fingerprint(buf);
      bool ok = false;
      for (std::uint64_t s = seed_at_pin; s <= seed_of[blkno] && !ok; ++s) {
        fill_pattern(blk, s);
        ok = got == fingerprint(blk);
      }
      if (!ok) r.verified = false;
      ++issued;
    }
    // The single writer: a small txn on the shard clock every kCommitEvery
    // reads, so publication and reclamation churn while readers run.
    if (issued % kCommitEvery < readers) {
      auto txn = sharded->init_txn();
      for (std::uint64_t b = 0; b < kWriterBatch; ++b) {
        const std::uint64_t blkno = (issued / kCommitEvery + b) % kWorkingSet;
        fill_pattern(blk, next_seed);
        txn.add(blkno, blk);
        seed_of[blkno] = next_seed++;
      }
      const std::uint64_t t0 = shard_clock.now();
      sharded->commit(txn);
      r.commit_lat.record(shard_clock.now() - t0);
    }
  }

  const std::uint64_t shard_advance = shard_clock.now() - start_ns;
  std::uint64_t reader_makespan = 0;
  for (const std::uint64_t c : reader_clock)
    reader_makespan = std::max(reader_makespan, c);
  // Locked: everything serialized on the shard clock.  MVCC: readers
  // overlap; the run finishes when the slowest party does.
  r.makespan_ns = mvcc ? std::max(reader_makespan, shard_advance)
                       : shard_advance;
  r.reads = issued;
  r.reads_per_sec_m = r.makespan_ns == 0
                          ? 0.0
                          : static_cast<double>(issued) * 1e3 /
                                static_cast<double>(r.makespan_ns);

  const core::MvccStats& ms = sharded->shard_cache(0).mvcc().stats;
  r.snapshot_reads = ms.snapshot_reads.load() - mvcc_before[0];
  r.disk_fallbacks = ms.disk_fallbacks.load() - mvcc_before[1];
  r.lock_fallbacks = ms.lock_fallbacks.load() - mvcc_before[2];
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReporter reporter("mvcc_reads", argc, argv);

  std::uint64_t reads = 50'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reads") == 0 && i + 1 < argc)
      reads = std::strtoull(argv[++i], nullptr, 0);
  }

  reporter.config("reads", reads);
  reporter.config("working_set_blocks", kWorkingSet);
  reporter.config("commit_every_reads", kCommitEvery);
  reporter.config("writer_blocks_per_txn", kWriterBatch);
  reporter.config("nvm_profile", "pcm");
  reporter.config("time_model", "virtual (per-reader clocks, see header)");

  std::printf("%-18s %12s %14s %14s %12s %12s\n", "mode/readers", "reads",
              "makespan_ms", "reads/s (M)", "commit_p95", "fallbacks");

  bool all_verified = true;
  double locked_at4 = 0.0, mvcc_at4 = 0.0;
  for (const bool mvcc : {false, true}) {
    for (const std::uint64_t readers : {1ull, 2ull, 4ull, 8ull}) {
      const RunResult r = run_one(mvcc, readers, reads);
      all_verified = all_verified && r.verified;
      const std::string label = std::string(mvcc ? "mvcc" : "locked") +
                                "/readers=" + std::to_string(readers);
      std::printf("%-18s %12llu %14.3f %14.3f %12llu %12llu\n", label.c_str(),
                  static_cast<unsigned long long>(r.reads),
                  static_cast<double>(r.makespan_ns) / 1e6, r.reads_per_sec_m,
                  static_cast<unsigned long long>(r.commit_lat.quantile(0.95)),
                  static_cast<unsigned long long>(r.lock_fallbacks));
      if (readers == 4) (mvcc ? mvcc_at4 : locked_at4) = r.reads_per_sec_m;

      reporter.add_row(label)
          .metric("readers", static_cast<double>(readers))
          .metric("reads", static_cast<double>(r.reads))
          .metric("makespan_ns", static_cast<double>(r.makespan_ns))
          .metric("reads_per_sec_m", r.reads_per_sec_m)
          .metric("snapshot_reads", static_cast<double>(r.snapshot_reads))
          .metric("disk_fallbacks", static_cast<double>(r.disk_fallbacks))
          .metric("lock_fallbacks", static_cast<double>(r.lock_fallbacks))
          .metric("verified", r.verified ? 1.0 : 0.0)
          .latency("commit", r.commit_lat);
    }
  }

  const double speedup = locked_at4 == 0.0 ? 0.0 : mvcc_at4 / locked_at4;
  reporter.config("read_speedup_at_4", speedup);
  std::printf("\nMVCC read speedup at 4 readers: %.2fx (gate: >= 3.0x)\n",
              speedup);
  if (!reporter.finish()) return 1;

  if (!all_verified) {
    std::cerr << "FATAL: a reader observed a non-committed image\n";
    return 1;
  }
  if (speedup < 3.0) {
    std::cerr << "FATAL: MVCC reads at 4 readers are only " << speedup
              << "x the locked baseline (gate: 3x)\n";
    return 1;
  }
  return 0;
}
