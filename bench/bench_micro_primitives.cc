// Microbenchmarks of the core primitives (google-benchmark).
//
// These measure *host* CPU time of the simulation itself — useful for
// keeping the repository's own hot paths fast — and report the simulated
// virtual-time costs as counters, which is where the paper-relevant numbers
// (e.g. virtual nanoseconds per committed block) show up.
#include <benchmark/benchmark.h>

#include "backend/stack_builder.h"
#include "bench_reporter.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "tinca/cache_entry.h"
#include "tinca/tinca_cache.h"

namespace {

using namespace tinca;

void BM_CacheEntryCodec(benchmark::State& state) {
  core::CacheEntry e;
  e.valid = true;
  e.role = core::Role::kLog;
  e.modified = true;
  e.disk_blkno = 0x123456789ABCULL;
  e.prev_nvm = 7;
  e.curr_nvm = 9;
  for (auto _ : state) {
    auto raw = e.encode();
    benchmark::DoNotOptimize(raw);
    auto d = core::CacheEntry::decode(raw);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_CacheEntryCodec);

void BM_Fingerprint4KiB(benchmark::State& state) {
  // The media checksum every staged block and absorbed log record pays.
  std::vector<std::byte> block(4096);
  fill_pattern(block, 1);
  for (auto _ : state) {
    // Escaping the buffer each iteration keeps the hash from being hoisted.
    benchmark::DoNotOptimize(block.data());
    benchmark::DoNotOptimize(fingerprint(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_Fingerprint4KiB);

void BM_NvmPersist4K(benchmark::State& state) {
  sim::SimClock clock;
  nvm::NvmDevice dev(1 << 20, pcm_profile(), clock);
  std::vector<std::byte> data(4096);
  fill_pattern(data, 1);
  for (auto _ : state) {
    dev.store(0, data);
    dev.persist(0, 4096);
  }
  state.counters["virtual_ns_per_4K"] =
      static_cast<double>(clock.now()) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_NvmPersist4K);

void BM_TincaCommitSingleBlock(benchmark::State& state) {
  sim::SimClock clock;
  nvm::NvmDevice dev(32 << 20, pcm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 16);
  auto cache = core::TincaCache::format(dev, disk,
                                        core::TincaConfig{.ring_bytes = 1 << 20});
  std::vector<std::byte> data(4096);
  fill_pattern(data, 2);
  std::uint64_t blk = 0;
  for (auto _ : state) {
    cache->write_block(blk++ % 4096, data);
  }
  state.counters["virtual_ns_per_commit"] =
      static_cast<double>(clock.now()) / static_cast<double>(state.iterations());
  state.counters["clflush_per_commit"] =
      static_cast<double>(dev.stats().clflush) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_TincaCommitSingleBlock);

void BM_TincaCommitBatch64(benchmark::State& state) {
  sim::SimClock clock;
  nvm::NvmDevice dev(64 << 20, pcm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 17);
  auto cache = core::TincaCache::format(dev, disk,
                                        core::TincaConfig{.ring_bytes = 1 << 20});
  std::vector<std::byte> data(4096);
  fill_pattern(data, 3);
  std::uint64_t base = 0;
  for (auto _ : state) {
    auto txn = cache->tinca_init_txn();
    for (std::uint64_t i = 0; i < 64; ++i) txn.add((base + i) % 8192, data);
    cache->tinca_commit(txn);
    base += 64;
  }
  state.counters["virtual_ns_per_block"] =
      static_cast<double>(clock.now()) /
      static_cast<double>(state.iterations() * 64);
}
BENCHMARK(BM_TincaCommitBatch64);

void BM_ClassicCommitBatch64(benchmark::State& state) {
  sim::SimClock clock;
  nvm::NvmDevice dev(64 << 20, pcm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 17);
  classic::ClassicConfig cfg;
  cfg.journal_blocks = 4096;
  auto stack = classic::ClassicStack::format(dev, disk, cfg);
  std::vector<std::byte> data(4096);
  fill_pattern(data, 4);
  std::uint64_t base = 0;
  for (auto _ : state) {
    auto txn = stack->begin_txn();
    for (std::uint64_t i = 0; i < 64; ++i) txn.add((base + i) % 8192, data);
    stack->commit(txn);
    base += 64;
  }
  state.counters["virtual_ns_per_block"] =
      static_cast<double>(clock.now()) /
      static_cast<double>(state.iterations() * 64);
}
BENCHMARK(BM_ClassicCommitBatch64);

void BM_TincaReadHit(benchmark::State& state) {
  sim::SimClock clock;
  nvm::NvmDevice dev(32 << 20, pcm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 16);
  auto cache = core::TincaCache::format(dev, disk,
                                        core::TincaConfig{.ring_bytes = 1 << 20});
  std::vector<std::byte> data(4096);
  for (std::uint64_t i = 0; i < 256; ++i) cache->write_block(i, data);
  std::uint64_t blk = 0;
  for (auto _ : state) {
    cache->read_block(blk++ % 256, data);
  }
}
BENCHMARK(BM_TincaReadHit);

void BM_TincaRecoveryScan(benchmark::State& state) {
  // Recovery cost over a populated cache (mount path).
  sim::SimClock clock;
  nvm::NvmDevice dev(32 << 20, pcm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 16);
  {
    auto cache = core::TincaCache::format(
        dev, disk, core::TincaConfig{.ring_bytes = 1 << 20});
    std::vector<std::byte> data(4096);
    for (std::uint64_t i = 0; i < 2048; ++i) cache->write_block(i, data);
  }
  for (auto _ : state) {
    auto cache = core::TincaCache::recover(
        dev, disk, core::TincaConfig{.ring_bytes = 1 << 20});
    benchmark::DoNotOptimize(cache);
  }
}
BENCHMARK(BM_TincaRecoveryScan);

// Console reporter that mirrors every run into a BenchReporter row so the
// microbenchmarks participate in the same --json machinery as the table
// benches.  Times are per-iteration nanoseconds (the default time unit).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CollectingReporter(bench::BenchReporter& out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      auto& row = out_.add_row(run.benchmark_name());
      row.metric("real_ns", run.GetAdjustedRealTime())
          .metric("cpu_ns", run.GetAdjustedCPUTime())
          .metric("iterations", static_cast<double>(run.iterations));
      for (const auto& [name, counter] : run.counters)
        row.metric(name, counter.value);
    }
  }

 private:
  bench::BenchReporter& out_;
};

}  // namespace

int main(int argc, char** argv) {
  // BenchReporter strips --json before google-benchmark sees the argv.
  tinca::bench::BenchReporter reporter("micro_primitives", argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter console(reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  return reporter.finish() ? 0 : 1;
}
