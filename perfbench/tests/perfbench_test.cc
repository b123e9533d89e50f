// Tests of the benchmark itself: the percentile helper, the content oracle,
// determinism of the model and count fields, and seed sensitivity.
//
//   cmake --build <dir> --target perfbench_test && <dir>/perfbench_test
#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "bench.h"

namespace perfbench {
namespace {

Samples iota_samples(std::uint32_t n) {
  Samples s(n);
  std::iota(s.begin(), s.end(), 1u);
  return s;
}

TEST(Percentile, InterpolatesDistinctSamples) {
  Samples s = iota_samples(1000);
  EXPECT_DOUBLE_EQ(*exact_percentile(s, 0.50), 500.5);
  s = iota_samples(1000);
  EXPECT_DOUBLE_EQ(*exact_percentile(s, 0.99), 990.5);
}

TEST(Percentile, DoesNotDependOnSampleOrder) {
  Samples a = iota_samples(5000);
  Samples b(a.rbegin(), a.rend());
  EXPECT_DOUBLE_EQ(*exact_percentile(a, 0.99), *exact_percentile(b, 0.99));
}

TEST(Percentile, TiedSamplesMoveWithTheirShares) {
  Samples same(1000, 7);
  EXPECT_DOUBLE_EQ(*exact_percentile(same, 0.5), 7.0);
  // 60 % at 10, 40 % at 20: the mid-distribution puts 10 at 0.3 and 20 at
  // 0.8, so the median lies 0.2/0.5 of the way from 10 to 20.
  Samples two(600, 10);
  two.insert(two.end(), 400, 20);
  EXPECT_DOUBLE_EQ(*exact_percentile(two, 0.5), 14.0);
  // Moving 1 % of the mass moves the median.
  Samples shifted(610, 10);
  shifted.insert(shifted.end(), 390, 20);
  EXPECT_LT(*exact_percentile(shifted, 0.5), 14.0);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  Samples s = iota_samples(999);  // the p99 rank has 9 samples beyond it
  EXPECT_FALSE(exact_percentile(s, 0.99).has_value());
  s = iota_samples(1000);
  EXPECT_TRUE(exact_percentile(s, 0.99).has_value());
  Samples empty;
  EXPECT_FALSE(exact_percentile(empty, 0.5).has_value());
}

TEST(BlockContent, MatchesOnlyItsOwnBlockAndVersion) {
  const BlockContent c(42);
  std::array<std::byte, kBlock> buf{};
  c.fill(17, 3, buf);
  EXPECT_TRUE(c.matches(17, 3, buf));
  EXPECT_EQ(BlockContent::version_of(buf), 3u);
  EXPECT_FALSE(c.matches(17, 2, buf));
  EXPECT_FALSE(c.matches(18, 3, buf));
  buf[kBlock - 1] ^= std::byte{1};
  EXPECT_FALSE(c.matches(17, 3, buf));
  c.fill(17, 0, buf);
  EXPECT_TRUE(c.matches(17, 0, buf));
}

/// Fields that depend only on the generated inputs on a single-client
/// workload: model clocks and counts.
constexpr const char* kDeterministic[] = {
    "model_txn_per_s",   "model_commit_p50_us", "model_commit_p99_us",
    "recovery_model_ms", "disk_write_amp",      "nvm_write_amp"};

Options small(std::uint64_t seed, std::uint32_t seconds) {
  Options o;
  o.seed = seed;
  o.seconds = seconds;
  o.setups = 1;
  return o;
}

void expect_repeats(Result (*run)(const Options&), std::uint32_t seconds) {
  const Result a = run(small(5, seconds));
  const Result b = run(small(5, seconds));
  ASSERT_EQ(a.failed, 0u) << (a.errors.empty() ? "" : a.errors[0]);
  ASSERT_EQ(b.failed, 0u) << (b.errors.empty() ? "" : b.errors[0]);
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.input_digest, b.input_digest);
  for (const char* k : kDeterministic) {
    EXPECT_GT(a.value(k), 0.0) << k;
    EXPECT_EQ(a.value(k), b.value(k)) << k;
  }
  const Result c = run(small(6, seconds));
  EXPECT_NE(a.input_digest, c.input_digest);
}

TEST(Determinism, OltpRepeatsForASeed) { expect_repeats(run_oltp, 3); }

TEST(Determinism, FsVarmailRepeatsForASeed) {
  expect_repeats(run_fs_varmail, 6);
}

TEST(Trace, ReportsEveryPerLayerMetric) {
  Options o = small(5, 1);
  o.trace = true;
  const Result r = run_oltp(o);
  ASSERT_EQ(r.failed, 0u) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_TRUE(r.end_to_end.empty());
  EXPECT_EQ(r.per_layer.size(), 45u);
  EXPECT_GT(r.value("backend.commit.host_us.p50"), 0.0);
  EXPECT_GT(r.value("nvm.clflush_per_txn"), 0.0);
  EXPECT_GT(r.value("driver.self_frac"), 0.0);
  EXPECT_EQ(r.value("fs.fsync.host_us.p50"), 0.0);  // oltp bypasses fs
}

}  // namespace
}  // namespace perfbench
