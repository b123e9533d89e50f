// Unit tests for the NVM emulation: persistence semantics, crash behaviour,
// latency accounting, atomics, and the crash injector.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/expect.h"
#include "nvm/nvm_device.h"

namespace tinca::nvm {
namespace {

constexpr std::size_t kDev = 64 * 1024;

struct Fixture {
  sim::SimClock clock;
  NvmDevice dev{kDev, pcm_profile(), clock};
  Rng rng{99};
};

std::vector<std::byte> bytes(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(NvmDevice, StoreThenLoadSeesData) {
  Fixture f;
  const auto data = bytes({1, 2, 3, 4});
  f.dev.store(100, data);
  std::vector<std::byte> got(4);
  f.dev.load(100, got);
  EXPECT_EQ(got, data);
}

TEST(NvmDevice, UnflushedStoreIsLostOnCrash) {
  Fixture f;
  f.dev.store(0, bytes({0xAA}));
  f.dev.crash_discard_all();
  std::vector<std::byte> got(1);
  f.dev.load(0, got);
  EXPECT_EQ(got[0], std::byte{0});
}

TEST(NvmDevice, FlushedStoreSurvivesCrash) {
  Fixture f;
  f.dev.store(0, bytes({0xAB}));
  f.dev.persist(0, 1);
  f.dev.crash_discard_all();
  std::vector<std::byte> got(1);
  f.dev.load(0, got);
  EXPECT_EQ(got[0], std::byte{0xAB});
}

TEST(NvmDevice, CrashDropsWholeLinesNotBytes) {
  Fixture f;
  // Two stores to the same line, one crash: both survive or neither.
  f.dev.store(0, bytes({0x11}));
  f.dev.store(32, bytes({0x22}));
  f.dev.crash(f.rng, 0.5);
  std::vector<std::byte> a(1), b(1);
  f.dev.load(0, a);
  f.dev.load(32, b);
  EXPECT_EQ(a[0] == std::byte{0x11}, b[0] == std::byte{0x22});
}

TEST(NvmDevice, CrashWithFullSurvivalKeepsEverything) {
  Fixture f;
  f.dev.store(128, bytes({5, 6, 7}));
  f.dev.crash(f.rng, 1.0);
  std::vector<std::byte> got(3);
  f.dev.load(128, got);
  EXPECT_EQ(got, bytes({5, 6, 7}));
}

TEST(NvmDevice, DirtyLineAccountingIsExact) {
  Fixture f;
  EXPECT_EQ(f.dev.dirty_lines(), 0u);
  f.dev.store(0, std::vector<std::byte>(64));      // one line
  f.dev.store(100, std::vector<std::byte>(64));    // spans lines 1..2
  EXPECT_EQ(f.dev.dirty_lines(), 3u);
  f.dev.clflush(0, 64);
  EXPECT_EQ(f.dev.dirty_lines(), 2u);
  f.dev.persist(64, 128);
  EXPECT_EQ(f.dev.dirty_lines(), 0u);
}

TEST(NvmDevice, ClflushCountsPerLine) {
  Fixture f;
  f.dev.store(0, std::vector<std::byte>(4096));
  const auto before = f.dev.stats().clflush;
  f.dev.clflush(0, 4096);
  EXPECT_EQ(f.dev.stats().clflush - before, 64u);
}

TEST(NvmDevice, PcmFlushCostsMoreThanNvdimm) {
  sim::SimClock c1, c2;
  NvmDevice pcm(kDev, pcm_profile(), c1);
  NvmDevice nvdimm(kDev, nvdimm_profile(), c2);
  std::vector<std::byte> data(4096);
  pcm.store(0, data);
  pcm.persist(0, 4096);
  nvdimm.store(0, data);
  nvdimm.persist(0, 4096);
  EXPECT_GT(c1.now(), c2.now());
  // The delta should be ~64 lines * 180 ns.
  EXPECT_NEAR(static_cast<double>(c1.now() - c2.now()), 64.0 * 180.0, 1.0);
}

TEST(NvmDevice, FlushOfCleanLineCostsOnlyInstruction) {
  Fixture f;
  f.dev.store(0, bytes({1}));
  f.dev.clflush(0, 1);
  const sim::Ns before = f.clock.now();
  f.dev.clflush(0, 1);  // clean now
  EXPECT_EQ(f.clock.now() - before, pcm_profile().clflush_ns);
}

TEST(NvmDevice, Atomic8RequiresAlignment) {
  Fixture f;
  EXPECT_THROW(f.dev.atomic_store8(3, 1), ContractViolation);
  f.dev.atomic_store8(8, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(f.dev.load8(8), 0xDEADBEEFCAFEF00DULL);
}

TEST(NvmDevice, Atomic16RequiresAlignment) {
  Fixture f;
  std::array<std::byte, 16> v{};
  v[0] = std::byte{0x42};
  EXPECT_THROW(f.dev.atomic_store16(8, v), ContractViolation);
  f.dev.atomic_store16(16, v);
  std::vector<std::byte> got(16);
  f.dev.load(16, got);
  EXPECT_EQ(got[0], std::byte{0x42});
}

TEST(NvmDevice, Atomic16NeverTearsAcrossCrash) {
  // A 16 B aligned value lives in one line: after any crash it is either
  // the old or the new value, never a mix.
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    sim::SimClock clock;
    NvmDevice dev(kDev, pcm_profile(), clock);
    Rng rng(seed);
    std::array<std::byte, 16> oldv{}, newv{};
    oldv.fill(std::byte{0xAA});
    newv.fill(std::byte{0xBB});
    dev.atomic_store16(0, oldv);
    dev.persist(0, 16);
    dev.atomic_store16(0, newv);  // not flushed
    dev.crash(rng, 0.5);
    std::vector<std::byte> got(16);
    dev.load(0, got);
    const bool all_old =
        std::all_of(got.begin(), got.end(), [](auto b) { return b == std::byte{0xAA}; });
    const bool all_new =
        std::all_of(got.begin(), got.end(), [](auto b) { return b == std::byte{0xBB}; });
    EXPECT_TRUE(all_old || all_new) << "torn 16 B write, seed " << seed;
  }
}

TEST(NvmDevice, StatsTrackOperations) {
  Fixture f;
  f.dev.store(0, std::vector<std::byte>(128));
  f.dev.sfence();
  f.dev.atomic_store8(0, 1);
  const auto& s = f.dev.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.bytes_stored, 136u);
  EXPECT_EQ(s.sfence, 1u);
  EXPECT_EQ(s.atomic8, 1u);
}

TEST(NvmDevice, StatsDeltaOperator) {
  Fixture f;
  f.dev.store(0, std::vector<std::byte>(64));
  const NvmStats snap = f.dev.stats();
  f.dev.persist(0, 64);
  const NvmStats d = f.dev.stats() - snap;
  EXPECT_EQ(d.clflush, 1u);
  EXPECT_EQ(d.sfence, 1u);
  EXPECT_EQ(d.stores, 0u);
}

TEST(NvmDevice, OutOfRangeAccessesThrow) {
  Fixture f;
  std::vector<std::byte> buf(16);
  EXPECT_THROW(f.dev.store(kDev - 8, buf), ContractViolation);
  EXPECT_THROW(f.dev.load(kDev, buf), ContractViolation);
  EXPECT_THROW(f.dev.clflush(kDev - 1, 2), ContractViolation);
}

TEST(NvmDevice, EmptyStoreIsRejected) {
  Fixture f;
  // Zero bytes cover no line: an empty store must neither touch the dirty
  // bits nor charge a line, at an aligned or an unaligned offset.
  EXPECT_THROW(f.dev.store(0, {}), ContractViolation);
  EXPECT_THROW(f.dev.store(72, {}), ContractViolation);
  EXPECT_EQ(f.dev.dirty_lines(), 0u);
  EXPECT_EQ(f.dev.stats().stores, 0u);
  EXPECT_EQ(f.clock.now(), 0u);
}

TEST(NvmDevice, WearCountsMediaWritesOnly) {
  Fixture f;
  f.dev.store(0, bytes({1}));
  EXPECT_EQ(f.dev.wear().total_line_writes, 0u) << "stores alone do not wear";
  f.dev.persist(0, 1);
  EXPECT_EQ(f.dev.wear().total_line_writes, 1u);
  f.dev.clflush(0, 1);  // clean line: no media write
  EXPECT_EQ(f.dev.wear().total_line_writes, 1u);
}

TEST(NvmDevice, WearTracksHotLines) {
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    f.dev.atomic_store8(0, static_cast<std::uint64_t>(i));
    f.dev.persist(0, 8);
  }
  f.dev.store(4096, bytes({1}));
  f.dev.persist(4096, 1);
  const auto w = f.dev.wear();
  EXPECT_EQ(w.max_line_writes, 10u);
  EXPECT_EQ(w.total_line_writes, 11u);
  EXPECT_EQ(w.lines_touched, 2u);
  EXPECT_GT(w.mean_line_writes, 0.0);
}

TEST(NvmDevice, SurvivingCrashLinesCountAsWear) {
  Fixture f;
  f.dev.store(0, bytes({1}));
  f.dev.crash(f.rng, 1.0);  // line reached the media during power loss
  EXPECT_EQ(f.dev.wear().total_line_writes, 1u);
}

TEST(CrashInjector, FiresAtArmedStep) {
  CrashInjector inj;
  inj.point();  // disarmed: counts only
  EXPECT_EQ(inj.steps_seen(), 1u);
  inj.arm(3);
  inj.point();
  inj.point();
  EXPECT_THROW(inj.point(), CrashException);
}

TEST(CrashInjector, DisarmStopsFiring) {
  CrashInjector inj;
  inj.arm(1);
  inj.disarm();
  EXPECT_NO_THROW(inj.point());
}

TEST(CrashInjector, TornCounterIsIndependentOfPointCounter) {
  CrashInjector inj;
  inj.arm_torn(2);
  // Ordinary points never advance (or trip) the torn counter, so arming a
  // torn step cannot perturb an existing point() sweep's numbering.
  EXPECT_NO_THROW(inj.point());
  EXPECT_NO_THROW(inj.point());
  EXPECT_EQ(inj.torn_steps_seen(), 0u);
  EXPECT_FALSE(inj.point_torn());  // torn step 1
  EXPECT_TRUE(inj.point_torn());   // torn step 2 fires
  EXPECT_EQ(inj.torn_steps_seen(), 2u);
  EXPECT_EQ(inj.steps_seen(), 2u);  // point() count untouched by torn calls
  inj.disarm_torn();
  EXPECT_FALSE(inj.torn_armed());
  EXPECT_FALSE(inj.point_torn());
}

TEST(NvmDevice, TornStoreAppliesPrefixThenCrashes) {
  Fixture f;
  std::vector<std::byte> old_data(128);
  fill_pattern(old_data, 1);
  f.dev.store(0, old_data);
  f.dev.clflush(0, old_data.size());
  f.dev.sfence();

  std::vector<std::byte> new_data(128);
  fill_pattern(new_data, 2);
  f.dev.injector.arm_torn(1);
  EXPECT_THROW(f.dev.store(0, new_data), CrashException);
  f.dev.injector.disarm_torn();

  // Every torn-prefix line survives the power cut: the first half of the
  // store is new, the second half still old — a torn write, not a lost one.
  f.dev.crash(f.rng, 1.0);
  std::vector<std::byte> got(128);
  f.dev.load(0, got);
  EXPECT_TRUE(std::equal(got.begin(), got.begin() + 64, new_data.begin()));
  EXPECT_TRUE(std::equal(got.begin() + 64, got.end(), old_data.begin() + 64));
}

TEST(NvmDevice, TornStorePrefixStillFacesLineSurvivalLottery) {
  Fixture f;
  std::vector<std::byte> old_data(128);
  fill_pattern(old_data, 1);
  f.dev.store(0, old_data);
  f.dev.clflush(0, old_data.size());
  f.dev.sfence();

  std::vector<std::byte> new_data(128);
  fill_pattern(new_data, 2);
  f.dev.injector.arm_torn(1);
  EXPECT_THROW(f.dev.store(0, new_data), CrashException);
  f.dev.injector.disarm_torn();

  // The torn prefix was only in the CPU cache; with zero survival it is
  // dropped wholesale and the flushed old contents are intact.
  f.dev.crash(f.rng, 0.0);
  std::vector<std::byte> got(128);
  f.dev.load(0, got);
  EXPECT_EQ(got, old_data);
}

// Per-line reference model of NvmDevice accounting: a plain loop over every
// line an operation covers, charging each on its own.  The device's
// per-call bookkeeping must agree with it exactly.
class LineModel {
 public:
  explicit LineModel(std::size_t size)
      : volatile_(size), persistent_(size), dirty_(size / kLine),
        wear_(size / kLine) {}

  /// The model of one device handle: its base within the root device,
  /// its clock and its counters.
  struct Handle {
    std::uint64_t base;
    sim::Ns clock;
    NvmStats stats;
  };

  void store(Handle& h, std::uint64_t off, std::span<const std::byte> src) {
    std::memcpy(volatile_.data() + h.base + off, src.data(), src.size());
    const std::size_t first = (h.base + off) / kLine;
    const std::size_t last = (h.base + off + src.size() - 1) / kLine;
    for (std::size_t line = first; line <= last; ++line) {
      dirty_[line] = true;
      h.clock += profile_.base_line_ns;
    }
    ++h.stats.stores;
    h.stats.bytes_stored += src.size();
  }

  void atomic(Handle& h, std::uint64_t off, std::span<const std::byte> src) {
    std::memcpy(volatile_.data() + h.base + off, src.data(), src.size());
    dirty_[(h.base + off) / kLine] = true;
    h.clock += profile_.base_line_ns + (src.size() == 16 ? 20 : 0);
    ++(src.size() == 16 ? h.stats.atomic16 : h.stats.atomic8);
    h.stats.bytes_stored += src.size();
  }

  void clflush(Handle& h, std::uint64_t off, std::size_t len) {
    const std::size_t first = (h.base + off) / kLine;
    const std::size_t last = (h.base + off + len - 1) / kLine;
    for (std::size_t line = first; line <= last; ++line) {
      ++h.stats.clflush;
      if (dirty_[line]) {
        std::memcpy(persistent_.data() + line * kLine,
                    volatile_.data() + line * kLine, kLine);
        dirty_[line] = false;
        ++wear_[line];
        h.clock += profile_.line_flush_cost();
      } else {
        h.clock += profile_.clflush_ns;
      }
    }
  }

  void sfence(Handle& h) {
    ++h.stats.sfence;
    h.clock += profile_.sfence_ns;
  }

  [[nodiscard]] std::size_t dirty_lines() const {
    return static_cast<std::size_t>(
        std::count(dirty_.begin(), dirty_.end(), true));
  }
  [[nodiscard]] std::uint64_t wear(std::size_t line) const {
    return wear_[line];
  }
  [[nodiscard]] const std::vector<std::byte>& media() const {
    return persistent_;
  }

 private:
  static constexpr std::size_t kLine = NvmDevice::kLineSize;
  NvmProfile profile_ = pcm_profile();
  std::vector<std::byte> volatile_;
  std::vector<std::byte> persistent_;
  std::vector<bool> dirty_;
  std::vector<std::uint64_t> wear_;
};

TEST(NvmDevice, RunBatchedAccountingMatchesPerLineModel) {
  constexpr std::size_t kLine = NvmDevice::kLineSize;
  constexpr std::size_t kSize = 16 * 1024;
  constexpr std::uint64_t kViewBytes = 4096;
  sim::SimClock root_clock, a_clock, b_clock;
  NvmDevice root(kSize, pcm_profile(), root_clock);
  NvmDevice view_a(root, 4096, kViewBytes, a_clock);
  NvmDevice view_b(root, 8192 + 2 * kLine, kViewBytes, b_clock);

  LineModel model(kSize);
  std::array<LineModel::Handle, 3> mh{
      LineModel::Handle{0, 0, {}}, LineModel::Handle{4096, 0, {}},
      LineModel::Handle{8192 + 2 * kLine, 0, {}}};
  std::array<NvmDevice*, 3> dev{&root, &view_a, &view_b};
  std::array<sim::SimClock*, 3> clk{&root_clock, &a_clock, &b_clock};

  const auto check = [&](std::size_t h, int step) {
    ASSERT_EQ(clk[h]->now(), mh[h].clock) << "handle " << h << " step " << step;
    const NvmStats& got = dev[h]->stats();
    ASSERT_EQ(got.clflush, mh[h].stats.clflush) << "step " << step;
    ASSERT_EQ(got.stores, mh[h].stats.stores) << "step " << step;
    ASSERT_EQ(got.bytes_stored, mh[h].stats.bytes_stored) << "step " << step;
    ASSERT_EQ(got.sfence, mh[h].stats.sfence) << "step " << step;
    ASSERT_EQ(got.atomic8, mh[h].stats.atomic8) << "step " << step;
    ASSERT_EQ(got.atomic16, mh[h].stats.atomic16) << "step " << step;
    ASSERT_EQ(root.dirty_lines(), model.dirty_lines()) << "step " << step;
  };

  Rng rng(2024);
  std::vector<std::byte> buf(3 * kLine + 40);
  for (int step = 0; step < 4000; ++step) {
    const std::size_t h = rng.below(3);
    NvmDevice& d = *dev[h];
    LineModel::Handle& m = mh[h];
    const std::uint64_t kind = rng.below(10);
    if (kind < 4) {
      // Unaligned, often multi-line; the small span keeps stores
      // overlapping one another and the flushed ranges.
      const std::size_t len = 1 + rng.below(buf.size());
      const std::uint64_t off = rng.below(d.size() - len + 1);
      fill_pattern(std::span(buf).first(len), rng.next());
      d.store(off, std::span<const std::byte>(buf).first(len));
      model.store(m, off, std::span<const std::byte>(buf).first(len));
    } else if (kind < 8) {
      // Clean, dirty and partly dirty ranges, unaligned ends included.
      const std::size_t len = 1 + rng.below(6 * kLine);
      const std::uint64_t off = rng.below(d.size() - len + 1);
      d.clflush(off, len);
      model.clflush(m, off, len);
    } else if (kind == 8) {
      const std::uint64_t off = 8 * rng.below(d.size() / 8);
      const std::uint64_t v = rng.next();
      std::array<std::byte, 8> raw{};
      std::memcpy(raw.data(), &v, 8);
      d.atomic_store8(off, v);
      model.atomic(m, off, raw);
    } else {
      const std::uint64_t off = 16 * rng.below(d.size() / 16);
      std::array<std::byte, 16> raw{};
      fill_pattern(raw, rng.next());
      d.atomic_store16(off, raw);
      model.atomic(m, off, raw);
      d.sfence();
      model.sfence(m);
    }
    check(h, step);
  }

  for (std::size_t line = 0; line < kSize / kLine; ++line) {
    ASSERT_EQ(root.wear(line * kLine, kLine).total_line_writes,
              model.wear(line))
        << "line " << line;
  }
  EXPECT_GT(root.dirty_lines(), 0u) << "the mix must leave lines unflushed";
  root.crash_discard_all();
  std::vector<std::byte> media(kSize);
  root.load_nocharge(0, media);
  EXPECT_EQ(media, model.media());
}

}  // namespace
}  // namespace tinca::nvm
