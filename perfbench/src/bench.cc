#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/rng.h"

namespace perfbench {

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::uint32_t> shuffled_ids(std::uint32_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) ids[i] = i;
  tinca::Rng rng(seed);
  for (std::uint64_t i = n - 1; i > 0; --i)
    std::swap(ids[i], ids[rng.below(i + 1)]);
  return ids;
}

// --- Percentiles ------------------------------------------------------------

std::optional<double> exact_percentile(Samples& samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // k = ceil(q·n): the nearest-rank sample, 1-based.  The epsilon keeps a
  // q·n that is mathematically whole (0.99 · 1000) from rounding up.
  auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  k = std::clamp<std::size_t>(k, 1, n);
  if (n - k < 10) return std::nullopt;
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  const std::uint32_t v = *nth;
  // Mid-distribution of v and of its distinct neighbours: the share of
  // samples below a value plus half the share equal to it.
  std::size_t below = 0, equal = 0;
  std::optional<std::uint32_t> prev, next;
  for (const std::uint32_t x : samples) {
    if (x < v) {
      ++below;
      if (!prev || x > *prev) prev = x;
    } else if (x == v) {
      ++equal;
    } else if (!next || x < *next) {
      next = x;
    }
  }
  const double dn = static_cast<double>(n);
  const auto count = [&](std::uint32_t value) {
    return static_cast<double>(std::count(samples.begin(), samples.end(), value));
  };
  const double mid_v =
      (static_cast<double>(below) + 0.5 * static_cast<double>(equal)) / dn;
  if (q < mid_v && prev) {
    const double mid_p = (static_cast<double>(below) - 0.5 * count(*prev)) / dn;
    return *prev + (static_cast<double>(v) - *prev) * (q - mid_p) / (mid_v - mid_p);
  }
  if (q > mid_v && next) {
    const double mid_n =
        (static_cast<double>(below + equal) + 0.5 * count(*next)) / dn;
    return v + (static_cast<double>(*next) - v) * (q - mid_v) / (mid_n - mid_v);
  }
  return static_cast<double>(v);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Result -----------------------------------------------------------------

void Result::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void Result::add(std::vector<Metric>& into, const std::string& name,
                 double value, const std::string& unit, std::uint64_t samples) {
  into.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit, samples});
}

void Result::add_percentile(std::vector<Metric>& into, const std::string& name,
                            Samples& samples, double q, double scale,
                            const std::string& unit, bool required) {
  const std::optional<double> p = exact_percentile(samples, q);
  if (!p && required)
    fail(name + ": " + std::to_string(samples.size()) +
         " samples cannot support this percentile");
  add(into, name, p ? *p * scale : 0.0, unit, samples.size());
}

double Result::value(const std::string& name) const {
  for (const auto* list : {&end_to_end, &per_layer})
    for (const Metric& m : *list)
      if (m.name == name) return m.value;
  return std::numeric_limits<double>::quiet_NaN();
}

// --- Stack set-up ---------------------------------------------------------------

StackConfig base_config(tinca::backend::StackKind kind) {
  StackConfig c;
  c.kind = kind;
  c.nvm_bytes = 64ull << 20;
  c.nvm_profile = "pcm";
  c.disk_profile = "ssd";
  c.disk_writes = tinca::blockdev::WritePolicy::kAsync;
  c.disk_blocks = 1ull << 16;
  c.tinca_shards = 4;
  c.tinca.ring_bytes = 1ull << 20;
  // Stepped cleaners (no background thread) that start cleaning at 20 %
  // dirty, so every workload, hot_reads included, writes back to disk.
  c.tinca.cleaner.mode = tinca::cleaner::CleanerMode::kStepped;
  c.tinca.cleaner.low_water_pct = 10;
  c.tinca.cleaner.high_water_pct = 20;
  c.nvlog_stacked.cleaner.mode = tinca::cleaner::CleanerMode::kStepped;
  return c;
}

std::string describe(const StackConfig& c) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "nvm=%s %llu MiB, %u shards, ring %llu KiB/shard, disk=%s "
                "async, %llu disk blocks, stepped cleaners (low %u%%, high "
                "%u%%)",
                c.nvm_profile.c_str(),
                static_cast<unsigned long long>(c.nvm_bytes >> 20),
                c.tinca_shards,
                static_cast<unsigned long long>(c.tinca.ring_bytes >> 10),
                c.disk_profile.c_str(),
                static_cast<unsigned long long>(c.disk_blocks),
                c.tinca.cleaner.low_water_pct, c.tinca.cleaner.high_water_pct);
  return buf;
}

tinca::shard::ShardedTinca& sharded_of(TxnBackend& backend) {
  using tinca::backend::NvLogStackedBackend;
  using tinca::backend::ShardedBackend;
  if (auto* s = dynamic_cast<ShardedBackend*>(&backend)) return s->sharded();
  auto* n = dynamic_cast<NvLogStackedBackend*>(&backend);
  TINCA_EXPECT(n != nullptr && n->inner_sharded() != nullptr,
               "benchmark stacks are sharded");
  return n->inner_sharded()->sharded();
}

Remount crash_and_remount(Stack& stack) {
  using namespace tinca::backend;
  const StackConfig& cfg = stack.config();
  stack.nvm().crash_discard_all();
  Remount out;
  const std::uint64_t m0 = stack.clock().now();
  const std::uint64_t h0 = host_ns();
  if (cfg.kind == StackKind::kShardedTinca) {
    tinca::shard::ShardedConfig s;
    s.num_shards = cfg.tinca_shards;
    s.shard = cfg.tinca;
    s.shard.io = cfg.disk_retry;
    out.backend = ShardedBackend::recover(stack.nvm(), stack.disk(), s);
  } else {
    TINCA_EXPECT(cfg.kind == StackKind::kNvLogSharded,
                 "benchmark stacks are sharded");
    NvLogStackedConfig c = cfg.nvlog_stacked;
    c.inner = NvLogInner::kSharded;
    c.tinca = cfg.tinca;
    c.tinca.io = cfg.disk_retry;
    c.shards = cfg.tinca_shards;
    out.backend = NvLogStackedBackend::recover(stack.nvm(), stack.disk(), c);
  }
  out.host_ms = static_cast<double>(host_ns() - h0) / 1e6;
  // The recovered shards' clocks start at zero, so their readings are the
  // shard side of the remount.
  std::uint64_t model = stack.clock().now() - m0;
  tinca::shard::ShardedTinca& sh = sharded_of(*out.backend);
  for (std::uint32_t s = 0; s < sh.shard_count(); ++s)
    model += sh.shard_clock(s).now();
  out.model_ms = static_cast<double>(model) / 1e6;
  return out;
}

// --- Model clock --------------------------------------------------------------

ModelClock::ModelClock(tinca::sim::SimClock& root,
                       tinca::shard::ShardedTinca& sharded)
    : root_(&root) {
  for (std::uint32_t s = 0; s < sharded.shard_count(); ++s)
    shards_.push_back(&sharded.shard_clock(s));
}

std::uint64_t ModelClock::now() const {
  std::uint64_t t = root_->now();
  for (const tinca::sim::SimClock* c : shards_) t += c->now();
  return t;
}

// --- Call recording -----------------------------------------------------------

const char* fn_name(Fn f) {
  switch (f) {
    case Fn::kOp: return "client.op";
    case Fn::kFsCreate: return "fs.create";
    case Fn::kFsWrite: return "fs.write";
    case Fn::kFsAppend: return "fs.append";
    case Fn::kFsRead: return "fs.read";
    case Fn::kFsRemove: return "fs.remove";
    case Fn::kFsFsync: return "fs.fsync";
    case Fn::kBeBegin: return "backend.begin";
    case Fn::kBeStage: return "backend.stage";
    case Fn::kBeCommit: return "backend.commit";
    case Fn::kBeCommitGroup: return "backend.commit_group";
    case Fn::kBeRead: return "backend.read_block";
    case Fn::kBeCleanerStep: return "backend.cleaner_step";
    case Fn::kShStage: return "shard.stage";
    case Fn::kShRead: return "shard.read_block";
    case Fn::kShCommit: return "shard.commit";
    case Fn::kShStepCleaners: return "shard.step_cleaners";
    case Fn::kCount: break;
  }
  return "?";
}

Recorder::Recorder(const ModelClock* model, bool trace)
    : model_(model), trace_(trace) {
  if (trace_) spans.reserve(1u << 16);
}

void Recorder::start_op() {
  ++op_id_;
  op_program_ = 0;
  const std::uint64_t now = host_ns();
  if (first_start_ == 0) first_start_ = now;
  if (trace_ && spans.size() < kMaxSpans) {
    const std::uint64_t m = model_ != nullptr ? model_->now() : 0;
    spans.push_back(Span{op_id_, now, 0, m, 0, 0, Fn::kOp});
    open_ = static_cast<std::uint32_t>(spans.size());
  }
}

void Recorder::finish_op() {
  const std::uint64_t now = host_ns();
  if (open_ != 0) {
    Span& s = spans[open_ - 1];
    s.h1 = now;
    s.m1 = model_ != nullptr ? model_->now() : 0;
    open_ = 0;
  }
  ++ops;
  program_ns += op_program_;
  if (op_samples) op_ns.push_back(to_sample(op_program_));
  wall_ns = now - first_start_;
}

Recorder::Call::Call(Recorder& r, Fn f)
    : r_(r), f_(f), model_(r.model_ != nullptr &&
                           (r.trace_ || r.keep_[static_cast<int>(f)])) {
  // The model clock is read outside the host interval, so reading the
  // shard clocks never counts as program time.
  if (model_) m0_ = r_.model_->now();
  if (r_.trace_ && r_.spans.size() < kMaxSpans) {
    r_.spans.push_back(Span{r_.op_id_, 0, 0, m0_, 0, r_.open_, f});
    span_ = static_cast<std::uint32_t>(r_.spans.size());
    r_.open_ = span_;
  }
  ++r_.depth_;
  h0_ = host_ns();
}

Recorder::Call::~Call() {
  const std::uint64_t h1 = host_ns();
  const std::uint64_t d = h1 - h0_;
  if (--r_.depth_ == 0) r_.op_program_ += d;
  const std::uint64_t m1 = model_ ? r_.model_->now() : 0;
  FnStats& s = r_.fns_[static_cast<int>(f_)];
  ++s.calls;
  s.host_ns += d;
  s.model_ns += m1 - m0_;
  if (r_.keep_[static_cast<int>(f_)]) {
    s.host.push_back(to_sample(d));
    s.model.push_back(to_sample(m1 - m0_));
  }
  if (span_ != 0) {
    Span& sp = r_.spans[span_ - 1];
    sp.h0 = h0_;
    sp.h1 = h1;
    sp.m1 = m1;
    r_.open_ = sp.parent;
  }
}

static std::string layer_of(Fn f) {
  const std::string n = fn_name(f);
  return n.substr(0, n.find('.'));
}

std::map<std::string, std::uint64_t> self_host_ns(const Recorder& r) {
  std::vector<std::uint64_t> covered(r.spans.size(), 0);
  for (const Span& s : r.spans)
    if (s.parent != 0) covered[s.parent - 1] += s.h1 - s.h0;
  std::map<std::string, std::uint64_t> self;
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    const std::uint64_t d = s.h1 - s.h0;
    self[layer_of(s.fn)] += d > covered[i] ? d - covered[i] : 0;
  }
  return self;
}

bool write_spans(const std::string& path,
                 const std::vector<const Recorder*>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(
      "thread,span,parent,op,layer,function,host_start_ns,host_end_ns,"
      "model_start_ns,model_end_ns\n",
      f);
  for (std::size_t t = 0; t < recorders.size(); ++t) {
    const Recorder& r = *recorders[t];
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
      const Span& s = r.spans[i];
      const std::string name = fn_name(s.fn);
      const std::size_t dot = name.find('.');
      std::fprintf(f, "%zu,%zu,%u,%llu,%s,%s,%llu,%llu,%llu,%llu\n", t, i + 1,
                   s.parent, static_cast<unsigned long long>(s.op),
                   name.substr(0, dot).c_str(), name.substr(dot + 1).c_str(),
                   static_cast<unsigned long long>(s.h0),
                   static_cast<unsigned long long>(s.h1),
                   static_cast<unsigned long long>(s.m0),
                   static_cast<unsigned long long>(s.m1));
    }
  }
  return std::fclose(f) == 0;
}

// --- TimedBackend ---------------------------------------------------------------

void TimedBackend::begin() {
  Recorder::Call c(*rec_, Fn::kBeBegin);
  inner_->begin();
}

void TimedBackend::stage(std::uint64_t blkno, std::span<const std::byte> data) {
  Recorder::Call c(*rec_, Fn::kBeStage);
  inner_->stage(blkno, data);
}

void TimedBackend::commit() {
  Recorder::Call c(*rec_, Fn::kBeCommit);
  inner_->commit();
}

void TimedBackend::commit_group(
    std::span<const tinca::backend::GroupTxn> txns) {
  Recorder::Call c(*rec_, Fn::kBeCommitGroup);
  inner_->commit_group(txns);
}

void TimedBackend::read_block(std::uint64_t blkno, std::span<std::byte> dst) {
  Recorder::Call c(*rec_, Fn::kBeRead);
  inner_->read_block(blkno, dst);
}

void TimedBackend::cleaner_step() {
  Recorder::Call c(*rec_, Fn::kBeCleanerStep);
  inner_->cleaner_step();
}

// --- Counters -----------------------------------------------------------------

double Counters::delta(const Counters& after, const Counters& before,
                       const std::string& k) {
  const auto a = after.reg.find(k);
  const auto b = before.reg.find(k);
  const std::uint64_t av = a == after.reg.end() ? 0 : a->second;
  const std::uint64_t bv = b == before.reg.end() ? 0 : b->second;
  return static_cast<double>(av) - static_cast<double>(bv);
}

CounterProbe::CounterProbe(Stack& stack, tinca::shard::ShardedTinca& sharded,
                           const ModelClock& model)
    : stack_(stack), sharded_(sharded), model_(model) {
  stack_.register_metrics(reg_);
}

namespace {

// Per-shard cache and cleaner keys, registered as "sharded.shard<i>.<key>".
constexpr const char* kShardKeys[] = {
    "read_hits", "read_misses", "evictions", "dirty_writebacks",
    "cow_writes", "role_switches", "commit.fences", "commit.batches",
    "blocks_committed", "txns_committed", "capacity_blocks",
    "mvcc.snapshot_reads", "mvcc.pin_retries", "mvcc.lock_fallbacks",
    "cleaner.retired", "cleaner.steps", "cleaner.backpressure_drains",
    "cleaner.coalesced_blocks"};

// Log-tier keys (kNvLogSharded only).
constexpr const char* kLogKeys[] = {
    "nvlog.absorbed_txns", "nvlog.absorbed_records", "nvlog.absorbed_bytes",
    "nvlog.coalesced_records", "nvlog.drain_batches",
    "nvlog.backpressure_drains", "nvlog.cleaner.retired",
    "nvlog.cleaner.steps", "nvlog.cleaner.backpressure_drains",
    "nvlog.cleaner.coalesced_blocks"};

}  // namespace

Counters CounterProbe::read() const {
  Counters c;
  c.nvm = stack_.nvm().stats();
  for (std::uint32_t s = 0; s < sharded_.shard_count(); ++s)
    c.nvm = c.nvm + sharded_.shard_nvm(s).stats();
  c.media_lines = stack_.nvm().wear().total_line_writes;
  c.disk = stack_.disk().stats();
  c.model_ns = model_.now();
  c.root_ns = model_.root();
  for (const char* k : kShardKeys) {
    const std::string key = k;
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < sharded_.shard_count(); ++s) {
      const std::string name = "sharded.shard" + std::to_string(s) + "." + key;
      if (reg_.has(name)) sum += reg_.value(name);
    }
    c.reg[key.rfind("cleaner.", 0) == 0 ? key : "tinca." + key] = sum;
  }
  for (const char* k : kLogKeys)
    if (reg_.has(k)) c.reg[k] = reg_.value(k);
  // The cleaner layer is every Cleaner instance: the shards' and the log
  // tier's drain cleaner.
  for (const char* k : {"retired", "steps", "backpressure_drains",
                        "coalesced_blocks"}) {
    const std::string log_key = std::string("nvlog.cleaner.") + k;
    if (c.reg.count(log_key) != 0)
      c.reg[std::string("cleaner.") + k] += c.reg[log_key];
  }
  return c;
}

std::uint64_t CounterProbe::capacity_blocks() const {
  std::uint64_t sum = 0;
  for (std::uint32_t s = 0; s < sharded_.shard_count(); ++s)
    sum += sharded_.shard_cache(s).capacity_blocks();
  return sum;
}

StackRig::StackRig(tinca::backend::StackKind kind)
    : cfg(base_config(kind)),
      stack(cfg),
      sharded(sharded_of(stack.backend())),
      model(stack.clock(), sharded),
      probe(stack, sharded, model) {}

// --- Inputs and the oracle ------------------------------------------------------

namespace {
constexpr std::size_t kHeader = 16;
constexpr std::size_t kBodyOffsets = 8192;  // 8 B steps over a 64 KiB pool

std::vector<std::byte> random_pool(std::uint64_t seed, std::size_t bytes) {
  tinca::Rng rng(seed);
  std::vector<std::byte> pool(bytes);
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(pool.data() + i, &w, std::min<std::size_t>(8, bytes - i));
  }
  return pool;
}
}  // namespace

BlockContent::BlockContent(std::uint64_t seed)
    : pool_(random_pool(mix64(seed, 0xB10C), kBodyOffsets * 8 + kBlock)) {}

std::size_t BlockContent::body_offset(std::uint64_t blkno,
                                      std::uint32_t version) const {
  return (mix64(blkno, version) % kBodyOffsets) * 8;
}

void BlockContent::fill(std::uint64_t blkno, std::uint32_t version,
                        std::span<std::byte> dst) const {
  if (version == 0) {
    std::memset(dst.data(), 0, kBlock);
    return;
  }
  const std::uint64_t v = version;
  std::memcpy(dst.data(), &blkno, 8);
  std::memcpy(dst.data() + 8, &v, 8);
  std::memcpy(dst.data() + kHeader, pool_.data() + body_offset(blkno, version),
              kBlock - kHeader);
}

bool BlockContent::matches(std::uint64_t blkno, std::uint32_t version,
                           std::span<const std::byte> got) const {
  if (got.size() != kBlock) return false;
  if (version == 0)
    return std::all_of(got.begin(), got.end(),
                       [](std::byte b) { return b == std::byte{0}; });
  std::uint64_t b = 0, v = 0;
  std::memcpy(&b, got.data(), 8);
  std::memcpy(&v, got.data() + 8, 8);
  return b == blkno && v == version &&
         std::memcmp(got.data() + kHeader,
                     pool_.data() + body_offset(blkno, version),
                     kBlock - kHeader) == 0;
}

std::uint32_t BlockContent::version_of(std::span<const std::byte> got) {
  std::uint64_t v = 0;
  std::memcpy(&v, got.data() + 8, 8);
  return v > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(v);
}

FileContent::FileContent(std::uint64_t seed)
    : pool_(random_pool(mix64(seed, 0xF11E), 2 * kMaxFile)) {}

std::span<const std::byte> FileContent::bytes(std::uint64_t file_id,
                                              std::uint64_t offset,
                                              std::size_t len) const {
  // Each file reads a kMaxFile-long window of the pool starting at an
  // id-chosen byte, so two files (or one file shifted) never agree.
  const std::size_t start = mix64(file_id, 7) % kMaxFile;
  TINCA_EXPECT(offset + len <= kMaxFile, "file larger than the content pool");
  return {pool_.data() + start + offset, len};
}

// --- Levelling ---------------------------------------------------------------

bool Levelling::chunk_done(const Counters& now, std::uint64_t user_blocks) {
  if (!start_) {
    start_ = now;
    last_ = now;
    return false;
  }
  ++chunks_;
  const double written =
      static_cast<double>(now.disk.blocks_written - last_->disk.blocks_written);
  was_.push_back(user_blocks == 0 ? 0.0
                                  : written / static_cast<double>(user_blocks));
  last_ = now;
  // Level: the mean of the last four chunks within 5 % of the four before.
  bool level = false;
  if (was_.size() >= 8) {
    const auto mean4 = [&](std::size_t end) {
      double sum = 0.0;
      for (std::size_t i = end - 4; i < end; ++i) sum += was_[i];
      return sum / 4.0;
    };
    const double recent = mean4(was_.size());
    const double before = mean4(was_.size() - 4);
    level = std::fabs(recent - before) <= 0.05 * std::max(recent, before);
  }
  const bool cycled = Counters::delta(now, *start_, "cleaner.retired") >=
                      static_cast<double>(cycle_);
  return (cycled && level && chunks_ >= min_chunks_) || chunks_ >= max_chunks_;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
