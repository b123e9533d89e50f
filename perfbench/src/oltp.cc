// oltp: one client runs a TPC-C page mix through TxnBackend on the sharded
// Tinca stack.  Zipf θ=0.7 over 32768 blocks, about twice the ~15.3k-block
// cache, so commits, COW, the ring, eviction, cleaner writeback and disk
// reads all carry load; the fs and nvlog layers do none of it.
#include <algorithm>
#include <array>
#include <set>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {
namespace {

using tinca::backend::StackKind;

constexpr std::uint64_t kBlocks = 32768;
constexpr double kTheta = 0.7;

/// TPC-C transaction profiles: share of the mix, page reads, page writes.
struct Profile {
  const char* name;
  double share;
  std::uint32_t reads, writes;
};
constexpr std::array<Profile, 5> kMix = {{
    {"new_order", 0.45, 15, 10},
    {"payment", 0.43, 6, 4},
    {"order_status", 0.04, 12, 0},
    {"delivery", 0.04, 30, 25},
    {"stock_level", 0.04, 40, 0},
}};

struct OpDesc {
  std::uint32_t first;  ///< index of the op's first block in `blocks`
  std::uint8_t reads, writes;
};

/// A generated run of ops: reads first, then distinct write blocks.
struct OpStream {
  std::vector<OpDesc> ops;
  std::vector<std::uint32_t> blocks;
};

class Oltp final : public Workload {
 public:
  explicit Oltp(const Options& o)
      : o_(o),
        content_(o.seed),
        zipf_(kBlocks, kTheta),
        perm_(shuffled_ids(kBlocks, mix64(o.seed, 1))),
        acked_(kBlocks, 0) {}

  void setup(Result& r) override {
    rig_ = std::make_unique<StackRig>(StackKind::kShardedTinca);
    Recorder& rec = setup_rec_;
    rec.op_samples = false;
    timed_ = std::make_unique<TimedBackend>(rig_->stack.backend(), rec);
    // Warm up with the workload itself until the cleaners have cycled the
    // cache and write amplification is flat.
    Levelling lev(rig_->probe.capacity_blocks(), 8, 60);
    lev.chunk_done(rig_->probe.read(), 0);
    tinca::Rng rng(mix64(o_.seed, 2));
    for (;;) {
      const OpStream s = generate(rng, 1000);
      std::uint64_t user = 0;
      for (const OpDesc& op : s.ops) {
        run_op(s, op, rec, r);
        user += op.writes;
      }
      if (r.failed != 0 || lev.chunk_done(rig_->probe.read(), user)) break;
    }
    warm_chunks_ = lev.chunks();
  }

  double ops_per_budget_second() const override { return 4500; }

  void window(std::uint64_t n, bool trace, Window& w, Result& r) override {
    tinca::Rng rng(mix64(o_.seed, 3 + windows_++));
    const OpStream s = generate(rng, n);
    if (windows_ == 1) digest_ = digest(s);
    auto rec = std::make_unique<Recorder>(&rig_->model, trace);
    rec->keep_samples(Fn::kBeCommit);
    rec->keep_samples(Fn::kBeRead);
    timed_->set_recorder(*rec);
    std::uint64_t cross = 0;
    w.before = rig_->probe.read();
    for (const OpDesc& op : s.ops) {
      run_op(s, op, *rec, r);
      ++r.attempted;
      if (op.writes != 0) {
        ++w.txns;
        w.user_bytes += std::uint64_t{op.writes} * kBlock;
        std::set<std::uint32_t> shards;
        for (std::uint32_t i = 0; i < op.writes; ++i)
          shards.insert(rig_->sharded.shard_of(s.blocks[op.first + op.reads + i]));
        cross += shards.size() > 1 ? 1 : 0;
      }
      if (r.failed != 0) break;
    }
    w.after = rig_->probe.read();
    w.ops = rec->ops;
    w.cross_shard_frac =
        w.txns == 0 ? 0.0
                    : static_cast<double>(cross) / static_cast<double>(w.txns);
    w.op_host = rec->op_ns;
    w.commit_host = rec->fn(Fn::kBeCommit).host;
    w.commit_model = rec->fn(Fn::kBeCommit).model;
    w.read_host = rec->fn(Fn::kBeRead).host;
    w.recs.push_back(std::move(rec));
  }

  std::pair<double, double> crash_and_verify(Result& r) override {
    Remount m = crash_and_remount(rig_->stack);
    std::vector<std::byte> buf(kBlock);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      ++r.attempted;
      m.backend->read_block(b, buf);
      if (!content_.matches(b, acked_[b], buf))
        r.fail("after recovery block " + std::to_string(b) +
               " does not hold acknowledged version " +
               std::to_string(acked_[b]));
    }
    return {m.model_ms, m.host_ms};
  }

  std::string describe_setup() const override {
    return describe(rig_->cfg) + "; oltp: 1 client, TPC-C mix, Zipf 0.7 over " +
           std::to_string(kBlocks) + " blocks, cache " +
           std::to_string(rig_->probe.capacity_blocks()) + " blocks, warm-up " +
           std::to_string(warm_chunks_) + " x 1000 txns";
  }

  std::uint64_t input_digest() const override { return digest_; }

 private:
  OpStream generate(tinca::Rng& rng, std::uint64_t n) const {
    OpStream s;
    s.ops.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      double u = rng.uniform01();
      std::size_t t = 0;
      while (t + 1 < kMix.size() && u >= kMix[t].share) u -= kMix[t++].share;
      const Profile& p = kMix[t];
      s.ops.push_back(OpDesc{static_cast<std::uint32_t>(s.blocks.size()),
                             static_cast<std::uint8_t>(p.reads),
                             static_cast<std::uint8_t>(p.writes)});
      for (std::uint32_t k = 0; k < p.reads; ++k)
        s.blocks.push_back(perm_[zipf_.draw(rng)]);
      const std::size_t wfirst = s.blocks.size();
      while (s.blocks.size() - wfirst < p.writes) {
        const std::uint32_t b = perm_[zipf_.draw(rng)];
        if (std::find(s.blocks.begin() + static_cast<std::ptrdiff_t>(wfirst),
                      s.blocks.end(), b) == s.blocks.end())
          s.blocks.push_back(b);
      }
    }
    return s;
  }

  static std::uint64_t digest(const OpStream& s) {
    std::uint64_t h = 0;
    for (const OpDesc& op : s.ops) h = mix64(h, op.reads * 256u + op.writes);
    for (const std::uint32_t b : s.blocks) h = mix64(h, b);
    return h;
  }

  /// One client transaction: begin, reads checked against the shadow,
  /// staged writes, commit, one cleaner step.  Read-only profiles open no
  /// transaction.
  void run_op(const OpStream& s, const OpDesc& op, Recorder& rec, Result& r) {
    rec.start_op();
    try {
      if (op.writes != 0) timed_->begin();
      for (std::uint32_t i = 0; i < op.reads; ++i) {
        const std::uint32_t b = s.blocks[op.first + i];
        timed_->read_block(b, buf_);
        if (!content_.matches(b, acked_[b], buf_))
          r.fail("read of block " + std::to_string(b) +
                 " does not match acknowledged version " +
                 std::to_string(acked_[b]));
      }
      for (std::uint32_t i = 0; i < op.writes; ++i) {
        const std::uint32_t b = s.blocks[op.first + op.reads + i];
        content_.fill(b, acked_[b] + 1, buf_);
        timed_->stage(b, buf_);
      }
      if (op.writes != 0) {
        timed_->commit();
        for (std::uint32_t i = 0; i < op.writes; ++i)
          ++acked_[s.blocks[op.first + op.reads + i]];
      }
      timed_->cleaner_step();
    } catch (const std::exception& e) {
      r.fail(std::string("oltp op failed: ") + e.what());
    }
    rec.finish_op();
  }

  Options o_;
  BlockContent content_;
  tinca::Zipf zipf_;
  std::vector<std::uint32_t> perm_;
  std::vector<std::uint32_t> acked_;  ///< acknowledged version per block
  std::array<std::byte, kBlock> buf_{};
  std::unique_ptr<StackRig> rig_;
  Recorder setup_rec_{nullptr, false};
  std::unique_ptr<TimedBackend> timed_;
  std::uint32_t warm_chunks_ = 0;
  std::uint32_t windows_ = 0;
  std::uint64_t digest_ = 0;
};

}  // namespace

Result run_oltp(const Options& o) {
  return run_workload(o, [&o] { return std::make_unique<Oltp>(o); });
}

}  // namespace perfbench
