// hot_reads: two reader threads call ShardedTinca::read_block, Zipf θ=0.9
// over 4096 pre-committed blocks (a quarter of the cache), while one writer
// thread commits 4-block transactions over the same set.  The working set
// fits, so the lock-free MVCC read path and the pin registry do most of the
// work and eviction, disk, cleaner and nvlog do almost none; the small
// commits run the commit path beside oltp's large ones.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {
namespace {

using tinca::backend::StackKind;

constexpr std::uint64_t kBlocks = 4096;
constexpr double kTheta = 0.9;
constexpr std::uint32_t kReaders = 2;
constexpr std::uint32_t kTxnBlocks = 4;
constexpr std::size_t kReaderKeys = 1u << 20;  // cycled by each reader

/// Pin the calling thread to `cpu` when the machine has that many CPUs, so
/// the three clients never share or migrate between CPUs.
void pin_to(unsigned cpu) {
  if (cpu >= std::thread::hardware_concurrency()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

class HotReads final : public Workload {
 public:
  explicit HotReads(const Options& o)
      : o_(o),
        content_(o.seed),
        zipf_(kBlocks, kTheta),
        perm_(shuffled_ids(kBlocks, mix64(o.seed, 1))),
        acked_(kBlocks),
        started_(kBlocks) {}

  void setup(Result& r) override {
    rig_ = std::make_unique<StackRig>(StackKind::kShardedTinca);
    // Pre-commit version 1 of every block.
    for (std::uint64_t first = 0; first < kBlocks; first += 64) {
      tinca::shard::ShardedTxn txn = rig_->sharded.init_txn();
      for (std::uint64_t b = first; b < first + 64; ++b) {
        content_.fill(b, 1, buf_);
        txn.add(b, buf_);
      }
      rig_->sharded.commit(txn);
      for (std::uint64_t b = first; b < first + 64; ++b) {
        started_[b].store(1);
        acked_[b].store(1);
      }
    }
    // Warm up with the writer alone (deterministic) until the cleaners have
    // cycled and write amplification is flat.
    Recorder rec(&rig_->model, false);
    rec.op_samples = false;
    Levelling lev(std::min(rig_->probe.capacity_blocks(), kBlocks), 12, 60);
    lev.chunk_done(rig_->probe.read(), 0);
    tinca::Rng rng(mix64(o_.seed, 2));
    for (;;) {
      const std::vector<std::uint32_t> ops = writer_ops(rng, 2000);
      for (std::size_t i = 0; i < ops.size(); i += kTxnBlocks)
        write_op(&ops[i], rec, r);
      if (r.failed != 0 || lev.chunk_done(rig_->probe.read(), ops.size())) break;
    }
    warm_chunks_ = lev.chunks();
  }

  double ops_per_budget_second() const override { return 12000; }

  void window(std::uint64_t n, bool trace, Window& w, Result& r) override {
    const std::uint64_t wseed = mix64(o_.seed, 3 + windows_++);
    tinca::Rng rng(wseed);
    const std::vector<std::uint32_t> ops = writer_ops(rng, n);
    std::vector<std::vector<std::uint32_t>> keys(kReaders);
    for (std::uint32_t t = 0; t < kReaders; ++t) {
      tinca::Rng krng(mix64(wseed, 100 + t));
      keys[t].resize(kReaderKeys);
      for (std::uint32_t& k : keys[t]) k = perm_[zipf_.draw(krng)];
    }
    if (windows_ == 1) {
      digest_ = 0;
      for (const std::uint32_t b : ops) digest_ = mix64(digest_, b);
      for (const std::uint32_t k : keys[0]) digest_ = mix64(digest_, k);
    }

    auto writer = std::make_unique<Recorder>(&rig_->model, trace);
    writer->keep_samples(Fn::kShCommit);
    std::vector<std::unique_ptr<Recorder>> readers;
    for (std::uint32_t t = 0; t < kReaders; ++t) {
      // Reader threads read no model clock: lock-free hits charge none,
      // and the shard clocks belong to the threads holding shard locks.
      readers.push_back(std::make_unique<Recorder>(nullptr, trace));
      Recorder& rd = *readers.back();
      if (trace) {
        rd.keep_samples(Fn::kShRead);
        rd.op_samples = false;
      }
      // A reader makes about 70 reads per writer op.  Reserving room for
      // twice that keeps its sample buffer from being copied while the
      // other clients are inside timed calls.
      (trace ? rd.fn(Fn::kShRead).host : rd.op_ns).reserve(n * 140);
    }
    std::vector<Result> reader_results(kReaders);
    std::atomic<bool> stop{false};
    std::atomic<std::uint32_t> ready{0};

    w.before = rig_->probe.read();
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kReaders; ++t)
      threads.emplace_back([&, t] {
        pin_to(t + 1);
        read_loop(keys[t], *readers[t], stop, ready, reader_results[t]);
      });
    pin_to(0);
    while (ready.load(std::memory_order_acquire) < kReaders)
      std::this_thread::yield();
    std::uint64_t cross = 0;
    for (std::size_t i = 0; i < ops.size() && r.failed == 0; i += kTxnBlocks) {
      write_op(&ops[i], *writer, r);
      std::set<std::uint32_t> shards;
      for (std::uint32_t k = 0; k < kTxnBlocks; ++k)
        shards.insert(rig_->sharded.shard_of(ops[i + k]));
      cross += shards.size() > 1 ? 1 : 0;
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();
    w.after = rig_->probe.read();

    for (const Result& rr : reader_results) {
      r.attempted += rr.attempted;
      for (std::uint64_t i = 0; i < rr.failed; ++i)
        r.fail(i < rr.errors.size() ? rr.errors[i] : "reader check failed");
    }
    r.attempted += writer->ops;
    w.txns = writer->ops;
    w.user_bytes = writer->ops * kTxnBlocks * kBlock;
    w.cross_shard_frac = w.txns == 0 ? 0.0
                                     : static_cast<double>(cross) /
                                           static_cast<double>(w.txns);
    w.commit_host = writer->fn(Fn::kShCommit).host;
    w.commit_model = writer->fn(Fn::kShCommit).model;
    // A reader op is exactly one read_block call, so reader op samples are
    // the read samples.
    std::uint64_t reads = 0;
    for (const auto& rd : readers) {
      reads += rd->ops;
      w.read_host.insert(w.read_host.end(), rd->op_ns.begin(), rd->op_ns.end());
    }
    w.op_host = writer->op_ns;
    w.op_host.insert(w.op_host.end(), w.read_host.begin(), w.read_host.end());
    w.ops = writer->ops + reads;
    w.recs.push_back(std::move(writer));
    for (auto& rd : readers) w.recs.push_back(std::move(rd));
  }

  std::pair<double, double> crash_and_verify(Result& r) override {
    Remount m = crash_and_remount(rig_->stack);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      ++r.attempted;
      m.backend->read_block(b, buf_);
      if (!content_.matches(b, acked_[b].load(), buf_))
        r.fail("after recovery block " + std::to_string(b) +
               " does not hold acknowledged version " +
               std::to_string(acked_[b].load()));
    }
    return {m.model_ms, m.host_ms};
  }

  std::string describe_setup() const override {
    return describe(rig_->cfg) + "; hot_reads: " + std::to_string(kReaders) +
           " readers (Zipf 0.9) + 1 writer (" + std::to_string(kTxnBlocks) +
           "-block txns) over " + std::to_string(kBlocks) +
           " pre-committed blocks, cache " +
           std::to_string(rig_->probe.capacity_blocks()) + " blocks, warm-up " +
           std::to_string(warm_chunks_) + " x 2000 txns";
  }

  std::uint64_t input_digest() const override { return digest_; }

 private:
  /// `n` transactions of kTxnBlocks distinct blocks each, flattened.
  std::vector<std::uint32_t> writer_ops(tinca::Rng& rng, std::uint64_t n) const {
    std::vector<std::uint32_t> out;
    out.reserve(n * kTxnBlocks);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::size_t first = out.size();
      while (out.size() - first < kTxnBlocks) {
        const std::uint32_t b = perm_[zipf_.draw(rng)];
        if (std::find(out.begin() + static_cast<std::ptrdiff_t>(first),
                      out.end(), b) == out.end())
          out.push_back(b);
      }
    }
    return out;
  }

  /// One writer op: stage kTxnBlocks new versions, commit, one cleaner
  /// step.  `started_` is raised before the commit and `acked_` after it,
  /// so a concurrent reader may see any version between the two.
  void write_op(const std::uint32_t* blocks, Recorder& rec, Result& r) {
    std::uint32_t ver[kTxnBlocks];
    for (std::uint32_t k = 0; k < kTxnBlocks; ++k) {
      ver[k] = acked_[blocks[k]].load(std::memory_order_relaxed) + 1;
      started_[blocks[k]].store(ver[k], std::memory_order_release);
    }
    rec.start_op();
    try {
      tinca::shard::ShardedTxn txn = rig_->sharded.init_txn();
      for (std::uint32_t k = 0; k < kTxnBlocks; ++k) {
        content_.fill(blocks[k], ver[k], buf_);
        Recorder::Call c(rec, Fn::kShStage);
        txn.add(blocks[k], buf_);
      }
      {
        Recorder::Call c(rec, Fn::kShCommit);
        rig_->sharded.commit(txn);
      }
      for (std::uint32_t k = 0; k < kTxnBlocks; ++k)
        acked_[blocks[k]].store(ver[k], std::memory_order_release);
      Recorder::Call c(rec, Fn::kShStepCleaners);
      rig_->sharded.step_cleaners();
    } catch (const std::exception& e) {
      r.fail(std::string("hot_reads commit failed: ") + e.what());
    }
    rec.finish_op();
  }

  /// One reader thread: read until the writer is done, checking each block
  /// against the versions acknowledged before and started after the read.
  void read_loop(const std::vector<std::uint32_t>& keys, Recorder& rec,
                 const std::atomic<bool>& stop,
                 std::atomic<std::uint32_t>& ready, Result& r) {
    std::array<std::byte, kBlock> buf{};
    ready.fetch_add(1, std::memory_order_acq_rel);
    for (std::size_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      const std::uint32_t b = keys[i & (kReaderKeys - 1)];
      const std::uint32_t lo = acked_[b].load(std::memory_order_acquire);
      rec.start_op();
      try {
        Recorder::Call c(rec, Fn::kShRead);
        rig_->sharded.read_block(b, buf);
      } catch (const std::exception& e) {
        r.fail(std::string("hot_reads read failed: ") + e.what());
      }
      rec.finish_op();
      ++r.attempted;
      const std::uint32_t hi = started_[b].load(std::memory_order_acquire);
      const std::uint32_t v = BlockContent::version_of(buf);
      if (v < lo || v > hi)
        r.fail("read of block " + std::to_string(b) + " returned version " +
               std::to_string(v) + ", outside [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]");
      else if (!content_.matches(b, v, buf))
        r.fail("read of block " + std::to_string(b) +
               " does not match version " + std::to_string(v));
    }
  }

  Options o_;
  BlockContent content_;
  tinca::Zipf zipf_;
  std::vector<std::uint32_t> perm_;
  std::vector<std::atomic<std::uint32_t>> acked_;    ///< durable version
  std::vector<std::atomic<std::uint32_t>> started_;  ///< newest staged
  std::array<std::byte, kBlock> buf_{};              ///< writer thread only
  std::unique_ptr<StackRig> rig_;
  std::uint32_t warm_chunks_ = 0;
  std::uint32_t windows_ = 0;
  std::uint64_t digest_ = 0;
};

}  // namespace

Result run_hot_reads(const Options& o) {
  return run_workload(o, [&o] { return std::make_unique<HotReads>(o); });
}

}  // namespace perfbench
