// The run skeleton shared by every workload: repeated set-up, the measured
// window(s), the crash, and the end-to-end and per-layer metrics.
#include <algorithm>
#include <cmath>

#include "bench.h"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Host metrics are computed on kSegments consecutive, equal slices of the
/// window and reported as the median over slices, so a burst of contention
/// from other tenants of the machine that covers fewer than half of the
/// slices moves no reported value.
constexpr std::size_t kSegments = 10;

/// Slice `seg` of `s` (kSegments slices in time order).
Samples slice(const Samples& s, std::size_t seg) {
  const std::size_t lo = s.size() * seg / kSegments;
  const std::size_t hi = s.size() * (seg + 1) / kSegments;
  return Samples(s.begin() + static_cast<std::ptrdiff_t>(lo),
                 s.begin() + static_cast<std::ptrdiff_t>(hi));
}

/// Median over slices of the q-percentile of each slice.  A slice that
/// cannot support the percentile fails the run.
void add_host_percentile(Result& r, const std::string& name, const Samples& s,
                         double q) {
  std::vector<double> per_slice;
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    Samples part = slice(s, seg);
    const std::optional<double> p = exact_percentile(part, q);
    if (!p) {
      r.fail(name + ": a slice of " + std::to_string(part.size()) +
             " samples cannot support this percentile");
      break;
    }
    per_slice.push_back(*p * 1e-3);
  }
  Result::add(r.end_to_end, name, median(per_slice), "us", s.size());
}

/// Median over slices of client ops per second of program time, summed
/// over client threads.
double sliced_ops_per_s(const Window& w) {
  std::vector<double> per_slice;
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    double rate = 0.0;
    for (const auto& r : w.recs) {
      const Samples part = slice(r->op_ns, seg);
      std::uint64_t ns = 0;
      for (const std::uint32_t v : part) ns += v;
      rate += ratio(static_cast<double>(part.size()),
                    static_cast<double>(ns) / 1e9);
    }
    per_slice.push_back(rate);
  }
  return median(per_slice);
}

/// Client ops per second of program time, summed over client threads.
double ops_per_s(const Window& w) {
  double rate = 0.0;
  for (const auto& r : w.recs)
    rate += ratio(static_cast<double>(r->ops),
                  static_cast<double>(r->program_ns) / 1e9);
  return rate;
}

/// Samples of one function pooled over every client thread.
Recorder::FnStats pooled(const Window& w, Fn f) {
  Recorder::FnStats out;
  for (const auto& r : w.recs) {
    const Recorder::FnStats& s = r->fn(f);
    out.calls += s.calls;
    out.host_ns += s.host_ns;
    out.model_ns += s.model_ns;
    out.host.insert(out.host.end(), s.host.begin(), s.host.end());
    out.model.insert(out.model.end(), s.model.begin(), s.model.end());
  }
  return out;
}

void check_window(const Window& w, Result& r) {
  if (w.txns == 0) return;
  if (w.after.model_ns == w.before.model_ns)
    r.fail("window committed " + std::to_string(w.txns) +
           " txns in zero model time");
  if (w.after.nvm.clflush == w.before.nvm.clflush)
    r.fail("window committed " + std::to_string(w.txns) +
           " txns with zero clflush");
}

void add_end_to_end(Result& r, Window& w, double recovery_model_ms,
                    const std::vector<double>& setup_s, double rss_mb) {
  auto& m = r.end_to_end;
  const Counters& a = w.after;
  const Counters& b = w.before;
  Result::add(m, "ops_per_s", sliced_ops_per_s(w), "1/s", w.ops);
  add_host_percentile(r, "op_p99_us", w.op_host, 0.99);
  add_host_percentile(r, "commit_p50_us", w.commit_host, 0.50);
  add_host_percentile(r, "commit_p99_us", w.commit_host, 0.99);
  add_host_percentile(r, "read_p50_us", w.read_host, 0.50);
  add_host_percentile(r, "read_p99_us", w.read_host, 0.99);
  Result::add(m, "model_txn_per_s",
              ratio(static_cast<double>(w.txns),
                    static_cast<double>(a.model_ns - b.model_ns) / 1e9),
              "1/s", w.txns);
  r.add_percentile(m, "model_commit_p50_us", w.commit_model, 0.50, 1e-3, "us",
                   true);
  r.add_percentile(m, "model_commit_p99_us", w.commit_model, 0.99, 1e-3, "us",
                   true);
  Result::add(m, "recovery_model_ms", recovery_model_ms, "ms", 1);
  const double user = static_cast<double>(w.user_bytes);
  Result::add(m, "disk_write_amp",
              ratio(static_cast<double>(a.disk.blocks_written -
                                        b.disk.blocks_written) *
                        kBlock,
                    user),
              "ratio");
  Result::add(m, "nvm_write_amp",
              ratio(static_cast<double>(a.media_lines - b.media_lines) * 64.0,
                    user),
              "ratio");
  Result::add(m, "peak_rss_mb", rss_mb, "MiB", 1);
  Result::add(m, "setup_s", median(setup_s), "s", setup_s.size());
}

void add_per_layer(Result& r, const Window& plain, Window& t,
                   double recover_host_ms) {
  auto& m = r.per_layer;
  const Counters& a = t.after;
  const Counters& b = t.before;
  const auto d = [&](const std::string& k) { return Counters::delta(a, b, k); };
  const double ops = static_cast<double>(t.ops);
  const double txns = static_cast<double>(t.txns);
  const auto pct = [&](const std::string& name, Fn f, bool model, double scale,
                       const std::string& unit) {
    Recorder::FnStats s = pooled(t, f);
    Samples& v = model ? s.model : s.host;
    r.add_percentile(m, name + ".p50", v, 0.50, scale, unit, false);
    r.add_percentile(m, name + ".p99", v, 0.99, scale, unit, false);
  };
  const auto per_op_us = [&](Fn f, bool model) {
    const Recorder::FnStats s = pooled(t, f);
    return ratio(static_cast<double>(model ? s.model_ns : s.host_ns), ops) *
           1e-3;
  };

  // fs
  pct("fs.fsync.host_us", Fn::kFsFsync, false, 1e-3, "us");
  pct("fs.read.host_us", Fn::kFsRead, false, 1e-3, "us");
  // Self time per op over the ops whose spans were kept.
  double fs_self = 0.0, traced_ops = 0.0;
  for (const auto& rec : t.recs) {
    fs_self += static_cast<double>(self_host_ns(*rec)["fs"]);
    for (const Span& sp : rec->spans) traced_ops += sp.fn == Fn::kOp ? 1 : 0;
  }
  Result::add(m, "fs.self.host_us_per_op", ratio(fs_self, traced_ops) * 1e-3,
              "us");
  Result::add(m, "fs.blocks_staged_per_fsync", t.blocks_staged_per_fsync,
              "count");
  // backend
  pct("backend.commit.host_us", Fn::kBeCommit, false, 1e-3, "us");
  pct("backend.commit.model_us", Fn::kBeCommit, true, 1e-3, "us");
  pct("backend.read_block.host_us", Fn::kBeRead, false, 1e-3, "us");
  Result::add(m, "backend.cleaner_step.host_us_per_op",
              per_op_us(Fn::kBeCleanerStep, false), "us");
  Result::add(m, "backend.cleaner_step.model_us_per_op",
              per_op_us(Fn::kBeCleanerStep, true), "us");
  Result::add(m, "backend.recover.host_ms", recover_host_ms, "ms");
  // shard
  pct("shard.read_block.host_ns", Fn::kShRead, false, 1.0, "ns");
  pct("shard.commit.host_us", Fn::kShCommit, false, 1e-3, "us");
  Result::add(m, "shard.cross_shard_txn_frac", t.cross_shard_frac, "frac");
  // The shards' block reads: lock-free hits plus locked-path reads.
  const double lock_free = d("tinca.mvcc.snapshot_reads");
  const double block_reads =
      lock_free + d("tinca.read_hits") + d("tinca.read_misses");
  Result::add(m, "shard.lock_free_read_frac", ratio(lock_free, block_reads),
              "frac");
  // tinca: lock-free hits bypass the cache's own read counters, so they
  // join the hit side of the ratio here.
  Result::add(m, "tinca.read_hit_ratio",
              ratio(block_reads - d("tinca.read_misses"), block_reads), "frac");
  Result::add(m, "tinca.evictions_per_txn", ratio(d("tinca.evictions"), txns),
              "count");
  Result::add(m, "tinca.dirty_writebacks_per_txn",
              ratio(d("tinca.dirty_writebacks"), txns), "count");
  Result::add(m, "tinca.cow_writes_per_txn", ratio(d("tinca.cow_writes"), txns),
              "count");
  Result::add(m, "tinca.role_switches_per_txn",
              ratio(d("tinca.role_switches"), txns), "count");
  Result::add(m, "tinca.fences_per_txn", ratio(d("tinca.commit.fences"), txns),
              "count");
  Result::add(m, "tinca.blocks_per_batch",
              ratio(d("tinca.blocks_committed"), d("tinca.commit.batches")),
              "count");
  Result::add(m, "tinca.mvcc.pin_retries_per_read",
              ratio(d("tinca.mvcc.pin_retries"), block_reads), "count");
  Result::add(m, "tinca.mvcc.lock_fallbacks_per_kread",
              ratio(d("tinca.mvcc.lock_fallbacks") * 1000.0, block_reads),
              "count");
  // cleaner
  Result::add(m, "cleaner.retired_per_step",
              ratio(d("cleaner.retired"), d("cleaner.steps")), "count");
  Result::add(m, "cleaner.backpressure_drains_per_kop",
              ratio(d("cleaner.backpressure_drains") * 1000.0, ops), "count");
  Result::add(m, "cleaner.coalesced_frac",
              ratio(d("cleaner.coalesced_blocks"), d("cleaner.retired")),
              "frac");
  // nvlog
  Result::add(m, "nvlog.absorbed_bytes_per_fsync",
              ratio(d("nvlog.absorbed_bytes"), txns), "B");
  Result::add(m, "nvlog.coalesced_frac",
              ratio(d("nvlog.coalesced_records"), d("nvlog.absorbed_records")),
              "frac");
  Result::add(m, "nvlog.backpressure_drains_per_kop",
              ratio(d("nvlog.backpressure_drains") * 1000.0, ops), "count");
  Result::add(m, "nvlog.drain_batches_per_kop",
              ratio(d("nvlog.drain_batches") * 1000.0, ops), "count");
  // nvm
  Result::add(m, "nvm.clflush_per_txn",
              ratio(static_cast<double>(a.nvm.clflush - b.nvm.clflush), txns),
              "count");
  Result::add(m, "nvm.sfence_per_txn",
              ratio(static_cast<double>(a.nvm.sfence - b.nvm.sfence), txns),
              "count");
  Result::add(m, "nvm.lines_loaded_per_op",
              ratio(static_cast<double>(a.nvm.lines_loaded -
                                        b.nvm.lines_loaded),
                    ops),
              "count");
  // blockdev
  Result::add(m, "blockdev.blocks_read_per_op",
              ratio(static_cast<double>(a.disk.blocks_read - b.disk.blocks_read),
                    ops),
              "count");
  Result::add(m, "blockdev.blocks_written_per_txn",
              ratio(static_cast<double>(a.disk.blocks_written -
                                        b.disk.blocks_written),
                    txns),
              "count");
  Result::add(m, "blockdev.model_frac",
              ratio(static_cast<double>(a.root_ns - b.root_ns),
                    static_cast<double>(a.model_ns - b.model_ns)),
              "frac");
  // harness, from the untraced window: the share of host time the
  // benchmark spends outside program calls, and what tracing costs.
  double wall = 0.0, program = 0.0;
  for (const auto& rec : plain.recs) {
    wall += static_cast<double>(rec->wall_ns);
    program += static_cast<double>(rec->program_ns);
  }
  Result::add(m, "driver.self_frac", ratio(wall - program, wall), "frac");
  Result::add(m, "trace.overhead_frac",
              1.0 - ratio(ops_per_s(t), ops_per_s(plain)), "frac");
}

}  // namespace

Result run_workload(const Options& o,
                    const std::function<std::unique_ptr<Workload>()>& make) {
  Result r;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (std::uint32_t i = 0; i < std::max(1u, o.setups) && r.failed == 0; ++i) {
    w.reset();  // free the previous stack before building the next
    const std::uint64_t t0 = host_ns();
    w = make();
    w->setup(r);
    setup_s.push_back(static_cast<double>(host_ns() - t0) / 1e9);
  }
  // Peak memory through set-up: the stack plus the benchmark's shadow
  // state, before the window's sample buffers exist.
  const double rss_mb = peak_rss_mb();
  r.setup = w->describe_setup();
  if (r.failed != 0) return r;

  const auto ops = std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(
             std::llround(o.seconds * w->ops_per_budget_second())));
  Window plain;
  w->window(o.trace ? ops / 2 : ops, false, plain, r);
  check_window(plain, r);
  Window traced;
  if (o.trace) {
    w->window(ops - ops / 2, true, traced, r);
    check_window(traced, r);
    if (!o.span_path.empty()) {
      std::vector<const Recorder*> recs;
      for (const auto& rec : traced.recs) recs.push_back(rec.get());
      if (!write_spans(o.span_path, recs))
        r.fail("cannot write spans to " + o.span_path);
    }
  }
  const auto [recovery_model_ms, recover_host_ms] = w->crash_and_verify(r);
  if (o.trace)
    add_per_layer(r, plain, traced, recover_host_ms);
  else
    add_end_to_end(r, plain, recovery_model_ms, setup_s, rss_mb);
  r.input_digest = w->input_digest();
  return r;
}

}  // namespace perfbench
