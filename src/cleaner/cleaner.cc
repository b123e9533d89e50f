#include "cleaner/cleaner.h"

#include <algorithm>
#include <chrono>

#include "common/expect.h"
#include "obs/metrics.h"

namespace tinca::cleaner {

Cleaner::Cleaner(CleanerConfig cfg, CleanerClient& client,
                 const sim::SimClock& clock)
    : cfg_(cfg),
      client_(client),
      clock_(clock),
      trace_(clock, cfg.trace_tid, "cleaner."),
      ts_step_(trace_.site("step")),
      ts_drain_(trace_.site("drain")),
      ts_retire_(trace_.site("retire")) {
  TINCA_EXPECT(cfg_.mode != CleanerMode::kDisabled,
               "a disabled cleaner must not be constructed");
  TINCA_EXPECT(cfg_.low_water_pct <= cfg_.high_water_pct &&
                   cfg_.high_water_pct <= 100,
               "cleaner watermarks must satisfy low <= high <= 100");
}

Cleaner::~Cleaner() { stop_thread(); }

bool Cleaner::try_enqueue(std::uint64_t key) {
  if (queued_.contains(key)) {
    ++stats_.dup_skips;
    return true;
  }
  if (queue_.size() + retry_.size() >= kQueueCap) {
    ++stats_.queue_rejects;
    return false;
  }
  queue_.push_back(Item{key, clock_.now(), 0});
  queued_.insert(key);
  ++stats_.enqueued;
  return true;
}

CleanOutcome Cleaner::clean_one(const Item& item) {
  TINCA_TRACE_SPAN(trace_, ts_retire_);
  const CleanOutcome out = client_.cleaner_clean(item.key, &stats_.io_retries);
  switch (out) {
    case CleanOutcome::kRetired:
      ++stats_.retired;
      stats_.drain_lag.record(clock_.now() - item.enq_ns);
      queued_.erase(item.key);
      break;
    case CleanOutcome::kStale:
      ++stats_.stale_drops;
      queued_.erase(item.key);
      break;
    case CleanOutcome::kPinned:
      // Mid-commit (log role): try again next drain; stays in queued_.
      ++stats_.pinned_requeues;
      queue_.push_back(Item{item.key, item.enq_ns, 0});
      break;
    case CleanOutcome::kFailed:
      // The disk refused past the retry budget.  Back off in cleaner steps
      // (not foreground time) and keep the original enqueue stamp so the
      // eventual success still reports its true drain lag.
      ++stats_.failures;
      retry_.push_back(
          Item{item.key, item.enq_ns, step_no_ + kRetryBackoffSteps});
      break;
  }
  return out;
}

std::uint64_t Cleaner::drain_upto(std::uint32_t budget, bool use_pacer) {
  if (budget == 0 || queue_.empty()) return 0;

  // Take one batch off the queue and sort it by key: contiguous disk blocks
  // become ascending runs, which the latency model (and real disks) service
  // with one seek — the cleaner's batching win.  Pinned/failed items re-queue
  // behind the batch, so this cannot loop.
  std::vector<Item> batch;
  batch.reserve(std::min<std::size_t>(budget, queue_.size()));
  while (batch.size() < budget && !queue_.empty()) {
    batch.push_back(queue_.front());
    queue_.pop_front();
  }
  std::sort(batch.begin(), batch.end(),
            [](const Item& a, const Item& b) { return a.key < b.key; });

  // Run accounting: a "batch" is one maximal ascending run of contiguous
  // keys; runs of two or more are the coalesced writes.
  std::uint32_t run = 1;
  for (std::size_t i = 1; i < batch.size(); ++i) {
    if (batch[i].key == batch[i - 1].key + 1) {
      ++run;
    } else {
      ++stats_.batches;
      if (run >= 2) stats_.coalesced_blocks += run;
      run = 1;
    }
  }
  ++stats_.batches;
  if (run >= 2) stats_.coalesced_blocks += run;

  std::uint64_t retired = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (use_pacer && cfg_.pacer != nullptr && !cfg_.pacer->try_take()) {
      // Shared budget exhausted: push the unprocessed tail back to the
      // queue front in order, to be drained on a later step.
      for (std::size_t j = batch.size(); j-- > i;)
        queue_.push_front(batch[j]);
      break;
    }
    if (clean_one(batch[i]) == CleanOutcome::kRetired) ++retired;
  }
  return retired;
}

void Cleaner::pull_from_client(std::uint32_t want) {
  if (queue_.size() >= want) return;
  ++stats_.pulls;
  std::vector<std::uint64_t> keys;
  client_.cleaner_collect(static_cast<std::uint32_t>(want - queue_.size()),
                          keys);
  for (std::uint64_t key : keys) {
    if (!try_enqueue(key)) break;  // queue full — stop pulling
  }
}

std::uint64_t Cleaner::step() {
  TINCA_TRACE_SPAN(trace_, ts_step_);
  ++step_no_;
  ++stats_.steps;
  if (cfg_.pacer != nullptr) cfg_.pacer->grant_step();

  std::uint64_t retired = 0;

  // At most one backed-off failure re-attempt per step: a dead disk costs
  // the cleaner one probe per quantum, never a storm.
  if (!retry_.empty() && retry_.front().due_step <= step_no_) {
    const Item item = retry_.front();
    retry_.pop_front();
    ++stats_.retries;
    if (clean_one(item) == CleanOutcome::kRetired) ++retired;
  }

  // Watermark policy: above high, drain hard toward low (pulling dirty keys
  // from the client as needed); below it, trickle only what was explicitly
  // enqueued by evictions / degraded commits.
  const std::uint64_t dirty = client_.cleaner_dirty_blocks();
  const std::uint64_t cap =
      std::max<std::uint64_t>(1, client_.cleaner_capacity_blocks());
  std::uint32_t budget = 0;
  if (dirty * 100 >= cap * cfg_.high_water_pct) {
    const std::uint64_t target = cap * cfg_.low_water_pct / 100;
    const std::uint64_t excess = dirty > target ? dirty - target : 0;
    budget = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(excess, kMaxBatchBlocks));
    pull_from_client(budget);
  } else if (!queue_.empty()) {
    budget = kTricklePerStep;
  }
  retired += drain_upto(budget, /*use_pacer=*/true);
  return retired;
}

std::uint64_t Cleaner::drain_blocking() {
  TINCA_TRACE_SPAN(trace_, ts_drain_);
  ++stats_.backpressure_drains;
  if (queue_.empty()) pull_from_client(kMaxBatchBlocks);

  // Attempt everything queued, unpaced — the foreground is already blocked.
  std::uint64_t retired =
      drain_upto(static_cast<std::uint32_t>(queue_.size()), /*use_pacer=*/false);

  if (retired == 0 && !retry_.empty()) {
    // Last resort before the caller wedges: re-probe the failed keys now,
    // ignoring their backoff.  Bounded: each is attempted exactly once (a
    // fresh failure re-enters retry_ behind the scan window).
    const std::size_t n = retry_.size();
    for (std::size_t i = 0; i < n && !retry_.empty(); ++i) {
      const Item item = retry_.front();
      retry_.pop_front();
      ++stats_.retries;
      if (clean_one(item) == CleanOutcome::kRetired) ++retired;
    }
  }
  return retired;
}

void Cleaner::start_thread(std::mutex* client_mu) {
  TINCA_EXPECT(cfg_.mode == CleanerMode::kThread,
               "start_thread requires CleanerMode::kThread");
  if (thread_.joinable()) return;
  client_mu_ = client_mu;
  thread_stop_ = false;
  thread_ = std::thread([this] { thread_main(); });
}

void Cleaner::thread_main() {
  std::unique_lock<std::mutex> lk(thread_mu_);
  while (!thread_stop_) {
    thread_cv_.wait_for(lk, std::chrono::microseconds(cfg_.thread_poll_us));
    if (thread_stop_) break;
    lk.unlock();
    if (client_mu_ != nullptr) {
      std::lock_guard<std::mutex> guard(*client_mu_);
      step();
    } else {
      step();
    }
    lk.lock();
  }
}

void Cleaner::stop_thread() {
  {
    std::lock_guard<std::mutex> guard(thread_mu_);
    thread_stop_ = true;
  }
  thread_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Cleaner::register_metrics(obs::MetricsRegistry& reg,
                               const std::string& prefix) const {
  reg.add_counter(prefix + "enqueued", &stats_.enqueued);
  reg.add_counter(prefix + "dup_skips", &stats_.dup_skips);
  reg.add_counter(prefix + "queue_rejects", &stats_.queue_rejects);
  reg.add_counter(prefix + "retired", &stats_.retired);
  reg.add_counter(prefix + "stale_drops", &stats_.stale_drops);
  reg.add_counter(prefix + "pinned_requeues", &stats_.pinned_requeues);
  reg.add_counter(prefix + "failures", &stats_.failures);
  reg.add_counter(prefix + "retries", &stats_.retries);
  reg.add_counter(prefix + "io_retries", &stats_.io_retries);
  reg.add_counter(prefix + "batches", &stats_.batches);
  reg.add_counter(prefix + "coalesced_blocks", &stats_.coalesced_blocks);
  reg.add_counter(prefix + "backpressure_drains", &stats_.backpressure_drains);
  reg.add_counter(prefix + "pulls", &stats_.pulls);
  reg.add_counter(prefix + "steps", &stats_.steps);
  reg.add_gauge(prefix + "queue_depth", [this] { return queue_depth(); });
  reg.add_histogram(prefix + "drain_lag", &stats_.drain_lag);
  trace_.register_into(reg, prefix + "lat.");
}

}  // namespace tinca::cleaner
