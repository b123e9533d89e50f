// Randomized block-level fault-fuzz harness shared by
// tests/fault_fuzz_test.cc and bench/bench_fault_sweep.cc.
//
// Each schedule builds a fresh stack over a faulty disk (the FuzzSchedule
// frame in fuzz_common.h), optionally arms a deterministic power-cut point or
// torn-write point, and runs a random transactional workload while the disk
// injects transient errors, bad sectors and torn writes.  After a crash the
// NVM loses a random fraction of unflushed lines, the backend recovers, and
// the recovered state is checked against the DESIGN.md §6 invariant: it must
// equal the committed history, or committed history + the one transaction
// that was mid-commit (atomicity: nothing in between, nothing lost).
//
// Only the workload and this oracle live here; options, stack construction,
// crash arming, recovery, media checks and reproduce tags come from
// fuzz_common.h, shared with the file-system-level harness in
// src/fs/fs_fuzz.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "backend/fuzz_common.h"

namespace tinca::backend {

/// Data-block universe [0, kFuzzDataBlocks) of the block-level campaigns —
/// deliberately larger than the small NVM cache so evictions and
/// write-backs run under fault pressure.
inline constexpr std::uint64_t kFuzzDataBlocks = 320;

/// Parameters of one block-level campaign: the shared campaign options plus
/// the transactional workload's shape.
struct FuzzOptions : CampaignOptions {
  /// Transactions attempted per schedule (a crash may cut a schedule short).
  std::uint32_t txns_per_schedule = 12;
  /// Blocks per transaction: 1..min(this, backend max_txn_blocks()).
  std::uint32_t max_blocks_per_txn = 6;
  /// Armed power cuts land uniformly on NVM crash points [1, this].  The
  /// default covers the first few transactions of every stack; self-tests
  /// whose bug needs a LONG history first (e.g. the watermark-ring sabotage,
  /// which only bites after the log wraps) raise it so late cuts happen.
  std::uint64_t crash_point_range = 300;
};

/// Run the campaign.  Never throws for injected faults — every anomaly is
/// classified into the report; only harness misuse (bad options) throws.
inline FuzzReport run_fault_fuzz(const FuzzOptions& opts) {
  FuzzReport rep;
  // 512 KB per Tinca cache or shard; armed torn writes on the first 40.
  const FuzzHarness harness{1ull << 19, 0xFA01, opts.crash_point_range, 40};
  std::vector<std::byte> buf(blockdev::kBlockSize);

  const std::uint64_t last_schedule =
      static_cast<std::uint64_t>(opts.first_schedule) + opts.schedules;
  for (std::uint64_t sched = opts.first_schedule; sched < last_schedule;
       ++sched) {
    FuzzSchedule s(opts, harness, sched, detail::fuzz_mix(opts.seed, sched),
                   rep);
    Rng& rng = s.rng;
    RecordingBackend shim(*s.be);
    TINCA_EXPECT(kFuzzDataBlocks <= shim.data_block_limit(),
                 "fuzz universe exceeds the backend's data block limit");
    const std::uint64_t max_blocks = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(opts.max_blocks_per_txn,
                                   shim.max_txn_blocks()));
    s.arm_random();

    // --- Workload ----------------------------------------------------------
    std::uint64_t pat = 0;
    SnapshotPin pin;
    std::uint32_t pin_close_at = 0;
    const ScheduleEnd end = s.run(
        [&] {
          for (std::uint32_t t = 0; t < opts.txns_per_schedule; ++t) {
            if (shim.supports_snapshots()) {
              if (!pin.open && !shim.committed().empty() &&
                  rng.chance(0.25)) {
                pin.pin(shim);
                pin_close_at = t + 1 + static_cast<std::uint32_t>(rng.below(3));
              } else if (pin.open) {
                if (!pin.probe(s, shim, 3)) break;
                if (t >= pin_close_at) pin.close(shim);
              }
            }

            // Occasionally re-read a committed block mid-run: committed data
            // must be visible long before any crash.
            const auto& committed = shim.committed();
            if (!committed.empty() && rng.chance(0.3)) {
              auto it = committed.begin();
              std::advance(it, static_cast<long>(rng.below(committed.size())));
              shim.read_block(it->first, buf);
              if (fingerprint(buf) != it->second) {
                s.violation("live read of committed block " +
                            std::to_string(it->first) +
                            " returned wrong contents");
                break;
              }
            }

            if (opts.group_commit && shim.supports_group_commit() &&
                rng.chance(0.6)) {
              // Group commit (DESIGN.md §14): hand 2–4 whole transactions
              // to commit_group() at once.  Duplicate blocks across members
              // exercise the LWW merge; the merged distinct-block count
              // stays within max_txn_blocks.
              std::vector<GroupTxn> batch(2 + rng.below(3));
              std::set<std::uint64_t> distinct;
              for (GroupTxn& member : batch) {
                const std::uint64_t want = 1 + rng.below(2);
                for (std::uint64_t k = 0; k < want; ++k) {
                  const std::uint64_t blkno = rng.below(kFuzzDataBlocks);
                  bool dup = false;
                  for (const auto& [b, v] : member.writes) dup |= b == blkno;
                  if (dup) continue;  // writes within one member stay distinct
                  if (!distinct.contains(blkno) &&
                      distinct.size() >= max_blocks)
                    continue;
                  distinct.insert(blkno);
                  fill_pattern(buf, (s.sseed << 16) + ++pat);
                  member.writes.emplace_back(
                      blkno, std::vector<std::byte>(buf.begin(), buf.end()));
                }
              }
              shim.commit_group(batch);
            } else {
              const std::uint64_t nblocks = 1 + rng.below(max_blocks);
              std::vector<std::pair<std::uint64_t, std::uint64_t>> txn;
              while (txn.size() < nblocks) {
                const std::uint64_t blkno = rng.below(kFuzzDataBlocks);
                bool dup = false;
                for (const auto& [b, v] : txn) dup |= b == blkno;
                if (dup) continue;
                txn.emplace_back(blkno, (s.sseed << 16) + ++pat);
              }
              shim.begin();
              for (const auto& [blkno, value] : txn) {
                fill_pattern(buf, value);
                shim.stage(blkno, buf);
              }
              shim.commit();
            }
            if (rng.chance(0.1)) shim.flush();
          }
        },
        [] { return std::string(); });

    pin.release(shim);
    s.quiesce();
    // A wedge aborts mid-operation by design; the interrupted operation's
    // partial state is reconciled by recovery, which the crash schedules
    // already cover.  Nothing further to verify here.
    if (end == ScheduleEnd::kWedged) continue;

    // --- Crash + recovery --------------------------------------------------
    const bool crashed = end == ScheduleEnd::kCrashed;
    if (crashed) {
      if (!s.crash_and_recover()) continue;
    } else if (rng.chance(0.5)) {
      // Crash-free round trip: a clean remount must preserve everything.
      ++rep.clean_remounts;
      if (!s.remount("clean remount")) continue;
    }

    // Oracle self-test: corrupt one committed block behind the shim's
    // bookkeeping.  The recovered/live state then matches no acceptable
    // history and verification below MUST flag it.
    if (opts.sabotage == FuzzSabotage::kCorruptCommitted && !crashed &&
        !shim.committed().empty()) {
      try {
        fill_pattern(buf, detail::fuzz_mix(s.sseed, 0x5AB0));
        s.be->begin();
        s.be->stage(shim.committed().begin()->first, buf);
        s.be->commit();
      } catch (const std::exception&) {
        // A sabotage commit lost to residual faults just means this
        // schedule doesn't self-test; others will.
      }
    }

    // --- Verification ------------------------------------------------------
    // Acceptable states: committed history, or (crash during commit only)
    // committed history + the in-flight transaction or batch.
    try {
      std::string why;
      if (match_history(*s.be, shim, crashed, &why) < 0) {
        s.violation("recovered state matches no acceptable history (" + why +
                    ")");
      }
      if (crashed) s.collect();
    } catch (const std::exception& e) {
      s.violation(std::string("verification threw: ") + e.what());
    }
  }
  return rep;
}

}  // namespace tinca::backend
