// Filebench personalities over MiniFs (Table 2, Fig 3(a), Fig 11, Fig 13).
//
// Three of Filebench's canonical personalities, with the paper's op mixes
// and 16 KB request size:
//
//   fileserver  write-heavy (R/W 1/2): create / whole-file write / append /
//               whole-file read / delete / stat over many files
//   webproxy    read-heavy (R/W 5/1): mostly whole-file reads with a low
//               rate of re-creation, Zipf-popular files
//   varmail     1/1 with frequent fsync: create+append+fsync / read / delete
//               (mail spool behaviour)
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "fs/minifs.h"

namespace tinca::workloads {

/// Which personality to run.
enum class FilebenchKind : std::uint8_t { kFileserver, kWebproxy, kVarmail };

/// Personality parameters (defaults are scaled-down Table 2 values).
struct FilebenchConfig {
  FilebenchKind kind = FilebenchKind::kFileserver;
  /// Number of files in the working set.
  std::uint64_t nfiles = 512;
  /// Mean file size in bytes (files are created at 25 %–175 % of this).
  std::uint64_t mean_file_bytes = 64 * 1024;
  /// I/O request size (Table 2: 16 KB).
  static constexpr std::uint64_t kRequestBytes = 16 * 1024;
  /// Directory fan-out.
  static constexpr std::uint64_t kFilesPerDir = 64;
  /// Zipf skew of file popularity.
  double zipf_theta = 0.6;
  /// RNG seed.
  std::uint64_t seed = 11;
};

/// Results of one personality run.
struct FilebenchResult {
  std::uint64_t ops = 0;          ///< completed file operations
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;    ///< create/write/append/delete
  sim::Ns elapsed_ns = 0;

  [[nodiscard]] double ops_per_sec() const {
    return elapsed_ns == 0
               ? 0.0
               : static_cast<double>(ops) /
                     (static_cast<double>(elapsed_ns) / 1e9);
  }
};

/// A Filebench personality bound to a mounted MiniFs.
class FilebenchWorkload {
 public:
  FilebenchWorkload(fs::MiniFs& fsys, const FilebenchConfig& cfg);

  /// Create the directory tree and initial file population (not timed by
  /// the paper either; call before run()).
  void populate();

  /// Run the personality for `duration` of virtual time on `clock`.
  FilebenchResult run(sim::SimClock& clock, sim::Ns duration);

  /// Execute exactly one operation (used by the cluster driver, which
  /// schedules ops itself).
  void step();

  [[nodiscard]] const FilebenchResult& totals() const { return totals_; }

 private:
  [[nodiscard]] std::string path_of(std::uint64_t file_id) const;
  std::uint64_t pick_file();
  void op_create(std::uint64_t id);
  void op_delete(std::uint64_t id);
  void op_whole_read(std::uint64_t id);
  void op_append(std::uint64_t id, bool with_fsync);
  void op_stat(std::uint64_t id);

  fs::MiniFs& fsys_;
  FilebenchConfig cfg_;
  Rng rng_;
  Zipf zipf_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::byte> iobuf_;
  FilebenchResult totals_;
  std::uint64_t payload_seq_ = 0;
};

}  // namespace tinca::workloads
