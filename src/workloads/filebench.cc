#include "workloads/filebench.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/expect.h"

namespace tinca::workloads {

FilebenchWorkload::FilebenchWorkload(fs::MiniFs& fsys,
                                     const FilebenchConfig& cfg)
    : fsys_(fsys),
      cfg_(cfg),
      rng_(cfg.seed),
      zipf_(cfg.nfiles, cfg.zipf_theta),
      alive_(cfg.nfiles, 0),
      iobuf_(FilebenchConfig::kRequestBytes) {
  TINCA_EXPECT(cfg.nfiles > 0, "empty file set");
}

std::string FilebenchWorkload::path_of(std::uint64_t file_id) const {
  return "/d" + std::to_string(file_id / FilebenchConfig::kFilesPerDir) +
         "/f" + std::to_string(file_id);
}

std::uint64_t FilebenchWorkload::pick_file() { return zipf_.draw(rng_); }

void FilebenchWorkload::populate() {
  const std::uint64_t ndirs =
      (cfg_.nfiles + FilebenchConfig::kFilesPerDir - 1) /
      FilebenchConfig::kFilesPerDir;
  for (std::uint64_t d = 0; d < ndirs; ++d)
    fsys_.mkdir("/d" + std::to_string(d));
  for (std::uint64_t f = 0; f < cfg_.nfiles; ++f) op_create(f);
  fsys_.fsync();
}

void FilebenchWorkload::op_create(std::uint64_t id) {
  const std::string path = path_of(id);
  if (alive_[id]) return;
  fsys_.create(path);
  // File size: 25 %–175 % of the mean, written in request-size chunks.
  const std::uint64_t size =
      cfg_.mean_file_bytes / 4 +
      rng_.below(cfg_.mean_file_bytes * 3 / 2 + 1);
  std::uint64_t off = 0;
  while (off < size) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(FilebenchConfig::kRequestBytes, size - off);
    fill_pattern(std::span(iobuf_).subspan(0, chunk), id * 131 + payload_seq_++);
    fsys_.write(path, off, std::span(iobuf_).subspan(0, chunk));
    off += chunk;
  }
  alive_[id] = 1;
}

void FilebenchWorkload::op_delete(std::uint64_t id) {
  if (!alive_[id]) return;
  fsys_.remove(path_of(id));
  alive_[id] = 0;
}

void FilebenchWorkload::op_whole_read(std::uint64_t id) {
  if (!alive_[id]) {
    op_create(id);
    return;
  }
  const std::string path = path_of(id);
  const std::uint64_t size = fsys_.file_size(path);
  std::uint64_t off = 0;
  while (off < size) {
    const std::size_t got = fsys_.read(path, off, iobuf_);
    if (got == 0) break;
    off += got;
  }
}

void FilebenchWorkload::op_append(std::uint64_t id, bool with_fsync) {
  if (!alive_[id]) {
    op_create(id);
    return;
  }
  const std::string path = path_of(id);
  // Keep appends within MiniFs's file-size ceiling by rewriting instead of
  // growing without bound.
  if (fsys_.file_size(path) + FilebenchConfig::kRequestBytes >
      fsys_.max_file_bytes()) {
    op_delete(id);
    op_create(id);
    return;
  }
  fill_pattern(iobuf_, id * 977 + payload_seq_++);
  fsys_.append(path, iobuf_);
  if (with_fsync) fsys_.fsync();
}

void FilebenchWorkload::op_stat(std::uint64_t id) {
  if (alive_[id]) (void)fsys_.file_size(path_of(id));
}

void FilebenchWorkload::step() {
  const std::uint64_t id = pick_file();
  const std::uint64_t pick = rng_.below(100);
  switch (cfg_.kind) {
    case FilebenchKind::kFileserver:
      // R/W 1/2: reads ~33 %, writes (create/write/append/delete) ~61 %.
      if (pick < 33) {
        op_whole_read(id);
        ++totals_.read_ops;
      } else if (pick < 53) {
        op_append(id, false);
        ++totals_.write_ops;
      } else if (pick < 75) {
        op_delete(id);
        op_create(id);
        ++totals_.write_ops;
      } else if (pick < 94) {
        op_create(id);  // no-op when alive; keeps population churning
        op_append(id, false);
        ++totals_.write_ops;
      } else {
        op_stat(id);
      }
      break;
    case FilebenchKind::kWebproxy:
      // R/W 5/1: dominated by whole-file reads of popular objects.
      if (pick < 80) {
        op_whole_read(id);
        ++totals_.read_ops;
      } else if (pick < 96) {
        op_append(id, false);
        ++totals_.write_ops;
      } else {
        op_delete(id);
        op_create(id);
        ++totals_.write_ops;
      }
      break;
    case FilebenchKind::kVarmail:
      // R/W 1/1 with fsync after each delivery (mail spool).
      if (pick < 25) {
        op_whole_read(id);
        ++totals_.read_ops;
      } else if (pick < 50) {
        op_append(id, true);
        ++totals_.write_ops;
      } else if (pick < 75) {
        op_delete(id);
        op_create(id);
        fsys_.fsync();
        ++totals_.write_ops;
      } else {
        op_whole_read(id);
        ++totals_.read_ops;
      }
      break;
  }
  ++totals_.ops;
}

FilebenchResult FilebenchWorkload::run(sim::SimClock& clock, sim::Ns duration) {
  const FilebenchResult before = totals_;
  const sim::Ns start = clock.now();
  const sim::Ns deadline = start + duration;
  while (clock.now() < deadline) step();
  fsys_.fsync();
  FilebenchResult r;
  r.ops = totals_.ops - before.ops;
  r.read_ops = totals_.read_ops - before.read_ops;
  r.write_ops = totals_.write_ops - before.write_ops;
  r.elapsed_ns = clock.now() - start;
  return r;
}

}  // namespace tinca::workloads
