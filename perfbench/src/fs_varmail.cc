// fs_varmail: one client runs a varmail-like mix on MiniFs over the NvLog
// tier draining into the sharded Tinca stack.  2000 file slots in 16
// directories, about half of them live; every mutating op ends in fsync.
// Most of the work is the fs layer, nvlog absorbs (one flush and one fence
// each) and coalesced commit_group drains into the shards; the direct
// per-transaction commit path and the disk do little.
#include <algorithm>
#include <cstring>

#include "bench.h"
#include "common/rng.h"
#include "fs/minifs.h"

namespace perfbench {
namespace {

using tinca::backend::StackKind;
using tinca::fs::MiniFs;

constexpr std::uint32_t kSlots = 2000;
constexpr std::uint32_t kDirs = 16;
constexpr std::size_t kAppendBytes = 16 * 1024;
/// Appends stop growing a file at this size; the op reads it instead.
constexpr std::size_t kGrowLimit = 64 * 1024;

/// kChurn deletes a live file when at least half the slots are live and
/// creates one otherwise, so the live set stays at half the slots.
enum class Kind : std::uint8_t { kAppend, kRead, kChurn, kDelete, kCreate };

/// One generated op: its kind and two uniform draws that pick the slot and
/// the created size once the live set is known.
struct OpDesc {
  Kind kind;
  std::uint32_t u1, u2;
};

class FsVarmail final : public Workload {
 public:
  explicit FsVarmail(const Options& o)
      : o_(o), content_(o.seed), buf_(FileContent::kMaxFile) {
    for (std::uint32_t s = 0; s < kSlots; ++s)
      paths_.push_back("/d" + std::to_string(s % kDirs) + "/f" +
                       std::to_string(s));
  }

  void setup(Result& r) override {
    rig_ = std::make_unique<StackRig>(StackKind::kNvLogSharded);
    timed_ = std::make_unique<TimedBackend>(rig_->stack.backend(), setup_rec_);
    setup_rec_.op_samples = false;
    tinca::fs::MiniFsConfig fc;
    fc.inode_count = 4096;
    fs_ = MiniFs::mkfs(*timed_, fc);
    for (std::uint32_t d = 0; d < kDirs; ++d)
      fs_->mkdir("/d" + std::to_string(d));
    fs_->fsync();
    // Half the slots start live, with 4-32 KiB files.
    tinca::Rng rng(mix64(o_.seed, 1));
    for (std::uint32_t s = 0; s < kSlots; ++s) {
      if (rng.chance(0.5)) {
        create(s, static_cast<std::uint32_t>(rng.next()), setup_rec_, r);
      } else {
        empty_.push_back(s);
      }
    }
    // Warm up with the workload itself until the cleaners have cycled the
    // live set and write amplification is flat.  Files live about 4000 ops,
    // so at least 16 chunks let the size mix settle.
    Levelling lev(std::min<std::uint64_t>(rig_->probe.capacity_blocks(), 4096), 16,
                  60);
    lev.chunk_done(rig_->probe.read(), 0);
    for (;;) {
      const std::vector<OpDesc> ops = generate(rng, 1000);
      std::uint64_t bytes = 0;
      for (const OpDesc& op : ops) bytes += run_op(op, setup_rec_, r);
      if (r.failed != 0 || lev.chunk_done(rig_->probe.read(), bytes / kBlock))
        break;
    }
    warm_chunks_ = lev.chunks();
  }

  double ops_per_budget_second() const override { return 7000; }

  void window(std::uint64_t n, bool trace, Window& w, Result& r) override {
    tinca::Rng rng(mix64(o_.seed, 3 + windows_++));
    const std::vector<OpDesc> ops = generate(rng, n);
    if (windows_ == 1) {
      digest_ = 0;
      for (const OpDesc& op : ops)
        digest_ = mix64(mix64(digest_, static_cast<std::uint64_t>(op.kind)),
                        (std::uint64_t{op.u1} << 32) | op.u2);
    }
    auto rec = std::make_unique<Recorder>(&rig_->model, trace);
    rec->keep_samples(Fn::kFsFsync);
    rec->keep_samples(Fn::kFsRead);
    if (trace) rec->keep_samples(Fn::kBeCommit);
    timed_->set_recorder(*rec);
    const tinca::fs::MiniFsStats fs0 = fs_->stats();
    w.before = rig_->probe.read();
    for (const OpDesc& op : ops) {
      w.user_bytes += run_op(op, *rec, r);
      ++r.attempted;
      if (r.failed != 0) break;
    }
    w.after = rig_->probe.read();
    const Recorder::FnStats& fsync = rec->fn(Fn::kFsFsync);
    w.ops = rec->ops;
    w.txns = fsync.calls;
    w.blocks_staged_per_fsync =
        fsync.calls == 0 ? 0.0
                         : static_cast<double>(fs_->stats().blocks_staged -
                                               fs0.blocks_staged) /
                               static_cast<double>(fsync.calls);
    w.op_host = rec->op_ns;
    w.commit_host = fsync.host;
    w.commit_model = fsync.model;
    w.read_host = rec->fn(Fn::kFsRead).host;
    w.recs.push_back(std::move(rec));
  }

  std::pair<double, double> crash_and_verify(Result& r) override {
    fs_.reset();  // the old mount's page cache holds nothing unsynced
    Remount m = crash_and_remount(rig_->stack);
    std::unique_ptr<MiniFs> fs;
    try {
      fs = MiniFs::mount(*m.backend);
    } catch (const std::exception& e) {
      r.fail(std::string("remount failed: ") + e.what());
      return {m.model_ms, m.host_ms};
    }
    ++r.attempted;
    const tinca::fs::FsckReport rep = fs->fsck();
    if (!rep.ok) r.fail("fsck after recovery: " + rep.summary());
    std::uint64_t names = 0;
    for (std::uint32_t d = 0; d < kDirs; ++d)
      names += fs->list("/d" + std::to_string(d)).size();
    if (names != live_.size())
      r.fail("after recovery " + std::to_string(names) + " files exist, " +
             std::to_string(live_.size()) + " acknowledged");
    for (std::uint32_t s = 0; s < kSlots; ++s) {
      ++r.attempted;
      const bool live = files_.count(s) != 0;
      if (fs->exists(paths_[s]) != live) {
        r.fail("after recovery " + paths_[s] +
               (live ? " is missing" : " exists but was deleted"));
        continue;
      }
      if (live) check_file(*fs, s, r, "after recovery ");
    }
    return {m.model_ms, m.host_ms};
  }

  std::string describe_setup() const override {
    return describe(rig_->cfg) + "; fs_varmail: 1 client, MiniFs on NvLog-Sharded, " +
           std::to_string(kSlots) + " slots in " + std::to_string(kDirs) +
           " dirs, " + std::to_string(live_.size()) + " live files in " +
           std::to_string(live_blocks()) + " blocks, cache " +
           std::to_string(rig_->probe.capacity_blocks()) + " blocks, warm-up " +
           std::to_string(warm_chunks_) + " x 1000 ops";
  }

  std::uint64_t input_digest() const override { return digest_; }

 private:
  struct File {
    std::uint64_t id;
    std::uint64_t size;
  };

  static std::vector<OpDesc> generate(tinca::Rng& rng, std::uint64_t n) {
    std::vector<OpDesc> ops(n);
    // append 25 %, whole-file read 25 %, delete or create 50 %.
    constexpr Kind kMix[] = {Kind::kAppend, Kind::kRead, Kind::kChurn,
                             Kind::kChurn};
    for (OpDesc& op : ops)
      op = OpDesc{kMix[rng.below(4)],
                  static_cast<std::uint32_t>(rng.next()),
                  static_cast<std::uint32_t>(rng.next())};
    return ops;
  }

  std::uint64_t live_blocks() const {
    std::uint64_t b = 0;
    for (const auto& [slot, f] : files_) b += (f.size + kBlock - 1) / kBlock;
    return b;
  }

  /// Run one op (and one cleaner step); returns the user bytes it made
  /// durable.  Appends to a full-grown file read it instead.
  std::uint64_t run_op(const OpDesc& op, Recorder& rec, Result& r) {
    Kind kind = op.kind;
    if (kind == Kind::kChurn)
      kind = live_.size() * 2 >= kSlots ? Kind::kDelete : Kind::kCreate;
    if (kind != Kind::kCreate && live_.empty()) kind = Kind::kCreate;
    std::uint64_t bytes = 0;
    if (kind == Kind::kCreate) {
      const std::size_t i = op.u1 % empty_.size();
      const std::uint32_t s = empty_[i];
      empty_[i] = empty_.back();
      empty_.pop_back();
      return create(s, op.u2, rec, r);
    }
    const std::size_t i = op.u1 % live_.size();
    const std::uint32_t s = live_[i];
    File& f = files_.at(s);
    if (kind == Kind::kAppend && f.size + kAppendBytes > kGrowLimit)
      kind = Kind::kRead;
    if (kind == Kind::kRead) {
      read_op(s, rec, r);
      return 0;
    }
    rec.start_op();
    try {
      switch (kind) {
        case Kind::kAppend: {
          {
            Recorder::Call c(rec, Fn::kFsAppend);
            fs_->append(paths_[s], content_.bytes(f.id, f.size, kAppendBytes));
          }
          fsync(rec);
          f.size += kAppendBytes;
          bytes = kAppendBytes;
          break;
        }
        case Kind::kDelete: {
          {
            Recorder::Call c(rec, Fn::kFsRemove);
            fs_->remove(paths_[s]);
          }
          fsync(rec);
          files_.erase(s);
          live_[i] = live_.back();
          live_.pop_back();
          empty_.push_back(s);
          break;
        }
        case Kind::kRead:
        case Kind::kChurn:
        case Kind::kCreate:
          break;
      }
      timed_->cleaner_step();
    } catch (const std::exception& e) {
      r.fail(std::string("fs_varmail op failed: ") + e.what());
    }
    rec.finish_op();
    return bytes;
  }

  /// Create slot `s` with a 4-32 KiB file, fsync, step the cleaners.
  std::uint64_t create(std::uint32_t s, std::uint32_t u, Recorder& rec,
                       Result& r) {
    const std::size_t size = kBlock * (1 + u % 8);
    const File f{next_id_++, size};
    rec.start_op();
    try {
      {
        Recorder::Call c(rec, Fn::kFsCreate);
        fs_->create(paths_[s]);
      }
      {
        Recorder::Call c(rec, Fn::kFsWrite);
        fs_->write(paths_[s], 0, content_.bytes(f.id, 0, size));
      }
      fsync(rec);
      files_[s] = f;
      live_.push_back(s);
      timed_->cleaner_step();
    } catch (const std::exception& e) {
      r.fail(std::string("fs_varmail create failed: ") + e.what());
    }
    rec.finish_op();
    return size;
  }

  void fsync(Recorder& rec) {
    Recorder::Call c(rec, Fn::kFsFsync);
    fs_->fsync();
  }

  /// One op of one whole-file read (a single MiniFs::read call) and one
  /// cleaner step; the byte-for-byte check runs after the op.
  void read_op(std::uint32_t s, Recorder& rec, Result& r) {
    const File& f = files_.at(s);
    rec.start_op();
    std::size_t got = 0;
    try {
      {
        Recorder::Call c(rec, Fn::kFsRead);
        got = fs_->read(paths_[s], 0, std::span(buf_.data(), f.size));
      }
      timed_->cleaner_step();
    } catch (const std::exception& e) {
      r.fail(std::string("fs_varmail read failed: ") + e.what());
    }
    rec.finish_op();
    if (got != f.size ||
        std::memcmp(buf_.data(), content_.bytes(f.id, 0, f.size).data(),
                    f.size) != 0)
      r.fail("read of " + paths_[s] + " does not match its acknowledged " +
             std::to_string(f.size) + " bytes");
  }

  void check_file(MiniFs& fs, std::uint32_t s, Result& r,
                  const std::string& when) {
    const File& f = files_.at(s);
    std::size_t got = 0;
    try {
      if (fs.file_size(paths_[s]) == f.size)
        got = fs.read(paths_[s], 0, std::span(buf_.data(), f.size));
    } catch (const std::exception& e) {
      r.fail(when + "read of " + paths_[s] + " failed: " + e.what());
      return;
    }
    if (got != f.size ||
        std::memcmp(buf_.data(), content_.bytes(f.id, 0, f.size).data(),
                    f.size) != 0)
      r.fail(when + paths_[s] + " does not hold its acknowledged " +
             std::to_string(f.size) + " bytes");
  }

  Options o_;
  FileContent content_;
  std::vector<std::byte> buf_;
  std::vector<std::string> paths_;
  std::map<std::uint32_t, File> files_;  ///< acknowledged live files
  std::vector<std::uint32_t> live_, empty_;
  std::uint64_t next_id_ = 1;
  std::unique_ptr<StackRig> rig_;
  Recorder setup_rec_{nullptr, false};
  std::unique_ptr<TimedBackend> timed_;
  std::unique_ptr<MiniFs> fs_;
  std::uint32_t warm_chunks_ = 0;
  std::uint32_t windows_ = 0;
  std::uint64_t digest_ = 0;
};

}  // namespace

Result run_fs_varmail(const Options& o) {
  return run_workload(o, [&o] { return std::make_unique<FsVarmail>(o); });
}

}  // namespace perfbench
