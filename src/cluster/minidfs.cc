#include "cluster/minidfs.h"

#include <algorithm>
#include <deque>
#include <string>

#include "common/bytes.h"
#include "common/expect.h"

namespace tinca::cluster {

using sim::Ns;
using workloads::FilebenchConfig;

MiniDfs::MiniDfs(const DfsConfig& cfg) : cfg_(cfg) {
  TINCA_EXPECT(cfg.nodes >= 1, "cluster needs at least one node");
  TINCA_EXPECT(cfg.replicas >= 1 && cfg.replicas <= cfg.nodes,
               "replication factor exceeds node count");
  nodes_.reserve(cfg.nodes);
  for (std::uint32_t i = 0; i < cfg.nodes; ++i)
    nodes_.push_back(std::make_unique<StorageNode>(cfg.node));
}

std::uint64_t MiniDfs::total_clflush() const {
  std::uint64_t sum = 0;
  for (const auto& n : nodes_)
    sum += const_cast<StorageNode&>(*n).stack().clflush_count();
  return sum;
}

std::uint64_t MiniDfs::total_disk_writes() const {
  std::uint64_t sum = 0;
  for (const auto& n : nodes_)
    sum += const_cast<StorageNode&>(*n).stack().disk_blocks_written();
  return sum;
}

// ---------------------------------------------------------------------------
// TeraGen / HDFS pipeline (Fig 10)
// ---------------------------------------------------------------------------

Ns MiniDfs::run_teragen(std::uint64_t total_bytes) {
  // One sequential sink per node, sized to the node's data area.
  std::vector<std::unique_ptr<workloads::TeraGenSink>> sinks;
  sinks.reserve(nodes_.size());
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    auto& be = nodes_[i]->stack().backend();
    const std::uint64_t limit = be.data_block_limit() - 16;
    workloads::TeraGenConfig tg;
    tg.seed = 1000 + i;
    sinks.push_back(
        std::make_unique<workloads::TeraGenSink>(be, 0, limit, tg));
  }

  const std::uint64_t nchunks =
      (total_bytes + cfg_.chunk_bytes - 1) / cfg_.chunk_bytes;
  const NetProfile net = tengig_profile();  // the paper's 10 GbE
  const Ns xfer = net.transfer_ns(cfg_.chunk_bytes);
  const auto gen_cost =
      static_cast<Ns>(static_cast<double>(cfg_.chunk_bytes) /
                      DfsConfig::kClientGenBytesPerSec * 1e9);

  std::vector<Ns> acks;
  acks.reserve(nchunks);
  Ns gen_ready = 0;
  Ns completion = 0;

  for (std::uint64_t c = 0; c < nchunks; ++c) {
    // Client generates the chunk, throttled by the pipeline window.
    Ns start = gen_ready;
    if (c >= DfsConfig::kPipelineWindow)
      start = std::max(start, acks[c - DfsConfig::kPipelineWindow]);
    gen_ready = start + gen_cost;

    // Store-and-forward along the replica chain; every replica's write is
    // executed for real on its local stack.
    Ns data_at_upstream = gen_ready;
    Ns chunk_ack = 0;
    for (std::uint32_t j = 0; j < cfg_.replicas; ++j) {
      StorageNode& node = *nodes_[replica_node(c, j)];
      workloads::TeraGenSink& sink = *sinks[replica_node(c, j)];
      const Ns arrive =
          node.ingress().acquire(data_at_upstream, xfer) + net.rtt_ns;
      const Ns service =
          node.measure([&] { sink.generate(cfg_.chunk_bytes); });
      const Ns done = node.storage().acquire(arrive, service);
      chunk_ack = std::max(chunk_ack, done);
      data_at_upstream = arrive;  // forward after full receipt
    }
    acks.push_back(chunk_ack);
    completion = std::max(completion, chunk_ack);
  }
  return completion;
}

// ---------------------------------------------------------------------------
// Filebench / GlusterFS client-side replication (Fig 11)
// ---------------------------------------------------------------------------

namespace {

/// Central driver state: the authoritative view of every file, applied
/// identically to each replica so the per-node MiniFs instances stay in
/// sync without cross-node coordination.
class ClusterFilebenchDriver {
 public:
  ClusterFilebenchDriver(std::vector<StorageNode*> nodes,
                         const workloads::FilebenchConfig& cfg,
                         std::uint32_t replicas)
      : nodes_(std::move(nodes)),
        cfg_(cfg),
        replicas_(replicas),
        net_(tengig_profile()),
        rng_(cfg.seed),
        zipf_(cfg.nfiles, cfg.zipf_theta),
        alive_(cfg.nfiles, 0),
        size_(cfg.nfiles, 0),
        iobuf_(FilebenchConfig::kRequestBytes) {}

  /// Which nodes hold file `id`.
  [[nodiscard]] std::uint32_t replica_of(std::uint64_t id, std::uint32_t j) const {
    return static_cast<std::uint32_t>((id + j) % nodes_.size());
  }

  [[nodiscard]] std::string path_of(std::uint64_t id) const {
    return "/d" + std::to_string(id / FilebenchConfig::kFilesPerDir) + "/f" +
           std::to_string(id);
  }

  /// Create directories and initial files on their replica sets (untimed).
  void populate() {
    const std::uint64_t ndirs =
        (cfg_.nfiles + FilebenchConfig::kFilesPerDir - 1) /
        FilebenchConfig::kFilesPerDir;
    for (auto* node : nodes_)
      for (std::uint64_t d = 0; d < ndirs; ++d)
        node->fsys().mkdir("/d" + std::to_string(d));
    for (std::uint64_t f = 0; f < cfg_.nfiles; ++f)
      apply_write_everywhere(f, [&](fs::MiniFs& fsys) { do_create(fsys, f); });
    for (auto* node : nodes_) node->fsys().fsync();
  }

  /// Execute one operation starting at `op_start`; returns completion time.
  Ns run_op(Ns op_start, bool* was_read) {
    const std::uint64_t id = zipf_.draw(rng_);
    const std::uint64_t pick = rng_.below(100);
    bool read = false;
    Ns done = op_start;
    switch (cfg_.kind) {
      case workloads::FilebenchKind::kFileserver:
        if (pick < 33) {
          read = true;
          done = timed_read(op_start, id);
        } else if (pick < 66) {
          done = timed_write(op_start, id,
                             [&](fs::MiniFs& f) { do_append(f, id, false); });
        } else {
          done = timed_write(op_start, id,
                             [&](fs::MiniFs& f) { do_recreate(f, id, false); });
        }
        break;
      case workloads::FilebenchKind::kWebproxy:
        if (pick < 80) {
          read = true;
          done = timed_read(op_start, id);
        } else {
          done = timed_write(op_start, id,
                             [&](fs::MiniFs& f) { do_append(f, id, false); });
        }
        break;
      case workloads::FilebenchKind::kVarmail:
        if (pick < 50) {
          read = true;
          done = timed_read(op_start, id);
        } else if (pick < 75) {
          done = timed_write(op_start, id,
                             [&](fs::MiniFs& f) { do_append(f, id, true); });
        } else {
          done = timed_write(op_start, id,
                             [&](fs::MiniFs& f) { do_recreate(f, id, true); });
        }
        break;
    }
    if (was_read) *was_read = read;
    return done;
  }

 private:
  // --- file-op bodies, applied to one replica's fs -------------------------

  void do_create(fs::MiniFs& fsys, std::uint64_t id) {
    const std::string path = path_of(id);
    fsys.create(path);
    if (size_[id] == 0)
      size_[id] = cfg_.mean_file_bytes / 4 +
                  rng_size_for(id) % (cfg_.mean_file_bytes * 3 / 2 + 1);
    std::uint64_t off = 0;
    while (off < size_[id]) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(FilebenchConfig::kRequestBytes,
                                  size_[id] - off);
      fill_pattern(std::span(iobuf_).subspan(0, chunk), id * 131 + off);
      fsys.write(path, off, std::span(iobuf_).subspan(0, chunk));
      off += chunk;
    }
    alive_[id] = 1;
  }

  void do_recreate(fs::MiniFs& fsys, std::uint64_t id, bool sync) {
    if (alive_[id]) fsys.remove(path_of(id));
    size_[id] = 0;
    do_create(fsys, id);
    if (sync) fsys.fsync();
  }

  void do_append(fs::MiniFs& fsys, std::uint64_t id, bool sync) {
    if (!alive_[id]) {
      do_create(fsys, id);
      return;
    }
    const std::string path = path_of(id);
    if (size_[id] + FilebenchConfig::kRequestBytes > fsys.max_file_bytes()) {
      do_recreate(fsys, id, sync);
      return;
    }
    fill_pattern(iobuf_, id * 977 + size_[id]);
    fsys.write(path, size_[id], iobuf_);
    if (sync) fsys.fsync();
  }

  void do_read(fs::MiniFs& fsys, std::uint64_t id) {
    if (!alive_[id]) return;
    const std::string path = path_of(id);
    std::uint64_t off = 0;
    while (off < size_[id]) {
      const std::size_t got = fsys.read(path, off, iobuf_);
      if (got == 0) break;
      off += got;
    }
  }

  /// Deterministic per-id size draw that does not consume the op RNG stream.
  [[nodiscard]] std::uint64_t rng_size_for(std::uint64_t id) const {
    std::uint64_t x = id * 0x9E3779B97F4A7C15ULL + cfg_.seed;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return x;
  }

  // --- replication & timing -------------------------------------------------

  template <typename F>
  void apply_write_everywhere(std::uint64_t id, F&& fn) {
    // Central metadata must evolve identically per replica: snapshot before
    // each application so every replica sees the same starting state.
    const std::uint64_t size_before = size_[id];
    const std::uint8_t alive_before = alive_[id];
    for (std::uint32_t j = 0; j < replicas_; ++j) {
      size_[id] = size_before;
      alive_[id] = alive_before;
      fn(nodes_[replica_of(id, j)]->fsys());
    }
  }

  template <typename F>
  Ns timed_write(Ns op_start, std::uint64_t id, F&& fn) {
    const Ns xfer = net_.transfer_ns(FilebenchConfig::kRequestBytes);
    const std::uint64_t size_before = size_[id];
    const std::uint8_t alive_before = alive_[id];
    Ns done = op_start;
    for (std::uint32_t j = 0; j < replicas_; ++j) {
      size_[id] = size_before;
      alive_[id] = alive_before;
      StorageNode& node = *nodes_[replica_of(id, j)];
      const Ns arrive = node.ingress().acquire(op_start, xfer) + net_.rtt_ns;
      const Ns service = node.measure([&] { fn(node.fsys()); });
      done = std::max(done, node.storage().acquire(arrive, service));
    }
    return done;
  }

  Ns timed_read(Ns op_start, std::uint64_t id) {
    // GlusterFS serves reads from one replica; rotate for load spread.
    StorageNode& node = *nodes_[replica_of(id, read_rotor_++ % replicas_)];
    const Ns arrive =
        node.ingress().acquire(op_start, net_.transfer_ns(256)) + net_.rtt_ns;
    const Ns service = node.measure([&] { do_read(node.fsys(), id); });
    // Response bytes ride the wire back to the client.
    return node.storage().acquire(arrive, service) +
           net_.transfer_ns(size_[id]) + net_.rtt_ns;
  }

  std::vector<StorageNode*> nodes_;
  workloads::FilebenchConfig cfg_;
  std::uint32_t replicas_;
  NetProfile net_;
  Rng rng_;
  Zipf zipf_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint64_t> size_;
  std::vector<std::byte> iobuf_;
  std::uint32_t read_rotor_ = 0;
};

}  // namespace

ClusterFilebenchResult MiniDfs::run_filebench(
    const workloads::FilebenchConfig& wl, std::uint64_t total_ops,
    std::uint32_t client_streams) {
  TINCA_EXPECT(client_streams >= 1, "need at least one client stream");
  std::vector<StorageNode*> raw;
  raw.reserve(nodes_.size());
  for (auto& n : nodes_) raw.push_back(n.get());
  ClusterFilebenchDriver driver(std::move(raw), wl, cfg_.replicas);
  driver.populate();

  ClusterFilebenchResult result;
  std::vector<Ns> stream_ready(client_streams, 0);
  Ns makespan = 0;
  for (std::uint64_t i = 0; i < total_ops; ++i) {
    const std::uint32_t s = static_cast<std::uint32_t>(i % client_streams);
    bool was_read = false;
    const Ns done = driver.run_op(stream_ready[s], &was_read);
    stream_ready[s] = done + DfsConfig::kClientOpOverheadNs;
    makespan = std::max(makespan, done);
    ++result.ops;
    if (was_read)
      ++result.read_ops;
    else
      ++result.write_ops;
  }
  result.makespan_ns = makespan;
  return result;
}

}  // namespace tinca::cluster
