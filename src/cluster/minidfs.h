// MiniDfs: the simulated 4-node storage cluster of §5.3 (Fig 9).
//
// Two distributed personalities, matching the paper's experiments:
//
//  * `run_teragen` — HDFS-style write pipeline (Fig 10): the client streams
//    chunks; each chunk is forwarded node-to-node along its replica chain
//    (store-and-forward at chunk granularity) and written by every replica's
//    *real* local stack.  Completion time of the whole dataset is returned.
//
//  * `run_filebench` — GlusterFS-style client-side replication (Fig 11):
//    every namespace/write operation is applied to all `replicas` of the
//    file (AFR), reads are served by one replica.  A configurable number of
//    client streams keeps ops in flight.
//
// All timing comes from a discrete-event model in which each node's storage
// path and ingress link are FIFO resources; storage service times are
// measured by actually executing the operation on the node's stack.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/storage_node.h"
#include "common/latency.h"
#include "workloads/filebench.h"
#include "workloads/teragen.h"

namespace tinca::cluster {

/// Cluster assembly parameters.
struct DfsConfig {
  /// Number of data nodes (paper: 4).
  std::uint32_t nodes = 4;
  /// Replication factor (paper sweeps 1–3; GlusterFS tests use 2).
  std::uint32_t replicas = 3;
  /// Per-node stack assembly.
  NodeConfig node;
  /// Chunk granularity of the TeraGen pipeline DES.
  std::uint64_t chunk_bytes = 1ull << 20;
  /// Outstanding chunks the client keeps in flight.
  static constexpr std::uint32_t kPipelineWindow = 4;
  /// Client-side generation rate for TeraGen row synthesis (bytes/sec) —
  /// the mapper's row synthesis plus HDFS-client checksumming/packetizing.
  static constexpr double kClientGenBytesPerSec = 2.3e8;
  /// Per-operation client-side overhead for the Filebench personality:
  /// GlusterFS serves through FUSE and runs AFR's transaction (lock,
  /// pre-op xattr, op, post-op xattr, unlock) per write — millisecond-scale
  /// regardless of the storage stack underneath.
  static constexpr sim::Ns kClientOpOverheadNs = 4400 * sim::kUsec;
};

/// Aggregate result of a cluster Filebench run.
struct ClusterFilebenchResult {
  std::uint64_t ops = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  sim::Ns makespan_ns = 0;

  [[nodiscard]] double ops_per_sec() const {
    return makespan_ns == 0
               ? 0.0
               : static_cast<double>(ops) /
                     (static_cast<double>(makespan_ns) / 1e9);
  }
};

/// The cluster.
class MiniDfs {
 public:
  explicit MiniDfs(const DfsConfig& cfg);

  /// HDFS/TeraGen pipeline write of `total_bytes`; returns the virtual
  /// completion time of the whole job (Fig 10's "execution time").
  sim::Ns run_teragen(std::uint64_t total_bytes);

  /// GlusterFS-style Filebench: `total_ops` operations of personality
  /// `wl.kind` across `client_streams` concurrent client streams.
  ClusterFilebenchResult run_filebench(const workloads::FilebenchConfig& wl,
                                       std::uint64_t total_ops,
                                       std::uint32_t client_streams);

  /// Sum of cache-line flushes across all nodes.
  [[nodiscard]] std::uint64_t total_clflush() const;

  /// Sum of disk blocks written across all nodes.
  [[nodiscard]] std::uint64_t total_disk_writes() const;

  [[nodiscard]] StorageNode& node(std::uint32_t i) { return *nodes_[i]; }
  [[nodiscard]] std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

 private:
  /// Nodes holding replica `j` of item (file/chunk-group) `h`.
  [[nodiscard]] std::uint32_t replica_node(std::uint64_t h, std::uint32_t j) const {
    return static_cast<std::uint32_t>((h + j) % nodes_.size());
  }

  DfsConfig cfg_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
};

}  // namespace tinca::cluster
