// One data node of the simulated storage cluster (paper Fig 9).
//
// Each node is a complete local stack — NVM cache + disk + Tinca or Classic
// backend, optionally with a mounted MiniFs — plus the discrete-event
// resources other cluster components queue on: an ingress network link and
// the serialized local storage path.  Service times for the storage resource
// are *measured* by running the real stack under the node's virtual clock,
// so cluster results inherit the full fidelity of the local model.
#pragma once

#include <memory>
#include <utility>

#include "backend/stack_builder.h"
#include "common/event_queue.h"
#include "fs/minifs.h"

namespace tinca::cluster {

/// Node assembly parameters.
struct NodeConfig {
  backend::StackConfig stack;
  /// Mount a MiniFs (default geometry) on the node (Filebench experiments).
  bool with_fs = false;
};

/// A data node: local stack + DES resources.
class StorageNode {
 public:
  explicit StorageNode(const NodeConfig& cfg) : stack_(cfg.stack) {
    if (cfg.with_fs) fsys_ = fs::MiniFs::mkfs(stack_.backend());
  }

  /// Run `fn` against the local stack and return its storage service time
  /// (virtual nanoseconds charged by the node's devices).
  template <typename F>
  sim::Ns measure(F&& fn) {
    const sim::CostProbe probe(stack_.clock());
    std::forward<F>(fn)();
    return probe.elapsed();
  }

  [[nodiscard]] backend::Stack& stack() { return stack_; }
  [[nodiscard]] fs::MiniFs& fsys() {
    TINCA_EXPECT(fsys_ != nullptr, "node has no file system mounted");
    return *fsys_;
  }

  /// FIFO resource modelling the node's serialized storage path.
  [[nodiscard]] sim::Resource& storage() { return storage_; }

  /// FIFO resource modelling the node's ingress network link.
  [[nodiscard]] sim::Resource& ingress() { return ingress_; }

 private:
  backend::Stack stack_;
  std::unique_ptr<fs::MiniFs> fsys_;
  sim::Resource storage_;
  sim::Resource ingress_;
};

}  // namespace tinca::cluster
