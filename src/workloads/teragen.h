// TeraGen-style sequential data generator (paper §5.3.1, Fig 10).
//
// TeraGen writes 100-byte rows sequentially; on a data node the stream
// arrives in large packets and lands on the local file system as sequential
// appends.  This generator produces the row payload and a local sink that
// commits the stream through a TxnBackend in 4 KB blocks with HDFS-like
// write batching.  The cluster bench (Fig 10) drives the same sink on each
// data node behind the replication pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "backend/txn_backend.h"
#include "common/rng.h"

namespace tinca::workloads {

/// TeraGen parameters.
struct TeraGenConfig {
  /// Bytes of one row (TeraGen: 10 B key + 90 B value).
  static constexpr std::uint64_t kRowBytes = 100;
  /// Rows per buffered packet before the sink flushes a batch.
  static constexpr std::uint64_t kRowsPerPacket = 640;  ///< 64 KB packets
  /// RNG seed for the row contents.
  std::uint64_t seed = 1;
};

/// Writes a sequential row stream into a block range via transactions.
class TeraGenSink {
 public:
  /// `base_blkno` is where the stream starts; `limit_blocks` bounds it
  /// (the sink wraps around, modelling log-structured reuse at small scale).
  TeraGenSink(backend::TxnBackend& backend, std::uint64_t base_blkno,
              std::uint64_t limit_blocks, const TeraGenConfig& cfg = {});

  /// Generate and persist `bytes` of row data.  Each packet becomes one
  /// committed transaction of sequential blocks.
  void generate(std::uint64_t bytes);

  /// Rows written so far.
  [[nodiscard]] std::uint64_t rows_written() const { return rows_; }

  /// Bytes written so far.
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }

 private:
  void flush_packet();

  backend::TxnBackend& backend_;
  TeraGenConfig cfg_;
  std::uint64_t base_blkno_;
  std::uint64_t limit_blocks_;
  std::uint64_t next_block_ = 0;  ///< sequential cursor (relative)
  std::uint64_t rows_ = 0;
  std::uint64_t bytes_ = 0;
  std::vector<std::byte> packet_;
  std::size_t packet_fill_ = 0;
  Rng rng_;
};

}  // namespace tinca::workloads
