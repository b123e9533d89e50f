// MiniFs: a small ext-like file system over a transactional block backend.
//
// The paper's workloads run Ext4 over the cache stacks; what matters for the
// evaluation is the *structural write stream* a journaling file system
// produces — small metadata blocks (inodes, allocation bitmaps, directories)
// interleaved with data blocks, grouped into compound transactions.  MiniFs
// reproduces that stream over the TxnBackend surface:
//
//   layout:  [ superblock | inode bitmap | block bitmap | inode table | data ]
//   inodes:  128 B, 12 direct pointers + 1 single-indirect (≤ ~2 MB files)
//   dirs:    files of 64 B entries (8 B inode number, flag, 54 B name)
//
// Like Ext4/JBD2, MiniFs batches many operations into one compound
// transaction (group commit): dirty blocks accumulate in a DRAM page cache
// and are committed when an op-count or block-count threshold is reached, or
// on fsync().  Reads overlay that page cache, so uncommitted data is visible
// to the application but lost on crash — exactly the data-consistency
// contract the paper targets (§2.3).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "backend/txn_backend.h"

namespace tinca::fs {

/// File-system geometry and batching policy.
struct MiniFsConfig {
  /// Number of inodes to provision at mkfs.
  std::uint64_t inode_count = 8192;
  /// Commit the running compound transaction after this many operations.
  std::uint64_t group_commit_ops = 64;
  /// Hard cap on blocks per compound transaction (also bounded by the
  /// backend's own limit).
  static constexpr std::uint64_t kMaxTxnBlocks = 2048;
};

/// Counters for one mounted file system.
struct MiniFsStats {
  std::uint64_t ops = 0;
  std::uint64_t creates = 0;
  std::uint64_t deletes = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t txns_committed = 0;
  std::uint64_t blocks_staged = 0;
};

/// Machine-checkable fsck problem classes.  Every invariant the checker
/// enforces has exactly one code, so harnesses can assert on *which*
/// invariant broke instead of string-matching prose.
enum class FsckCode : std::uint8_t {
  kNone = 0,
  kPtrOutOfRange,        ///< block pointer outside the data area
  kCrossLinkedBlock,     ///< one block referenced from two places
  kBadDirType,           ///< inode walked as a directory has another type
  kBadDirSize,           ///< directory size not a whole number of blocks
  kEntryBadInode,        ///< directory entry's inode number past the table
  kEntryFreeInode,       ///< directory entry points to a free inode
  kMultiplyLinkedInode,  ///< inode reachable via two entries (no hard links)
  kEntryUntypedInode,    ///< directory entry points to a type-0 inode
  kDupName,              ///< two live entries in one directory share a name
  kFileTooLarge,         ///< file size exceeds the representable payload
  kBlockPastEof,         ///< mapped file block wholly past the size ceiling
  kBlockLeak,            ///< block marked used but unreachable
  kBlockFreeButUsed,     ///< block reachable but free in the bitmap
  kInodeLeak,            ///< inode marked used but unreachable (orphan)
  kInodeFreeButLinked,   ///< inode reachable but free in the bitmap
};

/// Stable short name for a code ("cross-linked-block", ...).
const char* fsck_code_name(FsckCode code);

/// Result of a consistency check.  `problems[i]` is the human-readable
/// message for `codes[i]` (parallel vectors, same length).
struct FsckReport {
  bool ok = true;
  std::vector<std::string> problems;
  std::vector<FsckCode> codes;
  std::uint64_t files = 0;
  std::uint64_t directories = 0;
  std::uint64_t used_blocks = 0;

  /// Whether any problem with this code was recorded.
  [[nodiscard]] bool has(FsckCode code) const {
    for (const FsckCode c : codes)
      if (c == code) return true;
    return false;
  }

  /// All problems joined into one line (empty when clean).
  [[nodiscard]] std::string summary() const {
    std::string s;
    for (const std::string& p : problems) {
      if (!s.empty()) s += "; ";
      s += p;
    }
    return s;
  }
};

/// The file system.  Paths are absolute, '/'-separated; components are
/// limited to 54 bytes.
class MiniFs {
 public:
  /// Create a fresh file system on `backend` (one committed transaction).
  static std::unique_ptr<MiniFs> mkfs(backend::TxnBackend& backend,
                                      MiniFsConfig cfg = {});

  /// Mount an existing file system.
  static std::unique_ptr<MiniFs> mount(backend::TxnBackend& backend,
                                       MiniFsConfig cfg = {});

  ~MiniFs();

  // --- namespace ops --------------------------------------------------------

  /// Create an empty regular file.  Parent directory must exist.
  void create(std::string_view path);

  /// Create a directory.  Parent must exist.
  void mkdir(std::string_view path);

  /// Remove a regular file, freeing its blocks and inode.
  void remove(std::string_view path);

  /// Rename a file or directory within the tree.  The destination must not
  /// exist; its parent must.
  void rename(std::string_view from, std::string_view to);

  /// Whether `path` exists (file or directory).
  [[nodiscard]] bool exists(std::string_view path);

  /// Names in directory `path`.
  [[nodiscard]] std::vector<std::string> list(std::string_view path);

  // --- data ops -------------------------------------------------------------

  /// Write `data` at byte `offset`, extending the file as needed.
  void write(std::string_view path, std::uint64_t offset,
             std::span<const std::byte> data);

  /// Append `data` at end of file.
  void append(std::string_view path, std::span<const std::byte> data);

  /// Read up to `dst.size()` bytes at `offset`; returns bytes read.
  std::size_t read(std::string_view path, std::uint64_t offset,
                   std::span<std::byte> dst);

  /// Truncate (or extend with a hole) a regular file to `size` bytes.
  void truncate(std::string_view path, std::uint64_t size);

  /// Size of the file at `path` in bytes.
  [[nodiscard]] std::uint64_t file_size(std::string_view path);

  // --- durability -----------------------------------------------------------

  /// Commit the running compound transaction.
  void fsync();

  /// fsync + push everything to disk.
  void sync_all();

  // --- introspection --------------------------------------------------------

  /// Offline-style consistency check against the *committed* state (call
  /// after fsync, or after remount, for meaningful results).
  FsckReport fsck();

  [[nodiscard]] const MiniFsStats& stats() const { return stats_; }

  /// Largest file MiniFs can represent (direct + single indirect).
  [[nodiscard]] std::uint64_t max_file_bytes() const;

  /// On-media layout (block numbers), fixed at mkfs.  Public so corruption
  /// tests and the fuzz harness can aim raw-block mutations at a specific
  /// metadata region.
  struct Geometry {
    std::uint64_t total_blocks = 0;
    std::uint64_t inode_count = 0;
    std::uint64_t ibmap_start = 0, ibmap_blocks = 0;
    std::uint64_t bbmap_start = 0, bbmap_blocks = 0;
    std::uint64_t itable_start = 0, itable_blocks = 0;
    std::uint64_t data_start = 0;
  };

  [[nodiscard]] const Geometry& geometry() const { return geo_; }

 private:
  MiniFs(backend::TxnBackend& backend, MiniFsConfig cfg);

  struct Inode {
    std::uint64_t type = 0;  // 0 free, 1 file, 2 dir
    std::uint64_t size = 0;
    std::vector<std::uint64_t> direct;  // kDirectPtrs entries
    std::uint64_t indirect = 0;         // 0 = none
  };

  static constexpr std::uint64_t kInodeBytes = 128;
  static constexpr std::uint64_t kDirectPtrs = 12;
  static constexpr std::uint64_t kDirEntryBytes = 64;
  static constexpr std::uint64_t kNameMax = 54;
  static constexpr std::uint64_t kRootIno = 0;

  // Block I/O through the page cache.
  void read_blk(std::uint64_t blkno, std::span<std::byte> dst);
  void write_blk(std::uint64_t blkno, std::span<const std::byte> data);
  void commit_txn();
  void op_done(std::uint64_t worst_case_blocks);

  // Layout plumbing.
  void compute_geometry();
  void write_superblock();
  void load_superblock();
  void load_bitmaps();
  void flush_bitmap_bit(bool inode_bitmap, std::uint64_t index);

  // Allocation.
  std::uint64_t alloc_block();
  void free_block(std::uint64_t blkno);
  std::uint64_t alloc_inode();
  void free_inode(std::uint64_t ino);

  // Inodes.
  Inode read_inode(std::uint64_t ino);
  void write_inode(std::uint64_t ino, const Inode& inode);

  // File block mapping.
  std::uint64_t file_block(Inode& inode, std::uint64_t index, bool allocate,
                           bool* inode_dirty);
  void free_file_blocks(Inode& inode);

  // Directories.
  std::uint64_t resolve(std::string_view path);  // UINT64_MAX if missing
  std::uint64_t resolve_parent(std::string_view path, std::string& leaf);
  std::uint64_t dir_lookup(std::uint64_t dir_ino, std::string_view name);
  void dir_add(std::uint64_t dir_ino, std::string_view name, std::uint64_t ino);
  void dir_remove(std::uint64_t dir_ino, std::string_view name);
  std::uint64_t make_node(std::string_view path, std::uint64_t type);

  backend::TxnBackend& backend_;
  MiniFsConfig cfg_;
  Geometry geo_;

  std::vector<std::uint8_t> inode_bitmap_;
  std::vector<std::uint8_t> block_bitmap_;
  std::uint64_t block_cursor_ = 0;  // next-fit allocation hint

  // Page cache of dirty (staged, uncommitted) blocks.
  std::unordered_map<std::uint64_t, std::vector<std::byte>> staged_;
  std::vector<std::uint64_t> staged_order_;
  std::uint64_t ops_since_commit_ = 0;
  std::uint64_t txn_budget_ = 0;

  MiniFsStats stats_;
};

}  // namespace tinca::fs
