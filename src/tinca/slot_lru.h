// DRAM-resident LRU list over entry slots (paper §4.6).
//
// Tinca keeps its replacement bookkeeping in DRAM — a hash table plus an LRU
// linked list — because these structures can be rebuilt from the persistent
// entry table on startup (§4.6).  This is the linked-list half: an intrusive
// doubly-linked list over dense slot ids, O(1) for touch / insert / remove
// with no per-node allocation.  Every insert stamps the slot from a running
// counter, so "which of two listed slots is older" is one compare — the
// replacement cursors in TincaCache lean on that (DESIGN.md §11).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/expect.h"

namespace tinca::core {

/// Intrusive LRU over slot ids in [0, n).
class SlotLru {
 public:
  static constexpr std::uint32_t kNil = 0xFFFF'FFFFu;

  explicit SlotLru(std::uint32_t n)
      : prev_(n, kNil), next_(n, kNil), stamp_(n, 0), in_(n, 0) {}

  /// Insert `slot` at the MRU end.  Must not already be present.
  void push_mru(std::uint32_t slot) {
    TINCA_EXPECT(!in_[slot], "slot already in LRU");
    in_[slot] = 1;
    stamp_[slot] = ++clock_;
    prev_[slot] = kNil;
    next_[slot] = mru_;
    if (mru_ != kNil) prev_[mru_] = slot;
    mru_ = slot;
    if (lru_ == kNil) lru_ = slot;
    ++size_;
  }

  /// Remove `slot` from the list.  Must be present.
  void remove(std::uint32_t slot) {
    TINCA_EXPECT(in_[slot], "slot not in LRU");
    in_[slot] = 0;
    const std::uint32_t p = prev_[slot];
    const std::uint32_t n = next_[slot];
    if (p != kNil) next_[p] = n; else mru_ = n;
    if (n != kNil) prev_[n] = p; else lru_ = p;
    --size_;
  }

  /// Move `slot` to the MRU end (access hit).
  void touch(std::uint32_t slot) {
    remove(slot);
    push_mru(slot);
  }

  /// Least-recently-used slot, or kNil if empty.
  [[nodiscard]] std::uint32_t lru() const { return lru_; }

  /// Next-less-recently-used neighbour moving from LRU toward MRU (i.e. the
  /// element accessed *after* `slot`), or kNil.
  [[nodiscard]] std::uint32_t newer(std::uint32_t slot) const {
    TINCA_EXPECT(in_[slot], "slot not in LRU");
    return prev_[slot];
  }

  /// Recency stamp of a listed slot: strictly increasing along the list
  /// from the LRU end to the MRU end, renewed by every push_mru / touch.
  [[nodiscard]] std::uint64_t stamp(std::uint32_t slot) const {
    return stamp_[slot];
  }

  /// Whether listed slot `a` was used less recently than listed slot `b`.
  [[nodiscard]] bool older(std::uint32_t a, std::uint32_t b) const {
    return stamp_[a] < stamp_[b];
  }

  /// Whether `slot` is in the list.
  [[nodiscard]] bool contains(std::uint32_t slot) const { return in_[slot] != 0; }

  /// Number of listed slots.
  [[nodiscard]] std::uint32_t size() const { return size_; }

 private:
  std::vector<std::uint32_t> prev_, next_;
  std::vector<std::uint64_t> stamp_;
  std::vector<std::uint8_t> in_;
  std::uint64_t clock_ = 0;
  std::uint32_t mru_ = kNil;
  std::uint32_t lru_ = kNil;
  std::uint32_t size_ = 0;
};

/// Free-block monitor (paper §4.6): traces NVM blocks / entry slots that are
/// not in use.  Rebuilt from the entry table on startup; never persisted.
///
/// An in-pool bitmap makes double-give (which would hand the same NVM block
/// to two owners and corrupt the cache silently, possibly much later) and
/// out-of-range ids fail fast at the faulty call site.  One byte per id and
/// O(1) per operation, so it is kept on in all build types.
class FreeMonitor {
 public:
  /// With `rotate` false (default) the pool is a LIFO stack: a just-freed
  /// id is reused immediately (compact layouts, predictable tests).  With
  /// `rotate` true it is a FIFO queue: freed ids go to the back and the
  /// longest-free id is handed out next, so a hot disk block cycles over
  /// the whole NVM data area instead of burning one region — the paper's
  /// lifetime concern (PCM/ReRAM endure 10^6–10^8 writes per cell).
  explicit FreeMonitor(std::uint32_t n, bool rotate = false)
      : in_pool_(n, 1), rotate_(rotate) {
    // Hand out low ids first: keeps layouts compact and tests predictable.
    for (std::uint32_t i = n; i-- > 0;) free_.push_back(i);
  }

  /// True if at least one id is free.
  [[nodiscard]] bool any() const { return !free_.empty(); }

  /// Number of free ids.
  [[nodiscard]] std::uint32_t count() const {
    return static_cast<std::uint32_t>(free_.size());
  }

  /// Take a free id.  Requires any().
  std::uint32_t take() {
    TINCA_EXPECT(!free_.empty(), "allocation from empty free monitor");
    const std::uint32_t id = rotate_ ? free_.front() : free_.back();
    if (rotate_)
      free_.pop_front();
    else
      free_.pop_back();
    TINCA_ENSURE(in_pool_[id], "free monitor pool lost track of an id");
    in_pool_[id] = 0;
    return id;
  }

  /// Reorder the pool so the least-worn id is handed out first (`wear_of`
  /// maps an id to its media-write count).  Called at format/recovery time
  /// when wear levelling is on: the runtime rotation keeps the order fair
  /// from there, this seeds it from the media's actual history.
  void order_by_wear(const std::function<std::uint64_t(std::uint32_t)>& wear_of) {
    std::stable_sort(free_.begin(), free_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return rotate_ ? wear_of(a) < wear_of(b)
                                      : wear_of(a) > wear_of(b);
                     });
  }

  /// Return an id to the pool.  The id must be absent (no double-give).
  void give(std::uint32_t id) {
    TINCA_EXPECT(id < in_pool_.size(), "give of an out-of-range id");
    TINCA_EXPECT(!in_pool_[id], "double give of an id to the free monitor");
    in_pool_[id] = 1;
    free_.push_back(id);
  }

  /// Whether `id` is currently in the pool (free).
  [[nodiscard]] bool holds(std::uint32_t id) const {
    TINCA_EXPECT(id < in_pool_.size(), "holds of an out-of-range id");
    return in_pool_[id] != 0;
  }

  /// Empty the pool (recovery rebuild starts from scratch).
  void clear() {
    free_.clear();
    std::fill(in_pool_.begin(), in_pool_.end(), 0);
  }

 private:
  std::deque<std::uint32_t> free_;
  std::vector<std::uint8_t> in_pool_;  ///< 1 iff the id is currently free
  bool rotate_ = false;                ///< FIFO reuse (wear levelling)
};

}  // namespace tinca::core
