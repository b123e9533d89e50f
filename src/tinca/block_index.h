// DRAM-resident disk-block → entry-slot index (paper §4.6, the hash-table
// half of Tinca's replacement bookkeeping).
//
// The index never holds more keys than the cache has entry slots, so it is
// a flat open-addressing table sized once, at construction, to at least
// twice the slot count: linear probing, no rehash, no per-key allocation,
// and deletion by backward shift (no tombstones, so probe chains never
// degrade however many evictions churn through).  Iteration order is table
// order and carries no meaning: callers that need an order sort.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/expect.h"

namespace tinca::core {

class BlockIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFF'FFFFu;

  /// An index for up to `max_keys` keys.  Every key must be < kEmptyKey.
  explicit BlockIndex(std::uint64_t max_keys) : max_keys_(max_keys) {
    std::uint64_t n = 16;
    while (n < max_keys * 2) n <<= 1;
    cells_.assign(n, Cell{});
    mask_ = n - 1;
  }

  /// Slot of `key`, or kNone.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    for (std::uint64_t i = home(key);; i = (i + 1) & mask_) {
      if (cells_[i].key == key) return cells_[i].slot;
      if (cells_[i].key == kEmptyKey) return kNone;
    }
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    return find(key) != kNone;
  }

  /// Slot of a key that must be present.
  [[nodiscard]] std::uint32_t at(std::uint64_t key) const {
    const std::uint32_t slot = find(key);
    TINCA_ENSURE(slot != kNone, "block index lookup of an absent key");
    return slot;
  }

  /// Insert `key` → `slot`; false (and no change) when the key is present.
  bool insert(std::uint64_t key, std::uint32_t slot) {
    TINCA_EXPECT(key != kEmptyKey, "block index key out of range");
    std::uint64_t i = home(key);
    for (; cells_[i].key != kEmptyKey; i = (i + 1) & mask_)
      if (cells_[i].key == key) return false;
    TINCA_ENSURE(size_ < max_keys_, "block index over capacity");
    cells_[i] = Cell{key, slot};
    ++size_;
    return true;
  }

  /// Remove `key` if present.  Backward-shift deletion: every later key of
  /// the probe run whose home lies cyclically at or before the hole moves
  /// into it, so lookups never need tombstones.
  void erase(std::uint64_t key) {
    std::uint64_t i = home(key);
    for (; cells_[i].key != key; i = (i + 1) & mask_)
      if (cells_[i].key == kEmptyKey) return;
    for (std::uint64_t j = (i + 1) & mask_; cells_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
      // Distance from j's home to j, and from the hole to j: the key may
      // fill the hole only if its home is no later than the hole.
      if (((j - home(cells_[j].key)) & mask_) >= ((j - i) & mask_)) {
        cells_[i] = cells_[j];
        i = j;
      }
    }
    cells_[i] = Cell{};
    --size_;
  }

  void clear() {
    std::fill(cells_.begin(), cells_.end(), Cell{});
    size_ = 0;
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Call `fn(key, slot)` for every entry, in table order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Cell& c : cells_)
      if (c.key != kEmptyKey) fn(c.key, c.slot);
  }

 private:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  [[nodiscard]] std::uint64_t home(std::uint64_t key) const {
    std::uint64_t x = key + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return (x ^ (x >> 31)) & mask_;
  }

  struct Cell {
    std::uint64_t key = kEmptyKey;
    std::uint32_t slot = kNone;
  };

  std::vector<Cell> cells_;
  std::uint64_t mask_ = 0;
  std::uint64_t max_keys_ = 0;
  std::uint64_t size_ = 0;
};

}  // namespace tinca::core
