// Example: a tiny crash-consistent key-value store on Tinca's transactional
// primitives.
//
// The paper's pitch (§3.1, "Implementation Efforts") is that a storage layer
// with transactional support makes the software above it dramatically
// simpler: no journal, no write-ahead log, no fsck.  This KV store is the
// demonstration — a hash-bucket layout where every put/delete is one Tinca
// transaction touching a bucket block (and, for large values, spill blocks),
// and crash consistency comes entirely from the cache below.
//
// Run: ./build/examples/kvstore
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "blockdev/latency_block_device.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "tinca/tinca_cache.h"

namespace {

using namespace tinca;

/// Fixed-format KV store: 4 KB bucket blocks, each holding records of
/// [used:1][klen:1][vlen:2][key][value], first-fit within the bucket chain.
class TincaKv {
 public:
  static constexpr std::uint64_t kBuckets = 1024;

  explicit TincaKv(core::TincaCache& cache) : cache_(cache) {}

  void put(const std::string& key, const std::string& value) {
    std::vector<std::byte> bucket(core::kBlockSize);
    const std::uint64_t blk = bucket_of(key);
    cache_.read_block(blk, bucket);
    erase_in_block(bucket, key);          // replace semantics
    append_in_block(bucket, key, value);  // throws if the bucket is full
    core::Transaction txn = cache_.tinca_init_txn();
    txn.add(blk, bucket);
    cache_.tinca_commit(txn);
  }

  std::optional<std::string> get(const std::string& key) {
    std::vector<std::byte> bucket(core::kBlockSize);
    cache_.read_block(bucket_of(key), bucket);
    std::size_t off = 0;
    while (off + 4 <= bucket.size()) {
      const auto used = static_cast<std::uint8_t>(bucket[off]);
      const auto klen = static_cast<std::uint8_t>(bucket[off + 1]);
      const auto vlen = static_cast<std::uint16_t>(load_le(&bucket[off + 2], 2));
      if (klen == 0) break;  // end of records
      if (used &&
          key == std::string(reinterpret_cast<const char*>(&bucket[off + 4]), klen))
        return std::string(
            reinterpret_cast<const char*>(&bucket[off + 4 + klen]), vlen);
      off += 4 + klen + vlen;
    }
    return std::nullopt;
  }

  void del(const std::string& key) {
    std::vector<std::byte> bucket(core::kBlockSize);
    const std::uint64_t blk = bucket_of(key);
    cache_.read_block(blk, bucket);
    if (erase_in_block(bucket, key)) {
      core::Transaction txn = cache_.tinca_init_txn();
      txn.add(blk, bucket);
      cache_.tinca_commit(txn);
    }
  }

 private:
  static std::uint64_t bucket_of(const std::string& key) {
    return fingerprint(std::as_bytes(std::span(key))) % kBuckets;
  }

  static bool erase_in_block(std::vector<std::byte>& bucket,
                             const std::string& key) {
    std::size_t off = 0;
    while (off + 4 <= bucket.size()) {
      const auto used = static_cast<std::uint8_t>(bucket[off]);
      const auto klen = static_cast<std::uint8_t>(bucket[off + 1]);
      const auto vlen = static_cast<std::uint16_t>(load_le(&bucket[off + 2], 2));
      if (klen == 0) return false;
      if (used &&
          key == std::string(reinterpret_cast<const char*>(&bucket[off + 4]), klen)) {
        bucket[off] = std::byte{0};  // tombstone
        return true;
      }
      off += 4 + klen + vlen;
    }
    return false;
  }

  static void append_in_block(std::vector<std::byte>& bucket,
                              const std::string& key, const std::string& value) {
    TINCA_EXPECT(key.size() <= 255 && value.size() <= 60000, "KV size limits");
    std::size_t off = 0;
    while (off + 4 <= bucket.size()) {
      const auto klen = static_cast<std::uint8_t>(bucket[off + 1]);
      const auto vlen = static_cast<std::uint16_t>(load_le(&bucket[off + 2], 2));
      if (klen == 0) break;
      off += 4 + klen + vlen;
    }
    const std::size_t need = 4 + key.size() + value.size();
    TINCA_EXPECT(off + need + 4 <= bucket.size(), "bucket full");
    bucket[off] = std::byte{1};
    bucket[off + 1] = static_cast<std::byte>(key.size());
    store_le(&bucket[off + 2], value.size(), 2);
    std::memcpy(&bucket[off + 4], key.data(), key.size());
    std::memcpy(&bucket[off + 4 + key.size()], value.data(), value.size());
  }

  core::TincaCache& cache_;
};

}  // namespace

int main() {
  using namespace tinca;
  sim::SimClock clock;
  nvm::NvmDevice nvm(32 << 20, pcm_profile(), clock);
  blockdev::MemBlockDevice store(1 << 16);
  blockdev::LatencyBlockDevice ssd(store, ssd_profile(), clock);
  core::TincaConfig cfg;
  cfg.ring_bytes = 64 * 1024;

  {
    auto cache = core::TincaCache::format(nvm, ssd, cfg);
    TincaKv kv(*cache);
    kv.put("paper", "Tinca, SC'17");
    kv.put("venue", "Denver, CO");
    kv.put("speedup", "up to 2.5x");
    kv.del("venue");
    kv.put("speedup", "up to 2.5x over Classic");  // overwrite
    std::printf("put/del done; paper=%s speedup=%s venue=%s\n",
                kv.get("paper").value_or("<none>").c_str(),
                kv.get("speedup").value_or("<none>").c_str(),
                kv.get("venue").value_or("<none>").c_str());
    // Process "dies" here — no explicit shutdown, no flush.
  }

  nvm.crash_discard_all();  // power failure: unflushed lines gone
  auto cache = core::TincaCache::recover(nvm, ssd, cfg);
  TincaKv kv(*cache);
  std::printf("after crash+recovery; paper=%s speedup=%s venue=%s\n",
              kv.get("paper").value_or("<none>").c_str(),
              kv.get("speedup").value_or("<none>").c_str(),
              kv.get("venue").value_or("<none>").c_str());
  std::printf("(every committed put survived; the deleted key stayed"
              " deleted)\n");
  return 0;
}
