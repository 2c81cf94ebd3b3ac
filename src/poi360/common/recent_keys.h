#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace poi360 {

/// The last `capacity` distinct int64 keys inserted, each at a fixed slot in
/// [0, capacity), with an exact O(1) lookup of a key's slot. Once full, a new
/// key takes the slot of the oldest one, so a caller can keep per-key payload
/// in a parallel array indexed by slot.
///
/// Keys sit in a ring in insertion order; an open-addressing table of slot
/// numbers (linear probing, at most half full) finds a key's slot. Both grow
/// geometrically up to the capacity, so a short-lived owner never pays for
/// the full history.
class RecentKeys {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  explicit RecentKeys(std::size_t capacity) : capacity_(capacity) {}

  /// Slot of `key`, or npos when it is not among the recent keys.
  std::size_t find(std::int64_t key) const {
    const std::size_t i = find_entry(key);
    return i == npos ? npos : table_[i];
  }
  bool contains(std::int64_t key) const { return find_entry(key) != npos; }

  /// Adds a key that is not present (check with `find` first) and returns
  /// its slot: the next unused one while filling, then the slot of the
  /// oldest key, which is forgotten. Returns npos when the capacity is 0.
  std::size_t insert(std::int64_t key) {
    if (capacity_ == 0) return npos;
    std::size_t slot = 0;
    if (keys_.size() < capacity_) {
      if (2 * (keys_.size() + 1) > table_.size()) {
        rebuild(2 * (keys_.size() + 1));
      }
      slot = keys_.size();
      keys_.push_back(key);
    } else {
      slot = oldest_;
      erase_entry(find_entry(keys_[slot]));
      keys_[slot] = key;
      oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
    }
    place(slot);
    return slot;
  }

  std::size_t size() const { return keys_.size(); }

 private:
  static constexpr std::uint32_t kFree =
      std::numeric_limits<std::uint32_t>::max();

  // Fibonacci hashing: consecutive keys (a packet or frame counter) land
  // far apart, so a monotone stream usually probes a single entry.
  std::size_t home(std::int64_t key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::size_t next(std::size_t i) const {
    return (i + 1) & (table_.size() - 1);
  }
  std::size_t distance(std::size_t from, std::size_t to) const {
    return (to - from) & (table_.size() - 1);
  }

  std::size_t find_entry(std::int64_t key) const {
    if (table_.empty()) return npos;
    for (std::size_t i = home(key);; i = next(i)) {
      if (table_[i] == kFree) return npos;
      if (keys_[table_[i]] == key) return i;
    }
  }

  void place(std::size_t slot) {
    std::size_t i = home(keys_[slot]);
    while (table_[i] != kFree) i = next(i);
    table_[i] = static_cast<std::uint32_t>(slot);
  }

  // Deletion by backward shift: a later member of the probe run moves into
  // the hole when the hole lies between its home and its current position,
  // so lookups never meet tombstones.
  void erase_entry(std::size_t hole) {
    for (std::size_t j = next(hole); table_[j] != kFree; j = next(j)) {
      if (distance(hole, j) <= distance(home(keys_[table_[j]]), j)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = kFree;
  }

  void rebuild(std::size_t min_entries) {
    table_.assign(std::max<std::size_t>(16, std::bit_ceil(min_entries)),
                  kFree);
    shift_ = 64 - std::countr_zero(table_.size());
    for (std::size_t slot = 0; slot < keys_.size(); ++slot) place(slot);
  }

  std::size_t capacity_;
  std::vector<std::int64_t> keys_;    // by slot
  std::size_t oldest_ = 0;            // next slot to reuse once full
  std::vector<std::uint32_t> table_;  // slots; kFree marks an empty entry
  int shift_ = 64;
};

}  // namespace poi360
