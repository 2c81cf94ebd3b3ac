#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace poi360 {

/// A map from int64 ids to values for ids that are dense and mostly
/// increasing (a frame counter): each live id sits at slot `id mod
/// capacity` of a power-of-two ring, so a lookup is one index and one
/// compare. Inserting an id whose slot still holds another live id doubles
/// the ring until the two part, so no entry is ever dropped or moved out of
/// its slot's reach; the capacity tracks the widest span of live ids.
template <typename V>
class IdRing {
 public:
  /// Adds `value` under `id` unless `id` is present (as
  /// `unordered_map::emplace`).
  void emplace(std::int64_t id, V value) {
    if (slots_.empty()) slots_.resize(kInitialSlots);
    while (true) {
      Slot& slot = slot_of(id);
      if (!slot.live) {
        slot = Slot{id, true, std::move(value)};
        ++size_;
        return;
      }
      if (slot.id == id) return;
      grow();
    }
  }

  /// The value under `id`, or nullptr.
  V* find(std::int64_t id) {
    if (slots_.empty()) return nullptr;
    Slot& slot = slot_of(id);
    return slot.live && slot.id == id ? &slot.value : nullptr;
  }

  /// Removes `id` and releases its value; false when `id` is missing.
  bool erase(std::int64_t id) {
    if (find(id) == nullptr) return false;
    slot_of(id) = Slot{};
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::size_t kInitialSlots = 64;

  struct Slot {
    std::int64_t id = 0;
    bool live = false;
    V value{};
  };

  Slot& slot_of(std::int64_t id) {
    return slots_[static_cast<std::uint64_t>(id) & (slots_.size() - 1)];
  }

  // Live ids in distinct slots mod n stay distinct mod 2n.
  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (Slot& slot : old) {
      if (slot.live) slot_of(slot.id) = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace poi360
