#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace poi360 {

/// A map from int64 ids to values for ids that are dense and mostly
/// increasing (a frame counter, RTP seqs): each id sits at slot `id mod n`
/// of a power-of-two ring of n slots, so a lookup is one index and one
/// compare. Inserting an id whose slot holds another id doubles the ring
/// until the two part, so no entry is dropped or moved out of its slot's
/// reach; the capacity tracks the widest span of held ids.
///
/// An optional cap (a power of two) stops the growth: at `cap` slots the
/// new id takes the slot instead. An id is then held iff it was inserted,
/// not erased, and no id inserted after it shares its residue mod `cap`;
/// for dense increasing ids that is the last `cap` ids.
///
/// An empty slot carries the id `kEmpty` (the lowest int64), so that id
/// cannot be inserted and is never found.
template <typename V>
class IdRing {
 public:
  IdRing() = default;

  /// Caps the ring at `cap` slots; throws unless `cap` is a power of two.
  explicit IdRing(std::size_t cap) : cap_(cap) {
    if (!std::has_single_bit(cap)) {
      throw std::invalid_argument("IdRing cap must be a power of two");
    }
  }

  /// Constructs a value from `args` under `id` unless `id` is present (as
  /// `std::map::try_emplace`). Returns the value under `id` and whether it
  /// was inserted.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(std::int64_t id, Args&&... args) {
    assert(id != kEmpty);
    if (slots_.empty()) slots_.resize(std::min(kInitialSlots, cap_));
    while (true) {
      Slot& slot = slot_of(id);
      if (slot.id == id) return {&slot.value, false};
      if (slot.id == kEmpty || slots_.size() == cap_) {
        if (slot.id == kEmpty) ++size_;
        slot = Slot{id, V(std::forward<Args>(args)...)};
        return {&slot.value, true};
      }
      grow();
    }
  }

  /// The value under `id`, or nullptr.
  V* find(std::int64_t id) {
    if (slots_.empty() || id == kEmpty) return nullptr;
    Slot& slot = slot_of(id);
    return slot.id == id ? &slot.value : nullptr;
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
  static constexpr std::int64_t kEmpty =
      std::numeric_limits<std::int64_t>::min();

  struct Slot {
    std::int64_t id = kEmpty;
    [[no_unique_address]] V value{};
  };

  Slot& slot_of(std::int64_t id) {
    return slots_[static_cast<std::uint64_t>(id) & (slots_.size() - 1)];
  }

  // Held ids in distinct slots mod n stay distinct mod 2n.
  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (Slot& slot : old) {
      if (slot.id != kEmpty) slot_of(slot.id) = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t cap_ = std::numeric_limits<std::size_t>::max();
};

}  // namespace poi360
