#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace poi360::sim {

/// Move-only type-erased `void()` callable with small-buffer optimization —
/// the event engine's payload type.
///
/// A session schedules millions of events (the 4 ms LTE grant tick alone is
/// 75k firings in a 5-minute run), and with `std::function` every capture
/// beyond libstdc++'s 16-byte SBO is a heap allocation. Monotone packet and
/// frame streams ride `FifoLane`s and build no callback, but an item that
/// falls back from its lane to the heap does — a reordered RTP packet, a
/// display whose time moved backwards. The inline buffer here is sized so
/// that those captures (`[this, RtpPacket, SimTime]` at 72 bytes) stay
/// inline; rare oversized or potentially-throwing-move functors fall back
/// to the heap.
///
/// Unlike `std::function`, the target only needs to be move-constructible,
/// and invoking an empty callback is undefined (the engine never does).
class InlineCallback {
 public:
  /// Covers `[this, RtpPacket, SimTime]` (72 bytes) with alignment slack.
  static constexpr std::size_t kInlineBytes = 80;

  InlineCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); };
      manage_ = [](Op op, void* self, void* dst) {
        Fn* fn = std::launder(reinterpret_cast<Fn*>(self));
        if (op == Op::kMoveTo) ::new (dst) Fn(std::move(*fn));
        fn->~Fn();
      };
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); };
      manage_ = [](Op op, void* self, void* dst) {
        Fn** slot = std::launder(reinterpret_cast<Fn**>(self));
        if (op == Op::kMoveTo) {
          ::new (dst) Fn*(*slot);
        } else {
          delete *slot;
        }
      };
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { steal(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  enum class Op { kMoveTo, kDestroy };
  using Invoke = void (*)(void*);
  using Manage = void (*)(Op, void* self, void* dst);

  void steal(InlineCallback& other) noexcept {
    if (other.invoke_) {
      other.manage_(Op::kMoveTo, other.storage_, storage_);
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  void reset() noexcept {
    if (invoke_) {
      manage_(Op::kDestroy, storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace poi360::sim
