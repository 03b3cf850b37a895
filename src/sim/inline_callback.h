// InlineCallback<N>: a move-only, type-erased `void()` callable that stores
// captures of up to N bytes inside the object itself.
//
// It is the continuation type of every hot path in the simulator: event slab
// slots (N = 96), FifoResource jobs, Link deliveries and Fabric deliveries
// (DESIGN.md §3c). Moving one never allocates; only a capture larger than N
// bytes (or over-aligned, or not nothrow-movable) spills to one heap
// allocation, which the owner counts via spilled().
//
// Copying is deliberate and explicit: Clone() (or the explicit copy
// constructor, which lambda captures reach) copies the stored callable when it
// is copy-constructible and aborts when it is move-only. A fault-injected
// duplicate is the one caller that needs two independent deliveries.

#ifndef SRC_SIM_INLINE_CALLBACK_H_
#define SRC_SIM_INLINE_CALLBACK_H_

#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace nadino {

template <size_t N>
class InlineCallback;

namespace internal {

// Dispatch table for one erased callable type. A null `relocate` or `destroy`
// means the stored bytes are trivially relocatable or trivially destructible;
// a null `clone` means the callable is move-only.
struct InlineCallbackOps {
  void (*invoke)(void* storage);
  void (*relocate)(void* dst, void* src);  // Move-constructs into dst, destroys src.
  void (*destroy)(void* storage);
  void (*clone)(void* dst, const void* src);
  bool on_heap;
};

template <typename Fn>
struct InlineStorageOps {
  static Fn* Get(void* storage) { return std::launder(reinterpret_cast<Fn*>(storage)); }
  static void Invoke(void* storage) { (*Get(storage))(); }
  static void Relocate(void* dst, void* src) {
    ::new (dst) Fn(std::move(*Get(src)));
    Get(src)->~Fn();
  }
  static void Destroy(void* storage) { Get(storage)->~Fn(); }
  static void Clone(void* dst, const void* src) {
    if constexpr (std::is_copy_constructible_v<Fn>) {
      ::new (dst) Fn(*std::launder(reinterpret_cast<const Fn*>(src)));
    }
  }
  inline static constexpr InlineCallbackOps kOps{
      &Invoke,
      std::is_trivially_copyable_v<Fn> ? nullptr : &Relocate,
      std::is_trivially_destructible_v<Fn> ? nullptr : &Destroy,
      std::is_copy_constructible_v<Fn> ? &Clone : nullptr,
      false};
};

template <typename Fn>
struct HeapStorageOps {
  static Fn* Get(const void* storage) {
    return *std::launder(reinterpret_cast<Fn* const*>(storage));
  }
  static void Invoke(void* storage) { (*Get(storage))(); }
  static void Destroy(void* storage) { delete Get(storage); }
  static void Clone(void* dst, const void* src) {
    if constexpr (std::is_copy_constructible_v<Fn>) {
      ::new (dst) Fn*(new Fn(*Get(src)));
    }
  }
  // The stored pointer relocates bitwise.
  inline static constexpr InlineCallbackOps kOps{
      &Invoke, nullptr, &Destroy, std::is_copy_constructible_v<Fn> ? &Clone : nullptr, true};
};

// Callables with an empty state that must map to an empty InlineCallback, so
// `Submit(t, nullptr)` and an empty std::function both mean "no callback".
template <typename T>
struct IsNullableCallable : std::is_pointer<T> {};
template <typename Sig>
struct IsNullableCallable<std::function<Sig>> : std::true_type {};
template <size_t M>
struct IsNullableCallable<InlineCallback<M>> : std::true_type {};

}  // namespace internal

template <size_t N>
class InlineCallback {
 public:
  static constexpr size_t kInlineBytes = N;

  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}

  // Implicit, like std::function: any `void()` callable converts.
  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineCallback> &&
                                        !std::is_same_v<Fn, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  InlineCallback(F&& f) {
    Emplace(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  // Explicit so that no pass-by-value or copy-initialisation copies a
  // continuation by accident; see Clone().
  explicit InlineCallback(const InlineCallback& other) {
    if (other.ops_ == nullptr) {
      return;
    }
    if (other.ops_->clone == nullptr) {
      assert(false && "Clone() of a move-only callable");
      std::abort();
    }
    other.ops_->clone(storage_, other.storage_);
    ops_ = other.ops_;
  }
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { Reset(); }

  // An independent copy of the stored callable (empty stays empty). Aborts
  // when the callable is move-only.
  InlineCallback Clone() const { return InlineCallback(*this); }

  // Stores `f` into an empty callback. Returns true when the capture spilled
  // to the heap (the Simulator counts event spills through this).
  template <typename F>
  bool Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "callbacks take no arguments");
    assert(ops_ == nullptr && "Emplace into an engaged callback");
    if constexpr (internal::IsNullableCallable<Fn>::value) {
      if (!f) {
        return false;
      }
    }
    if constexpr (sizeof(Fn) <= N && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &internal::InlineStorageOps<Fn>::kOps;
      return false;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &internal::HeapStorageOps<Fn>::kOps;
      return true;
    }
  }

  // Requires an engaged callback. The callable stays constructed after the
  // call; the destructor or Reset() releases it.
  void operator()() const { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // True when the stored callable lives on the heap.
  bool spilled() const noexcept { return ops_ != nullptr && ops_->on_heap; }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

 private:
  void MoveFrom(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      return;
    }
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, N);
    }
    other.ops_ = nullptr;
  }

  const internal::InlineCallbackOps* ops_ = nullptr;
  // Mutable so a const callback can run its callable, as std::function does.
  alignas(std::max_align_t) mutable unsigned char storage_[N];
};

}  // namespace nadino

#endif  // SRC_SIM_INLINE_CALLBACK_H_
