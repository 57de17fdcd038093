// EventFn: a move-only callable for simulator events with small-buffer
// inline capture storage.
//
// std::function costs a heap allocation for any capture larger than two
// pointers and requires copyable captures, which forced packet-delivery
// events to smuggle PacketPtrs through shared_ptr holders. EventFn stores
// captures up to kInlineBytes directly inside the event node (sized for the
// largest hot-path closure: this + queue index + a 16-byte pooled PacketPtr)
// and accepts move-only captures, so in-flight packets are owned by the
// event itself. Oversized captures spill to the heap (cold paths only;
// heap_allocated() exposes the spill for tests).
#ifndef SRC_SIM_EVENT_FN_H_
#define SRC_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tas {

class EventFn {
 public:
  static constexpr size_t kInlineBytes = 48;

  EventFn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& fn) {  // NOLINT: implicit by design, mirrors std::function.
    Construct<D>(std::forward<F>(fn));
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  // Replaces the stored callable with `fn`, built directly in this object's
  // storage: no temporary EventFn and no relocation through ops_->move.
  template <typename F, typename D = std::decay_t<F>>
  void Emplace(F&& fn) {
    static_assert(!std::is_same_v<D, EventFn> && std::is_invocable_r_v<void, D&>,
                  "Emplace takes a void() callable");
    reset();
    Construct<D>(std::forward<F>(fn));
  }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }
  // True when the capture spilled to the heap instead of the inline buffer.
  bool heap_allocated() const noexcept { return ops_ != nullptr && ops_->heap; }

  // Destroys the stored callable (releasing captured resources, e.g. pooled
  // packets) and returns to the empty state.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*move)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;  // Null: nothing to destroy.
    bool heap;
  };

  // Inline storage also requires nothrow move: event nodes are recycled and
  // the slab must be able to shuffle closures without exception paths.
  template <typename D>
  static constexpr bool kStoredInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static void DestroyInline(void* s) noexcept {
    std::launder(reinterpret_cast<D*>(s))->~D();
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
      [](void* dst, void* src) noexcept {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      // Most event closures capture only pointers and indices; skipping
      // their no-op destructor saves an indirect call per event.
      std::is_trivially_destructible_v<D> ? nullptr : &DestroyInline<D>,
      false,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**reinterpret_cast<D**>(s))(); },
      [](void* dst, void* src) noexcept {
        *reinterpret_cast<D**>(dst) = *reinterpret_cast<D**>(src);
      },
      [](void* s) noexcept { delete *reinterpret_cast<D**>(s); },
      true,
  };

  template <typename D, typename F>
  void Construct(F&& fn) {
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(static_cast<void*>(storage_)) = new D(std::forward<F>(fn));
      ops_ = &kHeapOps<D>;
    }
  }

  void MoveFrom(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->move(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace tas

#endif  // SRC_SIM_EVENT_FN_H_
