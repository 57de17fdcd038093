// Fifo<T>: the simulator's one queue type (DESIGN.md §8).
//
// A power-of-two ring of T. It holds no storage until the first push, doubles
// when a push finds it full and never shrinks, so a queue costs memory for the
// most it ever held at once — not for a configured bound, and not for the
// fixed-size blocks std::deque allocates even when empty.
//
// A bounded Fifo (constructed with a max_size) keeps that bound as a logical
// capacity: full() turns true at max_size elements and the caller refuses
// the push (drop-on-full context queues, paper §3.1). The physical backing
// still grows only as far as occupancy does.
//
// Reference stability: growth moves the elements, which std::deque::push_back
// never does. A push may invalidate every reference and pointer into the
// queue, so never hold one across a push to the same queue — move the element
// out (or copy it) first.
#ifndef SRC_UTIL_FIFO_H_
#define SRC_UTIL_FIFO_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <utility>

#include "src/util/logging.h"

namespace tas {

template <typename T>
class Fifo {
 public:
  // First allocation, in elements.
  static constexpr size_t kMinCapacity = 8;

  Fifo() = default;
  explicit Fifo(size_t max_size) : max_size_(max_size) {}
  Fifo(Fifo&& other) noexcept { Take(other); }
  Fifo& operator=(Fifo&& other) noexcept {
    if (this != &other) {
      Release();
      Take(other);
    }
    return *this;
  }
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() { Release(); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // At the logical capacity (never, unless constructed with a bound).
  bool full() const { return size_ >= max_size_; }
  // Physical slots backing the ring right now (0 before the first push).
  size_t capacity() const { return cap_; }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  // The i-th element from the front (0 = front, size() - 1 = back).
  T& operator[](size_t i) { return slots_[(head_ + i) & (cap_ - 1)]; }
  const T& operator[](size_t i) const { return slots_[(head_ + i) & (cap_ - 1)]; }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    TAS_DCHECK(size_ < max_size_);
    if (size_ == cap_) {
      return GrowAndEmplace(std::forward<Args>(args)...);
    }
    T* slot = slots_ + ((head_ + size_) & (cap_ - 1));
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_front() {
    TAS_DCHECK(size_ > 0);
    std::destroy_at(slots_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  // Destroys every element; the storage stays.
  void clear() {
    while (size_ > 0) {
      pop_front();
    }
    head_ = 0;
  }

 private:
  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  // The new element is built in the new array before the old ones move, so
  // an argument that refers into this queue stays valid for the build.
  template <typename... Args>
  T& GrowAndEmplace(Args&&... args) {
    const size_t cap = cap_ == 0 ? kMinCapacity : cap_ * 2;
    T* fresh = std::allocator<T>().allocate(cap);
    T* slot = fresh + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    for (size_t i = 0; i < size_; ++i) {
      T* old = slots_ + ((head_ + i) & (cap_ - 1));
      ::new (static_cast<void*>(fresh + i)) T(std::move(*old));
      std::destroy_at(old);
    }
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, cap_);
    }
    slots_ = fresh;
    cap_ = cap;
    head_ = 0;
    ++size_;
    return *slot;
  }

  void Release() {
    clear();
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, cap_);
      slots_ = nullptr;
      cap_ = 0;
    }
  }

  void Take(Fifo& other) {
    slots_ = std::exchange(other.slots_, nullptr);
    cap_ = std::exchange(other.cap_, 0);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    max_size_ = other.max_size_;
  }

  T* slots_ = nullptr;
  size_t cap_ = 0;   // Physical slots: 0 or a power of two.
  size_t head_ = 0;  // Slot of the front element.
  size_t size_ = 0;
  size_t max_size_ = kUnbounded;
};

}  // namespace tas

#endif  // SRC_UTIL_FIFO_H_
