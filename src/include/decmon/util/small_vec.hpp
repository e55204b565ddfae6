// Small-buffer vector for the token hot path.
//
// The monitoring layer's per-process arrays (vector clocks, cuts, believed
// letters, conjunct flags) are sized by the process count n, which is tiny
// in every deployment the paper evaluates (n <= 8 covers the whole bench
// grid). SmallVec stores up to N elements inline, so copying, forking and
// parking these arrays never touches the heap; wider systems spill to a
// heap block transparently and keep that capacity across reuse (free-list
// recycling relies on this: shrinking never releases storage).
//
// Restricted to trivially copyable, trivially destructible element types:
// that restriction is what makes growth a memcpy and destruction free.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <stdexcept>
#include <type_traits>

namespace decmon {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "SmallVec needs at least one inline slot");
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec elements must be trivially copyable");
  static_assert(std::is_trivially_destructible_v<T>,
                "SmallVec elements must be trivially destructible");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;
  explicit SmallVec(std::size_t n) { resize(n); }
  SmallVec(std::size_t n, const T& value) { assign(n, value); }
  SmallVec(std::initializer_list<T> init) {
    reserve(init.size());
    T* d = data();
    for (const T& v : init) d[size_++] = v;
  }

  SmallVec(const SmallVec& other) { copy_from(other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      size_ = 0;
      copy_from(other);
    }
    return *this;
  }

  SmallVec(SmallVec&& other) noexcept { steal(other); }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release();
      cap_ = static_cast<std::uint32_t>(N);
      steal(other);
    }
    return *this;
  }

  ~SmallVec() { release(); }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }

  T* data() {
    return cap_ == N ? reinterpret_cast<T*>(inline_) : heap_;
  }
  const T* data() const {
    return cap_ == N ? reinterpret_cast<const T*>(inline_) : heap_;
  }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data()[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data()[i];
  }

  T& at(std::size_t i) {
    if (i >= size_) throw std::out_of_range("SmallVec::at");
    return data()[i];
  }
  const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("SmallVec::at");
    return data()[i];
  }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  /// Grow capacity; never shrinks, never invalidates on no-op.
  void reserve(std::size_t n) {
    if (n <= cap_) return;
    std::size_t newcap = static_cast<std::size_t>(cap_) * 2;
    if (newcap < n) newcap = n;
    T* p = new T[newcap];
    if (size_ != 0) std::memcpy(p, data(), size_ * sizeof(T));
    release();
    heap_ = p;
    cap_ = static_cast<std::uint32_t>(newcap);
  }

  /// Resize; new elements are value-initialized. Capacity is retained when
  /// shrinking (free-list recycling depends on this).
  void resize(std::size_t n) {
    reserve(n);
    T* d = data();
    for (std::size_t i = size_; i < n; ++i) d[i] = T{};
    size_ = static_cast<std::uint32_t>(n);
  }

  void assign(std::size_t n, const T& value) {
    reserve(n);
    T* d = data();
    for (std::size_t i = 0; i < n; ++i) d[i] = value;
    size_ = static_cast<std::uint32_t>(n);
  }

  void push_back(const T& value) {
    reserve(size_ + 1);
    data()[size_++] = value;
  }

  void clear() { size_ = 0; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    if (a.size_ != b.size_) return false;
    const T* pa = a.data();
    const T* pb = b.data();
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(pa[i] == pb[i])) return false;
    }
    return true;
  }
  friend bool operator!=(const SmallVec& a, const SmallVec& b) {
    return !(a == b);
  }

 private:
  void copy_from(const SmallVec& other) {
    // An inline vector holds at most N elements. Saying so in the count,
    // and taking the inline branch only for n <= N, lets flow analysis see
    // that no copy reads or writes past an inline buffer.
    const std::size_t n =
        other.cap_ == N ? std::min<std::size_t>(other.size_, N) : other.size_;
    if (n != 0) {
      if (cap_ == N && n <= N) {
        std::memcpy(inline_, other.data(), n * sizeof(T));
      } else {
        reserve(n);
        std::memcpy(heap_, other.data(), n * sizeof(T));
      }
    }
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Move payload out of `other`; assumes *this owns no heap block.
  void steal(SmallVec& other) noexcept {
    if (other.cap_ != N) {  // steal the heap block
      heap_ = other.heap_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.cap_ = static_cast<std::uint32_t>(N);
      other.size_ = 0;
    } else {
      if (other.size_ != 0) {
        std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      }
      cap_ = static_cast<std::uint32_t>(N);
      size_ = other.size_;
      other.size_ = 0;
    }
  }

  void release() {
    if (cap_ != N) delete[] heap_;
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = static_cast<std::uint32_t>(N);
  // heap_ starts null: it is read only when cap_ != N, but an inline
  // vector that is moved from or destroyed must not look uninitialized to
  // flow analysis that cannot tie the two together.
  union {
    alignas(T) unsigned char inline_[N * sizeof(T)];
    T* heap_ = nullptr;
  };
};

}  // namespace decmon
