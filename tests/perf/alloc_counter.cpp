#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace decmon::alloc_counter {

std::atomic<std::uint64_t> allocs{0};
std::atomic<bool> counting{false};

}  // namespace decmon::alloc_counter

#ifndef DECMON_ALLOC_TEST_DISABLED

void* operator new(std::size_t size) {
  using decmon::alloc_counter::allocs;
  using decmon::alloc_counter::counting;
  if (counting.load(std::memory_order_relaxed)) {
    allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // DECMON_ALLOC_TEST_DISABLED
