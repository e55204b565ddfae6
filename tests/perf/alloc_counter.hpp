// Global operator new replacement that counts heap allocations, for the
// allocation-budget tests. The replacement lives in its own translation
// unit (alloc_counter.cpp): defined next to the tests, the compiler would
// inline its malloc/free bodies into standard-library code that pairs them
// with ::operator new and ::operator delete, and flag the mix.
#pragma once

#include <atomic>
#include <cstdint>

// Sanitizer builds own the allocator; interposing operator new there both
// skews the count and trips ASan's alloc/dealloc matching, so the hook and
// the assertions are compiled out.
#if defined(__SANITIZE_ADDRESS__)
#define DECMON_ALLOC_TEST_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DECMON_ALLOC_TEST_DISABLED 1
#endif
#endif

namespace decmon::alloc_counter {

/// Allocations counted while `counting` is set.
extern std::atomic<std::uint64_t> allocs;
extern std::atomic<bool> counting;

}  // namespace decmon::alloc_counter
