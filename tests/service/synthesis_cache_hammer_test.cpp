// Multi-threaded hammer for the paper synthesis cache (shared_property, the
// one admission path for paper properties).
//
// The sharded service warms every shard's catalog from this one process-
// wide memo, so hits must be safe from many threads at once (shared-lock
// lookups that bump a refcount) while misses insert and clear() swaps the
// whole table out from under them. The lifetime clause: an artifact handed
// out before a clear() must stay fully usable afterwards -- outstanding
// shared_ptrs keep it alive. Run under TSan this is the test that falsifies
// the locking; in a plain build it still checks the returned automata are
// complete, that a hit is the memoized artifact itself, and that the
// hit/miss counters add up.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "decmon/decmon.hpp"

namespace decmon {
namespace {

struct Key {
  paper::Property prop;
  int n;
};

const Key kKeys[] = {
    {paper::Property::kA, 3}, {paper::Property::kB, 3},
    {paper::Property::kC, 4}, {paper::Property::kD, 5},
    {paper::Property::kE, 4}, {paper::Property::kF, 3},
};

/// Exercise the automaton enough to catch a torn or shallow copy: walk the
/// dispatch table from the initial state over every registered letter.
void check_automaton(const MonitorAutomaton& m, int n) {
  ASSERT_GT(m.num_states(), 0);
  const AtomSet all = (AtomSet{1} << (2 * n)) - 1;
  int q = m.initial_state();
  for (AtomSet letter : {AtomSet{0}, all, AtomSet{1}, all >> 1}) {
    const auto next = m.step(q, letter);
    ASSERT_TRUE(next.has_value());
    q = *next;
  }
}

TEST(SynthesisCacheHammer, ConcurrentHitsMissesAndClears) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 300;

  paper::synthesis_cache_clear();
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &go, &failures] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kItersPerThread; ++i) {
        const Key& key = kKeys[(t + i) % std::size(kKeys)];
        const SharedProperty art = paper::shared_property(
            key.prop, key.n, paper::make_registry(key.n));
        const MonitorAutomaton& m = art->automaton();
        if (m.num_states() == 0 || !m.step(m.initial_state(), 0)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // One antagonist clearing the table mid-hammer: readers must never see a
  // dangling entry, and post-clear calls just become misses.
  threads.emplace_back([&go] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < 20; ++i) {
      paper::synthesis_cache_clear();
      std::this_thread::yield();
    }
  });
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // A hit hands out the memoized artifact itself, and mutating a
  // caller-owned copy of its automaton cannot affect what the cache serves.
  AtomRegistry reg = paper::make_registry(3);
  const SharedProperty first =
      paper::shared_property(paper::Property::kA, 3, reg);
  const SharedProperty hit =
      paper::shared_property(paper::Property::kA, 3, reg);
  EXPECT_EQ(hit.get(), first.get());
  const int states_before = first->automaton().num_states();
  MonitorAutomaton mine = first->automaton();
  mine.add_state(Verdict::kUnknown);
  const SharedProperty again =
      paper::shared_property(paper::Property::kA, 3, reg);
  EXPECT_EQ(again->automaton().num_states(), states_before);
}

TEST(SynthesisCacheHammer, CountersAccountForEveryCall) {
  paper::synthesis_cache_clear();
  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 100;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &go] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kItersPerThread; ++i) {
        const Key& key = kKeys[(t + i) % std::size(kKeys)];
        const SharedProperty art = paper::shared_property(
            key.prop, key.n, paper::make_registry(key.n));
        check_automaton(art->automaton(), key.n);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  // No clear() ran, so every call was either a hit or a miss; misses can
  // exceed the key count (racing builders both count a miss) but stay
  // bounded by the thread count per key.
  const paper::SynthesisCacheStats stats = paper::synthesis_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  EXPECT_GE(stats.misses, std::size(kKeys));
  EXPECT_LE(stats.misses,
            static_cast<std::uint64_t>(kThreads) * std::size(kKeys));
  EXPECT_GT(stats.hits, 0u);
}

TEST(SynthesisCacheHammer, ClearNeverInvalidatesOutstandingArtifacts) {
  // The shared-posture clear() race: threads admit via shared_property and
  // keep USING their artifacts while an antagonist clears the memo in a
  // loop. A cleared memo only drops its own references -- every
  // outstanding shared_ptr must keep its artifact (registry + automaton +
  // compiled property) fully alive.
  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 150;
  paper::synthesis_cache_clear();
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &go, &failures] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::vector<SharedProperty> held;
      for (int i = 0; i < kItersPerThread; ++i) {
        const Key& key = kKeys[(t + i) % std::size(kKeys)];
        AtomRegistry reg = paper::make_registry(key.n);
        SharedProperty art = paper::shared_property(key.prop, key.n, reg);
        held.push_back(art);  // outlive many antagonist clears
        // Touch every layer of the artifact, including entries admitted
        // dozens of clears ago.
        const SharedProperty& old = held[held.size() / 2];
        if (old->property().num_processes() < 2 ||
            !old->automaton().step(old->automaton().initial_state(), 0) ||
            old->registry().num_processes() < 2) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&go, &stop] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!stop.load(std::memory_order_acquire)) {
      paper::synthesis_cache_clear();
      std::this_thread::yield();
    }
  });
  go.store(true, std::memory_order_release);
  for (int t = 0; t < kThreads; ++t) threads[static_cast<std::size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace decmon
