// Shared admission: a property admitted twice through the synthesis memo is
// the same immutable artifact both times, and sessions built from it alias
// one CompiledProperty instead of copying the automaton and dispatch tables.
// (Suite name kept from when admissions could also be served by checked-in
// generated tables; the zero-copy contract outlived that path.)
#include <gtest/gtest.h>

#include "decmon/decmon.hpp"

namespace decmon {
namespace {

TEST(GeneratedDifferential, SharedAdmissionIsZeroCopy) {
  paper::synthesis_cache_clear();
  AtomRegistry reg = paper::make_registry(3);
  SharedProperty first = paper::shared_property(paper::Property::kD, 3, reg);
  SharedProperty second = paper::shared_property(paper::Property::kD, 3, reg);
  // Same artifact object, not a copy -- admission is a refcount bump.
  EXPECT_EQ(first.get(), second.get());

  MonitorSession a(first);
  MonitorSession b(second);
  EXPECT_EQ(&a.property(), &b.property());
  const auto stats = paper::synthesis_cache_stats();
  EXPECT_GE(stats.hits, 1u);
}

}  // namespace
}  // namespace decmon
