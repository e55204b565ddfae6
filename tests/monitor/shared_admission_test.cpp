// Shared admission: a property admitted twice through the synthesis memo is
// the same immutable artifact both times, and sessions built from it alias
// one CompiledProperty instead of copying the automaton and dispatch tables.
// (Suite name kept from when admissions could also be served by checked-in
// generated tables; the zero-copy contract outlived that path.) A monitor's
// property handle owns its artifact: once every caller reference is gone
// the monitor alone keeps it alive, and destroying the monitor frees it.
#include <gtest/gtest.h>

#include <memory>

#include "../common/random_computation.hpp"
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

/// Both processes raise p once: F(P0.p && P1.p) holds at the top cut.
struct LifetimeCase {
  AtomRegistry reg = paper::make_registry(2);
  Computation comp;
  std::vector<AtomSet> letters;

  LifetimeCase() {
    ComputationBuilder b(2, &reg);
    b.internal(0, {1, 0});
    b.internal(1, {1, 0});
    comp = b.build();
    for (int p = 0; p < 2; ++p) letters.push_back(comp.event(p, 0).letter);
  }

  SharedProperty artifact() { return testing::admit(reg, "F(P0.p && P1.p)"); }
};

TEST(PropertyLifetime, DecentralizedMonitorOwnsItsArtifact) {
  LifetimeCase c;
  SharedProperty art = c.artifact();
  const std::weak_ptr<const PropertyArtifact> watch = art;
  ReplayRuntime runtime;
  auto monitors = std::make_unique<DecentralizedMonitor>(
      property_handle(art), &runtime, c.letters);
  art.reset();  // the monitor now holds the only reference
  ASSERT_FALSE(watch.expired());

  runtime.run(c.comp, *monitors, /*seed=*/3);
  EXPECT_TRUE(monitors->all_finished());
  EXPECT_TRUE(monitors->result().satisfied());
  EXPECT_FALSE(watch.expired());

  monitors.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(PropertyLifetime, CentralizedMonitorOwnsItsArtifact) {
  LifetimeCase c;
  SharedProperty art = c.artifact();
  const std::weak_ptr<const PropertyArtifact> watch = art;
  ReplayRuntime runtime;
  auto central = std::make_unique<CentralizedMonitor>(property_handle(art),
                                                      &runtime, c.letters);
  art.reset();
  ASSERT_FALSE(watch.expired());

  runtime.run(c.comp, *central, /*seed=*/3);
  EXPECT_TRUE(central->finished());
  EXPECT_EQ(central->verdicts(), std::set<Verdict>{Verdict::kTrue});
  EXPECT_FALSE(watch.expired());

  central.reset();
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace decmon
