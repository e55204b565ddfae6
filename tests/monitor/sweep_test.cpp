// Parameterized end-to-end sweeps over the paper's experimental grid:
// property x process-count x communication frequency. Each cell runs the
// full simulated system and checks the correctness contract against the
// lattice oracle (where tractable) plus structural invariants.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "decmon/core/properties.hpp"
#include "decmon/core/session.hpp"

namespace decmon {
namespace {

using SweepParam = std::tuple<paper::Property, int /*n*/, double /*commMu*/>;

// The correctness contract (DESIGN.md §2): the monitors report every oracle
// verdict, and every definite verdict they report is the oracle's.
void expect_contract(const std::set<Verdict>& oracle,
                     const std::set<Verdict>& monitor) {
  for (Verdict v : oracle) {
    EXPECT_TRUE(monitor.count(v)) << "oracle verdict " << to_string(v)
                                  << " missed";
  }
  for (Verdict v : monitor) {
    if (v != Verdict::kUnknown) {
      EXPECT_TRUE(oracle.count(v)) << "unsound " << to_string(v);
    }
  }
}

class ExperimentSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ExperimentSweep, ContractAndInvariants) {
  const auto [prop, n, comm_mu] = GetParam();
  MonitorSession session(
      paper::shared_property(prop, n, paper::make_registry(n)));

  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    TraceParams params = paper::experiment_params(prop, n, seed, comm_mu,
                                                  comm_mu > 0.0,
                                                  /*internal_events=*/8);
    SystemTrace trace = generate_trace(params);
    force_final_all_true(trace);
    RunResult r = session.run(trace);

    // Liveness of the monitoring layer itself (Theorem 1).
    EXPECT_TRUE(r.verdict.all_finished);
    // Basic accounting.
    EXPECT_EQ(r.program_events,
              static_cast<std::uint64_t>(trace.total_events()));
    EXPECT_GT(r.total_global_views, 0u);

    // Oracle contract, when the lattice fits.
    try {
      OracleResult oracle = session.oracle(trace, SimConfig{},
                                           std::size_t{1} << 18);
      SCOPED_TRACE(paper::name(prop) + "(" + std::to_string(n) +
                   ") commMu=" + std::to_string(comm_mu) +
                   " seed=" + std::to_string(seed));
      expect_contract(oracle.verdicts, r.verdict.verdicts);
    } catch (const std::length_error&) {
      // Lattice too wide for ground truth; the structural checks above
      // still ran.
    }
  }
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [prop, n, comm_mu] = info.param;
  std::string comm = comm_mu > 0.0
                         ? "comm" + std::to_string(static_cast<int>(comm_mu))
                         : "nocomm";
  return paper::name(prop) + std::to_string(n) + "_" + comm;
}

INSTANTIATE_TEST_SUITE_P(
    PropertyGrid, ExperimentSweep,
    ::testing::Combine(::testing::Values(paper::Property::kA,
                                         paper::Property::kB,
                                         paper::Property::kC,
                                         paper::Property::kD,
                                         paper::Property::kE,
                                         paper::Property::kF),
                       ::testing::Values(2, 3, 4),
                       ::testing::Values(3.0)),
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    CommFrequencyGrid, ExperimentSweep,
    ::testing::Combine(::testing::Values(paper::Property::kC),
                       ::testing::Values(4),
                       ::testing::Values(3.0, 6.0, 9.0, 15.0, 0.0)),
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    FiveProcesses, ExperimentSweep,
    ::testing::Combine(::testing::Values(paper::Property::kB,
                                         paper::Property::kD),
                       ::testing::Values(5),
                       ::testing::Values(3.0)),
    sweep_name);

// The thesis grid of Chapter 5: A-F x n in {3,4,5} x trace seeds 2015-2022,
// 25 internal events, Comm ~ N(3, 1), batched under kTransit. Every session
// keeps the contract against the full lattice oracle, and the number whose
// verdict set equals the oracle's exactly may not fall below the recorded
// floor (the monitors add '?' for stale views; DESIGN.md §2).
TEST(ThesisGrid, ContractHoldsAndExactSessionsKeepTheirFloor) {
  constexpr int kExactFloor = 21;
  int sessions = 0;
  int exact = 0;
  for (paper::Property prop : paper::kAllProperties) {
    for (int n = 3; n <= 5; ++n) {
      MonitorSession session(
          paper::shared_property(prop, n, paper::make_registry(n)));
      for (std::uint64_t seed = 2015; seed <= 2022; ++seed) {
        SCOPED_TRACE(paper::name(prop) + " n=" + std::to_string(n) +
                     " seed=" + std::to_string(seed));
        SystemTrace trace =
            generate_trace(paper::experiment_params(prop, n, seed, 3.0));
        force_final_all_true(trace);
        SimConfig sim;
        sim.seed = seed;
        sim.coalesce = CoalesceMode::kTransit;
        const RunResult r = session.run(trace, sim);
        const OracleResult oracle = session.oracle(trace, sim);
        ASSERT_TRUE(r.verdict.all_finished);
        expect_contract(oracle.verdicts, r.verdict.verdicts);
        ++sessions;
        if (r.verdict.verdicts == oracle.verdicts) ++exact;
      }
    }
  }
  EXPECT_EQ(sessions, 144);
  EXPECT_GE(exact, kExactFloor);
  RecordProperty("exact_sessions", exact);
}

}  // namespace
}  // namespace decmon
