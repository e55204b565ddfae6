// Shared test helper: random computations over n processes with boolean
// propositions p and q per process, plus the standard registry, a suite
// of representative LTL properties, and their admission as artifacts.
#pragma once

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/lattice/computation.hpp"
#include "decmon/ltl/atoms.hpp"
#include "decmon/ltl/parser.hpp"
#include "decmon/monitor/property_registry.hpp"

namespace decmon::testing {

/// Registry with variables p, q per process, and the boolean atoms
/// registered in a fixed order: P0.p, P0.q, P1.p, P1.q, ...
inline AtomRegistry standard_registry(int n) {
  AtomRegistry reg(n);
  for (int p = 0; p < n; ++p) {
    const int vp = reg.declare_variable(p, "p");
    const int vq = reg.declare_variable(p, "q");
    reg.boolean_atom(p, vp);
    reg.boolean_atom(p, vq);
  }
  return reg;
}

/// Random computation: `events_per_proc` events per process, a mix of
/// internal flips and matched send/receive pairs (FIFO per channel).
inline Computation random_computation(std::mt19937_64& rng, int n,
                                      const AtomRegistry& reg,
                                      int events_per_proc,
                                      int message_percent = 25) {
  ComputationBuilder b(n, &reg);
  struct Pending {
    int handle;
    int sender;
  };
  std::vector<Pending> pending;
  std::vector<int> remaining(static_cast<std::size_t>(n), events_per_proc);
  int total = n * events_per_proc;
  while (total > 0) {
    // Pick a process with remaining budget.
    int p = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    while (remaining[static_cast<std::size_t>(p)] == 0) p = (p + 1) % n;
    const int roll = static_cast<int>(rng() % 100);
    if (n > 1 && roll < message_percent / 2) {
      pending.push_back({b.send(p), p});
    } else if (!pending.empty() && roll < message_percent) {
      // Deliver the oldest message to a random other process (FIFO-ish).
      Pending m = pending.front();
      pending.erase(pending.begin());
      int to = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
      if (to == m.sender) to = (to + 1) % n;
      if (remaining[static_cast<std::size_t>(to)] > 0) {
        b.receive(to, m.handle);
        --remaining[static_cast<std::size_t>(to)];
        --total;
        continue;
      }
      pending.insert(pending.begin(), m);  // receiver exhausted; retry later
      b.internal(p, {static_cast<std::int64_t>(rng() % 2),
                     static_cast<std::int64_t>(rng() % 2)});
    } else {
      b.internal(p, {static_cast<std::int64_t>(rng() % 2),
                     static_cast<std::int64_t>(rng() % 2)});
    }
    --remaining[static_cast<std::size_t>(p)];
    --total;
  }
  return b.build();
}

/// Representative properties over 2 processes (safety, liveness, until,
/// response, nested).
inline std::vector<std::string> property_suite_2() {
  return {
      "F(P0.p && P1.p)",
      "G(P0.p || P1.p)",
      "(P0.p) U (P1.p)",
      "G((P0.p) -> F(P1.p))",
      "G((P0.p && P1.p) U (P0.q && P1.q))",
      "G((P0.p) U (P1.p))",
      "F(P0.p && P0.q && P1.p && P1.q)",
      "X X (P0.p && P1.q)",
      "(!P0.q) U (P1.p)",
      "G(!(P0.p && P1.p))",
  };
}

/// Representative properties over 3 processes.
inline std::vector<std::string> property_suite_3() {
  return {
      "F(P0.p && P1.p && P2.p)",
      "G((P0.p) U (P1.p && P2.p))",
      "G((P0.p) -> F(P1.p && P2.q))",
      "G(!(P0.p && P1.p && P2.p))",
  };
}

/// `ltl` parsed over `reg` (which may gain comparison atoms), synthesized,
/// and admitted as a shared artifact holding its own copy of `reg`.
inline SharedProperty admit(AtomRegistry& reg, const std::string& ltl,
                            const SynthesisOptions& options = {}) {
  MonitorAutomaton m = synthesize_monitor(parse_ltl(ltl, reg), options);
  return std::make_shared<const PropertyArtifact>(reg, std::move(m));
}

}  // namespace decmon::testing
