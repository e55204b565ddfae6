// The four benchmark workloads and the metrics each run reports. See
// perfbench/README.md for why each workload exists and which layer each
// metric belongs to.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SessionResult;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Self-tests only: alters each closed-loop session's result before it is
  /// checked, to prove that the checks catch a wrong verdict.
  std::function<void(SessionResult&)> tamper;
};

struct Report {
  std::uint64_t attempted = 0;  ///< sessions run
  std::uint64_t failed = 0;     ///< sessions that threw, hung or mis-verdicted
  std::vector<std::string> failures;  ///< the first few reasons
  std::map<std::string, double> metrics;
  double offered_rate = 0.0;  ///< sessions/s (open-loop workload only)
};

/// Workload names, in the order the benchmark documents them.
std::vector<std::string> workload_names();

/// Run `options.workload` for `options.seconds` of measured time. Untraced
/// runs fill the end-to-end metrics, traced runs the per-layer metrics.
/// Throws std::invalid_argument for an unknown workload.
Report run_workload(const RunOptions& options);

/// Set-up of a fresh process: first admission of the workload's properties
/// plus construction of its runtime or service, in seconds.
double measure_setup(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
