// decmon::service -- sharded multi-session monitoring service (DESIGN.md
// §11).
//
// Everything below the MonitorSession facade monitors ONE session; a fleet
// serving real traffic keeps thousands in flight. MonitoringService
// multiplexes independent monitored sessions across a fixed pool of shard
// worker threads:
//
//   * Admission is a work-stealing queue: a session lands on its affinity
//     shard (id % num_shards, so a seeded workload always hashes the same
//     way), and an idle shard steals from the back of the most backlogged
//     peer, keeping every core busy under skewed cells.
//   * A shard owns everything mutable about the sessions it executes: the
//     SimRuntime, the monitors with their free lists and pooled frame
//     shells, and a shard-local catalog of MonitorSession handles warmed
//     from the shared immutable PropertyArtifact (registry + automaton +
//     compiled property) once per (property, n) per shard. Sessions NEVER
//     share mutable monitor state -- the only cross-shard sharing is the
//     immutable artifact behind the process-wide synthesis memo
//     (paper::shared_property), which hands out the same artifact on every
//     hit (a refcount bump, never a copy) and is guarded for concurrent
//     readers, so a property is synthesized once per fleet rather than once
//     per session.
//   * Outcomes are a pure function of the SessionSpec: placement, stealing
//     and shard count never change a verdict or a counter (the cross-shard
//     determinism test pins this against the 1-shard serial run).
//
// Stats aggregation: each shard keeps local counters plus HDR-style
// latency histograms (admission->verdict and admission->start); stats()
// merges them into one snapshot. Throughput is reported by the callers
// (tools/load_gen, the service.* bench suite) as completed sessions and
// events over their own wall clock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "decmon/core/properties.hpp"
#include "decmon/core/session.hpp"
#include "decmon/service/latency_histogram.hpp"

namespace decmon::service {

/// One monitored session: a paper cell workload (generated trace) run under
/// the deterministic simulator with decentralized monitors attached. The
/// outcome is a pure function of this spec.
struct SessionSpec {
  paper::Property property = paper::Property::kD;
  int num_processes = 3;
  std::uint64_t trace_seed = 1;
  double comm_mu = 3.0;
  bool comm_enabled = true;
  int internal_events = 25;
  SimConfig sim;
  MonitorOptions options;
  /// Preferred shard (-1 = id % num_shards). Affinity only places the
  /// session's queue entry; stealing may still run it elsewhere, and the
  /// outcome is identical either way.
  int affinity = -1;
};

using SessionId = std::uint64_t;

struct SessionOutcome {
  SessionId id = 0;
  int shard = -1;      ///< shard that executed the session
  bool stolen = false; ///< executed off its affinity shard
  bool ok = false;     ///< run completed (verdict.all_finished, no throw)
  /// The session tripped a configured memory bound (MonitorOverflow:
  /// view cap or history cap) -- an intentional outcome, not a failure.
  bool overflowed = false;
  std::string error;   ///< exception text when !ok
  RunResult result;
  double queue_ms = 0.0;   ///< admission -> execution start
  double latency_ms = 0.0; ///< admission -> verdict (histogram value)
};

struct ServiceConfig {
  int num_shards = 1;
  /// Idle shards steal queued sessions from backlogged peers.
  bool steal = true;
  /// Retain full per-session outcomes for outcomes(). Off, the service
  /// keeps only the scalar fields (id/shard/latency/verdict counters are
  /// still aggregated) and drops the per-monitor stats vectors -- the
  /// posture for open-loop runs with very large session counts.
  bool keep_outcomes = true;
};

/// Aggregated snapshot over all shards.
struct ServiceStats {
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  ///< !ok sessions (also counted in completed),
                             ///< excluding intentional cap overflows
  std::uint64_t overflowed = 0;  ///< sessions that hit a configured cap
  std::uint64_t stolen = 0;
  std::uint64_t program_events = 0;
  std::uint64_t monitor_messages = 0;
  std::uint64_t violations = 0;    ///< sessions whose verdict set has F
  std::uint64_t satisfactions = 0; ///< sessions whose verdict set has T
  LatencyHistogram latency_ns; ///< admission -> verdict
  LatencyHistogram queue_ns;   ///< admission -> execution start
  std::vector<std::uint64_t> per_shard_completed;
  std::vector<double> per_shard_busy_ms; ///< time spent executing sessions
};

class MonitoringService {
 public:
  explicit MonitoringService(ServiceConfig config = {});
  /// Drains the admitted work, then stops and joins the shard workers.
  ~MonitoringService();

  MonitoringService(const MonitoringService&) = delete;
  MonitoringService& operator=(const MonitoringService&) = delete;

  /// Admit one session. Thread-safe, non-blocking (the trace is generated
  /// and the session executed on the shard worker); returns immediately
  /// with the session's id. Ids are dense and assigned in admission order.
  SessionId submit(const SessionSpec& spec);

  /// Block until every session admitted so far has completed.
  void drain();

  /// Merged snapshot of all shard counters (thread-safe; a mid-run snapshot
  /// is a consistent point-in-time view).
  ServiceStats stats() const;

  /// Outcomes of all completed sessions, ordered by id. Call after drain();
  /// requires ServiceConfig::keep_outcomes.
  std::vector<SessionOutcome> outcomes() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Slot {
    SessionSpec spec;
    SessionOutcome outcome;
    Clock::time_point admitted_at;
    bool done = false;
  };

  /// Per-shard state. Queue and counters are guarded by the service mutex
  /// (held for queue pops and one stats update per completed session --
  /// nanoseconds against multi-millisecond session runs); `catalog` is
  /// touched only by the owning worker thread and needs no lock.
  struct Shard {
    std::deque<Slot*> queue;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t overflowed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t program_events = 0;
    std::uint64_t monitor_messages = 0;
    std::uint64_t violations = 0;
    std::uint64_t satisfactions = 0;
    LatencyHistogram latency_ns;
    LatencyHistogram queue_ns;
    double busy_ms = 0.0;
    /// (property, n) -> session handle, warmed once per shard from the
    /// shared immutable artifact (paper::shared_property): a refcount bump,
    /// no per-shard copy of compiled automata. Worker-private map; the
    /// artifact it points at is read-only everywhere.
    std::unordered_map<int, std::unique_ptr<MonitorSession>> catalog;
  };

  void worker(int shard_index);
  /// Pop work for shard `self` (own front first, then steal from the most
  /// backlogged peer's back). Caller holds mutex_.
  Slot* pop_locked(int self, bool* stolen);
  bool has_work_locked(int self) const;
  MonitorSession& session_for(Shard& shard, const SessionSpec& spec);

  ServiceConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers wait here for queue pushes
  std::condition_variable drain_cv_; ///< drain() waits here for completions
  std::deque<Slot> slots_; ///< session registry; deque: stable addresses
  std::uint64_t completed_ = 0;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
};

}  // namespace decmon::service
