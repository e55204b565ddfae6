// load_gen: open-loop load generator for the sharded monitoring service
// (DESIGN.md §11).
//
// Drives independent monitored sessions (paper cells A-F over the seeded
// trace generator) into a MonitoringService at a configured arrival rate
// and reports steady-state throughput plus verdict-latency percentiles.
// Open loop: arrival times are drawn up front (exponential inter-arrivals,
// i.e. a Poisson process, seeded and replayable) and submissions happen on
// that schedule regardless of completions -- when the fleet cannot keep
// up, the backlog shows up as queue latency instead of silently throttling
// the offered load (the coordinated-omission trap a closed loop falls
// into).
//
//   load_gen [--sessions N] [--shards K] [--rate R] [--props A,D,F]
//            [--n PROCS] [--comm-mu MU] [--no-comm] [--internal-events E]
//            [--seed S] [--no-steal] [--streaming] [--gc-interval G]
//            [--max-views V] [--max-rss-mb B] [--quick] [--json FILE]
//
//   --rate R        offered load in sessions/second; 0 = saturation (submit
//                   everything immediately; measures capacity, default)
//   --props         comma-separated subset of A-F, assigned round-robin
//   --streaming     run sessions in the bounded-memory posture (history GC,
//                   DESIGN.md §12) with a sweep every 64 local events;
//                   --gc-interval tunes the cadence
//   --max-views V   per-monitor view cap; sessions that hit it count as
//                   "overflowed", not failed
//   --max-rss-mb B  assert the process's peak RSS (VmHWM) stays under B
//   --retry-failed N  resubmit failed sessions (never cap overflows) up to N
//                   rounds with capped exponential backoff between rounds;
//                   the JSON report then carries "retried" (resubmissions)
//                   and "recovered" (failed sessions whose retry succeeded)
//   --quick         CI smoke defaults: 64 sessions, 2 shards, A+D at n=3,
//                   rate 400/s
//   --json          also emit a flat "name": number JSON report
//
// Exit status: 0 all sessions completed and drained (cap overflows are
// intentional and stay 0; with --retry-failed, transient failures that
// recover on a retry round count as completed), 1 any session failed
// unrecovered or the RSS budget was exceeded, 2 usage errors.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "decmon/decmon.hpp"

namespace {

using namespace decmon;
using Clock = std::chrono::steady_clock;

struct Options {
  int sessions = 512;
  int shards = 4;
  double rate = 0.0;  ///< sessions per second; 0 = saturation
  std::vector<paper::Property> props = {paper::Property::kD};
  int n = 5;
  double comm_mu = 3.0;
  bool comm_enabled = true;
  int internal_events = 25;
  std::uint64_t seed = 2015;
  bool steal = true;
  bool streaming = false;
  std::uint32_t gc_interval = 0;  ///< 0 = 64 under --streaming
  std::size_t max_views = 0;      ///< 0 = unbounded
  double max_rss_mb = 0.0;        ///< 0 = no budget check
  int retry_failed = 0;           ///< retry rounds for failed sessions
  std::string json_path;
};

bool parse_props(const std::string& arg, std::vector<paper::Property>* out) {
  out->clear();
  for (std::size_t i = 0; i < arg.size(); ++i) {
    if (arg[i] == ',') continue;
    bool found = false;
    for (paper::Property p : paper::kAllProperties) {
      if (paper::name(p) == std::string(1, arg[i])) {
        out->push_back(p);
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return !out->empty();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Peak resident set (VmHWM) of this process in MB; 0 when /proc is absent.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // value is in kB
    }
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "load_gen: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--sessions") == 0) {
      opt.sessions = std::atoi(next(a));
    } else if (std::strcmp(a, "--shards") == 0) {
      opt.shards = std::atoi(next(a));
    } else if (std::strcmp(a, "--rate") == 0) {
      opt.rate = std::atof(next(a));
    } else if (std::strcmp(a, "--props") == 0) {
      if (!parse_props(next(a), &opt.props)) {
        std::fprintf(stderr, "load_gen: --props wants e.g. A,D,F\n");
        return 2;
      }
    } else if (std::strcmp(a, "--n") == 0) {
      opt.n = std::atoi(next(a));
    } else if (std::strcmp(a, "--comm-mu") == 0) {
      opt.comm_mu = std::atof(next(a));
    } else if (std::strcmp(a, "--no-comm") == 0) {
      opt.comm_enabled = false;
    } else if (std::strcmp(a, "--internal-events") == 0) {
      opt.internal_events = std::atoi(next(a));
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(next(a), nullptr, 10);
    } else if (std::strcmp(a, "--no-steal") == 0) {
      opt.steal = false;
    } else if (std::strcmp(a, "--streaming") == 0) {
      opt.streaming = true;
    } else if (std::strcmp(a, "--gc-interval") == 0) {
      opt.gc_interval = static_cast<std::uint32_t>(std::atoi(next(a)));
    } else if (std::strcmp(a, "--max-views") == 0) {
      opt.max_views = static_cast<std::size_t>(std::atoll(next(a)));
    } else if (std::strcmp(a, "--max-rss-mb") == 0) {
      opt.max_rss_mb = std::atof(next(a));
    } else if (std::strcmp(a, "--retry-failed") == 0) {
      opt.retry_failed = std::atoi(next(a));
    } else if (std::strcmp(a, "--json") == 0) {
      opt.json_path = next(a);
    } else if (std::strcmp(a, "--quick") == 0) {
      opt.sessions = 64;
      opt.shards = 2;
      opt.props = {paper::Property::kA, paper::Property::kD};
      opt.n = 3;
      opt.rate = 400.0;
    } else {
      std::fprintf(
          stderr,
          "usage: load_gen [--sessions N] [--shards K] [--rate R] "
          "[--props A,D,F] [--n PROCS] [--comm-mu MU] [--no-comm] "
          "[--internal-events E] [--seed S] [--no-steal] [--streaming] "
          "[--gc-interval G] [--max-views V] [--max-rss-mb B] "
          "[--retry-failed N] [--quick] [--json FILE]\n");
      return 2;
    }
  }
  if (opt.sessions < 1 || opt.shards < 1 || opt.n < 2 || opt.rate < 0.0 ||
      opt.retry_failed < 0) {
    std::fprintf(stderr, "load_gen: invalid parameters\n");
    return 2;
  }

  // The open-loop schedule, drawn before the clock starts.
  std::vector<double> arrival_s(static_cast<std::size_t>(opt.sessions), 0.0);
  if (opt.rate > 0.0) {
    SplitMix64 rng(derive_seed(opt.seed, 0xA881));
    double t = 0.0;
    for (auto& at : arrival_s) {
      // Inverse-CDF exponential; u in (0, 1].
      const double u =
          (static_cast<double>(rng.next() >> 11) + 1.0) / 9007199254740993.0;
      t += -std::log(u) / opt.rate;
      at = t;
    }
  }

  service::ServiceConfig config;
  config.num_shards = opt.shards;
  config.steal = opt.steal;
  // Open-loop runs can be very large, so outcomes are normally dropped; the
  // retry posture needs per-session ok/failed verdicts to pick resubmits.
  config.keep_outcomes = opt.retry_failed > 0;
  service::MonitoringService svc(config);

  auto make_spec = [&](int i) {
    service::SessionSpec spec;
    spec.property = opt.props[static_cast<std::size_t>(i) % opt.props.size()];
    spec.num_processes = opt.n;
    spec.trace_seed = opt.seed + static_cast<std::uint64_t>(i);
    spec.comm_mu = opt.comm_mu;
    spec.comm_enabled = opt.comm_enabled;
    spec.internal_events = opt.internal_events;
    spec.sim.coalesce = CoalesceMode::kTransit;
    if (opt.streaming) {
      spec.options.gc_interval = opt.gc_interval > 0 ? opt.gc_interval : 64;
    }
    spec.options.max_views = opt.max_views;
    return spec;
  };
  // Which load-schedule index a session id executes (ids are unique across
  // retries; retried sessions map back to their original index).
  std::unordered_map<service::SessionId, int> index_of;

  std::printf("load_gen: %d sessions over %d shard(s), %s, props ",
              opt.sessions, opt.shards,
              opt.rate > 0 ? "open-loop" : "saturation");
  for (paper::Property p : opt.props) std::printf("%s", paper::name(p).c_str());
  std::printf(", n=%d, seed=%llu\n", opt.n,
              static_cast<unsigned long long>(opt.seed));
  if (opt.rate > 0) std::printf("load_gen: offered rate %.1f sessions/s\n",
                                opt.rate);

  const auto t0 = Clock::now();
  for (int i = 0; i < opt.sessions; ++i) {
    if (opt.rate > 0.0) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(
                       arrival_s[static_cast<std::size_t>(i)]));
      std::this_thread::sleep_until(due);  // never waits on completions
    }
    index_of[svc.submit(make_spec(i))] = i;
  }
  const double submit_ms = ms_since(t0);
  svc.drain();

  // Retry rounds: resubmit every session whose LATEST attempt failed (cap
  // overflows are intentional outcomes and are never retried), waiting out
  // a capped exponential backoff between rounds so a transient resource
  // squeeze has time to clear. Outcomes are ordered by id and retry ids are
  // newer than everything they retry, so a per-index scan in order always
  // ends on the latest attempt.
  std::uint64_t retried = 0;
  std::uint64_t recovered = 0;
  std::size_t unrecovered = 0;
  if (opt.retry_failed > 0) {
    auto failed_indexes = [&]() {
      std::vector<char> failed_now(static_cast<std::size_t>(opt.sessions), 0);
      for (const service::SessionOutcome& oc : svc.outcomes()) {
        const auto it = index_of.find(oc.id);
        if (it == index_of.end()) continue;
        failed_now[static_cast<std::size_t>(it->second)] =
            !oc.ok && !oc.overflowed;
      }
      std::vector<int> out;
      for (int i = 0; i < opt.sessions; ++i) {
        if (failed_now[static_cast<std::size_t>(i)]) out.push_back(i);
      }
      return out;
    };
    std::vector<int> pending = failed_indexes();
    const std::size_t initially_failed = pending.size();
    for (int round = 1; round <= opt.retry_failed && !pending.empty();
         ++round) {
      const double backoff_ms =
          std::min(100.0 * double(1u << (round - 1)), 2000.0);
      std::printf(
          "load_gen: retry round %d/%d, %zu failed session(s), backoff "
          "%.0f ms\n",
          round, opt.retry_failed, pending.size(), backoff_ms);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
      for (int i : pending) {
        index_of[svc.submit(make_spec(i))] = i;
        ++retried;
      }
      svc.drain();
      pending = failed_indexes();
    }
    unrecovered = pending.size();
    recovered = initially_failed - unrecovered;
  }
  const double wall_ms = ms_since(t0);

  const service::ServiceStats st = svc.stats();
  const double wall_s = wall_ms / 1e3;
  const double sessions_per_s =
      wall_s > 0 ? static_cast<double>(st.completed) / wall_s : 0.0;
  const double events_per_s =
      wall_s > 0 ? static_cast<double>(st.program_events) / wall_s : 0.0;

  std::printf("load_gen: submitted in %.1f ms, drained in %.1f ms\n",
              submit_ms, wall_ms);
  std::printf(
      "  completed %llu (failed %llu, overflowed %llu, stolen %llu), "
      "verdicts T=%llu F=%llu\n",
      static_cast<unsigned long long>(st.completed),
      static_cast<unsigned long long>(st.failed),
      static_cast<unsigned long long>(st.overflowed),
      static_cast<unsigned long long>(st.stolen),
      static_cast<unsigned long long>(st.satisfactions),
      static_cast<unsigned long long>(st.violations));
  std::printf("  throughput %.1f sessions/s, %.0f events/s\n", sessions_per_s,
              events_per_s);
  auto q_ms = [&](const service::LatencyHistogram& h, double q) {
    return static_cast<double>(h.quantile(q)) / 1e6;
  };
  std::printf("  verdict latency ms: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
              q_ms(st.latency_ns, 0.50), q_ms(st.latency_ns, 0.95),
              q_ms(st.latency_ns, 0.99),
              static_cast<double>(st.latency_ns.max()) / 1e6);
  std::printf("  queue latency ms:   p50 %.2f  p95 %.2f  p99 %.2f\n",
              q_ms(st.queue_ns, 0.50), q_ms(st.queue_ns, 0.95),
              q_ms(st.queue_ns, 0.99));
  for (std::size_t s = 0; s < st.per_shard_completed.size(); ++s) {
    std::printf("  shard %zu: %llu sessions, busy %.1f ms (%.0f%% of wall)\n",
                s,
                static_cast<unsigned long long>(st.per_shard_completed[s]),
                st.per_shard_busy_ms[s],
                wall_ms > 0 ? 100.0 * st.per_shard_busy_ms[s] / wall_ms : 0.0);
  }
  const double rss_mb = peak_rss_mb();
  std::printf("  peak rss %.1f MB%s\n", rss_mb,
              opt.streaming ? " (streaming posture)" : "");
  // Admission economics: how the fleet's property admissions were served.
  // cache hits are zero-copy refcount bumps on the process-wide memo;
  // misses synthesized the property.
  const paper::SynthesisCacheStats cache_stats = paper::synthesis_cache_stats();
  std::printf("  admission: cache hits %llu / misses %llu\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses));
  if (opt.retry_failed > 0) {
    std::printf("  retried %llu, recovered %llu, unrecovered %zu\n",
                static_cast<unsigned long long>(retried),
                static_cast<unsigned long long>(recovered), unrecovered);
  }

  if (!opt.json_path.empty()) {
    std::ofstream os(opt.json_path);
    if (!os) {
      std::fprintf(stderr, "load_gen: cannot write %s\n",
                   opt.json_path.c_str());
      return 2;
    }
    os << "{\n"
       << "  \"schema\": \"decmon-load-gen-v1\",\n"
       << "  \"metrics\": {\n"
       << "    \"sessions\": " << st.completed << ",\n"
       << "    \"failed\": " << st.failed << ",\n"
       << "    \"overflowed\": " << st.overflowed << ",\n"
       << "    \"retried\": " << retried << ",\n"
       << "    \"recovered\": " << recovered << ",\n"
       << "    \"peak_rss_mb\": " << rss_mb << ",\n"
       << "    \"stolen\": " << st.stolen << ",\n"
       << "    \"events\": " << st.program_events << ",\n"
       << "    \"monitor_messages\": " << st.monitor_messages << ",\n"
       << "    \"wall_ms\": " << wall_ms << ",\n"
       << "    \"sessions_per_s\": " << sessions_per_s << ",\n"
       << "    \"events_per_s\": " << events_per_s << ",\n"
       << "    \"lat_p50_ms\": " << q_ms(st.latency_ns, 0.50) << ",\n"
       << "    \"lat_p95_ms\": " << q_ms(st.latency_ns, 0.95) << ",\n"
       << "    \"lat_p99_ms\": " << q_ms(st.latency_ns, 0.99) << ",\n"
       << "    \"queue_p99_ms\": " << q_ms(st.queue_ns, 0.99) << ",\n"
       << "    \"cache_hits\": " << cache_stats.hits << ",\n"
       << "    \"cache_misses\": " << cache_stats.misses << "\n"
       << "  }\n"
       << "}\n";
  }

  // Every submission (initial + retries) must have drained; failures only
  // fail the run when they stayed failed after the retry budget.
  const std::uint64_t expected_runs =
      static_cast<std::uint64_t>(opt.sessions) + retried;
  if (st.completed != expected_runs) {
    std::fprintf(stderr, "load_gen: sessions lost in the service\n");
    return 1;
  }
  if (opt.retry_failed > 0 ? unrecovered > 0 : st.failed > 0) {
    std::fprintf(stderr, "load_gen: FAILED sessions present\n");
    return 1;
  }
  if (opt.max_rss_mb > 0.0 && rss_mb > opt.max_rss_mb) {
    std::fprintf(stderr, "load_gen: peak RSS %.1f MB exceeds budget %.1f MB\n",
                 rss_mb, opt.max_rss_mb);
    return 1;
  }
  return 0;
}
