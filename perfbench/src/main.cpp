// decmon_perfbench: runs one benchmark workload and prints one JSON line.
//
//   decmon_perfbench --workload W --seed N --seconds S --trace 0|1
//   decmon_perfbench --workload W --seed N --setup-probe
//
// perfbench/run.py builds this program, runs it, adds the set-up probes
// and units, and prints the benchmark's result. Exit status: 0 when every
// session passed its checks, 1 when any failed (the JSON is still printed),
// 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: decmon_perfbench --workload W [--seed N] "
               "[--seconds S] [--trace 0|1] [--setup-probe]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool setup_probe = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--workload") == 0 && has_value) {
      opt.workload = argv[++i];
    } else if (std::strcmp(a, "--seed") == 0 && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0 && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(a, "--trace") == 0 && has_value) {
      opt.traced = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(a, "--setup-probe") == 0) {
      setup_probe = true;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0.0) return usage();

  try {
    if (setup_probe) {
      std::printf("{\"setup_s\": %s}\n",
                  json_number(perfbench::measure_setup(opt.workload, opt.seed))
                      .c_str());
      return 0;
    }
    const perfbench::Report r = perfbench::run_workload(opt);
    std::string out = "{\"correct\": ";
    out += r.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : r.metrics) {
      if (!first) out += ", ";
      first = false;
      out += json_string(name) + ": " + json_number(value);
    }
    out += "}, \"failures\": [";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
      if (i) out += ", ";
      out += json_string(r.failures[i]);
    }
    out += "], \"provenance\": {\"compiler\": " + json_string(compiler());
    out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
    out += ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency());
    out += ", \"workload\": " + json_string(opt.workload);
    out += ", \"seed\": " + std::to_string(opt.seed);
    out += ", \"offered_rate\": " + json_number(r.offered_rate) + "}}";
    std::printf("%s\n", out.c_str());
    return r.failed == 0 ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "decmon_perfbench: %s\n", e.what());
    return 2;
  }
}
