// Differential schedule fuzzing (see DESIGN.md §7): seeded fault configs
// swept over property/process cells, every run checked against the lattice
// oracle. The smoke sweep is the CI gate (>= 200 fault configs across >= 3
// cells, zero contract violations); the injected-bug self-test proves the
// harness actually catches fault-model violations and that its repros are
// deterministic.
#include "decmon/distributed/schedule_fuzz.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace decmon {
namespace {

TEST(ScheduleFuzz, SmokeSweepFindsNoViolations) {
  fuzz::Options options;  // defaults: 10 cells x 70 cases = 700 fault configs
  options.seed = 20260805;
  std::ostringstream progress;
  fuzz::Report report = fuzz::run_sweep(options, &progress);

  EXPECT_GE(report.cases, 200u) << progress.str();
  // The sweep must actually inject faults, not pass vacuously.
  EXPECT_GT(report.faults.delay_spikes, 0u);
  EXPECT_GT(report.faults.reordered, 0u);
  EXPECT_GT(report.faults.duplicated, 0u);
  EXPECT_GT(report.faults.dropped, 0u);
  EXPECT_EQ(report.faults.lost, 0u);  // bounded loss: always redelivered

  EXPECT_TRUE(report.ok()) << progress.str() << "first violation:\n"
                           << (report.violations.empty()
                                   ? std::string("(none)")
                                   : report.violations.front().kind + ": " +
                                         report.violations.front().detail +
                                         "\n" +
                                         report.violations.front().repro);
}

TEST(ScheduleFuzz, SweepIsDeterministic) {
  fuzz::Options options;
  options.cells = {{paper::Property::kA, 2}};
  options.cases_per_cell = 10;
  options.seed = 42;
  fuzz::Report a = fuzz::run_sweep(options);
  fuzz::Report b = fuzz::run_sweep(options);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.violation_count, b.violation_count);
  EXPECT_EQ(a.faults.messages, b.faults.messages);
  EXPECT_EQ(a.faults.delay_spikes, b.faults.delay_spikes);
  EXPECT_EQ(a.faults.reordered, b.faults.reordered);
  EXPECT_EQ(a.faults.duplicated, b.faults.duplicated);
  EXPECT_EQ(a.faults.dropped, b.faults.dropped);
}

TEST(ScheduleFuzz, InjectedBugIsCaughtWithDeterministicRepro) {
  // Violate the bounded-loss fault model: dropped messages are swallowed
  // instead of redelivered. Lost tokens strand their parent views, so the
  // sweep must flag violations -- this is the harness's self-test that a
  // real bug cannot slip through silently.
  fuzz::Options options;
  options.cells = {{paper::Property::kA, 3}, {paper::Property::kB, 2}};
  options.cases_per_cell = 25;
  options.seed = 7;
  options.lose_dropped = true;
  fuzz::Report report = fuzz::run_sweep(options);

  ASSERT_FALSE(report.ok()) << "injected fault-model violation not caught";
  ASSERT_FALSE(report.violations.empty());
  ASSERT_FALSE(report.violations.front().repro.empty());

  // The dumped repro must re-run to the identical outcome, twice: that is
  // what makes a fuzz failure debuggable instead of a one-off.
  const std::string& repro = report.violations.front().repro;
  fuzz::ReproOutcome first = fuzz::run_repro(repro);
  fuzz::ReproOutcome second = fuzz::run_repro(repro);
  EXPECT_TRUE(first.violation);
  EXPECT_EQ(first.kind, report.violations.front().kind);
  EXPECT_EQ(first.kind, second.kind);
  EXPECT_EQ(first.detail, second.detail);
  EXPECT_EQ(first.oracle, second.oracle);
  EXPECT_EQ(first.monitor, second.monitor);
  EXPECT_EQ(first.all_finished, second.all_finished);
}

TEST(ScheduleFuzz, ReproRejectsGarbage) {
  EXPECT_THROW(fuzz::run_repro("not a repro"), std::runtime_error);
  EXPECT_THROW(fuzz::run_repro("decmon-fuzz-repro v1\nproperty A\n"),
               std::runtime_error);  // missing event log
}

TEST(ScheduleFuzz, CrashSweepFindsNoViolations) {
  // The ISSUE's headline acceptance gate: >= 200 seeded cases, every one
  // with true message loss AND one crash-restart, zero contract violations.
  // Definite verdicts survive the crash unchanged; recovery may only add
  // '?' time -- which the contract already permits.
  fuzz::Options options;  // defaults: 10 cells x 70 cases = 700 cases
  options.seed = 20260806;
  options.lossy = true;
  options.crash = true;
  std::ostringstream progress;
  fuzz::Report report = fuzz::run_sweep(options, &progress);

  EXPECT_GE(report.cases, 200u) << progress.str();
  // Every case must actually crash, restart, lose messages and recover
  // them -- a vacuous sweep would prove nothing.
  EXPECT_EQ(report.crash.crashes, report.cases);
  EXPECT_EQ(report.crash.restarts, report.cases);
  EXPECT_GT(report.faults.lost, 0u);
  EXPECT_GT(report.channel.retransmissions, 0u);
  EXPECT_GT(report.channel.dup_suppressed, 0u);
  EXPECT_GT(report.crash.checkpoint_bytes, 0u);
  EXPECT_GT(report.crash.dropped_while_down, 0u);

  EXPECT_TRUE(report.ok()) << progress.str() << "first violation:\n"
                           << (report.violations.empty()
                                   ? std::string("(none)")
                                   : report.violations.front().kind + ": " +
                                         report.violations.front().detail +
                                         "\n" +
                                         report.violations.front().repro);
}

TEST(ScheduleFuzz, CrashSweepIsDeterministic) {
  fuzz::Options options;
  options.cells = {{paper::Property::kA, 3}};
  options.cases_per_cell = 8;
  options.seed = 13;
  options.lossy = true;
  options.crash = true;
  fuzz::Report a = fuzz::run_sweep(options);
  fuzz::Report b = fuzz::run_sweep(options);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.violation_count, b.violation_count);
  EXPECT_EQ(a.faults.lost, b.faults.lost);
  EXPECT_EQ(a.channel.data_sent, b.channel.data_sent);
  EXPECT_EQ(a.channel.retransmissions, b.channel.retransmissions);
  EXPECT_EQ(a.channel.acks_sent, b.channel.acks_sent);
  EXPECT_EQ(a.crash.checkpoints_taken, b.crash.checkpoints_taken);
  EXPECT_EQ(a.crash.checkpoint_bytes, b.crash.checkpoint_bytes);
}

TEST(ScheduleFuzz, TrueLossWithoutTheChannelIsCaught) {
  // The harness self-test for the new fault mode: lose_prob with no
  // reliable channel underneath violates the algorithm's delivery
  // assumption, so the sweep must catch it (just like lose_dropped).
  fuzz::Options options;
  options.cells = {{paper::Property::kA, 3}, {paper::Property::kB, 2}};
  options.cases_per_cell = 25;
  options.seed = 7;
  options.lossy = true;
  fuzz::Report report = fuzz::run_sweep(options);
  ASSERT_FALSE(report.ok()) << "true loss without the channel not caught";

  // And its repro round-trips deterministically, v2 fields included.
  const std::string& repro = report.violations.front().repro;
  fuzz::ReproOutcome first = fuzz::run_repro(repro);
  fuzz::ReproOutcome second = fuzz::run_repro(repro);
  EXPECT_TRUE(first.violation);
  EXPECT_EQ(first.kind, second.kind);
  EXPECT_EQ(first.oracle, second.oracle);
  EXPECT_EQ(first.monitor, second.monitor);
}

TEST(ScheduleFuzz, PartialReprosRerunFromSeedsAlone) {
  // The watchdog dumps the partial repro published at case start; it must
  // re-run from seeds alone (no event log) for both sim and replay cases.
  fuzz::Options options;
  options.cells = {{paper::Property::kB, 2}};
  options.cases_per_cell = 4;
  options.seed = 31;
  options.lossy = true;
  options.crash = true;
  std::vector<std::string> partials;
  options.on_case_start = [&partials](const std::string& blob) {
    partials.push_back(blob);
  };
  fuzz::Report report = fuzz::run_sweep(options);
  ASSERT_EQ(partials.size(), 4u);
  EXPECT_TRUE(report.ok());
  for (const std::string& blob : partials) {
    EXPECT_NE(blob.find("decmon-fuzz-repro v2"), std::string::npos);
    EXPECT_NE(blob.find("channel "), std::string::npos);
    EXPECT_NE(blob.find("crash "), std::string::npos);
    fuzz::ReproOutcome outcome = fuzz::run_repro(blob);
    EXPECT_FALSE(outcome.violation) << blob;
    EXPECT_TRUE(outcome.all_finished) << blob;
  }
}

}  // namespace
}  // namespace decmon
