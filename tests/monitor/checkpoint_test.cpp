// Monitor checkpoint tests (DESIGN.md §8): snapshot -> restore -> snapshot
// must be byte-identical at every hook boundary of a monitored run (the
// crash injector relies on this to prove recovery is lossless), a restored
// run must be semantically indistinguishable from an undisturbed one, and a
// corrupted blob -- any truncation, any byte flip -- must fail with a clean
// CheckpointError that leaves the target monitor untouched.
#include "decmon/monitor/checkpoint.hpp"

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "../common/random_computation.hpp"
#include "../common/replay_driver.hpp"
#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/ltl/parser.hpp"
#include "decmon/monitor/decentralized_monitor.hpp"
#include "decmon/monitor/property_registry.hpp"

namespace decmon {
namespace {

using testing::ReplayDriver;

std::vector<AtomSet> initial_letters(const Computation& comp) {
  std::vector<AtomSet> letters;
  for (int p = 0; p < comp.num_processes(); ++p) {
    letters.push_back(comp.event(p, 0).letter);
  }
  return letters;
}

/// Hooks decorator that checkpoint-round-trips the touched monitor after
/// every single hook invocation: the densest possible sampling of reachable
/// mid-run states (tokens parked, views mid-path, probe sets live).
class RoundTripHooks final : public MonitorHooks {
 public:
  explicit RoundTripHooks(DecentralizedMonitor* dm) : dm_(dm) {}

  void on_local_event(int proc, const Event& event, double now) override {
    dm_->on_local_event(proc, event, now);
    round_trip(proc);
  }
  void on_local_termination(int proc, double now) override {
    dm_->on_local_termination(proc, now);
    round_trip(proc);
  }
  void on_monitor_message(MonitorMessage msg, double now) override {
    const int to = msg.to;
    dm_->on_monitor_message(std::move(msg), now);
    round_trip(to);
  }

  int round_trips = 0;
  std::size_t max_blob_bytes = 0;

 private:
  void round_trip(int i) {
    MonitorProcess& m = dm_->monitor(i);
    const std::vector<std::uint8_t> before = checkpoint_monitor(m);
    restore_monitor(m, before);
    const std::vector<std::uint8_t> after = checkpoint_monitor(m);
    EXPECT_EQ(before, after) << "round trip diverged at monitor " << i;
    max_blob_bytes = std::max(max_blob_bytes, before.size());
    ++round_trips;
  }

  DecentralizedMonitor* dm_;
};

TEST(Checkpoint, RoundTripIsByteIdenticalAtEveryHookOfAFuzzGrid) {
  std::mt19937_64 rng(20260805);
  AtomRegistry reg = testing::standard_registry(2);
  int total_round_trips = 0;
  for (const std::string& text : testing::property_suite_2()) {
    const SharedProperty art = testing::admit(reg, text);
    for (int c = 0; c < 3; ++c) {
      Computation comp = testing::random_computation(rng, 2, reg, 6);
      for (std::uint64_t seed = 0; seed < 2; ++seed) {
        // Reference run, undisturbed.
        ReplayDriver plain_driver;
        DecentralizedMonitor plain(property_handle(art), &plain_driver,
                                   initial_letters(comp));
        plain_driver.run(comp, plain, seed);

        // Same run, but every hook boundary snapshot->restore->snapshots
        // the touched monitor. Byte identity is checked inside; verdict
        // equality with the plain run proves restore is also semantically
        // lossless.
        ReplayDriver driver;
        DecentralizedMonitor dm(property_handle(art), &driver,
                                initial_letters(comp));
        RoundTripHooks hooks(&dm);
        driver.run(comp, hooks, seed);

        EXPECT_EQ(dm.result().verdicts, plain.result().verdicts)
            << text << " seed " << seed;
        EXPECT_TRUE(dm.all_finished());
        total_round_trips += hooks.round_trips;
      }
    }
  }
  EXPECT_GT(total_round_trips, 500);
}

TEST(Checkpoint, RestoreAfterViewCapBreach) {
  // A MonitorOverflow is an intentional bound, not a crash: the monitor it
  // unwound from must still produce a checkpoint that restores into a fresh
  // replica byte-identically, so an operator can snapshot-and-migrate a
  // session that hit its cap instead of losing it.
  std::mt19937_64 rng(99);
  AtomRegistry reg = testing::standard_registry(2);
  // max_views=2 is the tightest survivable cap: the constructor itself
  // probes the initial view, so a cap of 1 would throw before run starts.
  MonitorOptions tight;
  tight.max_views = 2;

  int trips = 0;
  for (const std::string& text : testing::property_suite_2()) {
    const SharedProperty art = testing::admit(reg, text);
    for (int c = 0; c < 4; ++c) {
      Computation comp = testing::random_computation(rng, 2, reg, 8);
      ReplayDriver driver;
      DecentralizedMonitor dm(property_handle(art), &driver,
                              initial_letters(comp), tight);
      bool tripped = false;
      try {
        driver.run(comp, dm, /*seed=*/c);
      } catch (const MonitorOverflow&) {
        tripped = true;
      }
      if (!tripped) continue;
      ++trips;

      std::uint64_t overflowed = 0;
      for (int i = 0; i < 2; ++i) {
        MonitorProcess& mon = dm.monitor(i);
        overflowed += mon.stats().views_overflowed;
        const std::vector<std::uint8_t> blob = checkpoint_monitor(mon);

        ReplayDriver fresh_driver;
        DecentralizedMonitor fresh(property_handle(art), &fresh_driver,
                                   initial_letters(comp), tight);
        restore_monitor(fresh.monitor(i), blob);
        EXPECT_EQ(checkpoint_monitor(fresh.monitor(i)), blob)
            << text << " monitor " << i;
      }
      EXPECT_GE(overflowed, 1u) << text;
    }
  }
  EXPECT_GT(trips, 3) << "the suite barely exercises the cap";
}

TEST(Checkpoint, RestoreIntoFreshMonitorTransfersTheFullState) {
  std::mt19937_64 rng(7);
  AtomRegistry reg = testing::standard_registry(3);
  const SharedProperty art =
      testing::admit(reg, "G((P0.p) -> F(P1.p && P2.q))");
  Computation comp = testing::random_computation(rng, 3, reg, 6);

  ReplayDriver driver;
  DecentralizedMonitor dm(property_handle(art), &driver, initial_letters(comp));
  driver.run(comp, dm, /*seed=*/11);

  ReplayDriver fresh_driver;
  DecentralizedMonitor fresh(property_handle(art), &fresh_driver,
                             initial_letters(comp));
  for (int i = 0; i < 3; ++i) {
    const std::vector<std::uint8_t> blob = checkpoint_monitor(dm.monitor(i));
    restore_monitor(fresh.monitor(i), blob);
    EXPECT_EQ(checkpoint_monitor(fresh.monitor(i)), blob);
  }
  EXPECT_EQ(fresh.result().verdicts, dm.result().verdicts);
  EXPECT_EQ(fresh.all_finished(), dm.all_finished());
}

TEST(Checkpoint, RestoreRejectsIndexMismatch) {
  AtomRegistry reg = testing::standard_registry(2);
  const SharedProperty art = testing::admit(reg, "F(P0.p && P1.p)");
  std::mt19937_64 rng(3);
  Computation comp = testing::random_computation(rng, 2, reg, 4);

  ReplayDriver driver;
  DecentralizedMonitor dm(property_handle(art), &driver, initial_letters(comp));
  driver.run(comp, dm, 0);
  const std::vector<std::uint8_t> blob = checkpoint_monitor(dm.monitor(0));
  EXPECT_THROW(restore_monitor(dm.monitor(1), blob), CheckpointError);
}

TEST(Checkpoint, CorruptionFuzzNeverCrashesOrSilentlyRestores) {
  // Truncate at every length and flip every byte of a real mid-run blob:
  // each mutation must be rejected with CheckpointError (never a crash,
  // never an accepted restore), and the rejected restore must leave the
  // monitor exactly as it was.
  std::mt19937_64 rng(99);
  AtomRegistry reg = testing::standard_registry(2);
  const SharedProperty art = testing::admit(reg, "G((P0.p) U (P1.p))");
  Computation comp = testing::random_computation(rng, 2, reg, 5);

  ReplayDriver driver;
  DecentralizedMonitor dm(property_handle(art), &driver, initial_letters(comp));
  driver.run(comp, dm, 1);
  MonitorProcess& target = dm.monitor(0);
  const std::vector<std::uint8_t> blob = checkpoint_monitor(target);
  ASSERT_GT(blob.size(), 16u);

  for (std::size_t len = 0; len < blob.size(); ++len) {
    std::vector<std::uint8_t> truncated(
        blob.begin(), blob.begin() + static_cast<long>(len));
    EXPECT_THROW(restore_monitor(target, truncated), CheckpointError)
        << "truncation to " << len << " bytes accepted";
  }
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    for (std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> flipped = blob;
      flipped[pos] ^= mask;
      EXPECT_THROW(restore_monitor(target, flipped), CheckpointError)
          << "flip of bit " << int(mask) << " at byte " << pos << " accepted";
    }
  }
  EXPECT_EQ(checkpoint_monitor(target), blob);  // every failure was clean
}

TEST(Checkpoint, OnlyTheCurrentVersionRestores) {
  // Blobs never outlive the process that wrote them, so an older version is
  // refused outright -- even one whose CRC is intact.
  std::mt19937_64 rng(21);
  AtomRegistry reg = testing::standard_registry(2);
  const SharedProperty art = testing::admit(reg, "G((P0.p) U (P1.p))");
  Computation comp = testing::random_computation(rng, 2, reg, 5);

  ReplayDriver driver;
  DecentralizedMonitor dm(property_handle(art), &driver, initial_letters(comp));
  driver.run(comp, dm, 1);
  MonitorProcess& target = dm.monitor(0);
  const std::vector<std::uint8_t> blob = checkpoint_monitor(target);
  ASSERT_EQ(kCheckpointVersion, 6);
  ASSERT_EQ(blob[4], kCheckpointVersion);  // after the "DMCK" magic
  EXPECT_NO_THROW(restore_monitor(target, blob));

  std::vector<std::uint8_t> old = blob;
  old[4] = 5;
  const std::size_t body_end = old.size() - 4;
  const std::uint32_t crc = wire_crc32(old.data(), body_end);
  for (std::size_t i = 0; i < 4; ++i) {
    old[body_end + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  EXPECT_THROW(restore_monitor(target, old), CheckpointError);
  EXPECT_EQ(checkpoint_monitor(target), blob);  // the failure was clean
}

/// Minimal sink for monitors driven directly (no runtime underneath):
/// collects floor gossip so epoch stamps are observable.
class FloorSink final : public MonitorNetwork {
 public:
  void send(MonitorMessage msg) override {
    if (msg.payload && msg.payload->tag == PayloadFrame::kTag) {
      auto* frame = static_cast<PayloadFrame*>(msg.payload.get());
      for (const auto& unit : frame->units) {
        if (unit->tag == HistoryFloorMessage::kTag) {
          floors.push_back(static_cast<const HistoryFloorMessage&>(*unit));
        }
      }
      return;
    }
    if (msg.payload && msg.payload->tag == HistoryFloorMessage::kTag) {
      floors.push_back(static_cast<const HistoryFloorMessage&>(*msg.payload));
    }
  }
  double now() const override { return 0.0; }
  std::vector<HistoryFloorMessage> floors;
};

TEST(Checkpoint, StreamingWindowSurvivesAMidGcCrash) {
  // The crash×GC corner the v3 format exists for: a monitor that has
  // already trimmed its window AND holds epoch-stamped peer promises must
  // checkpoint byte-identically, and the restored replica must carry the
  // whole floor state -- base, per-peer folds, both epochs -- not just the
  // views. A restore that forgot an epoch would either accept pre-crash
  // stragglers (unsound trims) or mis-stamp its own resync.
  AtomRegistry reg = testing::standard_registry(2);
  const SharedProperty art = testing::admit(reg, "F(P0.p && P1.p)");
  MonitorOptions options;
  options.gc_interval = 1000;  // manual sweeps keep the scenario exact

  FloorSink net;
  MonitorProcess mon(0, property_handle(art), &net, {0, 0}, options);
  for (std::uint32_t sn = 1; sn <= 8; ++sn) {
    Event e;
    e.type = EventType::kInternal;
    e.process = 0;
    e.sn = sn;
    e.vc = VectorClock{sn, 0};
    e.letter = 0;
    mon.on_local_event(e, double(sn));
  }
  // The peer is already in epoch 1 (it crashed once) and has promised up
  // to 5; one sweep trims the window, one resync bumps our own epoch.
  mon.on_history_floor(1, 5, /*epoch=*/1, 9.0);
  mon.gc_sweep(9.5);
  ASSERT_EQ(mon.history_base(), 5u);
  mon.resync_floors(9.8);
  ASSERT_EQ(mon.stats().resync_floors, 1u);

  const std::vector<std::uint8_t> blob = checkpoint_monitor(mon);
  FloorSink fresh_net;
  MonitorProcess fresh(0, property_handle(art), &fresh_net, {0, 0}, options);
  restore_monitor(fresh, blob);
  EXPECT_EQ(checkpoint_monitor(fresh), blob);
  EXPECT_EQ(fresh.history_base(), 5u);
  EXPECT_EQ(fresh.history_end(), 9u);  // initial state + 8 events

  // Peer epoch survived: a pre-crash (epoch-0) straggler with a higher
  // floor must still be ignored by the restored fold.
  fresh.on_history_floor(1, 7, 0, 10.0);
  fresh.gc_sweep(10.5);
  EXPECT_EQ(fresh.history_base(), 5u);

  // Our own epoch survived: the next resync stamps epoch 2, strictly above
  // everything the pre-checkpoint incarnation ever sent.
  fresh.resync_floors(11.0);
  ASSERT_FALSE(fresh_net.floors.empty());
  EXPECT_EQ(fresh_net.floors.back().epoch, 2u);

  // And the restored window still trims forward once the peer catches up.
  fresh.on_history_floor(1, 8, 1, 12.0);
  fresh.gc_sweep(12.5);
  EXPECT_EQ(fresh.history_base(), 8u);
}

TEST(Checkpoint, GarbageIsRejected) {
  AtomRegistry reg = testing::standard_registry(2);
  const SharedProperty art = testing::admit(reg, "F(P0.p)");
  ReplayDriver driver;
  std::mt19937_64 rng(1);
  Computation comp = testing::random_computation(rng, 2, reg, 3);
  DecentralizedMonitor dm(property_handle(art), &driver, initial_letters(comp));

  EXPECT_THROW(restore_monitor(dm.monitor(0), {}), CheckpointError);
  std::vector<std::uint8_t> noise(200);
  std::mt19937_64 noise_rng(5);
  for (auto& b : noise) b = static_cast<std::uint8_t>(noise_rng());
  EXPECT_THROW(restore_monitor(dm.monitor(0), noise), CheckpointError);
}

}  // namespace
}  // namespace decmon
