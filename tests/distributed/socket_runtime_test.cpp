// SocketRuntime tests: the reassembly state machine in isolation (partial
// feeds, mid-record truncation, corrupt length prefixes), loopback
// round-trips of seeded frame convoys across clock widths, forced partial
// I/O under tiny socket buffers (which also exercises congestion
// coalescing), the unbatched per-token control posture, gathered sends
// (fewer send() calls than records, immediate off-thread flushes, a write
// cut at the seeded kill boundary), verdict equivalence against the
// deterministic simulator on the thesis properties, and the reliable
// channel stacked over the socket transport (envelope wire form end to
// end).
#include "decmon/distributed/socket_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "decmon/core/properties.hpp"
#include "decmon/core/session.hpp"
#include "decmon/distributed/reliable_channel.hpp"
#include "decmon/lattice/computation.hpp"
#include "decmon/lattice/oracle.hpp"
#include "decmon/monitor/crash_injector.hpp"
#include "decmon/monitor/decentralized_monitor.hpp"
#include "decmon/monitor/token.hpp"
#include "decmon/monitor/wire.hpp"

namespace decmon {
namespace {

TraceParams small_params(int n, std::uint64_t seed = 3) {
  TraceParams p;
  p.num_processes = n;
  p.internal_events = 6;
  p.seed = seed;
  return p;
}

std::set<Verdict> definite(const std::set<Verdict>& verdicts) {
  std::set<Verdict> out;
  for (Verdict v : verdicts) {
    if (v != Verdict::kUnknown) out.insert(v);
  }
  return out;
}

SocketConfig fast_config() {
  SocketConfig c;
  c.time_scale = 0.0005;
  return c;
}

/// Channel tuning for stacking over the real transport. Timer deadlines are
/// in now() units -- real seconds on SocketRuntime -- so the simulator
/// default rto (3.0 trace seconds) would hold quiescence hostage for
/// seconds of wall clock per armed timer. 50 ms keeps retransmission prompt
/// across a loopback outage without slowing the suite.
ReliableChannelConfig socket_channel_config() {
  ReliableChannelConfig c;
  c.rto = 0.05;
  return c;
}

/// Minimal trace for runtimes used purely as a transport (no program
/// activity beyond one internal event per process, no app messages).
SystemTrace transport_trace(int n) {
  TraceParams p;
  p.num_processes = n;
  p.internal_events = 1;
  p.comm_enabled = false;
  return generate_trace(p);
}

/// Records every monitor payload delivered, re-encoded to bytes so content
/// can be compared independently of object identity. Deliveries arrive from
/// every node's event-loop thread concurrently, so the capture is locked;
/// readers inspect the vectors only after run() has joined the loops.
class CaptureHooks final : public MonitorHooks {
 public:
  void on_local_event(int, const Event&, double) override {}
  void on_local_termination(int, double) override {}
  void on_monitor_message(MonitorMessage msg, double) override {
    std::vector<std::uint8_t> bytes;
    encode_payload_into(*msg.payload, bytes);
    const std::lock_guard<std::mutex> lock(mu);
    received.push_back(std::move(bytes));
  }

  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> received;
};

/// Sends `count` bare tokens from node 0 to node 1 inside node 0's first
/// local-event hook -- one loop iteration, so they leave together in the
/// loop's one flush -- and counts the monitor payloads delivered.
class BurstHooks final : public MonitorHooks {
 public:
  BurstHooks(MonitorNetwork* net, int count) : net_(net), count_(count) {}
  void on_local_event(int process, const Event&, double) override;
  void on_local_termination(int, double) override {}
  void on_monitor_message(MonitorMessage, double) override {
    delivered.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> delivered{0};

 private:
  MonitorNetwork* net_;
  int count_;
  bool fired_ = false;  ///< node 0's thread only
};

Token seeded_token(std::mt19937_64& rng, int width, int entries) {
  Token t;
  t.token_id = rng();
  t.parent = static_cast<int>(rng()) % width;
  if (t.parent < 0) t.parent = -t.parent;
  t.parent_sn = static_cast<std::uint32_t>(rng());
  t.parent_vc = VectorClock(static_cast<std::size_t>(width));
  for (int j = 0; j < width; ++j) {
    t.parent_vc[static_cast<std::size_t>(j)] =
        static_cast<std::uint32_t>(rng() % 100000);
  }
  t.next_target_process = static_cast<int>(rng() % static_cast<unsigned>(width + 1)) - 1;
  t.next_target_event = static_cast<std::uint32_t>(rng() % 1000);
  t.hops = static_cast<int>(rng() % 50);
  for (int i = 0; i < entries; ++i) {
    const auto n = static_cast<std::size_t>(width);
    TransitionEntry& e = t.add_entry(n);
    e.transition_id = static_cast<int>(rng() % 64);
    FrontierSlot* f = t.frontier(e);
    for (std::size_t j = 0; j < n; ++j) {
      f[j].cut = static_cast<std::uint32_t>(rng() % 100000);
      f[j].depend = static_cast<std::uint32_t>(rng() % 100000);
      f[j].gstate = rng();
      e.conj[j] = static_cast<ConjunctEval>(rng() % 3);
    }
    e.eval = static_cast<EntryEval>(rng() % 3);
    e.next_target_process =
        static_cast<int>(rng() % static_cast<unsigned>(width + 1)) - 1;
    e.next_target_event = static_cast<std::uint32_t>(rng() % 1000);
    if (rng() % 2 == 0) {
      e.stay = t.records.add(n);
      FrontierSlot* s = t.records[e.stay];
      for (std::size_t j = 0; j < n; ++j) {
        s[j].cut = static_cast<std::uint32_t>(rng() % 100000);
        s[j].gstate = rng();
      }
    }
  }
  return t;
}

void BurstHooks::on_local_event(int process, const Event&, double) {
  if (process != 0 || fired_) return;
  fired_ = true;
  std::mt19937_64 rng(31);
  for (int i = 0; i < count_; ++i) {
    auto msg = std::make_unique<TokenMessage>();
    msg->token = seeded_token(rng, 2, 1);
    net_->send(MonitorMessage{0, 1, std::move(msg)});
  }
}

std::unique_ptr<PayloadFrame> seeded_frame(std::mt19937_64& rng, int width,
                                           int units, int entries_per_unit) {
  auto frame = std::make_unique<PayloadFrame>();
  for (int i = 0; i < units; ++i) {
    auto msg = std::make_unique<TokenMessage>();
    msg->token = seeded_token(rng, width, entries_per_unit);
    frame->units.push_back(std::move(msg));
  }
  return frame;
}

// ---------------------------------------------------------------------------
// FrameReassembler: the partial-read state machine in isolation.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> make_record(std::uint8_t type,
                                      const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> rec(4);
  const std::uint32_t len = static_cast<std::uint32_t>(body.size()) + 1;
  for (int i = 0; i < 4; ++i) {
    rec[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  rec.push_back(type);
  rec.insert(rec.end(), body.begin(), body.end());
  return rec;
}

/// A yielded record as one byte string, type byte first.
std::vector<std::uint8_t> flat(const FrameReassembler::Record& rec) {
  std::vector<std::uint8_t> out(1 + rec.body.size());
  out[0] = rec.type;
  std::copy(rec.body.begin(), rec.body.end(), out.begin() + 1);
  return out;
}

TEST(FrameReassembler, ByteAtATimeFeedYieldsEveryRecord) {
  const auto r1 = make_record(0x02, {1, 2, 3, 4, 5});
  const auto r2 = make_record(0x01, {9});
  std::vector<std::uint8_t> stream = r1;
  stream.insert(stream.end(), r2.begin(), r2.end());

  FrameReassembler ra;
  std::vector<std::vector<std::uint8_t>> out;
  for (std::uint8_t b : stream) {
    ra.feed(&b, 1);
    while (const auto rec = ra.next()) out.push_back(flat(*rec));
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], std::vector<std::uint8_t>({0x02, 1, 2, 3, 4, 5}));
  EXPECT_EQ(out[1], std::vector<std::uint8_t>({0x01, 9}));
  EXPECT_FALSE(ra.mid_record());
  EXPECT_EQ(ra.buffered(), 0u);
}

TEST(FrameReassembler, SplitAcrossArbitraryFragmentBoundaries) {
  std::vector<std::uint8_t> body(1000);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint8_t>(i);
  }
  const auto record = make_record(0x02, body);
  std::vector<std::uint8_t> stream;
  for (int copies = 0; copies < 5; ++copies) {
    stream.insert(stream.end(), record.begin(), record.end());
  }
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{255}, std::size_t{1024}}) {
    FrameReassembler ra;
    std::size_t got = 0;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t len = std::min(chunk, stream.size() - off);
      ra.feed(stream.data() + off, len);
      while (const auto rec = ra.next()) {
        EXPECT_EQ(flat(*rec), std::vector<std::uint8_t>(record.begin() + 4,
                                                        record.end()));
        ++got;
      }
    }
    EXPECT_EQ(got, 5u) << "chunk " << chunk;
    EXPECT_FALSE(ra.mid_record());
  }
}

TEST(FrameReassembler, PeerCloseMidRecordIsDetectable) {
  // A stream truncated inside a record (the peer-crashed-mid-write case):
  // the reassembler yields nothing and reports the partial record, so the
  // transport can distinguish truncation from a clean close.
  const auto record = make_record(0x02, {1, 2, 3, 4, 5, 6, 7, 8});
  for (std::size_t cut = 1; cut < record.size(); ++cut) {
    FrameReassembler ra;
    ra.feed(record.data(), cut);
    EXPECT_FALSE(ra.next()) << "cut " << cut;
    EXPECT_TRUE(ra.mid_record()) << "cut " << cut;
    EXPECT_EQ(ra.buffered(), cut);
  }
}

TEST(FrameReassembler, RejectsCorruptLengthPrefixes) {
  {
    FrameReassembler ra;
    const std::uint8_t zero_len[4] = {0, 0, 0, 0};
    ra.feed(zero_len, 4);
    EXPECT_THROW(ra.next(), WireError);
  }
  {
    FrameReassembler ra;
    const std::uint8_t huge_len[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ra.feed(huge_len, 4);
    EXPECT_THROW(ra.next(), WireError);
  }
}

// ---------------------------------------------------------------------------
// Runtime basics (mirrors the ThreadRuntime suite).
// ---------------------------------------------------------------------------

TEST(SocketRuntime, RunsToQuiescenceWithoutMonitors) {
  AtomRegistry reg = paper::make_registry(3);
  SystemTrace trace = generate_trace(small_params(3));
  SocketRuntime rt(trace, &reg, fast_config());
  rt.run();
  EXPECT_EQ(rt.program_events(),
            static_cast<std::uint64_t>(trace.total_events()));
}

TEST(SocketRuntime, HistoryIsAValidComputation) {
  AtomRegistry reg = paper::make_registry(3);
  SystemTrace trace = generate_trace(small_params(3));
  SocketRuntime rt(trace, &reg, fast_config());
  rt.run();
  Computation comp(rt.history());
  EXPECT_TRUE(comp.consistent(comp.top()));
  for (const auto& hist : rt.history()) {
    for (std::size_t i = 1; i < hist.size(); ++i) {
      EXPECT_TRUE(hist[i - 1].vc.happened_before(hist[i].vc));
    }
  }
}

TEST(SocketRuntime, AppMessageCountAndBytesMatchTrace) {
  AtomRegistry reg = paper::make_registry(2);
  SystemTrace trace = generate_trace(small_params(2));
  int comm_actions = 0;
  for (const auto& pt : trace.procs) {
    comm_actions += pt.count(TraceAction::Kind::kComm);
  }
  SocketRuntime rt(trace, &reg, fast_config());
  rt.run();
  EXPECT_EQ(rt.app_messages_sent(),
            static_cast<std::uint64_t>(comm_actions));  // n-1 = 1 receiver
  if (comm_actions > 0) {
    EXPECT_GT(rt.app_bytes(), 0u);
  }
  EXPECT_EQ(rt.wire_frames(), 0u);  // no monitors attached
}

TEST(SocketRuntime, MonitorsFinishAndSatisfyContract) {
  for (int round = 0; round < 3; ++round) {
    AtomRegistry reg = paper::make_registry(3);
    const SharedProperty art =
        paper::shared_property(paper::Property::kD, 3, reg);
    SystemTrace trace = generate_trace(
        small_params(3, 100 + static_cast<std::uint64_t>(round)));

    SocketRuntime rt(trace, &reg, fast_config());
    DecentralizedMonitor dm(property_handle(art), &rt,
                            initial_letters_of(reg, rt.initial_states()));
    rt.set_hooks(&dm);
    rt.run();

    EXPECT_TRUE(dm.all_finished()) << "round " << round;
    Computation comp(rt.history());
    OracleResult oracle = oracle_evaluate(comp, art->automaton());
    SystemVerdict v = dm.result();
    for (Verdict x : oracle.verdicts) {
      EXPECT_TRUE(v.verdicts.count(x)) << "round " << round;
    }
    for (Verdict x : v.verdicts) {
      if (x != Verdict::kUnknown) {
        EXPECT_TRUE(oracle.verdicts.count(x)) << "round " << round;
      }
    }
    // Lemma 1: every token a monitor created has come home to it.
    ASSERT_EQ(v.per_monitor.size(), 3u);
    for (std::size_t m = 0; m < v.per_monitor.size(); ++m) {
      EXPECT_EQ(v.per_monitor[m].tokens_returned,
                v.per_monitor[m].tokens_created)
          << "round " << round << " monitor " << m;
    }
  }
}

// ---------------------------------------------------------------------------
// Serialization round-trips over real sockets.
// ---------------------------------------------------------------------------

TEST(SocketRuntime, SeededFrameConvoysRoundTripAcrossClockWidths) {
  // Frames injected before run() cross the wire during it; the receiver's
  // re-encoding must be byte-identical to the sender's encoding (encode ->
  // TCP -> reassemble -> decode -> re-encode is the identity).
  for (int width : {2, 3, 5, 8, 9}) {
    std::mt19937_64 rng(900 + static_cast<std::uint64_t>(width));
    AtomRegistry reg = paper::make_registry(width);
    SocketRuntime rt(transport_trace(width), &reg, fast_config());
    CaptureHooks hooks;
    rt.set_hooks(&hooks);

    std::vector<std::vector<std::uint8_t>> sent;
    for (int i = 0; i < 6; ++i) {
      auto frame = seeded_frame(rng, width, 1 + i % 4, i % 3);
      std::vector<std::uint8_t> bytes;
      encode_payload_into(*frame, bytes);
      sent.push_back(std::move(bytes));
      const int from = i % width;
      const int to = (i + 1) % width;
      rt.send(MonitorMessage{from, to, std::move(frame)});
    }
    rt.run();

    // Frames to distinct destinations may interleave, so compare as
    // multisets of encodings (order per channel is covered below), each
    // held as a string of its bytes.
    auto encodings = [](const std::vector<std::vector<std::uint8_t>>& all) {
      std::multiset<std::string> out;
      for (const auto& bytes : all) out.emplace(bytes.begin(), bytes.end());
      return out;
    };
    EXPECT_EQ(encodings(sent), encodings(hooks.received)) << "width " << width;
  }
}

TEST(SocketRuntime, TinyBuffersForcePartialIOAndCoalescing) {
  // Socket buffers far smaller than the outstanding data force EAGAIN on
  // the send side and fragmented reads on the receive side; while the
  // channel is congested, later frames must merge into the staged frame
  // (the kTransit convoy on real congestion) rather than grow the queue.
  const int n = 2;
  const int kFrames = 12;
  const int kUnitsPerFrame = 4;
  std::mt19937_64 rng(77);
  AtomRegistry reg = paper::make_registry(n);
  SocketConfig config = fast_config();
  config.sndbuf = 2048;
  config.rcvbuf = 2048;
  SocketRuntime rt(transport_trace(n), &reg, config);
  CaptureHooks hooks;
  rt.set_hooks(&hooks);

  std::vector<std::uint64_t> sent_ids;
  for (int i = 0; i < kFrames; ++i) {
    auto frame = seeded_frame(rng, n, kUnitsPerFrame, /*entries=*/6);
    for (const auto& unit : frame->units) {
      sent_ids.push_back(
          static_cast<const TokenMessage&>(*unit).token.token_id);
    }
    rt.send(MonitorMessage{0, 1, std::move(frame)});
  }
  rt.run();

  EXPECT_GT(rt.partial_writes(), 0u);
  EXPECT_GT(rt.coalesced_frames(), 0u);
  EXPECT_LT(rt.wire_frames(), static_cast<std::uint64_t>(kFrames));

  // Every token arrived exactly once, in send order (frames only merge
  // back-to-front on one FIFO channel, so unit order is preserved).
  std::vector<std::uint64_t> got_ids;
  for (const auto& bytes : hooks.received) {
    auto payload = decode_payload(bytes, n);
    ASSERT_EQ(payload->tag, PayloadFrame::kTag);
    for (const auto& unit : static_cast<PayloadFrame&>(*payload).units) {
      got_ids.push_back(
          static_cast<const TokenMessage&>(*unit).token.token_id);
    }
  }
  EXPECT_EQ(got_ids, sent_ids);
}

TEST(SocketRuntime, UnbatchedModeSplitsFramesIntoPerUnitRecords) {
  const int n = 2;
  std::mt19937_64 rng(123);
  AtomRegistry reg = paper::make_registry(n);
  SocketConfig config = fast_config();
  config.batch = false;
  SocketRuntime rt(transport_trace(n), &reg, config);
  CaptureHooks hooks;
  rt.set_hooks(&hooks);

  for (int i = 0; i < 3; ++i) {
    rt.send(MonitorMessage{0, 1, seeded_frame(rng, n, 4, 2)});
  }
  rt.run();

  EXPECT_EQ(rt.wire_frames(), 12u);  // 3 frames x 4 units, one record each
  ASSERT_EQ(hooks.received.size(), 12u);
  for (const auto& bytes : hooks.received) {
    // Each record is a one-unit frame.
    auto payload = decode_payload(bytes, n);
    ASSERT_EQ(payload->tag, PayloadFrame::kTag);
    const auto& frame = static_cast<const PayloadFrame&>(*payload);
    ASSERT_EQ(frame.units.size(), 1u);
    EXPECT_EQ(frame.units[0]->tag, TokenMessage::kTag);
  }
}

TEST(SocketRuntime, BatchingReducesBytesOnWireUnderCongestion) {
  // Same injected workload, both postures, tiny buffers: the batched run
  // must move fewer records and fewer bytes (merged frames share the
  // record header, frame header and base clock).
  const int n = 2;
  auto run_posture = [&](bool batch, std::uint64_t* frames,
                         std::uint64_t* bytes) {
    std::mt19937_64 rng(55);
    AtomRegistry reg = paper::make_registry(n);
    SocketConfig config = fast_config();
    config.batch = batch;
    config.sndbuf = 2048;
    config.rcvbuf = 2048;
    SocketRuntime rt(transport_trace(n), &reg, config);
    CaptureHooks hooks;
    rt.set_hooks(&hooks);
    for (int i = 0; i < 10; ++i) {
      rt.send(MonitorMessage{0, 1, seeded_frame(rng, n, 4, 4)});
    }
    rt.run();
    *frames = rt.wire_frames();
    *bytes = rt.wire_bytes();
  };
  std::uint64_t batched_frames = 0, batched_bytes = 0;
  std::uint64_t split_frames = 0, split_bytes = 0;
  run_posture(true, &batched_frames, &batched_bytes);
  run_posture(false, &split_frames, &split_bytes);
  EXPECT_LT(batched_frames, split_frames);
  EXPECT_LT(batched_bytes, split_bytes);
}

// ---------------------------------------------------------------------------
// Gathered sends: one send() per flush, deferred on the owner's thread.
// ---------------------------------------------------------------------------

TEST(SocketRuntime, GatheredSendsTakeFewerSyscallsThanRecords) {
  // A monitored run at time_scale 0: the node loops defer their own sends
  // and write each channel once per iteration, so one send() carries
  // several records.
  const int n = 3;
  AtomRegistry reg = paper::make_registry(n);
  const SharedProperty art =
      paper::shared_property(paper::Property::kA, n, reg);
  SystemTrace trace = generate_trace(
      paper::experiment_params(paper::Property::kA, n, 2015));
  SocketConfig config;
  config.time_scale = 0.0;
  config.batch = true;
  SocketRuntime rt(trace, &reg, config);
  DecentralizedMonitor dm(property_handle(art), &rt,
                          initial_letters_of(reg, rt.initial_states()));
  rt.set_hooks(&dm);
  rt.run();

  EXPECT_TRUE(dm.all_finished());
  EXPECT_GT(rt.send_calls(), 0u);
  EXPECT_LT(rt.send_calls(), rt.wire_frames() + rt.app_messages_sent());
}

TEST(SocketRuntime, OffThreadSendBeforeRunIsWrittenAtOnce) {
  // Only a channel's own node thread defers; a send from any other thread
  // -- here the test's, before any node loop exists -- is in the socket
  // when send() returns.
  const int n = 2;
  std::mt19937_64 rng(12);
  AtomRegistry reg = paper::make_registry(n);
  SocketRuntime rt(transport_trace(n), &reg, fast_config());
  CaptureHooks hooks;
  rt.set_hooks(&hooks);
  rt.send(MonitorMessage{0, 1, seeded_frame(rng, n, 2, 2)});
  EXPECT_EQ(rt.send_calls(), 1u);
  EXPECT_EQ(rt.partial_writes(), 0u);
  EXPECT_EQ(rt.wire_frames(), 1u);

  rt.run();
  EXPECT_EQ(hooks.received.size(), 1u);
  EXPECT_EQ(rt.send_calls(), 1u);
}

// ---------------------------------------------------------------------------
// Differential: socket verdicts match the deterministic simulator.
// ---------------------------------------------------------------------------

TEST(SocketRuntime, VerdictsMatchSimRuntimeOnThesisProperties) {
  // A socket run records its own computation: the schedule decides which
  // receive lands where, and the verdict set follows that computation, not
  // the generated trace. So each run is judged on the history it recorded:
  // the lattice oracle must accept its verdicts (sound and complete), and
  // the simulator, replaying that computation, must reach the same definite
  // verdicts.
  for (paper::Property p : paper::kAllProperties) {
    const int n = 3;
    const std::uint64_t seed = 2015;  // first equivalence-golden seed
    AtomRegistry reg = paper::make_registry(n);
    const SharedProperty art = paper::shared_property(p, n, reg);
    SystemTrace trace = generate_trace(paper::experiment_params(p, n, seed));
    force_final_all_true(trace);

    SocketRuntime rt(trace, &reg, fast_config());
    DecentralizedMonitor dm(property_handle(art), &rt,
                            initial_letters_of(reg, rt.initial_states()));
    rt.set_hooks(&dm);
    rt.run();
    SystemVerdict v = dm.result();
    EXPECT_TRUE(v.all_finished) << paper::name(p);

    const Computation comp(rt.history());
    const OracleResult oracle = oracle_evaluate(comp, art->automaton());
    for (Verdict x : oracle.verdicts) {
      EXPECT_TRUE(v.verdicts.count(x)) << paper::name(p);  // complete
    }
    for (Verdict x : definite(v.verdicts)) {
      EXPECT_TRUE(oracle.verdicts.count(x)) << paper::name(p);  // sound
    }
    const RunResult sim = MonitorSession(art).replay(comp);
    EXPECT_TRUE(sim.verdict.all_finished) << paper::name(p);
    EXPECT_EQ(definite(v.verdicts), definite(sim.verdict.verdicts))
        << paper::name(p);
  }
}

TEST(SocketRuntime, SharedArtifactMatchesUncachedSynthesisVerdicts) {
  // Memo-vs-synthesis differential over real sockets: a monitor admitted
  // from the synthesis memo (one shared artifact, property handles aliasing
  // into it from every replica) must meet the contract of the uncached
  // synthesis on the computation it recorded. Socket schedules differ from
  // run to run, and the verdict set follows the recorded computation, so
  // each run is judged on its own history: the lattice oracle under the
  // uncached automaton must accept its verdicts (sound and complete), and a
  // simulator replay of that computation must reach the same definite
  // verdicts.
  for (paper::Property p : paper::kAllProperties) {
    const int n = 3;
    const std::uint64_t seed = 2015;  // first equivalence-golden seed
    SystemTrace trace = generate_trace(paper::experiment_params(p, n, seed));
    force_final_all_true(trace);

    AtomRegistry reg = paper::make_registry(n);
    const SharedProperty art = std::make_shared<const PropertyArtifact>(
        reg, paper::build_automaton_uncached(p, n, reg));
    SocketRuntime synth_rt(trace, &reg, fast_config());
    DecentralizedMonitor synth_dm(
        property_handle(art), &synth_rt,
        initial_letters_of(reg, synth_rt.initial_states()));
    synth_rt.set_hooks(&synth_dm);
    synth_rt.run();

    const SharedProperty first =
        paper::shared_property(p, n, paper::make_registry(n));
    const SharedProperty artifact =
        paper::shared_property(p, n, paper::make_registry(n));
    ASSERT_EQ(artifact.get(), first.get()) << paper::name(p);  // memo hit
    SocketRuntime memo_rt(trace, &artifact->registry(), fast_config());
    DecentralizedMonitor memo_dm(
        property_handle(artifact), &memo_rt,
        initial_letters_of(artifact->registry(), memo_rt.initial_states()));
    memo_rt.set_hooks(&memo_dm);
    memo_rt.run();

    EXPECT_TRUE(synth_dm.all_finished()) << paper::name(p);
    EXPECT_TRUE(memo_dm.all_finished()) << paper::name(p);
    const MonitorSession uncached(art);
    const std::pair<SocketRuntime*, DecentralizedMonitor*> runs[] = {
        {&synth_rt, &synth_dm}, {&memo_rt, &memo_dm}};
    for (const auto& [rt, dm] : runs) {
      const Computation comp(rt->history());
      const OracleResult oracle = oracle_evaluate(comp, art->automaton());
      const std::set<Verdict> verdicts = dm->result().verdicts;
      for (Verdict x : oracle.verdicts) {
        EXPECT_TRUE(verdicts.count(x)) << paper::name(p);  // complete
      }
      for (Verdict x : definite(verdicts)) {
        EXPECT_TRUE(oracle.verdicts.count(x)) << paper::name(p);  // sound
      }
      const RunResult replay = uncached.replay(comp);
      EXPECT_TRUE(replay.verdict.all_finished) << paper::name(p);
      EXPECT_EQ(definite(verdicts), definite(replay.verdict.verdicts))
          << paper::name(p);
    }
  }
}

// ---------------------------------------------------------------------------
// Reliable channel over the socket transport (envelope wire form end to
// end: every monitor payload crosses as a serialized ChannelEnvelope).
// ---------------------------------------------------------------------------

TEST(SocketRuntime, ReliableChannelOverSocketsDeliversAndDrains) {
  for (int round = 0; round < 2; ++round) {
    const int n = 3;
    AtomRegistry reg = paper::make_registry(n);
    const SharedProperty art =
        paper::shared_property(paper::Property::kD, n, reg);
    SystemTrace trace = generate_trace(
        small_params(n, 300 + static_cast<std::uint64_t>(round)));

    SocketRuntime rt(trace, &reg, fast_config());
    ReliableChannel channel(&rt, n, socket_channel_config());
    DecentralizedMonitor dm(property_handle(art), &channel,
                            initial_letters_of(reg, rt.initial_states()));
    channel.set_hooks(&dm);
    rt.set_hooks(&channel);
    rt.run();

    EXPECT_TRUE(dm.all_finished()) << "round " << round;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(channel.unacked_count(i), 0u) << "round " << round;
    }
    Computation comp(rt.history());
    OracleResult oracle = oracle_evaluate(comp, art->automaton());
    SystemVerdict v = dm.result();
    for (Verdict x : oracle.verdicts) {
      EXPECT_TRUE(v.verdicts.count(x)) << "round " << round;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault tolerance (DESIGN.md §13): abortive connection kills mid-run,
// reconnect + HELLO reconciliation, and the node-kill / checkpoint-restore
// / mesh-rejoin drill.
// ---------------------------------------------------------------------------

TEST(SocketFault, KilledConnectionReconnectsAndRetiresLostRecords) {
  // Transport-only: seeded frames cross one channel whose connection is
  // abortively killed (RST) while written records sit unread. The run must
  // still drain to quiescence -- every encoded record is either dispatched
  // or reconciled as lost at the HELLO exchange, never leaked -- and the
  // link must have come back exactly once.
  const int n = 2;
  std::mt19937_64 rng(4242);
  AtomRegistry reg = paper::make_registry(n);
  SocketConfig config = fast_config();
  config.sndbuf = 2048;
  config.rcvbuf = 2048;
  SocketRuntime rt(transport_trace(n), &reg, config);
  CaptureHooks hooks;
  rt.set_hooks(&hooks);

  for (int i = 0; i < 10; ++i) {
    rt.send(MonitorMessage{0, 1, seeded_frame(rng, n, 2, 4)});
  }
  // Pre-run sends are written straight into the socket, and no node reads
  // before run(). Killing from the receiving side makes the loss
  // deterministic: node 1 services the pending kill before its first read,
  // and its abortive close discards every byte still unread in its receive
  // buffer -- at least the first record, which always fits.
  rt.kill_connection(1, 0);
  rt.run();  // must not throw and must not hang

  EXPECT_EQ(rt.connections_killed(), 1u);
  EXPECT_EQ(rt.reconnects(), 1u);
  EXPECT_GT(rt.disconnect_drops(), 0u);
  // Conservation: every record was dispatched or counted as lost.
  EXPECT_EQ(rt.monitor_messages_processed() + rt.disconnect_drops(),
            rt.wire_frames());
  EXPECT_EQ(hooks.received.size(), rt.monitor_messages_processed());
}

TEST(SocketFault, GatheredWriteStopsAtTheKillBoundary) {
  // Twenty records leave node 0 in one flush while the channel's seeded
  // kill countdown is 5. The gathered write must end at the fifth record:
  // anything past it would reach the peer uncounted, and the peer's HELLO
  // count would then run ahead of the writer's.
  const int n = 2;
  const int kRecords = 20;
  AtomRegistry reg = paper::make_registry(n);
  SocketConfig config = fast_config();
  config.fault.enabled = true;
  config.fault.kill_after_min = 5;
  config.fault.kill_after_max = 5;
  config.fault.max_kills = 1;
  SocketRuntime rt(transport_trace(n), &reg, config);
  BurstHooks hooks(&rt, kRecords);
  rt.set_hooks(&hooks);
  ASSERT_NO_THROW(rt.run());

  EXPECT_EQ(rt.wire_frames(), static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(rt.connections_killed(), 1u);
  // One write up to the kill boundary, one for the fifteen records the
  // HELLO exchange re-queues on the new connection.
  EXPECT_EQ(rt.send_calls(), 2u);
  // Only records written before the kill can die with the connection.
  EXPECT_LE(rt.disconnect_drops(), 5u);
  EXPECT_EQ(rt.monitor_messages_processed() + rt.disconnect_drops(),
            rt.wire_frames());
  EXPECT_EQ(hooks.delivered.load(), rt.monitor_messages_processed());
}

TEST(SocketFault, GoldenVerdictsSurviveConnectionKillUnderReliableChannel) {
  // The acceptance drill: a live connection dies mid-run (RST, in-flight
  // records lost) under the full monitoring stack. The reliable channel's
  // retransmissions bridge the outage over the reconnected socket, so the
  // verdict set must equal the no-fault simulator's -- same computation,
  // same verdicts, no fatal throw.
  for (paper::Property p : {paper::Property::kA, paper::Property::kD}) {
    const int n = 3;
    const std::uint64_t seed = 2015;  // first equivalence-golden seed
    AtomRegistry reg = paper::make_registry(n);
    const SharedProperty art = paper::shared_property(p, n, reg);
    SystemTrace trace = generate_trace(paper::experiment_params(p, n, seed));
    force_final_all_true(trace);

    MonitorSession session(art);
    RunResult sim = session.run(trace);

    SocketConfig config = fast_config();
    config.fault.enabled = true;
    config.fault.seed = 23;
    config.fault.kill_after_min = 4;
    config.fault.kill_after_max = 12;
    config.fault.max_kills = 1;
    SocketRuntime rt(trace, &reg, config);
    ReliableChannel channel(&rt, n, socket_channel_config());
    DecentralizedMonitor dm(property_handle(art), &channel,
                            initial_letters_of(reg, rt.initial_states()));
    channel.set_hooks(&dm);
    rt.set_hooks(&channel);
    rt.run();

    EXPECT_EQ(rt.connections_killed(), 1u) << paper::name(p);
    EXPECT_GE(rt.reconnects(), 1u) << paper::name(p);
    SystemVerdict v = dm.result();
    EXPECT_TRUE(v.all_finished) << paper::name(p);
    EXPECT_EQ(v.verdicts, sim.verdict.verdicts) << paper::name(p);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(channel.unacked_count(i), 0u) << paper::name(p);
    }
  }
}

TEST(SocketFault, KillConnectionApiIsSafeFromOutsideTheMesh) {
  // The public kill API drives the same teardown the seeded plan uses;
  // calling it for an already-down pair later is a no-op, and the run
  // still converges on the golden verdicts.
  const int n = 3;
  AtomRegistry reg = paper::make_registry(n);
  const SharedProperty art =
      paper::shared_property(paper::Property::kD, n, reg);
  SystemTrace trace = generate_trace(small_params(n, 901));

  SocketRuntime rt(trace, &reg, fast_config());
  ReliableChannel channel(&rt, n, socket_channel_config());
  DecentralizedMonitor dm(property_handle(art), &channel,
                          initial_letters_of(reg, rt.initial_states()));
  channel.set_hooks(&dm);
  rt.set_hooks(&channel);

  EXPECT_THROW(rt.kill_connection(0, 0), std::out_of_range);
  EXPECT_THROW(rt.kill_connection(-1, 1), std::out_of_range);
  rt.kill_connection(0, 1);  // pre-run: dies at the first link service
  rt.run();

  EXPECT_GE(rt.connections_killed(), 1u);
  EXPECT_GE(rt.reconnects(), 1u);
  EXPECT_TRUE(dm.all_finished());
  Computation comp(rt.history());
  OracleResult oracle = oracle_evaluate(comp, art->automaton());
  SystemVerdict v = dm.result();
  for (Verdict x : oracle.verdicts) {
    EXPECT_TRUE(v.verdicts.count(x));
  }
}

TEST(SocketFault, NodeKillCheckpointRestoreAndMeshRejoin) {
  // The full crash drill over the real transport: the hooks-layer
  // CrashInjector kills and restores the monitor's state from its
  // checkpoint, while the transport-layer node kill severs every one of
  // the node's links at once (both sides of the crash). The mesh re-forms
  // through the normal reconnect path, retransmissions redeliver what the
  // dead node swallowed, and the verdicts still satisfy the contract.
  const int n = 3;
  AtomRegistry reg = paper::make_registry(n);
  const SharedProperty art =
      paper::shared_property(paper::Property::kD, n, reg);
  SystemTrace trace = generate_trace(small_params(n, 505));

  SocketConfig config = fast_config();
  config.fault.enabled = true;
  config.fault.seed = 31;
  config.fault.max_kills = 0;  // only the node kill, no extra link kills
  config.fault.kill_node = 1;
  config.fault.kill_node_after = 1;  // fires at node 1's 2nd monitor record
  SocketRuntime rt(trace, &reg, config);
  ReliableChannel channel(&rt, n, socket_channel_config());
  DecentralizedMonitor dm(property_handle(art), &channel,
                          initial_letters_of(reg, rt.initial_states()));
  channel.set_hooks(&dm);
  CrashPlan plan;
  plan.node = 1;
  plan.crash_after = 4;
  plan.down_deliveries = 2;
  CrashInjector injector(&channel, &dm, &channel, plan);
  rt.set_hooks(&injector);
  rt.run();

  EXPECT_EQ(rt.connections_killed(), static_cast<std::uint64_t>(n - 1));
  EXPECT_GE(rt.reconnects(), 1u);
  EXPECT_GE(injector.stats().crashes, 1u);
  EXPECT_GE(injector.stats().restarts, 1u);
  EXPECT_TRUE(injector.recovered());
  EXPECT_TRUE(dm.all_finished());
  Computation comp(rt.history());
  OracleResult oracle = oracle_evaluate(comp, art->automaton());
  SystemVerdict v = dm.result();
  for (Verdict x : oracle.verdicts) {
    EXPECT_TRUE(v.verdicts.count(x));
  }
  for (Verdict x : v.verdicts) {
    if (x != Verdict::kUnknown) {
      EXPECT_TRUE(oracle.verdicts.count(x));
    }
  }
}

TEST(SocketFault, AppRecordsAreReplayedNeverLost) {
  // App records carry the program's expected-receive bookkeeping: losing
  // one would hang the run forever. Kill connections aggressively under a
  // comm-heavy trace (no monitors, so nothing above the transport can
  // repair anything) -- every receive must still happen, proving the
  // replay log covers exactly what each RST destroyed.
  TraceParams p = small_params(3, 808);
  p.internal_events = 10;
  SystemTrace trace = generate_trace(p);
  AtomRegistry reg = paper::make_registry(3);
  SocketConfig config = fast_config();
  config.time_scale = 0.002;  // stretch the run so kills land mid-stream
  config.sndbuf = 2048;
  config.rcvbuf = 2048;
  config.fault.enabled = true;
  config.fault.seed = 99;
  config.fault.kill_after_min = 1;
  config.fault.kill_after_max = 2;
  config.fault.max_kills = 3;
  SocketRuntime rt(trace, &reg, config);
  // One frame per channel arms the monitor-record kill countdowns; the
  // interesting traffic is the app broadcast stream underneath.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) rt.send(MonitorMessage{i, j, seeded_frame(rng, 3, 1, 1)});
    }
  }
  rt.run();  // quiescence is itself the assertion: no receive was lost

  EXPECT_EQ(rt.program_events(),
            static_cast<std::uint64_t>(trace.total_events()));
  EXPECT_EQ(rt.connections_killed(), 3u);
  // Every kill redials, but a kill that lost nothing does not block
  // quiescence, so the run may finish before its redial lands.
  EXPECT_GE(rt.reconnects(), 1u);
  EXPECT_LE(rt.reconnects(), 3u);
  Computation comp(rt.history());
  EXPECT_TRUE(comp.consistent(comp.top()));
}

/// Open descriptors of this process (the listing's own fd is counted every
/// time, so two counts compare).
int open_fd_count() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(SocketFault, ReconnectsLeakNoDescriptors) {
  // Every descriptor a link bring-up opens -- dialed, accepted, superseded
  // or abandoned -- must be closed by the time the runtime is destroyed.
  // The node kill severs both links of the middle node, which then plays
  // both roles: it redials node 2 and accepts node 0's redial. Seeded link
  // kills add outages on top. App records are transport-reliable, so the
  // comm-heavy trace cannot finish until the severed pairs are back up.
  const int n = 3;
  AtomRegistry reg = paper::make_registry(n);
  const SharedProperty art =
      paper::shared_property(paper::Property::kD, n, reg);
  TraceParams params = small_params(n, 808);
  params.internal_events = 10;
  SystemTrace trace = generate_trace(params);

  const int fds_before = open_fd_count();
  std::uint64_t killed = 0;
  std::uint64_t reconnects = 0;
  {
    SocketConfig config = fast_config();
    config.time_scale = 0.002;  // stretch the run so kills land mid-stream
    config.fault.enabled = true;
    config.fault.seed = 41;
    config.fault.kill_after_min = 2;
    config.fault.kill_after_max = 6;
    config.fault.max_kills = 2;
    config.fault.kill_node = 1;
    config.fault.kill_node_after = 1;
    SocketRuntime rt(trace, &reg, config);
    ReliableChannel channel(&rt, n, socket_channel_config());
    DecentralizedMonitor dm(property_handle(art), &channel,
                            initial_letters_of(reg, rt.initial_states()));
    channel.set_hooks(&dm);
    rt.set_hooks(&channel);
    rt.run();
    EXPECT_TRUE(dm.all_finished());
    EXPECT_EQ(rt.program_events(),
              static_cast<std::uint64_t>(trace.total_events()));
    killed = rt.connections_killed();
    reconnects = rt.reconnects();
  }
  EXPECT_GE(killed, static_cast<std::uint64_t>(n - 1));
  EXPECT_GE(reconnects, 2u);
  EXPECT_EQ(open_fd_count(), fds_before);
}

TEST(SocketRuntime, QuiescenceIsExactNoWorkAfterRunReturns) {
  AtomRegistry reg = paper::make_registry(3);
  const SharedProperty art =
      paper::shared_property(paper::Property::kA, 3, reg);
  SystemTrace trace = generate_trace(small_params(3, 77));

  SocketRuntime rt(trace, &reg, fast_config());
  DecentralizedMonitor dm(property_handle(art), &rt,
                          initial_letters_of(reg, rt.initial_states()));
  rt.set_hooks(&dm);
  rt.run();

  EXPECT_TRUE(dm.all_finished());
  EXPECT_GE(rt.monitor_messages_processed(), rt.wire_frames());
  const std::uint64_t events = rt.program_events();
  const std::uint64_t frames = rt.wire_frames();
  const std::uint64_t bytes = rt.wire_bytes();
  EXPECT_EQ(rt.program_events(), events);
  EXPECT_EQ(rt.wire_frames(), frames);
  EXPECT_EQ(rt.wire_bytes(), bytes);
}

}  // namespace
}  // namespace decmon
