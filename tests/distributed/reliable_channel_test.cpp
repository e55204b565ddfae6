// ReliableChannel unit tests: ack/retransmit protocol mechanics driven
// through a scriptable inner network (the test plays postman, deciding which
// envelopes arrive, in what order, and how often). Loss recovery, dedup,
// piggybacked and pure acks, deterministic jitter, and the save/restore
// round-trip used by crash recovery are each pinned down in isolation;
// schedule_fuzz_test covers the protocol under real runtimes.
//
// Send ordering note: the channel arms its retransmit timer (a self-send)
// while assembling a first transmission, so a fresh send emits [timer, data]
// and on_timer emits [re-armed timer, retransmissions...].
#include "decmon/distributed/reliable_channel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "decmon/monitor/token.hpp"
#include "decmon/monitor/wire.hpp"

namespace decmon {
namespace {

/// Captures every send; the test decides what gets "delivered" back into the
/// channel's hook side and controls the clock.
class ScriptNetwork final : public MonitorNetwork {
 public:
  struct Sent {
    MonitorMessage msg;
    DeliveryPerturbation perturbation;
  };

  void send(MonitorMessage msg) override {
    send_perturbed(std::move(msg), DeliveryPerturbation{});
  }
  void send_perturbed(MonitorMessage msg,
                      const DeliveryPerturbation& perturbation) override {
    sent.push_back(Sent{std::move(msg), perturbation});
  }
  double now() const override { return time; }

  double time = 0.0;
  std::vector<Sent> sent;
};

/// The layer above the channel: records what actually got through.
class RecordingHooks final : public MonitorHooks {
 public:
  void on_local_event(int proc, const Event&, double) override {
    events.push_back(proc);
  }
  void on_local_termination(int proc, double) override {
    terminations.push_back(proc);
  }
  void on_monitor_message(MonitorMessage msg, double) override {
    received.push_back(std::move(msg));
  }

  std::vector<int> events;
  std::vector<int> terminations;
  std::vector<MonitorMessage> received;
};

MonitorMessage make_term(int from, int to, std::uint32_t last_sn = 5) {
  auto payload = std::make_unique<TerminationMessage>();
  payload->process = from;
  payload->last_sn = last_sn;
  return MonitorMessage{from, to, std::move(payload)};
}

const ChannelEnvelope& as_envelope(const ScriptNetwork::Sent& s) {
  EXPECT_EQ(s.msg.payload->tag, ChannelEnvelope::kTag);
  return static_cast<const ChannelEnvelope&>(*s.msg.payload);
}

bool is_timer(const ScriptNetwork::Sent& s) {
  return s.msg.payload && s.msg.payload->tag == ChannelTimer::kTag;
}

/// Take sent[i] out of the script (for handing to on_monitor_message).
MonitorMessage take(ScriptNetwork& net, std::size_t i) {
  MonitorMessage msg = std::move(net.sent.at(i).msg);
  net.sent.erase(net.sent.begin() + static_cast<std::ptrdiff_t>(i));
  return msg;
}

TEST(ReliableChannel, DataIsEnvelopedAndAckedOnDelivery) {
  ScriptNetwork inner;
  RecordingHooks hooks;
  ReliableChannel channel(&inner, 2);
  channel.set_hooks(&hooks);

  channel.send(make_term(0, 1));
  // The retransmit timer (self-send) is armed first, then the envelope.
  ASSERT_EQ(inner.sent.size(), 2u);
  ASSERT_TRUE(is_timer(inner.sent[0]));
  EXPECT_EQ(inner.sent[0].msg.from, 0);
  EXPECT_EQ(inner.sent[0].msg.to, 0);
  EXPECT_GT(inner.sent[0].perturbation.extra_delay, 0.0);
  EXPECT_TRUE(inner.sent[0].perturbation.bypass_fifo);
  const ChannelEnvelope& env = as_envelope(inner.sent[1]);
  EXPECT_EQ(env.seq, 1u);
  EXPECT_NE(env.inner, nullptr);  // first transmission carries the payload
  EXPECT_EQ(channel.unacked_count(0), 1u);

  channel.on_monitor_message(take(inner, 1), inner.now());
  ASSERT_EQ(hooks.received.size(), 1u);
  EXPECT_EQ(hooks.received[0].payload->tag, TerminationMessage::kTag);
  // The receiver immediately pure-acks.
  ASSERT_EQ(inner.sent.size(), 2u);
  const ChannelEnvelope& ack = as_envelope(inner.sent[1]);
  EXPECT_EQ(ack.seq, 0u);
  EXPECT_EQ(ack.ack, 1u);
  EXPECT_EQ(channel.stats(1).acks_sent, 1u);

  channel.on_monitor_message(take(inner, 1), inner.now());
  EXPECT_EQ(channel.unacked_count(0), 0u);
}

TEST(ReliableChannel, LostDataIsRetransmittedUntilAcked) {
  ScriptNetwork inner;
  RecordingHooks hooks;
  ReliableChannelConfig config;
  config.rto = 1.0;
  config.jitter = 0.0;
  ReliableChannel channel(&inner, 2, config);
  channel.set_hooks(&hooks);

  channel.send(make_term(0, 1));
  take(inner, 1);  // the network swallows the data envelope
  MonitorMessage timer = take(inner, 0);
  ASSERT_EQ(timer.payload->tag, ChannelTimer::kTag);

  inner.time = 1.5;
  channel.on_monitor_message(std::move(timer), inner.now());
  // Re-armed timer plus the retransmission: bytes-only, FIFO-exempt.
  ASSERT_EQ(inner.sent.size(), 2u);
  ASSERT_TRUE(is_timer(inner.sent[0]));
  const ChannelEnvelope& retx = as_envelope(inner.sent[1]);
  EXPECT_EQ(retx.seq, 1u);
  EXPECT_EQ(retx.inner, nullptr);
  EXPECT_FALSE(retx.bytes.empty());
  EXPECT_TRUE(inner.sent[1].perturbation.bypass_fifo);
  EXPECT_EQ(channel.stats(0).retransmissions, 1u);
  EXPECT_EQ(channel.stats(0).timer_fires, 1u);

  // The retransmitted copy arrives: decoded from bytes, then acked. On the
  // wire the bare termination travelled as a one-unit frame.
  channel.on_monitor_message(take(inner, 1), inner.now());
  ASSERT_EQ(hooks.received.size(), 1u);
  ASSERT_EQ(hooks.received[0].payload->tag, PayloadFrame::kTag);
  const auto& frame =
      static_cast<const PayloadFrame&>(*hooks.received[0].payload);
  ASSERT_EQ(frame.units.size(), 1u);
  ASSERT_EQ(frame.units[0]->tag, TerminationMessage::kTag);
  const auto& term = static_cast<const TerminationMessage&>(*frame.units[0]);
  EXPECT_EQ(term.process, 0);
  EXPECT_EQ(term.last_sn, 5u);
}

TEST(ReliableChannel, DuplicatesAreSuppressedButReAcked) {
  ScriptNetwork inner;
  RecordingHooks hooks;
  ReliableChannel channel(&inner, 2);
  channel.set_hooks(&hooks);

  channel.send(make_term(0, 1));
  MonitorMessage original = take(inner, 1);
  MonitorMessage duplicate{original.from, original.to,
                           original.payload->clone()};

  channel.on_monitor_message(std::move(original), inner.now());
  channel.on_monitor_message(std::move(duplicate), inner.now());
  EXPECT_EQ(hooks.received.size(), 1u);  // delivered exactly once upward
  EXPECT_EQ(channel.stats(1).dup_suppressed, 1u);
  // Both copies were acked: the second ack covers a possibly lost first.
  EXPECT_EQ(channel.stats(1).acks_sent, 2u);
}

TEST(ReliableChannel, OutOfOrderDataIsForwardedImmediately) {
  ScriptNetwork inner;
  RecordingHooks hooks;
  ReliableChannel channel(&inner, 2);
  channel.set_hooks(&hooks);

  channel.send(make_term(0, 1, 1));
  channel.send(make_term(0, 1, 2));
  // sent: [timer, data seq1, data seq2]; deliver seq2 first.
  ASSERT_EQ(inner.sent.size(), 3u);
  MonitorMessage second = take(inner, 2);
  MonitorMessage first = take(inner, 1);

  channel.on_monitor_message(std::move(second), inner.now());
  ASSERT_EQ(hooks.received.size(), 1u);  // monitors tolerate reordering
  // The ack for the out-of-order arrival is still cumulative: nothing
  // contiguous yet, so it acknowledges 0.
  EXPECT_EQ(as_envelope(inner.sent.back()).ack, 0u);
  channel.on_monitor_message(std::move(first), inner.now());
  ASSERT_EQ(hooks.received.size(), 2u);

  // Now the cumulative ack covers both; delivering it clears the sender's
  // retransmit buffer in one step.
  const ChannelEnvelope& ack = as_envelope(inner.sent.back());
  EXPECT_EQ(ack.seq, 0u);
  EXPECT_EQ(ack.ack, 2u);
  EXPECT_EQ(channel.unacked_count(0), 2u);
  channel.on_monitor_message(take(inner, inner.sent.size() - 1), inner.now());
  EXPECT_EQ(channel.unacked_count(0), 0u);
}

TEST(ReliableChannel, LocalHooksPassThrough) {
  ScriptNetwork inner;
  RecordingHooks hooks;
  ReliableChannel channel(&inner, 3);
  channel.set_hooks(&hooks);
  channel.on_local_event(2, Event{}, 0.0);
  channel.on_local_termination(1, 0.0);
  EXPECT_EQ(hooks.events, std::vector<int>{2});
  EXPECT_EQ(hooks.terminations, std::vector<int>{1});
}

TEST(ReliableChannel, JitterStreamIsDeterministic) {
  auto run = [] {
    ScriptNetwork inner;
    RecordingHooks hooks;
    ReliableChannelConfig config;
    config.seed = 77;
    ReliableChannel channel(&inner, 2, config);
    channel.set_hooks(&hooks);
    std::vector<double> delays;
    auto find_timer = [&inner]() -> std::size_t {
      for (std::size_t i = 0; i < inner.sent.size(); ++i) {
        if (is_timer(inner.sent[i])) return i;
      }
      return inner.sent.size();
    };
    for (int i = 0; i < 8; ++i) {
      channel.send(make_term(0, 1, static_cast<std::uint32_t>(i)));
      const std::size_t t = find_timer();
      if (t == inner.sent.size()) {
        inner.sent.clear();  // timer still armed from the last round
        continue;
      }
      delays.push_back(inner.sent[t].perturbation.extra_delay);
      MonitorMessage timer = take(inner, t);
      inner.sent.clear();  // the network swallows everything else
      inner.time += 100.0;  // far past any backoff deadline
      // Firing the timer draws fresh jitter per retransmitted entry and for
      // the re-armed timer's interval.
      channel.on_monitor_message(std::move(timer), inner.now());
      const std::size_t t2 = find_timer();
      if (t2 != inner.sent.size()) {
        delays.push_back(inner.sent[t2].perturbation.extra_delay);
      }
      inner.sent.clear();
    }
    return delays;
  };
  const std::vector<double> a = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run());
}

TEST(ReliableChannel, SaveRestoreRoundTripIsByteIdentical) {
  ScriptNetwork inner;
  RecordingHooks hooks;
  ReliableChannel channel(&inner, 3);
  channel.set_hooks(&hooks);

  // Build nontrivial state on node 0: two unacked sends, plus an
  // out-of-order arrival from node 2 (dedup state with a non-empty ooo set).
  channel.send(make_term(0, 1, 1));
  channel.send(make_term(0, 2, 2));
  channel.send(make_term(2, 0, 3));
  channel.send(make_term(2, 0, 4));
  std::size_t i = 0;
  while (i < inner.sent.size()) {  // deliver only the second 2->0 envelope
    const ScriptNetwork::Sent& s = inner.sent[i];
    if (s.msg.payload->tag == ChannelEnvelope::kTag && s.msg.from == 2 &&
        s.msg.to == 0 &&
        static_cast<const ChannelEnvelope&>(*s.msg.payload).seq == 2) {
      channel.on_monitor_message(take(inner, i), inner.now());
    } else {
      ++i;
    }
  }
  ASSERT_EQ(hooks.received.size(), 1u);
  EXPECT_EQ(channel.unacked_count(0), 2u);

  const std::vector<std::uint8_t> blob = channel.save_node(0);
  channel.restore_node(0, blob, /*now=*/7.0);
  EXPECT_EQ(channel.save_node(0), blob);
  EXPECT_EQ(channel.unacked_count(0), 2u);

  // Restoring into a *fresh* channel reproduces the same state too.
  ScriptNetwork inner2;
  ReliableChannel fresh(&inner2, 3);
  fresh.restore_node(0, blob, /*now=*/7.0);
  EXPECT_EQ(fresh.save_node(0), blob);
  EXPECT_EQ(fresh.unacked_count(0), 2u);
  // The restored node re-armed its retransmit timer for the unacked data.
  ASSERT_EQ(inner2.sent.size(), 1u);
  EXPECT_TRUE(is_timer(inner2.sent[0]));
}

TEST(ReliableChannel, RestoreRejectsCorruptBlobs) {
  ScriptNetwork inner;
  RecordingHooks hooks;
  ReliableChannel channel(&inner, 2);
  channel.set_hooks(&hooks);
  channel.send(make_term(0, 1));
  const std::vector<std::uint8_t> blob = channel.save_node(0);
  const std::vector<std::uint8_t> reference = blob;

  for (std::size_t len = 0; len < blob.size(); ++len) {
    std::vector<std::uint8_t> truncated(blob.begin(),
                                        blob.begin() + static_cast<long>(len));
    EXPECT_THROW(channel.restore_node(0, truncated, 0.0), WireError)
        << "truncation to " << len << " bytes accepted";
  }
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    std::vector<std::uint8_t> flipped = blob;
    flipped[pos] ^= 0x40;
    EXPECT_THROW(channel.restore_node(0, flipped, 0.0), WireError)
        << "byte flip at " << pos << " accepted";
  }
  // Every failed restore left the node untouched.
  EXPECT_EQ(channel.save_node(0), reference);
}

}  // namespace
}  // namespace decmon
