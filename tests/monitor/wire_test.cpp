#include "decmon/monitor/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "decmon/distributed/reliable_channel.hpp"

namespace decmon {
namespace {

TransitionEntry& add_entry(Token& t, int tid,
                           std::initializer_list<std::uint32_t> cut,
                           std::initializer_list<AtomSet> gstate,
                           std::initializer_list<ConjunctEval> conj) {
  TransitionEntry& e = t.add_entry(cut.size());
  e.transition_id = tid;
  FrontierSlot* f = t.frontier(e);
  std::size_t j = 0;
  for (std::uint32_t x : cut) {
    f[j].cut = x;
    f[j].depend = x;
    ++j;
  }
  j = 0;
  for (AtomSet s : gstate) f[j++].gstate = s;
  j = 0;
  for (ConjunctEval c : conj) e.conj[j++] = c;
  return e;
}

Token sample_token() {
  Token t;
  t.token_id = (std::uint64_t{2} << 32) | 17;
  t.parent = 2;
  t.parent_sn = 9;
  t.parent_vc = VectorClock{3, 1, 9};
  t.next_target_process = 0;
  t.next_target_event = 4;
  t.hops = 5;

  TransitionEntry& e1 =
      add_entry(t, 7, {3, 1, 9}, {0b01, 0b10, 0b11},
                {ConjunctEval::kTrue, ConjunctEval::kUnset,
                 ConjunctEval::kFalse});
  e1.eval = EntryEval::kUnset;
  e1.next_target_process = 0;
  e1.next_target_event = 4;
  e1.stay = t.records.add(3);
  {
    const std::uint32_t lc[] = {2, 1, 8};
    const AtomSet lg[] = {0, 0b10, 0b01};
    FrontierSlot* s = t.records[e1.stay];
    for (std::size_t j = 0; j < 3; ++j) s[j] = {lc[j], 0, lg[j]};
  }

  TransitionEntry& e2 =
      add_entry(t, 12, {5, 5, 5}, {0, 0, 0},
                {ConjunctEval::kUnset, ConjunctEval::kUnset,
                 ConjunctEval::kUnset});
  e2.eval = EntryEval::kFalse;
  e2.next_target_process = -1;  // unset target must survive the trip
  e2.next_target_event = 0;
  return t;
}

void expect_equal(const Token& a, const Token& b) {
  EXPECT_EQ(a.token_id, b.token_id);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.parent_sn, b.parent_sn);
  EXPECT_EQ(a.parent_vc, b.parent_vc);
  EXPECT_EQ(a.next_target_process, b.next_target_process);
  EXPECT_EQ(a.next_target_event, b.next_target_event);
  EXPECT_EQ(a.hops, b.hops);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const TransitionEntry& x = a.entries[i];
    const TransitionEntry& y = b.entries[i];
    EXPECT_EQ(x.transition_id, y.transition_id);
    ASSERT_EQ(x.width(), y.width());
    ASSERT_EQ(x.loop_certified(), y.loop_certified());
    for (std::size_t j = 0; j < x.width(); ++j) {
      EXPECT_EQ(a.frontier(x)[j].cut, b.frontier(y)[j].cut);
      EXPECT_EQ(a.frontier(x)[j].depend, b.frontier(y)[j].depend);
      EXPECT_EQ(a.frontier(x)[j].gstate, b.frontier(y)[j].gstate);
      EXPECT_EQ(x.conj[j], y.conj[j]);
      if (x.loop_certified()) {
        EXPECT_EQ(a.stay(x)[j].cut, b.stay(y)[j].cut);
        EXPECT_EQ(a.stay(x)[j].gstate, b.stay(y)[j].gstate);
      }
    }
    EXPECT_EQ(x.eval, y.eval);
    EXPECT_EQ(x.next_target_process, y.next_target_process);
    EXPECT_EQ(x.next_target_event, y.next_target_event);
  }
}

std::vector<std::uint8_t> bytes_of(const NetPayload& unit) {
  std::vector<std::uint8_t> bytes;
  encode_payload_into(unit, bytes);
  return bytes;
}

std::vector<std::uint8_t> token_bytes(const Token& t) {
  TokenMessage msg;
  msg.token = t;
  return bytes_of(msg);
}

// A bare unit crosses as a one-unit frame: decode it and take the unit out.
template <class Unit>
Unit only_unit(const std::vector<std::uint8_t>& bytes,
               std::size_t max_width = kMaxWireProcesses) {
  std::unique_ptr<PayloadFrame> frame = decode_frame(bytes, max_width);
  if (frame->units.size() != 1 || frame->units[0]->tag != Unit::kTag) {
    throw WireError("not a one-unit frame of the expected kind");
  }
  return static_cast<const Unit&>(*frame->units[0]);
}

Token decode_token(const std::vector<std::uint8_t>& bytes,
                   std::size_t max_width = kMaxWireProcesses) {
  return only_unit<TokenMessage>(bytes, max_width).token;
}

TEST(Wire, TokenRoundTrip) {
  Token t = sample_token();
  auto bytes = token_bytes(t);
  EXPECT_EQ(wire_kind(bytes), WireKind::kFrame);
  expect_equal(t, decode_token(bytes));
}

TEST(Wire, EmptyTokenRoundTrip) {
  Token t;
  t.parent_vc = VectorClock(2);
  auto bytes = token_bytes(t);
  expect_equal(t, decode_token(bytes));
}

TEST(Wire, TerminationRoundTrip) {
  TerminationMessage msg;
  msg.process = 3;
  msg.last_sn = 42;
  auto bytes = bytes_of(msg);
  EXPECT_EQ(wire_kind(bytes), WireKind::kFrame);
  TerminationMessage back = only_unit<TerminationMessage>(bytes);
  EXPECT_EQ(back.process, 3);
  EXPECT_EQ(back.last_sn, 42u);
}

TEST(Wire, RejectsTruncation) {
  auto bytes = token_bytes(sample_token());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> shorter(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_payload(shorter), WireError) << "cut at " << cut;
  }
}

TEST(Wire, RejectsTrailingGarbage) {
  auto bytes = token_bytes(sample_token());
  bytes.push_back(0xAB);
  EXPECT_THROW(decode_payload(bytes), WireError);
}

TEST(Wire, RejectsWrongKind) {
  // Unit tags are only valid inside a frame, never as a message kind.
  auto bytes = token_bytes(sample_token());
  for (WireKind unit_kind :
       {WireKind::kToken, WireKind::kTermination, WireKind::kFloor}) {
    bytes[1] = static_cast<std::uint8_t>(unit_kind);
    EXPECT_THROW(wire_kind(bytes), WireError);
    EXPECT_THROW(decode_payload(bytes), WireError);
  }
  // A frame decoder refuses an envelope.
  ChannelEnvelope ack;
  ack.ack = 3;
  EXPECT_THROW(decode_frame(bytes_of(ack)), WireError);
}

TEST(Wire, RejectsBadVersion) {
  // Version 1, the retired fixed-width layout, is as foreign as garbage.
  for (std::uint8_t version : {std::uint8_t{1}, std::uint8_t{99}}) {
    auto bytes = token_bytes(sample_token());
    bytes[0] = version;
    EXPECT_THROW(decode_payload(bytes), WireError);
    EXPECT_THROW(wire_kind(bytes), WireError);
  }
}

Token random_token(std::mt19937_64& rng) {
  // Widths up to 12 deliberately cross the inline small-buffer boundary (8)
  // so heap-spilled entries round-trip too; one token in eight is 60 to 139
  // wide, so its slot masks span two or three 64-slot chunks. Process
  // indexes stay within the width, as they do in a real session.
  const std::size_t width = rng() % 8 == 0 ? 60 + rng() % 80 : rng() % 13;
  const std::size_t procs = std::max<std::size_t>(width, 1);
  Token t;
  t.token_id = rng();
  t.parent = static_cast<int>(rng() % procs);
  t.parent_sn = static_cast<std::uint32_t>(rng());
  t.parent_vc = VectorClock(width);
  for (std::size_t j = 0; j < width; ++j) {
    t.parent_vc[j] = static_cast<std::uint32_t>(rng() % 1000);
  }
  t.next_target_process = static_cast<int>(rng() % (procs + 1)) - 1;
  t.next_target_event = static_cast<std::uint32_t>(rng() % 100);
  t.hops = static_cast<int>(rng() % 50);
  const std::size_t num_entries = rng() % 5;
  for (std::size_t i = 0; i < num_entries; ++i) {
    TransitionEntry& e = t.add_entry(width);
    // Both sides of 64 and 128, where zig and var spend a second byte.
    e.transition_id = rng() % 16 == 0 ? std::numeric_limits<int>::max()
                                      : static_cast<int>(rng() % 256);
    FrontierSlot* f = t.frontier(e);
    for (std::size_t j = 0; j < width; ++j) {
      f[j].cut = rng() % 8 == 0 ? std::numeric_limits<std::uint32_t>::max()
                                : static_cast<std::uint32_t>(rng() % 1000);
      // Half the slots are consistent, which the encoder leaves unwritten.
      f[j].depend = rng() % 2 == 0 ? f[j].cut
                                   : static_cast<std::uint32_t>(rng() % 1000);
      f[j].gstate = static_cast<AtomSet>(rng());
      e.conj[j] = static_cast<ConjunctEval>(rng() % 3);
    }
    e.eval = static_cast<EntryEval>(rng() % 3);
    e.next_target_process = static_cast<int>(rng() % (procs + 1)) - 1;
    // Half the targets are the event after the frontier's cut, which the
    // decoder derives; at a cut of UINT32_MAX that wraps to 0 and travels.
    const int p = e.next_target_process;
    e.next_target_event =
        p >= 0 && static_cast<std::size_t>(p) < width && rng() % 2 == 0
            ? f[p].cut + 1
            : static_cast<std::uint32_t>(rng() % 100);
    if ((rng() % 3) == 0) {
      e.stay = t.records.add(width);
      FrontierSlot* s = t.records[e.stay];
      f = t.frontier(e);
      for (std::size_t j = 0; j < width; ++j) {
        // Half the stay slots equal the frontier's and are not written.
        const bool same = rng() % 2 == 0;
        s[j].cut = same ? f[j].cut : static_cast<std::uint32_t>(rng() % 1000);
        s[j].gstate = same ? f[j].gstate : static_cast<AtomSet>(rng());
      }
    }
  }
  return t;
}

PayloadFrame frame_of(const Token& t) {
  PayloadFrame frame;
  auto msg = std::make_unique<TokenMessage>();
  msg->token = t;
  frame.units.push_back(std::move(msg));
  return frame;
}

// Property: every reachable Token survives encode/decode structurally
// intact, regardless of width (inline or heap-spilled) or loop flags, and
// the stamp counts exactly the bytes the encoder writes. The elided fields
// (consistent depends, stay slots equal to the frontier, derived targets)
// must each be drawn.
TEST(WireProperty, RandomTokensRoundTrip) {
  std::mt19937_64 rng(0xC0FFEE);
  std::size_t same_depend = 0, same_stay = 0, derived = 0, wrapped = 0;
  for (int iter = 0; iter < 500; ++iter) {
    Token t = random_token(rng);
    const auto bytes = token_bytes(t);
    expect_equal(t, decode_token(bytes));
    PayloadFrame frame = frame_of(t);
    EXPECT_EQ(stamp_frame_wire_size(frame), bytes.size());
    for (const TransitionEntry& e : t.entries) {
      const FrontierSlot* f = t.frontier(e);
      for (std::size_t j = 0; j < e.width(); ++j) {
        same_depend += f[j].depend == f[j].cut;
        same_stay += e.loop_certified() && t.stay(e)[j].cut == f[j].cut &&
                     t.stay(e)[j].gstate == f[j].gstate;
      }
      const int p = e.next_target_process;
      if (p < 0 || static_cast<std::size_t>(p) >= e.width()) continue;
      derived += e.next_target_event == f[p].cut + 1 &&
                 f[p].cut != std::numeric_limits<std::uint32_t>::max();
      wrapped += e.next_target_event == 0 &&
                 f[p].cut == std::numeric_limits<std::uint32_t>::max();
    }
  }
  EXPECT_GT(same_depend, 0u);
  EXPECT_GT(same_stay, 0u);
  EXPECT_GT(derived, 0u);
  EXPECT_GT(wrapped, 0u);
}

// One width travels per token, so the encoder refuses entries of another
// width, and the transition id travels unsigned.
TEST(Wire, EncoderRejectsMixedWidthsAndNegativeTransitionIds) {
  Token mixed = sample_token();
  mixed.add_entry(2).transition_id = 1;
  EXPECT_THROW(token_bytes(mixed), WireError);
  PayloadFrame mixed_frame = frame_of(mixed);
  EXPECT_THROW(stamp_frame_wire_size(mixed_frame), WireError);

  Token negative = sample_token();
  negative.entries[1].transition_id = -1;
  EXPECT_THROW(token_bytes(negative), WireError);
  PayloadFrame negative_frame = frame_of(negative);
  EXPECT_THROW(stamp_frame_wire_size(negative_frame), WireError);
}

TEST(WireProperty, RandomTerminationsRoundTrip) {
  std::mt19937_64 rng(0xDECAF);
  for (int iter = 0; iter < 500; ++iter) {
    TerminationMessage msg;
    msg.process = static_cast<int>(rng() % 4096);
    msg.last_sn = static_cast<std::uint32_t>(rng());
    TerminationMessage back = only_unit<TerminationMessage>(bytes_of(msg));
    EXPECT_EQ(back.process, msg.process);
    EXPECT_EQ(back.last_sn, msg.last_sn);
  }
}

// The session process count bounds every decoded width: a token encoded
// for a wide system is rejected by a narrower session's decoder instead of
// allocating attacker-controlled amounts.
TEST(WireProperty, MaxWidthBoundsDecodedArrays) {
  std::mt19937_64 rng(0xABCD);
  Token t;
  do {
    t = random_token(rng);
  } while (t.parent_vc.size() < 6);
  const auto bytes = token_bytes(t);
  expect_equal(t, decode_token(bytes, t.parent_vc.size()));
  EXPECT_THROW(decode_token(bytes, t.parent_vc.size() - 1), WireError);
}

// Fuzz: random byte flips must raise WireError or decode to *something*,
// never crash or loop.
TEST(WireFuzz, RandomCorruptionIsSafe) {
  std::mt19937_64 rng(0xF00D);
  const auto original = token_bytes(sample_token());
  for (int iter = 0; iter < 2000; ++iter) {
    auto bytes = original;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    try {
      (void)decode_payload(bytes);
    } catch (const WireError&) {
      // expected for most corruptions
    }
  }
}

// Fuzz: random buffers never crash the decoder. Half of them carry a valid
// frame header so the unit decoders see garbage too.
TEST(WireFuzz, RandomBuffersAreSafe) {
  std::mt19937_64 rng(0xBEEF);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bytes(rng() % 64);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    if (iter % 2 == 0 && bytes.size() >= 2) {
      bytes[0] = 4;
      bytes[1] = static_cast<std::uint8_t>(WireKind::kFrame);
    }
    try {
      (void)decode_payload(bytes);
    } catch (const WireError&) {
    }
  }
}

// ---------------------------------------------------------------------------
// HistoryFloorMessage (streaming-GC gossip, DESIGN.md §12-§13). The decoder
// is deliberately stateless about window positions: a floor below the
// receiver's restored history base is a legitimate post-crash resync value
// and must decode unharmed -- clamping is the fold's job, not the codec's.
// ---------------------------------------------------------------------------

HistoryFloorMessage decode_floor(const std::vector<std::uint8_t>& bytes) {
  return only_unit<HistoryFloorMessage>(bytes, 16);
}

TEST(Wire, HistoryFloorRoundTripCarriesEpoch) {
  HistoryFloorMessage msg;
  msg.process = 3;
  msg.floor = 97;
  msg.epoch = 2;
  std::vector<std::uint8_t> bytes;
  encode_payload_into(msg, bytes);
  HistoryFloorMessage back = decode_floor(bytes);
  EXPECT_EQ(back.process, 3);
  EXPECT_EQ(back.floor, 97u);
  EXPECT_EQ(back.epoch, 2u);
}

TEST(Wire, HistoryFloorExtremesRoundTrip) {
  // Corner values: floor 0 under a bumped epoch is exactly the shape a
  // crash-rewound monitor re-advertises when its restored window predates
  // every promise (a floor far below any peer's base); saturated values
  // exercise the varint width edge.
  for (const auto& [floor, epoch] :
       {std::pair<std::uint32_t, std::uint32_t>{0, 1},
        {0, 0xFFFFFFFFu},
        {0xFFFFFFFFu, 0},
        {0xFFFFFFFFu, 0xFFFFFFFFu}}) {
    HistoryFloorMessage msg;
    msg.process = 0;
    msg.floor = floor;
    msg.epoch = epoch;
    std::vector<std::uint8_t> bytes;
    encode_payload_into(msg, bytes);
    HistoryFloorMessage back = decode_floor(bytes);
    EXPECT_EQ(back.floor, floor);
    EXPECT_EQ(back.epoch, epoch);
  }
}

TEST(Wire, HistoryFloorInsideFrameRoundTrips) {
  // Resync floors travel in batched frames like every other staged payload,
  // next to other units; the epoch must survive there too.
  auto frame = std::make_unique<PayloadFrame>();
  auto floor = std::make_unique<HistoryFloorMessage>();
  floor->process = 1;
  floor->floor = 12;
  floor->epoch = 5;
  frame->units.push_back(std::move(floor));
  auto termination = std::make_unique<TerminationMessage>();
  termination->process = 1;
  termination->last_sn = 40;
  frame->units.push_back(std::move(termination));

  std::vector<std::uint8_t> bytes;
  encode_payload_into(*frame, bytes);
  std::unique_ptr<NetPayload> payload = decode_payload(bytes, 4);
  ASSERT_EQ(payload->tag, PayloadFrame::kTag);
  auto& back = static_cast<PayloadFrame&>(*payload);
  ASSERT_EQ(back.units.size(), 2u);
  ASSERT_EQ(back.units[0]->tag, HistoryFloorMessage::kTag);
  const auto& f = static_cast<const HistoryFloorMessage&>(*back.units[0]);
  EXPECT_EQ(f.process, 1);
  EXPECT_EQ(f.floor, 12u);
  EXPECT_EQ(f.epoch, 5u);
}

TEST(Wire, HistoryFloorRejectsTruncationAndTrailingBytes) {
  HistoryFloorMessage msg;
  msg.process = 2;
  msg.floor = 300;  // multi-byte varint
  msg.epoch = 7;
  std::vector<std::uint8_t> bytes;
  encode_payload_into(msg, bytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> shorter(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_payload(shorter, 16), WireError) << "cut " << cut;
  }
  bytes.push_back(0x00);
  EXPECT_THROW(decode_payload(bytes, 16), WireError);
}

}  // namespace
}  // namespace decmon
