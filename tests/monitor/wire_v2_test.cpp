// Batched frames (wire v4): seeded property round-trips across varint and
// clock-width boundaries, exact accounting (the stamped sizes must agree
// with the real encoder byte for byte), bare units as one-unit frames,
// process indexes bounded by the session width, and the same exhaustive
// corruption discipline the checkpoint codec gets -- truncation at every
// length, a byte flip at every position.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "decmon/distributed/message.hpp"
#include "decmon/distributed/reliable_channel.hpp"
#include "decmon/monitor/wire.hpp"

namespace decmon {
namespace {

constexpr std::uint8_t kWireVersion = 4;

// Values straddling every LEB128 length step (1/2/../10 bytes) plus the
// u32 ceiling the clock components live under.
const std::uint64_t kVarintEdges[] = {
    0,
    1,
    0x7F,
    0x80,
    0x3FFF,
    0x4000,
    0x1FFFFF,
    0x200000,
    0xFFFFFFF,
    0x10000000,
    0xFFFFFFFFull,
    0x7FFFFFFFFFFFFFFFull,
    0xFFFFFFFFFFFFFFFFull,
};

TEST(WireV2, VarintEdgeValuesRoundTrip) {
  for (std::uint64_t x : kVarintEdges) {
    std::vector<std::uint8_t> buf;
    WireWriter w(buf);
    w.var(x);
    EXPECT_EQ(buf.size(), WireWriter::var_size(x)) << x;
    WireReader r(buf);
    EXPECT_EQ(r.var(), x);
    r.done();
  }
}

TEST(WireV2, ZigzagEdgeValuesRoundTrip) {
  std::vector<std::int64_t> values = {0, -1, 1, -64, 63, -65, 64};
  for (std::uint64_t x : kVarintEdges) {
    values.push_back(static_cast<std::int64_t>(x));
    values.push_back(-static_cast<std::int64_t>(x >> 1));
  }
  for (std::int64_t x : values) {
    std::vector<std::uint8_t> buf;
    WireWriter w(buf);
    w.zig(x);
    WireReader r(buf);
    EXPECT_EQ(r.zig(), x) << x;
    r.done();
  }
}

TEST(WireV2, RejectsOverlongVarint) {
  // 10 continuation bytes followed by a terminator with high value bits set
  // would decode to more than 64 bits.
  std::vector<std::uint8_t> buf(10, 0xFF);
  buf.push_back(0x03);
  WireReader r(buf);
  EXPECT_THROW(r.var(), WireError);
}

// ---------------------------------------------------------------------------
// Frame round-trips.
// ---------------------------------------------------------------------------

Token random_token(std::mt19937_64& rng, std::size_t width) {
  auto edge = [&rng]() -> std::uint32_t {
    const std::uint64_t raw =
        kVarintEdges[rng() % (sizeof kVarintEdges / sizeof *kVarintEdges)];
    return static_cast<std::uint32_t>(raw);  // clocks are u32 on the wire
  };
  Token t;
  t.token_id = rng();
  t.parent = static_cast<int>(rng() % width);
  t.parent_sn = edge();
  t.parent_vc = VectorClock(width);
  for (std::size_t j = 0; j < width; ++j) t.parent_vc[j] = edge();
  t.next_target_process = static_cast<int>(rng() % (width + 1)) - 1;
  t.next_target_event = edge();
  t.hops = static_cast<int>(rng() % 1000);
  // Tokens of both widths in one frame exercise both the delta-vs-base and
  // raw-varint clock paths; the entries of one token share its width.
  const std::size_t n = rng() % 2 == 0 ? width : width + 1;
  const std::size_t entries = rng() % 6;
  for (std::size_t i = 0; i < entries; ++i) {
    TransitionEntry e;
    e.transition_id = static_cast<int>(rng() % 200);
    e.conj.resize(n);
    e.frontier = t.records.add(n);
    FrontierSlot* f = t.records[e.frontier];
    for (std::size_t j = 0; j < n; ++j) {
      f[j] = {edge(), edge(), rng()};
      e.conj[j] = static_cast<ConjunctEval>(rng() % 3);
    }
    e.eval = static_cast<EntryEval>(rng() % 3);
    e.next_target_process = static_cast<int>(rng() % (width + 1)) - 1;
    e.next_target_event = edge();
    if (rng() % 2 == 0) {
      e.stay = t.records.add(n);
      FrontierSlot* s = t.records[e.stay];
      for (std::size_t j = 0; j < n; ++j) s[j] = {edge(), 0, rng()};
    }
    // Sometimes hold an earlier entry's frontier record or stay-point
    // record, as entries of one walk do, so the reference paths are
    // covered; the record just made is then left unreferenced.
    if (i > 0) {
      const TransitionEntry& earlier = t.entries[rng() % i];
      if (rng() % 2 == 0) e.frontier = earlier.frontier;
      if (earlier.loop_certified() && rng() % 2 == 0) e.stay = earlier.stay;
    }
    t.entries.push_back(std::move(e));
  }
  return t;
}

std::unique_ptr<PayloadFrame> random_frame(std::mt19937_64& rng,
                                           std::size_t units,
                                           std::size_t width) {
  auto frame = std::make_unique<PayloadFrame>();
  for (std::size_t i = 0; i < units; ++i) {
    if (rng() % 4 == 0) {
      auto term = std::make_unique<TerminationMessage>();
      term->process = static_cast<int>(rng() % width);
      term->last_sn = static_cast<std::uint32_t>(rng());
      frame->units.push_back(std::move(term));
    } else {
      auto msg = std::make_unique<TokenMessage>();
      msg->token = random_token(rng, width);
      frame->units.push_back(std::move(msg));
    }
  }
  return frame;
}

void expect_equal_token(const Token& a, const Token& b) {
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
    // Records shared before the trip are shared after it, and no others.
    for (std::size_t k = 0; k < i; ++k) {
      const TransitionEntry& xk = a.entries[k];
      const TransitionEntry& yk = b.entries[k];
      EXPECT_EQ(x.frontier == xk.frontier, y.frontier == yk.frontier);
      EXPECT_EQ(x.loop_certified() && x.stay == xk.stay,
                y.loop_certified() && y.stay == yk.stay);
    }
  }
}

void expect_equal_frame(const PayloadFrame& a, const PayloadFrame& b) {
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t i = 0; i < a.units.size(); ++i) {
    ASSERT_EQ(a.units[i]->tag, b.units[i]->tag) << "unit " << i;
    if (a.units[i]->tag == TokenMessage::kTag) {
      expect_equal_token(static_cast<const TokenMessage&>(*a.units[i]).token,
                         static_cast<const TokenMessage&>(*b.units[i]).token);
    } else {
      const auto& x = static_cast<const TerminationMessage&>(*a.units[i]);
      const auto& y = static_cast<const TerminationMessage&>(*b.units[i]);
      EXPECT_EQ(x.process, y.process);
      EXPECT_EQ(x.last_sn, y.last_sn);
    }
  }
}

// Seeded sweep over batch sizes 1 (the common route_token flush) through 12
// (past SmallVec-style inline capacities and the >8 mark), clock widths 1
// through 9 (crossing the inline-clock boundary), with varint-edge values
// throughout.
TEST(WireV2, SeededFrameRoundTrips) {
  std::mt19937_64 rng(20250805);
  for (std::size_t units : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                            std::size_t{9}, std::size_t{12}}) {
    for (std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                              std::size_t{8}, std::size_t{9}}) {
      for (int round = 0; round < 8; ++round) {
        auto frame = random_frame(rng, units, width);
        const auto bytes = encode_frame(*frame);
        EXPECT_EQ(wire_kind(bytes), WireKind::kFrame);
        auto back = decode_frame(bytes, width + 1);
        expect_equal_frame(*frame, *back);
        EXPECT_EQ(back->wire_size, bytes.size());
      }
    }
  }
}

TEST(WireV2, TerminationOnlyFrameRoundTrips) {
  // No token unit -> empty base clock; the header must still parse.
  auto frame = std::make_unique<PayloadFrame>();
  auto term = std::make_unique<TerminationMessage>();
  term->process = 2;
  term->last_sn = 7;
  frame->units.push_back(std::move(term));
  const auto bytes = encode_frame(*frame);
  auto back = decode_frame(bytes, 8);
  expect_equal_frame(*frame, *back);
}

// The stamp and the real encoder must never disagree: bytes-on-wire
// accounting is only trustworthy if stamp == encode.
TEST(WireV2, StampMatchesEncodedSize) {
  std::mt19937_64 rng(404);
  for (int round = 0; round < 32; ++round) {
    auto frame = random_frame(rng, 1 + rng() % 10, 1 + rng() % 8);
    const std::size_t stamped = stamp_frame_wire_size(*frame);
    const auto bytes = encode_frame(*frame);
    EXPECT_EQ(stamped, bytes.size());
    EXPECT_EQ(frame->wire_size, bytes.size());
    std::size_t unit_total = 0;
    for (const auto& unit : frame->units) unit_total += unit->wire_size;
    // Units account for everything but the frame header + base clock
    // (version + kind + 2 varint counts + up to 8 base components).
    ASSERT_LT(unit_total, stamped);
    EXPECT_LE(stamped - unit_total, std::size_t{2 + 10 + 10 + 8 * 5});
    // Re-stamping is idempotent.
    EXPECT_EQ(stamp_frame_wire_size(*frame), stamped);
  }
}

TEST(WireV2, DecodePayloadDispatchesFrames) {
  std::mt19937_64 rng(7);
  auto frame = random_frame(rng, 3, 4);
  std::vector<std::uint8_t> bytes;
  encode_payload_into(*frame, bytes);
  auto payload = decode_payload(bytes, 5);
  ASSERT_EQ(payload->tag, PayloadFrame::kTag);
  expect_equal_frame(*frame, static_cast<const PayloadFrame&>(*payload));
}

// ---------------------------------------------------------------------------
// Bare units: there is one message form, so a unit sent on its own crosses
// as a one-unit frame.
// ---------------------------------------------------------------------------

TEST(WireV2, BareUnitsEncodeAsOneUnitFrames) {
  std::mt19937_64 rng(11);
  auto token = std::make_unique<TokenMessage>();
  token->token = random_token(rng, 4);
  auto termination = std::make_unique<TerminationMessage>();
  termination->process = 1;
  termination->last_sn = 99;
  auto floor = std::make_unique<HistoryFloorMessage>();
  floor->process = 3;
  floor->floor = 300;
  floor->epoch = 2;
  std::vector<std::unique_ptr<NetPayload>> units;
  units.push_back(std::move(token));
  units.push_back(std::move(termination));
  units.push_back(std::move(floor));
  for (auto& unit : units) {
    std::vector<std::uint8_t> bare;
    encode_payload_into(*unit, bare);
    PayloadFrame frame;
    frame.units.push_back(std::move(unit));
    EXPECT_EQ(bare, encode_frame(frame));
    // Its stamped size is the same encoding's length.
    EXPECT_EQ(stamp_frame_wire_size(frame), bare.size());
    auto back = decode_payload(bare, 5);
    ASSERT_EQ(back->tag, PayloadFrame::kTag);
    ASSERT_EQ(static_cast<const PayloadFrame&>(*back).units.size(), 1u);
  }
}

TEST(WireV2, SingleUnitFrameIsNotV1) {
  // The monitor frames every send, even singles; make sure the receiver
  // can tell them apart from legacy buffers by the version byte alone.
  std::mt19937_64 rng(13);
  auto frame = random_frame(rng, 1, 3);
  const auto bytes = encode_frame(*frame);
  EXPECT_EQ(bytes[0], kWireVersion);
  EXPECT_EQ(wire_kind(bytes), WireKind::kFrame);
}

// ---------------------------------------------------------------------------
// Corruption: the checkpoint codec's discipline, applied to frames.
// ---------------------------------------------------------------------------

TEST(WireV2, RejectsTruncationAtEveryLength) {
  std::mt19937_64 rng(17);
  auto frame = random_frame(rng, 4, 5);
  const auto bytes = encode_frame(*frame);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> shorter(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_frame(shorter, 6), WireError) << "cut at " << cut;
  }
}

TEST(WireV2, ByteFlipsNeverCrash) {
  // A flipped byte may still decode (varint payload bytes carry no
  // redundancy), but it must either throw WireError or produce a frame --
  // never crash, hang, or allocate unboundedly. Width fields are bounded
  // by max_width, unit counts by the frame ceiling.
  std::mt19937_64 rng(23);
  auto frame = random_frame(rng, 3, 4);
  const auto bytes = encode_frame(*frame);
  int survived = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (std::uint8_t mask : {0x01, 0x80}) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[pos] ^= mask;
      try {
        auto back = decode_frame(flipped, 5);
        if (back) ++survived;
      } catch (const WireError&) {
        // expected for most corruptions
      }
    }
  }
  EXPECT_GT(survived, 0) << "sanity: some flips decode (no checksum layer)";
}

TEST(WireV2, RejectsTrailingGarbage) {
  std::mt19937_64 rng(29);
  auto frame = random_frame(rng, 2, 3);
  auto bytes = encode_frame(*frame);
  bytes.push_back(0);
  EXPECT_THROW(decode_frame(bytes, 4), WireError);
}

TEST(WireV2, RejectsOversizedUnitCount) {
  // Hand-build a header claiming 2^20 units: the decoder must bail on the
  // ceiling before trusting the count.
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  w.u8(kWireVersion);
  w.u8(3);  // WireKind::kFrame
  w.var(std::uint64_t{1} << 20);
  w.var(0);  // empty base clock
  EXPECT_THROW(decode_frame(buf, 4), WireError);
}

// ---------------------------------------------------------------------------
// Hand-built token units: the shared-block references and packed conj
// values must be checked before they are trusted.
// ---------------------------------------------------------------------------

struct HandEntry {
  std::uint64_t frontier = 0;  ///< 0 inline, k >= 1 the k-th inline block
  std::uint8_t conj = 0;       ///< both slots' conj values, packed
  std::uint64_t loop = 0;      ///< 0 none, 1 inline, k + 1 inline block k
  std::uint8_t flags = 0;      ///< eval and derived-target bits, or junk
  std::uint64_t tid = 4;
  std::uint64_t depend_mask = 0b11;  ///< slots whose depend is cut + 1
  std::uint64_t stay_mask = 0b11;    ///< stay slots that differ
  std::int64_t target = -1;          ///< next_target_process
  std::uint32_t cut = 5;             ///< both frontier slots' cut
};

// One frame holding one token with `count` claimed entries, of which
// `entries` are written: width 2, empty base clock (cuts are raw varints).
std::vector<std::uint8_t> hand_frame(std::uint64_t count,
                                     const std::vector<HandEntry>& entries) {
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  w.u8(kWireVersion);
  w.u8(3);  // WireKind::kFrame
  w.var(1);
  w.var(0);  // empty base clock
  w.u8(1);   // token unit
  w.var(9);  // token_id
  w.zig(0);  // parent
  w.var(0);  // parent_sn
  w.var(0);  // parent_vc width
  w.zig(-1);
  w.var(0);
  w.var(0);  // hops
  w.var(count);
  if (count != 0) w.var(2);  // the entries' width, once per token
  for (const HandEntry& e : entries) {
    w.var(e.tid);
    w.var(e.frontier);
    if (e.frontier == 0) {
      for (int j = 0; j < 2; ++j) {
        w.var(e.cut);
        w.var(0b10);
      }
      w.var(e.depend_mask);
      // One depend - cut per mask bit, bits past the width included.
      for (int j = 0; j < 64; ++j) {
        if ((e.depend_mask >> j) & 1) w.zig(1);
      }
    }
    w.u8(e.conj);
    const std::uint8_t stay_kind = e.loop == 0 ? 0 : e.loop == 1 ? 1 : 2;
    w.u8(static_cast<std::uint8_t>(e.flags | stay_kind << 3));
    w.zig(e.target);
    if ((e.flags & 0x04) == 0) w.var(0);  // next_target_event, not derived
    if (e.loop == 1) {
      w.var(e.stay_mask);
      for (int j = 0; j < 64; ++j) {
        if (((e.stay_mask >> j) & 1) == 0) continue;
        w.zig(-2);  // loop_cut - cut
        w.var(0b01);
      }
    } else if (e.loop > 1) {
      w.var(e.loop - 1);
    }
  }
  return buf;
}

TEST(WireV2, HandBuiltReferencesCopyTheEarlierBlocks) {
  const auto bytes = hand_frame(3, {{0, 0b1001, 1}, {1, 0b0110, 2}, {0, 0, 0}});
  auto frame = decode_frame(bytes, 2);
  const Token& t = static_cast<const TokenMessage&>(*frame->units[0]).token;
  ASSERT_EQ(t.entries.size(), 3u);
  const TransitionEntry& shared = t.entries[1];
  EXPECT_EQ(t.frontier(shared)[1].cut, 5u);
  EXPECT_EQ(t.frontier(shared)[1].depend, 6u);
  EXPECT_EQ(t.frontier(shared)[1].gstate, 0b10u);
  EXPECT_EQ(shared.conj[0], ConjunctEval::kFalse);
  EXPECT_EQ(shared.conj[1], ConjunctEval::kTrue);
  ASSERT_TRUE(shared.loop_certified());
  EXPECT_EQ(t.stay(shared)[0].cut, 3u);
  EXPECT_EQ(t.stay(shared)[0].gstate, 0b01u);
  EXPECT_FALSE(t.entries[2].loop_certified());
  // A reference names the referenced entry's record itself.
  EXPECT_EQ(shared.frontier, t.entries[0].frontier);
  EXPECT_EQ(shared.stay, t.entries[0].stay);
  EXPECT_NE(t.entries[2].frontier, t.entries[0].frontier);
  EXPECT_EQ(t.records.size(), 3u);  // two frontiers and one stay-point
}

TEST(WireV2, EntriesSharingARecordShareOneAfterDecode) {
  // Entries 0 and 1 hold one frontier record and one stay-point record;
  // entry 2 holds an equal copy of that frontier. The writer shares by
  // record, not by value: the copy travels inline and decodes to a record
  // of its own, and the shared record decodes to one record again.
  auto build = [](bool share) {
    Token t;
    t.parent_vc = VectorClock{4, 2, 7};
    for (int i = 0; i < 3; ++i) {
      TransitionEntry& e = t.add_entry(3);
      e.transition_id = i;
      FrontierSlot* f = t.frontier(e);
      for (std::size_t j = 0; j < 3; ++j) f[j] = {5, 6, 0b10};
    }
    t.entries[0].stay = t.records.add(3);
    t.entries[1].stay = t.entries[0].stay;
    if (share) t.entries[1].frontier = t.entries[0].frontier;
    return t;
  };
  for (bool share : {false, true}) {
    const Token t = build(share);
    TokenMessage msg;
    msg.token = t;
    PayloadFrame frame;
    frame.units.push_back(msg.clone());
    const auto bytes = encode_frame(frame);
    auto decoded = decode_frame(bytes, 3);
    const Token& d = static_cast<const TokenMessage&>(*decoded->units[0]).token;
    expect_equal_token(t, d);
    EXPECT_EQ(d.entries[0].frontier == d.entries[1].frontier, share);
    EXPECT_NE(d.entries[2].frontier, d.entries[0].frontier);
    EXPECT_EQ(d.entries[0].stay, d.entries[1].stay);
    // Frontier records, plus the one stay-point.
    EXPECT_EQ(d.records.size(), share ? 3u : 4u);
    EXPECT_EQ(stamp_frame_wire_size(frame), bytes.size());
  }
  // Sharing the record replaces entry 1's inline block by a reference.
  auto size_of = [&build](bool share) {
    PayloadFrame frame;
    auto msg = std::make_unique<TokenMessage>();
    msg->token = build(share);
    frame.units.push_back(std::move(msg));
    return encode_frame(frame).size();
  };
  EXPECT_LT(size_of(true), size_of(false));
}

TEST(WireV2, HandBuiltMasksAndDerivedTargetsFillFromTheFrontier) {
  HandEntry e;
  e.depend_mask = 0b10;  // slot 0 has depend == cut
  e.loop = 1;
  e.stay_mask = 0b01;  // stay slot 1 equals the frontier's
  e.flags = 0x04 | 2;  // derived target, eval kFalse
  e.target = 1;
  e.tid = 0x7FFFFFFF;
  auto frame = decode_frame(hand_frame(1, {e}), 2);
  const Token& t = static_cast<const TokenMessage&>(*frame->units[0]).token;
  const TransitionEntry& x = t.entries.at(0);
  EXPECT_EQ(x.transition_id, 0x7FFFFFFF);
  EXPECT_EQ(x.eval, EntryEval::kFalse);
  EXPECT_EQ(t.frontier(x)[0].depend, 5u);
  EXPECT_EQ(t.frontier(x)[1].depend, 6u);
  EXPECT_EQ(x.next_target_process, 1);
  EXPECT_EQ(x.next_target_event, 6u);
  ASSERT_TRUE(x.loop_certified());
  EXPECT_EQ(t.stay(x)[0].cut, 3u);
  EXPECT_EQ(t.stay(x)[0].gstate, 0b01u);
  EXPECT_EQ(t.stay(x)[1].cut, 5u);
  EXPECT_EQ(t.stay(x)[1].gstate, 0b10u);
}

TEST(WireV2, RejectsBlockReferencesAtOrBeyondTheDistinctCount) {
  // No block written yet, then one distinct block: references 1 and 2.
  EXPECT_THROW(decode_frame(hand_frame(1, {{1, 0, 0}}), 2), WireError);
  EXPECT_THROW(decode_frame(hand_frame(2, {{0, 0, 0}, {2, 0, 0}}), 2),
               WireError);
  EXPECT_THROW(decode_frame(hand_frame(1, {{0, 0, 2}}), 2), WireError);
  EXPECT_THROW(decode_frame(hand_frame(2, {{0, 0, 1}, {0, 0, 3}}), 2),
               WireError);
  EXPECT_NO_THROW(decode_frame(hand_frame(2, {{0, 0, 1}, {1, 0, 2}}), 2));
  // A stay-point reference of 0 names no block: the frame's last byte is
  // entry 1's reference.
  auto zero_ref = hand_frame(2, {{0, 0, 1}, {1, 0, 2}});
  ASSERT_EQ(zero_ref.back(), 1);
  zero_ref.back() = 0;
  EXPECT_THROW(decode_frame(zero_ref, 2), WireError);
}

TEST(WireV2, RejectsBadPackedConjuncts) {
  EXPECT_THROW(decode_frame(hand_frame(1, {{0, 0b0011, 0}}), 2), WireError);
  EXPECT_THROW(decode_frame(hand_frame(1, {{0, 0b1100, 0}}), 2), WireError);
  // Width 2 uses the low four bits; the padding must be zero.
  EXPECT_THROW(decode_frame(hand_frame(1, {{0, 0b010000, 0}}), 2), WireError);
  EXPECT_THROW(decode_frame(hand_frame(1, {{0, 0x80, 0}}), 2), WireError);
  EXPECT_NO_THROW(decode_frame(hand_frame(1, {{0, 0b1010, 0}}), 2));
}

TEST(WireV2, RejectsBadEntryFlags) {
  auto flagged = [](std::uint8_t flags) {
    HandEntry e;
    e.flags = flags;
    return hand_frame(1, {e});
  };
  EXPECT_NO_THROW(decode_frame(flagged(2), 2));  // eval kFalse
  // Unknown flag bits, eval 3 and stay kind 3.
  for (std::uint8_t flags : {0x20, 0x40, 0x80, 0x03, 0x18}) {
    EXPECT_THROW(decode_frame(flagged(flags), 2), WireError)
        << static_cast<int>(flags);
  }
}

TEST(WireV2, RejectsMaskBitsAtOrPastTheWidth) {
  HandEntry depend;
  depend.depend_mask = 0b100;
  EXPECT_THROW(decode_frame(hand_frame(1, {depend}), 2), WireError);
  HandEntry stay;
  stay.loop = 1;
  stay.stay_mask = 0b110;
  EXPECT_THROW(decode_frame(hand_frame(1, {stay}), 2), WireError);
  stay.stay_mask = 0b10;
  EXPECT_NO_THROW(decode_frame(hand_frame(1, {stay}), 2));
}

TEST(WireV2, RejectsUnderivableTargets) {
  auto derived = [](std::int64_t target, std::uint32_t cut) {
    HandEntry e;
    e.flags = 0x04;
    e.target = target;
    e.cut = cut;
    e.depend_mask = 0;  // depend == cut, which a cut of UINT32_MAX allows
    return hand_frame(1, {e});
  };
  EXPECT_NO_THROW(decode_frame(derived(0, 5), 3));
  // An unset target, a target past the entry's width (though within the
  // session's), and a cut with no next event.
  EXPECT_THROW(decode_frame(derived(-1, 5), 3), WireError);
  EXPECT_THROW(decode_frame(derived(2, 5), 3), WireError);
  EXPECT_THROW(decode_frame(derived(0, 0xFFFFFFFFu), 3), WireError);
  EXPECT_NO_THROW(decode_frame(derived(1, 0xFFFFFFFEu), 3));
  // Not derived, a cut of UINT32_MAX travels with its target event.
  HandEntry written;
  written.depend_mask = 0;
  written.cut = 0xFFFFFFFFu;
  written.target = 0;
  EXPECT_NO_THROW(decode_frame(hand_frame(1, {written}), 3));
}

TEST(WireV2, RejectsTransitionIdsAboveIntMax) {
  HandEntry e;
  e.tid = 0x7FFFFFFF;
  EXPECT_NO_THROW(decode_frame(hand_frame(1, {e}), 2));
  e.tid = 0x80000000u;
  EXPECT_THROW(decode_frame(hand_frame(1, {e}), 2), WireError);
}

TEST(WireV2, RejectsVersionThreeFrames) {
  // The v3 encoding of hand_frame(1, {{0, 0, 0}}): the same token, with a
  // zigzag transition id, a width and a loop varint in every entry.
  const std::vector<std::uint8_t> v3 = {3, 3, 1, 0, 1, 9, 0, 0, 0, 1, 0, 0, 1,
                                        8, 2, 0, 5, 2, 2, 5, 2, 2, 0, 0, 1, 0,
                                        0};
  EXPECT_NO_THROW(decode_frame(hand_frame(1, {{0, 0, 0}}), 2));
  EXPECT_THROW(decode_frame(v3, 2), WireError);
  EXPECT_THROW(wire_kind(v3), WireError);
  // Relabelled as v4, the v3 layout still does not decode.
  std::vector<std::uint8_t> relabelled = v3;
  relabelled[0] = kWireVersion;
  EXPECT_THROW(decode_frame(relabelled, 2), WireError);
}

TEST(WireV2, RejectsEntryCountBeyondTheBytesLeft) {
  // A frame of about a dozen bytes must not make the decoder reserve room
  // for 65,536 entries (or units) before it finds out they are not there.
  const auto bytes = hand_frame(65536, {});
  ASSERT_LT(bytes.size(), 20u);
  EXPECT_THROW(decode_frame(bytes, 2), WireError);

  std::vector<std::uint8_t> units;
  WireWriter w(units);
  w.u8(kWireVersion);
  w.u8(3);  // WireKind::kFrame
  w.var(65536);
  w.var(0);  // empty base clock
  EXPECT_THROW(decode_frame(units, 2), WireError);
}

// The entry-count bound divides the bytes left by the smallest entry, so a
// token of smallest entries must still decode. At width 1 that is an entry
// that names the first entry's frontier and derives its target; at width 0
// one with an inline (empty) frontier: five bytes each.
TEST(WireV2, FramePackedWithMinimalEntriesDecodes) {
  for (std::size_t width : {std::size_t{0}, std::size_t{1}}) {
    auto bytes_with = [width](std::size_t entries) {
      PayloadFrame frame;
      auto msg = std::make_unique<TokenMessage>();
      Token& t = msg->token;
      for (std::size_t i = 0; i < entries; ++i) {
        TransitionEntry& e = t.add_entry(width);
        e.transition_id = static_cast<int>(i % 100);
        if (width == 1) {
          if (i > 0) e.frontier = t.entries.front().frontier;
          e.next_target_process = 0;
          e.next_target_event = t.frontier(e)[0].cut + 1;
        }
      }
      frame.units.push_back(std::move(msg));
      return encode_frame(frame);
    };
    // Both counts take two varint bytes, so the difference is the entries.
    const auto fewer = bytes_with(200);
    const auto packed = bytes_with(1000);
    EXPECT_EQ(packed.size() - fewer.size(), 800u * 5) << "width " << width;
    auto frame = decode_frame(packed, 2);
    EXPECT_EQ(static_cast<const TokenMessage&>(*frame->units[0])
                  .token.entries.size(),
              1000u);
  }
}

// Process indexes name one of the session's processes: a peer's bytes must
// not reach a monitor's per-peer arrays with an index past the session
// width (a termination's process indexes peer_last_sn_ directly).
TEST(WireV2, RejectsProcessIndexesAtOrBeyondMaxWidth) {
  constexpr int n = 4;
  auto frame_with = [](std::unique_ptr<NetPayload> unit) {
    PayloadFrame frame;
    frame.units.push_back(std::move(unit));
    return encode_frame(frame);
  };
  auto termination = [](int process) {
    auto msg = std::make_unique<TerminationMessage>();
    msg->process = process;
    msg->last_sn = 5;
    return msg;
  };
  auto floor = [](int process) {
    auto msg = std::make_unique<HistoryFloorMessage>();
    msg->process = process;
    msg->floor = 5;
    return msg;
  };
  auto token = [](int parent, int target, int entry_target) {
    auto msg = std::make_unique<TokenMessage>();
    msg->token.parent = parent;
    msg->token.parent_vc = VectorClock(n);
    msg->token.next_target_process = target;
    TransitionEntry& e = msg->token.add_entry(n);
    e.transition_id = 0;
    e.next_target_process = entry_target;
    return msg;
  };

  EXPECT_NO_THROW(decode_frame(frame_with(termination(n - 1)), n));
  EXPECT_THROW(decode_frame(frame_with(termination(n)), n), WireError);
  EXPECT_NO_THROW(decode_frame(frame_with(floor(n - 1)), n));
  EXPECT_THROW(decode_frame(frame_with(floor(n)), n), WireError);
  // -1 stays a valid unset target.
  EXPECT_NO_THROW(decode_frame(frame_with(token(n - 1, -1, -1)), n));
  EXPECT_THROW(decode_frame(frame_with(token(n, 0, 0)), n), WireError);
  EXPECT_THROW(decode_frame(frame_with(token(0, n, 0)), n), WireError);
  EXPECT_THROW(decode_frame(frame_with(token(0, 0, n)), n), WireError);
  EXPECT_THROW(decode_frame(frame_with(token(0, -2, 0)), n), WireError);
}

TEST(WireV2, FrameCloneDeepCopies) {
  std::mt19937_64 rng(31);
  auto frame = random_frame(rng, 3, 4);
  auto msg = std::make_unique<TokenMessage>();
  msg->token = random_token(rng, 4);
  frame->units.insert(frame->units.begin(), std::move(msg));
  stamp_frame_wire_size(*frame);
  auto copy = frame->clone();
  ASSERT_NE(copy, nullptr);
  auto* copied = static_cast<PayloadFrame*>(copy.get());
  expect_equal_frame(*frame, *copied);
  EXPECT_EQ(copied->wire_size, frame->wire_size);
  // Mutating the copy must not touch the original.
  static_cast<TokenMessage*>(copied->units[0].get())->token.hops += 1;
  EXPECT_NE(
      static_cast<TokenMessage*>(copied->units[0].get())->token.hops,
      static_cast<TokenMessage*>(frame->units[0].get())->token.hops);
}

// ---------------------------------------------------------------------------
// Channel envelopes (wire kind 4): the reliable channel's protocol messages
// gained a wire form so the channel can be stacked over a socket transport.
// ---------------------------------------------------------------------------

TEST(WireV2, EnvelopeWithInnerPayloadRoundTrips) {
  std::mt19937_64 rng(37);
  auto inner = random_frame(rng, 3, 4);
  const auto inner_bytes = encode_frame(*inner);

  ChannelEnvelope env;
  env.seq = 42;
  env.ack = 17;
  env.inner = std::move(inner);

  std::vector<std::uint8_t> bytes;
  encode_payload_into(env, bytes);
  EXPECT_EQ(wire_kind(bytes), WireKind::kEnvelope);

  auto back = decode_payload(bytes, 5);
  ASSERT_EQ(back->tag, ChannelEnvelope::kTag);
  auto* decoded = static_cast<ChannelEnvelope*>(back.get());
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->ack, 17u);
  EXPECT_EQ(decoded->inner, nullptr);  // payload stays opaque bytes
  // ... and those bytes are exactly the inner payload's own encoding, so
  // the channel's retransmission decode path accepts them unchanged.
  EXPECT_EQ(decoded->bytes, inner_bytes);
  auto inner_back = decode_payload(decoded->bytes, 5);
  EXPECT_EQ(inner_back->tag, PayloadFrame::kTag);
}

TEST(WireV2, EnvelopeFirstSendAndRetransmitEncodeIdentically) {
  // First transmissions carry the payload object, retransmissions the
  // retained bytes; the receiver must not be able to tell them apart.
  std::mt19937_64 rng(41);
  auto inner = random_frame(rng, 2, 3);

  ChannelEnvelope retransmit;
  retransmit.seq = 7;
  retransmit.ack = 3;
  encode_payload_into(*inner, retransmit.bytes);

  ChannelEnvelope first;
  first.seq = 7;
  first.ack = 3;
  first.inner = std::move(inner);

  std::vector<std::uint8_t> a, b;
  encode_payload_into(first, a);
  encode_payload_into(retransmit, b);
  EXPECT_EQ(a, b);
}

TEST(WireV2, PureAckEnvelopeRoundTrips) {
  ChannelEnvelope env;
  env.seq = 0;
  env.ack = 123456789;

  std::vector<std::uint8_t> bytes;
  encode_payload_into(env, bytes);

  auto back = decode_payload(bytes, 4);
  ASSERT_EQ(back->tag, ChannelEnvelope::kTag);
  auto* decoded = static_cast<ChannelEnvelope*>(back.get());
  EXPECT_EQ(decoded->seq, 0u);
  EXPECT_EQ(decoded->ack, 123456789u);
  EXPECT_TRUE(decoded->bytes.empty());
  EXPECT_EQ(decoded->inner, nullptr);
}

TEST(WireV2, EnvelopeRejectsHeaderTruncationAndEmptyPayload) {
  std::mt19937_64 rng(43);
  auto inner = random_frame(rng, 1, 2);
  ChannelEnvelope env;
  env.seq = 99;
  env.ack = 1;
  env.inner = std::move(inner);
  std::vector<std::uint8_t> bytes;
  encode_payload_into(env, bytes);

  // Truncating inside the seq/ack/flag header must throw; truncating the
  // embedded payload throws when the channel decodes the bytes, so here we
  // only pin the "has payload but zero payload bytes" case.
  for (std::size_t cut = 1; cut < 6; ++cut) {
    std::vector<std::uint8_t> shorter(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_payload(shorter, 3), WireError) << "cut at " << cut;
  }

  ChannelEnvelope flagged;
  flagged.seq = 1;
  std::vector<std::uint8_t> truncated;
  encode_payload_into(flagged, truncated);
  truncated.back() = 1;  // has_payload flag set, but no bytes follow
  EXPECT_THROW(decode_payload(truncated, 3), WireError);
}

}  // namespace
}  // namespace decmon
