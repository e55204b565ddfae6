#include "decmon/monitor/wire.hpp"

#include <array>
#include <limits>

#include "decmon/distributed/reliable_channel.hpp"

namespace decmon {
namespace {

constexpr std::uint8_t kVersion = 3;
constexpr std::uint32_t kMaxFrameUnits = 65536;
// Smallest encodings, which bound a claimed count by the bytes left: an
// entry of width 0 is seven one-byte fields, a termination unit three.
constexpr std::size_t kMinEntryBytes = 7;
constexpr std::size_t kMinUnitBytes = 3;

// ---------------------------------------------------------------------------
// Frames. Integers travel as LEB128 varints, clocks and cuts as zigzag
// deltas against a frame-level base clock (the first token unit's
// parent_vc -- tokens in one batch walk the same neighborhood, so deltas
// are small). Per-entry fields delta against the entry's own cut.
//
// Every writer is a template over its sink: WireWriter appends the bytes,
// WireSizer only adds up their lengths. stamp_frame_wire_size runs the same
// writers as the encoder, so an accounted size cannot drift from the
// encoding.
// ---------------------------------------------------------------------------

class WireSizer {
 public:
  void u8(std::uint8_t) { ++size_; }
  void var(std::uint64_t x) { size_ += WireWriter::var_size(x); }
  void zig(std::int64_t x) { var(WireWriter::zigzag(x)); }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

std::int64_t delta(std::uint32_t x, std::uint32_t from) {
  return static_cast<std::int64_t>(x) - static_cast<std::int64_t>(from);
}

// Clamp helpers: every delta-decoded component must land back in u32.
std::uint32_t checked_u32(std::int64_t v, const char* what) {
  if (v < 0 || v > std::numeric_limits<std::uint32_t>::max()) {
    throw WireError(what);
  }
  return static_cast<std::uint32_t>(v);
}

std::uint32_t checked_u32(std::uint64_t v, const char* what) {
  if (v > std::numeric_limits<std::uint32_t>::max()) throw WireError(what);
  return static_cast<std::uint32_t>(v);
}

// Process indexes travel zigzagged (-1 = unset) and must name one of the
// session's `max_width` processes.
template <class Sink>
void write_process(Sink& w, int process) {
  w.zig(process);
}

int read_process(WireReader& r, std::size_t max_width) {
  const std::int64_t v = r.zig();
  if (v < -1 || v >= static_cast<std::int64_t>(max_width)) {
    throw WireError("bad target process");
  }
  return static_cast<int>(v);
}

// Termination and floor units name their sender as a plain varint.
int read_unit_process(WireReader& r, std::size_t max_width) {
  const std::uint64_t process = r.var();
  if (process >= max_width) throw WireError("bad unit process");
  return static_cast<int>(process);
}

template <class Sink>
void write_clock(Sink& w, const VectorClock& clock,
                 const VectorClock& base) {
  w.var(clock.size());
  if (clock.size() == base.size()) {
    for (std::size_t i = 0; i < clock.size(); ++i) {
      w.zig(delta(clock[i], base[i]));
    }
  } else {
    for (std::size_t i = 0; i < clock.size(); ++i) w.var(clock[i]);
  }
}

VectorClock read_clock(WireReader& r, std::size_t max_width,
                       const VectorClock& base) {
  const std::uint64_t n = r.var();
  if (n > max_width) throw WireError("vector clock too wide");
  VectorClock clock(static_cast<std::size_t>(n));
  if (n == base.size()) {
    for (std::size_t i = 0; i < n; ++i) {
      clock[i] = checked_u32(static_cast<std::int64_t>(base[i]) + r.zig(),
                             "clock delta out of range");
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      clock[i] = checked_u32(r.var(), "clock component out of range");
    }
  }
  return clock;
}

// Shared records (DESIGN.md §9.3). Entries of one token refer to shared
// frontier records -- (cut, depend, gstate) on every slot -- and stay-point
// records -- (cut, gstate) of the certified point -- in the token's one
// record table. A token writes each record inline at the first entry that
// refers to it; a later entry names it by its 1-based position among the
// inline records of that kind, so each kind keeps its own numbering: one
// RecordRefs per kind over the one table. The decoder turns each inline
// block into a new record and lists, per kind, the record of each ordinal.
class RecordRefs {
 public:
  explicit RecordRefs(std::size_t records) : refs_(records, 0) {}
  // 1-based position of record `r` among the inline blocks so far, or 0
  // after numbering it as the next block written inline.
  std::uint32_t share(std::uint32_t r) {
    std::uint32_t& ref = refs_[r];
    if (ref != 0) return ref;
    ref = ++inline_;
    return 0;
  }

 private:
  SmallVec<std::uint32_t, 64> refs_;
  std::uint32_t inline_ = 0;
};

// Each entry: scalars, then its frontier block (a reference, else each
// slot's cut -- delta against the base when the widths agree -- depend --
// delta against the slot's own cut, which it tracks closely -- and gstate),
// the conj values four to a byte, the walk target, and its stay-point
// block (none, inline deltas against the frontier's cut, or a reference).
template <class Sink>
void write_entry(Sink& w, const Token& t, const TransitionEntry& e,
                 const VectorClock& base, RecordRefs& frontiers,
                 RecordRefs& stays) {
  const std::size_t n = e.width();
  const FrontierSlot* f = t.frontier(e);
  w.zig(e.transition_id);
  w.var(n);
  const std::uint32_t frontier = frontiers.share(e.frontier);
  w.var(frontier);
  if (frontier == 0) {
    const bool base_delta = n == base.size();
    for (std::size_t j = 0; j < n; ++j) {
      if (base_delta) {
        w.zig(delta(f[j].cut, base[j]));
      } else {
        w.var(f[j].cut);
      }
      w.zig(delta(f[j].depend, f[j].cut));
      w.var(f[j].gstate);
    }
  }
  const ConjunctEval* conj = e.conj.data();
  for (std::size_t j = 0; j < n; j += 4) {
    std::uint8_t packed = 0;
    for (std::size_t k = 0; k < 4 && j + k < n; ++k) {
      packed |= static_cast<std::uint8_t>(static_cast<std::uint8_t>(conj[j + k])
                                          << (2 * k));
    }
    w.u8(packed);
  }
  w.u8(static_cast<std::uint8_t>(e.eval));
  write_process(w, e.next_target_process);
  w.var(e.next_target_event);
  if (!e.loop_certified()) {
    w.var(0);
    return;
  }
  const std::uint32_t stay = stays.share(e.stay);
  if (stay != 0) {
    w.var(stay + 1);
    return;
  }
  w.var(1);
  const FrontierSlot* s = t.stay(e);
  for (std::size_t j = 0; j < n; ++j) {
    w.zig(delta(s[j].cut, f[j].cut));
    w.var(s[j].gstate);
  }
}

// Per kind, the record each inline block became: ordinal k - 1 -> record.
using RecordOrdinals = SmallVec<std::uint32_t, 16>;

// Resolve a 1-based block reference of one kind.
std::uint32_t read_reference(std::uint64_t ref, const RecordOrdinals& ordinals,
                             const Token& t, std::uint64_t n) {
  if (ref > ordinals.size()) throw WireError("block reference out of range");
  const std::uint32_t record = ordinals[static_cast<std::size_t>(ref - 1)];
  if (t.records.width(record) != n) throw WireError("block width mismatch");
  return record;
}

void read_entry(WireReader& r, std::size_t max_width, const VectorClock& base,
                Token& t, RecordOrdinals& frontiers, RecordOrdinals& stays) {
  TransitionEntry e;
  const std::int64_t tid = r.zig();
  if (tid < std::numeric_limits<int>::min() ||
      tid > std::numeric_limits<int>::max()) {
    throw WireError("bad transition id");
  }
  e.transition_id = static_cast<int>(tid);
  const std::uint64_t n = r.var();
  if (n > max_width) throw WireError("entry too wide");
  e.conj.resize(static_cast<std::size_t>(n));
  const std::uint64_t frontier = r.var();
  if (frontier == 0) {
    e.frontier = t.records.add(static_cast<std::size_t>(n));
    frontiers.push_back(e.frontier);
    FrontierSlot* f = t.records[e.frontier];
    const bool base_delta = n == base.size();
    for (std::size_t j = 0; j < n; ++j) {
      f[j].cut =
          base_delta
              ? checked_u32(static_cast<std::int64_t>(base[j]) + r.zig(),
                            "cut delta out of range")
              : checked_u32(r.var(), "cut component out of range");
      f[j].depend = checked_u32(static_cast<std::int64_t>(f[j].cut) + r.zig(),
                                "depend delta out of range");
      f[j].gstate = r.var();
    }
  } else {
    e.frontier = read_reference(frontier, frontiers, t, n);
  }
  for (std::size_t j = 0; j < n; j += 4) {
    std::uint8_t packed = r.u8();
    for (std::size_t k = 0; k < 4 && j + k < n; ++k, packed >>= 2) {
      if ((packed & 3) > 2) throw WireError("bad conjunct eval");
      e.conj[j + k] = static_cast<ConjunctEval>(packed & 3);
    }
    if (packed != 0) throw WireError("nonzero conjunct padding");
  }
  const std::uint8_t eval = r.u8();
  if (eval > 2) throw WireError("bad entry eval");
  e.eval = static_cast<EntryEval>(eval);
  e.next_target_process = read_process(r, max_width);
  e.next_target_event = checked_u32(r.var(), "bad target event");
  const std::uint64_t loop = r.var();
  if (loop == 1) {
    e.stay = t.records.add(static_cast<std::size_t>(n));
    stays.push_back(e.stay);
    FrontierSlot* s = t.records[e.stay];
    const FrontierSlot* f = t.records[e.frontier];
    for (std::size_t j = 0; j < n; ++j) {
      s[j].cut = checked_u32(static_cast<std::int64_t>(f[j].cut) + r.zig(),
                             "loop cut delta out of range");
      s[j].gstate = r.var();
    }
  } else if (loop > 1) {
    e.stay = read_reference(loop - 1, stays, t, n);
  }
  t.entries.push_back(std::move(e));
}

template <class Sink>
void write_token_unit(Sink& w, const Token& t, const VectorClock& base) {
  w.var(t.token_id);
  write_process(w, t.parent);
  w.var(t.parent_sn);
  write_clock(w, t.parent_vc, base);
  write_process(w, t.next_target_process);
  w.var(t.next_target_event);
  w.var(static_cast<std::uint64_t>(t.hops));
  w.var(t.entries.size());
  RecordRefs frontiers(t.records.size());
  RecordRefs stays(t.records.size());
  for (const TransitionEntry& e : t.entries) {
    write_entry(w, t, e, base, frontiers, stays);
  }
}

// Reads into a fresh (empty) token.
void read_token_unit(WireReader& r, std::size_t max_width,
                     const VectorClock& base, Token& t) {
  t.token_id = r.var();
  t.parent = read_process(r, max_width);
  t.parent_sn = checked_u32(r.var(), "bad parent sn");
  t.parent_vc = read_clock(r, max_width, base);
  t.next_target_process = read_process(r, max_width);
  t.next_target_event = checked_u32(r.var(), "bad target event");
  const std::uint64_t hops = r.var();
  if (hops > std::numeric_limits<int>::max()) throw WireError("bad hop count");
  t.hops = static_cast<int>(hops);
  const std::uint64_t n = r.var();
  // Bound the count by the bytes left before reserving for it.
  if (n > r.remaining() / kMinEntryBytes) throw WireError("too many entries");
  t.entries.reserve(static_cast<std::size_t>(n));
  RecordOrdinals frontiers;
  RecordOrdinals stays;
  for (std::uint64_t i = 0; i < n; ++i) {
    read_entry(r, max_width, base, t, frontiers, stays);
  }
}

const VectorClock kEmptyBase{};

// A unit's claim on the frame base clock: a token's parent_vc, else none.
const VectorClock* unit_base(const NetPayload& unit) {
  if (unit.tag != TokenMessage::kTag) return nullptr;
  return &static_cast<const TokenMessage&>(unit).token.parent_vc;
}

// The frame base clock: the first token unit's parent_vc (empty when the
// frame holds no token). Written once in the frame header, so decoders read
// it instead of deriving it.
const VectorClock& frame_base(const PayloadFrame& frame) {
  for (const auto& unit : frame.units) {
    if (!unit) continue;
    if (const VectorClock* base = unit_base(*unit)) return *base;
  }
  return kEmptyBase;
}

template <class Sink>
void write_frame_unit(Sink& w, const NetPayload& unit,
                      const VectorClock& base) {
  if (unit.tag == TokenMessage::kTag) {
    w.u8(static_cast<std::uint8_t>(WireKind::kToken));
    write_token_unit(w, static_cast<const TokenMessage&>(unit).token, base);
  } else if (unit.tag == TerminationMessage::kTag) {
    const auto& msg = static_cast<const TerminationMessage&>(unit);
    w.u8(static_cast<std::uint8_t>(WireKind::kTermination));
    w.var(static_cast<std::uint64_t>(msg.process));
    w.var(msg.last_sn);
  } else if (unit.tag == HistoryFloorMessage::kTag) {
    const auto& msg = static_cast<const HistoryFloorMessage&>(unit);
    w.u8(static_cast<std::uint8_t>(WireKind::kFloor));
    w.var(static_cast<std::uint64_t>(msg.process));
    w.var(msg.floor);
    w.var(msg.epoch);
  } else {
    // Nested frames and transport-internal payloads have no unit form.
    throw WireError("frame unit tag has no wire form");
  }
}

std::unique_ptr<NetPayload> read_frame_unit(WireReader& r,
                                            std::size_t max_width,
                                            const VectorClock& base) {
  const std::uint8_t tag = r.u8();
  if (tag == static_cast<std::uint8_t>(WireKind::kToken)) {
    auto msg = std::make_unique<TokenMessage>();
    read_token_unit(r, max_width, base, msg->token);
    return msg;
  }
  if (tag == static_cast<std::uint8_t>(WireKind::kTermination)) {
    auto msg = std::make_unique<TerminationMessage>();
    msg->process = read_unit_process(r, max_width);
    msg->last_sn = checked_u32(r.var(), "bad last sn");
    return msg;
  }
  if (tag == static_cast<std::uint8_t>(WireKind::kFloor)) {
    auto msg = std::make_unique<HistoryFloorMessage>();
    msg->process = read_unit_process(r, max_width);
    msg->floor = checked_u32(r.var(), "bad floor");
    msg->epoch = checked_u32(r.var(), "bad floor epoch");
    return msg;
  }
  throw WireError("unknown frame unit kind");
}

template <class Sink>
void write_frame_header(Sink& w, std::size_t units, const VectorClock& base) {
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(WireKind::kFrame));
  w.var(units);
  w.var(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) w.var(base[i]);
}

void encode_payload_impl(WireWriter& w, const NetPayload& payload) {
  if (payload.tag == PayloadFrame::kTag) {
    const auto& frame = static_cast<const PayloadFrame&>(payload);
    const VectorClock& base = frame_base(frame);
    write_frame_header(w, frame.units.size(), base);
    for (const auto& unit : frame.units) {
      if (!unit) throw WireError("null frame unit");
      write_frame_unit(w, *unit, base);
    }
  } else if (payload.tag == ChannelEnvelope::kTag) {
    // Reliable-channel envelope: seq/ack header, then the embedded payload
    // encoding as the remainder of the buffer (records are externally
    // framed, so no inner length prefix is needed). First transmissions
    // carry the payload object; retransmissions carry the retained bytes.
    const auto& env = static_cast<const ChannelEnvelope&>(payload);
    w.u8(kVersion);
    w.u8(static_cast<std::uint8_t>(WireKind::kEnvelope));
    w.var(env.seq);
    w.var(env.ack);
    if (env.inner) {
      w.u8(1);
      encode_payload_impl(w, *env.inner);
    } else if (!env.bytes.empty()) {
      w.u8(1);
      w.raw(env.bytes.data(), env.bytes.size());
    } else {
      w.u8(0);  // pure ack
    }
  } else {
    // A bare unit crosses as a one-unit frame.
    const VectorClock* base = unit_base(payload);
    write_frame_header(w, 1, base ? *base : kEmptyBase);
    write_frame_unit(w, payload, base ? *base : kEmptyBase);
  }
}

}  // namespace

void write_token(WireWriter& w, const Token& token) {
  write_token_unit(w, token, kEmptyBase);
}

Token read_token(WireReader& r, std::size_t max_width) {
  Token t;
  read_token_unit(r, max_width, kEmptyBase, t);
  return t;
}

WireKind wire_kind(std::span<const std::uint8_t> buffer) {
  if (buffer.size() < 2) throw WireError("buffer too small");
  if (buffer[0] != kVersion) throw WireError("unsupported wire version");
  const std::uint8_t kind = buffer[1];
  if (kind != static_cast<std::uint8_t>(WireKind::kFrame) &&
      kind != static_cast<std::uint8_t>(WireKind::kEnvelope)) {
    throw WireError("unknown message kind");
  }
  return static_cast<WireKind>(kind);
}

void encode_payload_into(const NetPayload& payload,
                         std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  encode_payload_impl(w, payload);
}

std::size_t stamp_frame_wire_size(PayloadFrame& frame) {
  const VectorClock& base = frame_base(frame);
  WireSizer header;
  write_frame_header(header, frame.units.size(), base);
  std::size_t total = header.size();
  for (auto& unit : frame.units) {
    if (!unit) throw WireError("null frame unit");
    WireSizer sizer;
    write_frame_unit(sizer, *unit, base);
    unit->wire_size = static_cast<std::uint32_t>(sizer.size());
    total += sizer.size();
  }
  frame.wire_size = static_cast<std::uint32_t>(total);
  return total;
}

std::vector<std::uint8_t> encode_frame(const PayloadFrame& frame) {
  std::vector<std::uint8_t> buf;
  encode_payload_into(frame, buf);
  return buf;
}

std::unique_ptr<PayloadFrame> decode_frame(
    std::span<const std::uint8_t> buffer, std::size_t max_width) {
  if (wire_kind(buffer) != WireKind::kFrame) {
    throw WireError("unexpected message kind");
  }
  WireReader r(buffer);
  r.u8();  // version, validated by wire_kind
  r.u8();  // kind
  const std::uint64_t n_units = r.var();
  if (n_units > kMaxFrameUnits || n_units > r.remaining() / kMinUnitBytes) {
    throw WireError("too many frame units");
  }
  const std::uint64_t base_n = r.var();
  if (base_n > max_width) throw WireError("vector clock too wide");
  VectorClock base(static_cast<std::size_t>(base_n));
  for (std::size_t i = 0; i < base_n; ++i) {
    base[i] = checked_u32(r.var(), "clock component out of range");
  }
  auto frame = std::make_unique<PayloadFrame>();
  // A decoded frame knows its exact on-wire size; keep the accounting stamp
  // alive across an encode/decode round-trip (reliable-channel retransmits
  // rebuild payloads from bytes).
  frame->wire_size = static_cast<std::uint32_t>(buffer.size());
  frame->units.reserve(static_cast<std::size_t>(n_units));
  for (std::uint64_t i = 0; i < n_units; ++i) {
    frame->units.push_back(read_frame_unit(r, max_width, base));
  }
  r.done();
  return frame;
}

std::unique_ptr<NetPayload> decode_payload(
    std::span<const std::uint8_t> buffer, std::size_t max_width) {
  if (wire_kind(buffer) == WireKind::kFrame) {
    return decode_frame(buffer, max_width);
  }
  WireReader r(buffer);
  r.u8();  // version, validated by wire_kind
  r.u8();  // kind
  auto env = std::make_unique<ChannelEnvelope>();
  env->seq = r.var();
  env->ack = r.var();
  const bool has_payload = r.u8() != 0;
  if (has_payload) {
    if (r.remaining() == 0) throw WireError("empty envelope payload");
    // The embedded encoding stays opaque bytes: the channel's receive path
    // decodes them (and validates widths) exactly as it does for
    // retransmissions.
    env->bytes.assign(
        buffer.begin() + static_cast<std::ptrdiff_t>(r.position()),
        buffer.end());
  } else {
    r.done();
  }
  return env;
}

std::uint32_t wire_crc32(const std::uint8_t* data, std::size_t len) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace decmon
