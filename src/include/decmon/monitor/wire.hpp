// Wire format for monitor-layer messages.
//
// The in-process runtimes pass payload objects directly; a deployment
// across real machines needs tokens and termination signals on the wire.
// This module defines one compact, versioned, endian-stable binary codec
// with full round-trip fidelity, plus defensive decoding (truncated or
// corrupt buffers yield errors, never UB). Every monitor message is a
// batched frame (a bare unit is sent as a one-unit frame) or a
// reliable-channel envelope around one; the writers that produce the bytes
// also produce the accounted sizes (DESIGN.md §9).
//
// The primitive codec (WireWriter / WireReader) is public: the reliable
// channel and the checkpoint module reuse it so every durable byte in the
// system shares one bounds-checked little-endian encoding.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "decmon/monitor/token.hpp"

namespace decmon {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Hard ceiling on per-process array widths and process indexes a decoder
/// will accept when the caller does not pass the session's process count.
inline constexpr std::size_t kMaxWireProcesses = 4096;

/// Little-endian primitive encoder appending into a caller-owned buffer, so
/// pooled buffers can be refilled without reallocating (the reliable
/// channel's clean path depends on this).
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& buf) : buf_(buf) {}

  void u8(std::uint8_t x) { buf_.push_back(x); }
  void u32(std::uint32_t x) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(x >> (8 * i)));
  }
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(x >> (8 * i)));
  }
  /// Encoded LEB128 length of `x` without emitting anything: ceil of the
  /// significant bit count over the 7 value bits per byte (x = 0 is one
  /// byte), looked up by bit count -- the stamp sizes every field this way.
  static std::size_t var_size(std::uint64_t x) {
    return kVarSizes[std::bit_width(x)];
  }
  /// Zigzag map (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...), so small deltas of
  /// either sign stay one varint byte.
  static std::uint64_t zigzag(std::int64_t x) {
    const auto ux = static_cast<std::uint64_t>(x);
    return (ux << 1) ^ (x < 0 ? ~std::uint64_t{0} : std::uint64_t{0});
  }
  /// LEB128 unsigned varint: 7 value bits per byte, high bit = continue.
  void var(std::uint64_t x) {
    do {
      std::uint8_t b = static_cast<std::uint8_t>(x & 0x7F);
      x >>= 7;
      if (x != 0) b |= 0x80;
      u8(b);
    } while (x != 0);
  }
  /// Zigzag-mapped signed varint.
  void zig(std::int64_t x) { var(zigzag(x)); }
  void vc(const VectorClock& clock) {
    u32(static_cast<std::uint32_t>(clock.size()));
    for (std::size_t i = 0; i < clock.size(); ++i) u32(clock[i]);
  }
  /// Append `len` pre-encoded bytes verbatim (envelope payload embedding).
  void raw(const std::uint8_t* data, std::size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

 private:
  static constexpr std::array<std::uint8_t, 65> kVarSizes = [] {
    std::array<std::uint8_t, 65> sizes{};
    for (int bits = 0; bits <= 64; ++bits) {
      sizes[static_cast<std::size_t>(bits)] =
          static_cast<std::uint8_t>(bits == 0 ? 1 : (bits + 6) / 7);
    }
    return sizes;
  }();
  std::vector<std::uint8_t>& buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer. Every
/// truncation throws WireError; no read is ever out of bounds.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i) {
      x |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    }
    return x;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    }
    return x;
  }
  /// LEB128 unsigned varint. Rejects encodings that overflow 64 bits;
  /// at most 10 bytes are consumed.
  std::uint64_t var() {
    std::uint64_t x = 0;
    int shift = 0;
    for (;;) {
      const std::uint8_t b = u8();
      if (shift == 63 && (b & 0xFE) != 0) throw WireError("varint overflow");
      x |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return x;
      shift += 7;
      if (shift > 63) throw WireError("varint overflow");
    }
  }
  std::int64_t zig() {
    const std::uint64_t x = var();
    return static_cast<std::int64_t>((x >> 1) ^ (std::uint64_t{0} - (x & 1)));
  }
  VectorClock vc(std::size_t max_width) {
    const std::uint32_t n = u32();
    if (n > max_width) throw WireError("vector clock too wide");
    VectorClock clock(n);
    for (std::uint32_t i = 0; i < n; ++i) clock[i] = u32();
    return clock;
  }
  void done() const {
    if (pos_ != buf_.size()) throw WireError("trailing bytes");
  }
  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void need(std::size_t k) const {
    // pos_ <= buf_.size() always holds, so the subtraction cannot wrap;
    // comparing this way keeps a huge k from overflowing pos_ + k.
    if (k > buf_.size() - pos_) throw WireError("truncated buffer");
  }
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// What a buffer holds (byte 1, after the version byte 3). kFrame is a
/// batched frame (varints + delta-compressed clocks); kEnvelope is a
/// reliable-channel envelope (seq/ack header around an embedded payload
/// encoding), so a channel stacked over a socket transport can serialize its
/// protocol messages. kToken, kTermination and kFloor only tag units inside
/// a frame.
enum class WireKind : std::uint8_t {
  kToken = 1,
  kTermination = 2,
  kFrame = 3,
  kEnvelope = 4,
  kFloor = 5,  ///< streaming-GC history floor gossip
};

/// Peek at the kind (kFrame or kEnvelope); throws WireError on garbage.
WireKind wire_kind(std::span<const std::uint8_t> buffer);

/// Serialize any monitor-layer payload into `out`, appending. A frame or a
/// channel envelope keeps its form; a bare unit (token, termination, history
/// floor) is written as a one-unit frame. Throws WireError for payload tags
/// that have no wire form (transport-internal payloads never cross a process
/// boundary).
void encode_payload_into(const NetPayload& payload,
                         std::vector<std::uint8_t>& out);

/// Decode a buffer produced by encode_payload_into: a PayloadFrame or a
/// ChannelEnvelope. Throws WireError on truncation, corruption, a bad
/// version, or any width or process index at or beyond `max_width` -- pass
/// the session's process count so a corrupt or hostile field can neither
/// force a large allocation nor name a process that does not exist. A
/// decoded envelope carries its payload as raw `bytes` only (never a
/// reconstructed `inner` object) -- the channel's receive path decodes those
/// bytes itself, exactly as it does for retransmissions.
std::unique_ptr<NetPayload> decode_payload(
    std::span<const std::uint8_t> buffer,
    std::size_t max_width = kMaxWireProcesses);

/// Serialize a batched frame (varint integers, frame-level base clock with
/// per-token zigzag deltas). Unit order is preserved exactly.
std::vector<std::uint8_t> encode_frame(const PayloadFrame& frame);

/// Decode a frame buffer; throws WireError like decode_payload, and for an
/// envelope.
std::unique_ptr<PayloadFrame> decode_frame(
    std::span<const std::uint8_t> buffer,
    std::size_t max_width = kMaxWireProcesses);

/// Stamp every unit's `wire_size` (its in-frame encoded bytes) and the
/// frame's own `wire_size` (the full encoded frame, header and base clock
/// included), and return the frame total. The sizes come from the encoder's
/// own writers run over a byte counter, so they equal the encoding exactly
/// and nothing is materialized. This is the bytes-on-wire accounting hook:
/// the monitor calls it once per flushed frame, and transports that
/// re-batch frames just transfer the per-unit stamps.
std::size_t stamp_frame_wire_size(PayloadFrame& frame);

/// A token in the frame-unit layout with an empty base clock, for embedding
/// in a larger blob (parked tokens in monitor checkpoints). `max_width`
/// bounds widths and process indexes as in decode_payload.
void write_token(WireWriter& w, const Token& token);
Token read_token(WireReader& r, std::size_t max_width);

/// CRC-32 (reflected, polynomial 0xEDB88320 -- the zlib/PNG variant) used to
/// seal checkpoint and channel-state blobs against corruption.
std::uint32_t wire_crc32(const std::uint8_t* data, std::size_t len);

}  // namespace decmon
