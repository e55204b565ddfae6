#include "decmon/monitor/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <set>
#include <unordered_set>

#include "decmon/monitor/monitor_process.hpp"

namespace decmon {
namespace {

constexpr std::uint8_t kMagic[4] = {'D', 'M', 'C', 'K'};
// Defensive ceilings for length fields: a blob that passes the CRC can
// still be deliberately crafted, and no legitimate monitor approaches these.
constexpr std::uint32_t kMaxItems = 1u << 22;

std::uint64_t double_bits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

void write_event(WireWriter& w, const Event& e) {
  w.u8(static_cast<std::uint8_t>(e.type));
  w.u32(static_cast<std::uint32_t>(e.process));
  w.u32(e.sn);
  w.vc(e.vc);
  w.u32(static_cast<std::uint32_t>(e.state.size()));
  for (std::int64_t v : e.state) w.u64(static_cast<std::uint64_t>(v));
  w.u64(e.letter);
  w.u64(double_bits(e.time));
}

Event read_event(WireReader& r, int owner, std::size_t n) {
  Event e;
  const std::uint8_t type = r.u8();
  if (type > 3) throw CheckpointError("bad event type");
  e.type = static_cast<EventType>(type);
  const std::uint32_t process = r.u32();
  if (process != static_cast<std::uint32_t>(owner)) {
    throw CheckpointError("history event owned by another process");
  }
  e.process = owner;
  e.sn = r.u32();
  e.vc = r.vc(n);
  if (e.vc.size() != n) throw CheckpointError("bad event clock width");
  const std::uint32_t vars = r.u32();
  if (vars > kMaxItems) throw CheckpointError("event state too large");
  e.state.reserve(vars);
  for (std::uint32_t i = 0; i < vars; ++i) {
    e.state.push_back(static_cast<std::int64_t>(r.u64()));
  }
  e.letter = r.u64();
  e.time = bits_double(r.u64());
  return e;
}

void write_view(WireWriter& w, const GlobalView& gv) {
  w.u64(gv.id);
  w.u32(static_cast<std::uint32_t>(gv.cut.size()));
  for (std::uint32_t c : gv.cut) w.u32(c);
  for (AtomSet a : gv.gstate) w.u64(a);
  w.u32(static_cast<std::uint32_t>(gv.q));
  w.u8(gv.waiting ? 1 : 0);
  w.u64(gv.token_id);
  w.u8(gv.forked_copy ? 1 : 0);
  w.u32(gv.next_sn);
  w.u64(gv.probe_sig);
  w.u8(gv.dead ? 1 : 0);
  w.u8(gv.quarantined ? 1 : 0);
}

GlobalView read_view(WireReader& r, std::size_t n) {
  GlobalView gv;
  gv.id = r.u64();
  const std::uint32_t width = r.u32();
  if (width != n) throw CheckpointError("bad view width");
  gv.cut.resize(width);
  for (std::uint32_t j = 0; j < width; ++j) gv.cut[j] = r.u32();
  gv.gstate.resize(width);
  for (std::uint32_t j = 0; j < width; ++j) gv.gstate[j] = r.u64();
  gv.q = static_cast<int>(r.u32());
  gv.waiting = r.u8() != 0;
  gv.token_id = r.u64();
  gv.forked_copy = r.u8() != 0;
  gv.next_sn = r.u32();
  gv.probe_sig = r.u64();
  gv.dead = r.u8() != 0;
  gv.quarantined = r.u8() != 0;
  return gv;
}

void write_sorted_set(WireWriter& w, const std::unordered_set<std::uint64_t>& s) {
  std::vector<std::uint64_t> sorted(s.begin(), s.end());
  std::sort(sorted.begin(), sorted.end());
  w.u32(static_cast<std::uint32_t>(sorted.size()));
  for (std::uint64_t x : sorted) w.u64(x);
}

std::unordered_set<std::uint64_t> read_set(WireReader& r) {
  const std::uint32_t count = r.u32();
  if (count > kMaxItems) throw CheckpointError("set too large");
  std::unordered_set<std::uint64_t> s;
  s.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) s.insert(r.u64());
  return s;
}

}  // namespace

// Friend of MonitorProcess: the only code outside the monitor that touches
// its private state, and it treats that state as opaque data to copy.
class CheckpointCodec {
 public:
  static std::vector<std::uint8_t> save(const MonitorProcess& m) {
    if (m.dispatch_depth_ != 0) {
      throw CheckpointError("checkpoint requested during dispatch");
    }
    // Every entry point flushes its staged sends before returning, so a
    // quiescent monitor holds none; a non-empty buffer here would mean the
    // checkpoint silently drops in-flight payloads.
    if (!m.staged_.empty()) {
      throw CheckpointError("checkpoint requested with staged sends");
    }
    std::vector<std::uint8_t> blob;
    WireWriter w(blob);
    for (std::uint8_t b : kMagic) w.u8(b);
    w.u8(kCheckpointVersion);
    w.u32(static_cast<std::uint32_t>(m.index_));
    w.u32(static_cast<std::uint32_t>(m.n_));
    w.u32(0);  // body_size backpatched below
    const std::size_t body_start = blob.size();

    // Streaming-GC window state. The history section below holds only the
    // retained window, whose first event carries sn == history_base_.
    w.u32(m.history_base_);
    for (std::uint32_t f : m.peer_floor_) w.u32(f);
    w.u32(m.events_since_gc_);

    // Floor-resync epochs (DESIGN.md §13). Durable so a restored node's
    // resync bump is strictly above everything its dead incarnation sent,
    // and so stale pre-crash advertisements stay recognizable after restore.
    w.u32(m.floor_epoch_);
    for (std::uint32_t e : m.peer_floor_epoch_) w.u32(e);

    w.u32(static_cast<std::uint32_t>(m.history_.size()));
    for (const Event& e : m.history_) write_event(w, e);
    w.u32(static_cast<std::uint32_t>(m.views_.size()));
    for (const GlobalView& gv : m.views_) write_view(w, gv);
    w.u32(static_cast<std::uint32_t>(m.w_tokens_.size()));
    for (const auto& shell : m.w_tokens_) write_token(w, shell->token);
    for (std::uint32_t sn : m.peer_last_sn_) w.u32(sn);
    w.u8(m.local_terminated_ ? 1 : 0);
    w.u8(m.finished_ ? 1 : 0);
    write_sorted_set(w, m.outstanding_sigs_);
    write_sorted_set(w, m.spawned_memo_);
    w.u64(m.next_token_serial_);
    w.u64(m.next_view_id_);
    w.u8(static_cast<std::uint8_t>(m.declared_.size()));
    for (Verdict v : m.declared_) w.u8(static_cast<std::uint8_t>(v));

    const std::uint32_t body_size =
        static_cast<std::uint32_t>(blob.size() - body_start);
    for (int i = 0; i < 4; ++i) {
      blob[body_start - 4 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(body_size >> (8 * i));
    }
    w.u32(wire_crc32(blob.data(), blob.size()));
    return blob;
  }

  static void restore(MonitorProcess& m, const std::vector<std::uint8_t>& blob) {
    // Decode everything into locals first; commit only after the last check
    // passes (strong exception safety).
    if (blob.size() < 4) throw CheckpointError("checkpoint truncated");
    const std::uint32_t crc = wire_crc32(blob.data(), blob.size() - 4);
    WireReader r(blob);
    for (std::uint8_t b : kMagic) {
      if (r.u8() != b) throw CheckpointError("bad checkpoint magic");
    }
    if (r.u8() != kCheckpointVersion) {
      throw CheckpointError("unsupported checkpoint version");
    }
    if (r.u32() != static_cast<std::uint32_t>(m.index_)) {
      throw CheckpointError("checkpoint is for another monitor");
    }
    if (r.u32() != static_cast<std::uint32_t>(m.n_)) {
      throw CheckpointError("checkpoint process count mismatch");
    }
    const std::uint32_t body_size = r.u32();
    if (blob.size() < r.position() + 4 ||
        body_size != blob.size() - r.position() - 4) {
      throw CheckpointError("checkpoint body size mismatch");
    }
    const std::size_t n = static_cast<std::size_t>(m.n_);

    const std::uint32_t history_base = r.u32();
    std::vector<std::uint32_t> peer_floor(n);
    for (std::size_t i = 0; i < n; ++i) peer_floor[i] = r.u32();
    const std::uint32_t events_since_gc = r.u32();
    const std::uint32_t floor_epoch = r.u32();
    std::vector<std::uint32_t> peer_floor_epoch(n);
    for (std::size_t i = 0; i < n; ++i) peer_floor_epoch[i] = r.u32();

    const std::uint32_t history_n = r.u32();
    if (history_n > kMaxItems) throw CheckpointError("history too large");
    if (history_base > std::numeric_limits<std::uint32_t>::max() - history_n) {
      throw CheckpointError("history window overflow");
    }
    std::vector<Event> history;
    history.reserve(history_n);
    for (std::uint32_t i = 0; i < history_n; ++i) {
      Event e = read_event(r, m.index_, n);
      if (e.sn != history_base + i) {
        throw CheckpointError("history not sequential");
      }
      history.push_back(std::move(e));
    }
    const std::uint32_t views_n = r.u32();
    if (views_n > kMaxItems) throw CheckpointError("too many views");
    std::deque<GlobalView> views;
    for (std::uint32_t i = 0; i < views_n; ++i) {
      GlobalView gv = read_view(r, n);
      if (gv.next_sn > history_base + history.size()) {
        throw CheckpointError("view cursor past history");
      }
      views.push_back(std::move(gv));
    }
    const std::uint32_t tokens_n = r.u32();
    if (tokens_n > kMaxItems) throw CheckpointError("too many tokens");
    std::vector<std::unique_ptr<TokenMessage>> w_tokens;
    w_tokens.reserve(tokens_n);
    for (std::uint32_t i = 0; i < tokens_n; ++i) {
      w_tokens.push_back(std::make_unique<TokenMessage>());
      w_tokens.back()->token = read_token(r, n);
    }
    std::vector<std::uint32_t> peer_last_sn(n);
    for (std::size_t i = 0; i < n; ++i) peer_last_sn[i] = r.u32();
    const bool local_terminated = r.u8() != 0;
    const bool finished = r.u8() != 0;
    std::unordered_set<std::uint64_t> outstanding_sigs = read_set(r);
    std::unordered_set<std::uint64_t> spawned_memo = read_set(r);
    const std::uint64_t next_token_serial = r.u64();
    const std::uint64_t next_view_id = r.u64();
    const std::uint8_t declared_n = r.u8();
    if (declared_n > 3) throw CheckpointError("too many declared verdicts");
    std::set<Verdict> declared;
    for (std::uint8_t i = 0; i < declared_n; ++i) {
      const std::uint8_t v = r.u8();
      if (v > 2) throw CheckpointError("bad verdict");
      declared.insert(static_cast<Verdict>(v));
    }
    if (r.u32() != crc) throw CheckpointError("checkpoint CRC mismatch");
    r.done();

    m.history_ = std::move(history);
    m.history_base_ = history_base;
    m.peer_floor_ = std::move(peer_floor);
    m.peer_floor_epoch_ = std::move(peer_floor_epoch);
    m.floor_epoch_ = floor_epoch;
    m.events_since_gc_ = events_since_gc;
    m.views_ = std::move(views);
    m.views_changed_ = true;
    m.w_tokens_ = std::move(w_tokens);
    m.peer_last_sn_ = std::move(peer_last_sn);
    m.local_terminated_ = local_terminated;
    m.finished_ = finished;
    m.dispatch_depth_ = 0;
    m.outstanding_sigs_ = std::move(outstanding_sigs);
    m.spawned_memo_ = std::move(spawned_memo);
    m.next_token_serial_ = next_token_serial;
    m.next_view_id_ = next_view_id;
    m.declared_ = std::move(declared);
  }
};

std::vector<std::uint8_t> checkpoint_monitor(const MonitorProcess& monitor) {
  return CheckpointCodec::save(monitor);
}

void restore_monitor(MonitorProcess& monitor,
                     const std::vector<std::uint8_t>& blob) {
  try {
    CheckpointCodec::restore(monitor, blob);
  } catch (const CheckpointError&) {
    throw;
  } catch (const WireError& e) {
    // Reader-level failures (truncation, trailing bytes) surface under the
    // checkpoint contract's single error type.
    throw CheckpointError(e.what());
  }
}

}  // namespace decmon
