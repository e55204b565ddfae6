#include "decmon/distributed/reliable_channel.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "decmon/monitor/wire.hpp"
#include "decmon/util/rng.hpp"

namespace decmon {
namespace {

constexpr std::uint8_t kChannelBlobVersion = 1;
constexpr std::uint8_t kChannelMagic[4] = {'D', 'M', 'C', 'H'};
// Retransmit-at-or-before tolerance: a timer fired exactly at a deadline
// must count that entry as due despite floating-point time arithmetic.
constexpr double kDeadlineEps = 1e-9;
constexpr std::size_t kPoolCap = 64;

}  // namespace

std::unique_ptr<NetPayload> ChannelEnvelope::clone() const {
  auto copy = std::make_unique<ChannelEnvelope>();
  copy->seq = seq;
  copy->ack = ack;
  copy->bytes = bytes;
  if (inner) {
    if (auto inner_copy = inner->clone()) {
      copy->inner = std::move(inner_copy);
    } else {
      // Payload type without deep-copy support: fall back to its wire form
      // so a duplicated delivery still carries the data.
      encode_payload_into(*inner, copy->bytes);
    }
  }
  return copy;
}

std::string ReliableChannelConfig::to_string() const {
  std::ostringstream os;
  os << "rto " << rto << " backoff " << backoff << " backoff_cap "
     << backoff_cap << " jitter " << jitter << " seed " << seed;
  return os.str();
}

ReliableChannel::ReliableChannel(MonitorNetwork* inner, int num_processes,
                                 ReliableChannelConfig config)
    : inner_(inner), n_(num_processes), config_(config) {
  if (!inner) throw std::invalid_argument("ReliableChannel: null inner network");
  if (n_ <= 0) throw std::invalid_argument("ReliableChannel: bad process count");
  nodes_.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    auto ns = std::make_unique<NodeState>();
    ns->links.resize(static_cast<std::size_t>(n_));
    ns->jitter_rng =
        derive_seed(config_.seed, 0xC4A7ull + static_cast<std::uint64_t>(i));
    nodes_.push_back(std::move(ns));
  }
}

ReliableChannel::NodeState& ReliableChannel::node(int i) const {
  if (i < 0 || i >= n_) {
    throw std::out_of_range("ReliableChannel: bad node index");
  }
  return *nodes_[static_cast<std::size_t>(i)];
}

std::unique_ptr<ChannelEnvelope> ReliableChannel::acquire_envelope(
    NodeState& ns) {
  if (!ns.envelope_pool.empty()) {
    auto env = std::move(ns.envelope_pool.back());
    ns.envelope_pool.pop_back();
    return env;
  }
  return std::make_unique<ChannelEnvelope>();
}

void ReliableChannel::recycle_envelope(NodeState& ns,
                                       std::unique_ptr<ChannelEnvelope> env) {
  if (!env || ns.envelope_pool.size() >= kPoolCap) return;
  env->seq = 0;
  env->ack = 0;
  env->inner.reset();
  recycle_buffer(ns, std::move(env->bytes));
  env->bytes.clear();
  ns.envelope_pool.push_back(std::move(env));
}

std::vector<std::uint8_t> ReliableChannel::acquire_buffer(NodeState& ns) {
  if (!ns.buffer_pool.empty()) {
    std::vector<std::uint8_t> buf = std::move(ns.buffer_pool.back());
    ns.buffer_pool.pop_back();
    buf.clear();
    return buf;
  }
  return {};
}

void ReliableChannel::recycle_buffer(NodeState& ns,
                                     std::vector<std::uint8_t>&& buf) {
  if (buf.capacity() == 0 || ns.buffer_pool.size() >= kPoolCap) return;
  buf.clear();
  ns.buffer_pool.push_back(std::move(buf));
}

double ReliableChannel::jitter_uniform(NodeState& ns) {
  return static_cast<double>(splitmix64_next(ns.jitter_rng) >> 11) *
         0x1.0p-53;
}

double ReliableChannel::backoff_interval(NodeState& ns, int attempts) {
  // Attempts are unbounded (every payload is retransmitted until acked --
  // the delivery guarantee the stack above depends on); only the interval
  // saturates. Multiply iteratively: std::pow rounding is not guaranteed
  // identical across libms and the schedule must replay bit-exactly.
  int exponent = attempts - 1;
  if (exponent > config_.backoff_cap) exponent = config_.backoff_cap;
  if (exponent < 0) exponent = 0;
  double interval = config_.rto;
  for (int i = 0; i < exponent; ++i) interval *= config_.backoff;
  if (config_.jitter > 0.0) {
    interval *= 1.0 + config_.jitter * jitter_uniform(ns);
  }
  return interval;
}

void ReliableChannel::arm_timer(NodeState& ns, int self, double deadline) {
  if (ns.timer_armed) return;
  ns.timer_armed = true;
  std::unique_ptr<ChannelTimer> timer;
  if (!ns.timer_pool.empty()) {
    timer = std::move(ns.timer_pool.back());
    ns.timer_pool.pop_back();
  } else {
    timer = std::make_unique<ChannelTimer>();
  }
  DeliveryPerturbation p;
  p.extra_delay = deadline - inner_->now();
  if (p.extra_delay < 0.0) p.extra_delay = 0.0;
  p.bypass_fifo = true;
  // Sending while holding ns.mu is safe: every runtime enqueues monitor
  // messages, none delivers synchronously from send.
  inner_->send_perturbed(MonitorMessage{self, self, std::move(timer)}, p);
}

void ReliableChannel::apply_ack(NodeState& ns, int peer, std::uint64_t ack) {
  for (std::size_t i = 0; i < ns.unacked.size();) {
    Unacked& u = ns.unacked[i];
    if (u.to == peer && u.seq <= ack) {
      recycle_buffer(ns, std::move(u.bytes));
      u = std::move(ns.unacked.back());
      ns.unacked.pop_back();
    } else {
      ++i;
    }
  }
}

void ReliableChannel::send_pure_ack(NodeState& ns, int from_node,
                                    int to_node) {
  auto env = acquire_envelope(ns);
  env->seq = 0;
  env->ack = ns.links[static_cast<std::size_t>(to_node)].recv_cum;
  ++ns.stats.acks_sent;
  DeliveryPerturbation p;
  p.bypass_fifo = true;  // acks never hold the data FIFO
  inner_->send_perturbed(MonitorMessage{from_node, to_node, std::move(env)},
                         p);
}

void ReliableChannel::send_perturbed(MonitorMessage msg,
                                     const DeliveryPerturbation& perturbation) {
  if (!msg.payload) return;
  const int from = msg.from;
  const int to = msg.to;
  NodeState& ns = node(from);
  std::unique_ptr<ChannelEnvelope> env;
  {
    std::lock_guard<std::mutex> lock(ns.mu);
    Link& link = ns.links[static_cast<std::size_t>(to)];
    Unacked entry;
    entry.seq = link.next_seq++;
    entry.to = to;
    entry.attempts = 1;
    entry.bytes = acquire_buffer(ns);
    encode_payload_into(*msg.payload, entry.bytes);
    entry.deadline = inner_->now() + backoff_interval(ns, 1);
    const double deadline = entry.deadline;
    env = acquire_envelope(ns);
    env->seq = entry.seq;
    env->ack = link.recv_cum;
    env->inner = std::move(msg.payload);
    ns.unacked.push_back(std::move(entry));
    ++ns.stats.data_sent;
    arm_timer(ns, from, deadline);
  }
  inner_->send_perturbed(MonitorMessage{from, to, std::move(env)},
                         perturbation);
}

void ReliableChannel::send(MonitorMessage msg) {
  send_perturbed(std::move(msg), DeliveryPerturbation{});
}

void ReliableChannel::on_local_event(int proc, const Event& event,
                                     double now) {
  hooks_->on_local_event(proc, event, now);
}

void ReliableChannel::on_local_termination(int proc, double now) {
  hooks_->on_local_termination(proc, now);
}

void ReliableChannel::on_monitor_message(MonitorMessage msg, double now) {
  if (!msg.payload) return;
  const std::uint8_t tag = msg.payload->tag;
  if (tag == ChannelTimer::kTag) {
    std::unique_ptr<ChannelTimer> timer(
        static_cast<ChannelTimer*>(msg.payload.release()));
    on_timer(msg.to, std::move(timer), now);
    return;
  }
  if (tag == ChannelEnvelope::kTag) {
    std::unique_ptr<ChannelEnvelope> env(
        static_cast<ChannelEnvelope*>(msg.payload.release()));
    on_envelope(msg.from, msg.to, std::move(env), now);
    return;
  }
  // Unwrapped payload (a layer below was not stacked through this channel):
  // pass it straight up.
  hooks_->on_monitor_message(std::move(msg), now);
}

void ReliableChannel::on_envelope(int from, int to,
                                  std::unique_ptr<ChannelEnvelope> env,
                                  double now) {
  NodeState& ns = node(to);
  std::unique_ptr<NetPayload> payload;
  {
    std::lock_guard<std::mutex> lock(ns.mu);
    apply_ack(ns, from, env->ack);
    if (env->seq == 0) {  // pure ack
      recycle_envelope(ns, std::move(env));
      return;
    }
    Link& link = ns.links[static_cast<std::size_t>(from)];
    const std::uint64_t seq = env->seq;
    const bool duplicate =
        seq <= link.recv_cum ||
        std::binary_search(link.recv_ooo.begin(), link.recv_ooo.end(), seq);
    if (duplicate) {
      // The ack covering this seq was lost or is still in flight; re-ack so
      // the sender's retransmit loop terminates.
      ++ns.stats.dup_suppressed;
      recycle_envelope(ns, std::move(env));
      send_pure_ack(ns, to, from);
      return;
    }
    if (seq == link.recv_cum + 1) {
      ++link.recv_cum;
      auto it = link.recv_ooo.begin();
      while (it != link.recv_ooo.end() && *it == link.recv_cum + 1) {
        ++link.recv_cum;
        ++it;
      }
      link.recv_ooo.erase(link.recv_ooo.begin(), it);
    } else {
      link.recv_ooo.insert(
          std::lower_bound(link.recv_ooo.begin(), link.recv_ooo.end(), seq),
          seq);
    }
    if (env->inner) {
      payload = std::move(env->inner);
    } else {
      // Retransmission: the original payload object travelled with the first
      // copy; rebuild this one from the sender-retained bytes.
      payload = decode_payload(env->bytes, static_cast<std::size_t>(n_));
    }
    recycle_envelope(ns, std::move(env));
    send_pure_ack(ns, to, from);
  }
  // Forward outside the lock: the monitor's processing may send, which
  // re-enters this node's state.
  hooks_->on_monitor_message(MonitorMessage{from, to, std::move(payload)},
                             now);
}

void ReliableChannel::on_timer(int self,
                               std::unique_ptr<ChannelTimer> timer,
                               double now) {
  NodeState& ns = node(self);
  std::vector<MonitorMessage> out;
  {
    std::lock_guard<std::mutex> lock(ns.mu);
    ns.timer_armed = false;
    ++ns.stats.timer_fires;
    if (ns.timer_pool.size() < kPoolCap) {
      ns.timer_pool.push_back(std::move(timer));
    }
    double next_deadline = 0.0;
    bool have_next = false;
    for (Unacked& u : ns.unacked) {
      if (u.deadline <= now + kDeadlineEps) {
        ++u.attempts;
        u.deadline = now + backoff_interval(ns, u.attempts);
        auto env = acquire_envelope(ns);
        env->seq = u.seq;
        env->ack = ns.links[static_cast<std::size_t>(u.to)].recv_cum;
        env->bytes = acquire_buffer(ns);
        env->bytes.assign(u.bytes.begin(), u.bytes.end());
        ++ns.stats.retransmissions;
        out.push_back(MonitorMessage{self, u.to, std::move(env)});
      }
      if (!have_next || u.deadline < next_deadline) {
        next_deadline = u.deadline;
        have_next = true;
      }
    }
    if (have_next) arm_timer(ns, self, next_deadline);
  }
  for (MonitorMessage& msg : out) {
    DeliveryPerturbation p;
    p.bypass_fifo = true;  // retransmissions do not hold the channel FIFO
    inner_->send_perturbed(std::move(msg), p);
  }
}

ChannelStats ReliableChannel::stats(int node_index) const {
  NodeState& ns = node(node_index);
  std::lock_guard<std::mutex> lock(ns.mu);
  return ns.stats;
}

ChannelStats ReliableChannel::total_stats() const {
  ChannelStats total;
  for (int i = 0; i < n_; ++i) total += stats(i);
  return total;
}

std::size_t ReliableChannel::unacked_count(int node_index) const {
  NodeState& ns = node(node_index);
  std::lock_guard<std::mutex> lock(ns.mu);
  return ns.unacked.size();
}

std::vector<std::uint8_t> ReliableChannel::save_node(int node_index) const {
  NodeState& ns = node(node_index);
  std::lock_guard<std::mutex> lock(ns.mu);
  std::vector<std::uint8_t> blob;
  WireWriter w(blob);
  for (std::uint8_t b : kChannelMagic) w.u8(b);
  w.u8(kChannelBlobVersion);
  w.u32(static_cast<std::uint32_t>(n_));
  for (const Link& link : ns.links) {
    w.u64(link.next_seq);
    w.u64(link.recv_cum);
    w.u32(static_cast<std::uint32_t>(link.recv_ooo.size()));
    for (std::uint64_t s : link.recv_ooo) w.u64(s);
  }
  w.u32(static_cast<std::uint32_t>(ns.unacked.size()));
  for (const Unacked& u : ns.unacked) {
    w.u64(u.seq);
    w.u32(static_cast<std::uint32_t>(u.to));
    w.u32(static_cast<std::uint32_t>(u.attempts));
    w.u32(static_cast<std::uint32_t>(u.bytes.size()));
    for (std::uint8_t b : u.bytes) w.u8(b);
  }
  w.u64(ns.jitter_rng);
  w.u32(wire_crc32(blob.data(), blob.size()));
  return blob;
}

void ReliableChannel::restore_node(int node_index,
                                   const std::vector<std::uint8_t>& blob,
                                   double now) {
  // Decode fully into locals before touching node state: a corrupt blob
  // must throw without leaving the node half-restored.
  if (blob.size() < 4) throw WireError("channel blob truncated");
  const std::uint32_t crc = wire_crc32(blob.data(), blob.size() - 4);
  WireReader r(blob);
  for (std::uint8_t b : kChannelMagic) {
    if (r.u8() != b) throw WireError("bad channel blob magic");
  }
  if (r.u8() != kChannelBlobVersion) {
    throw WireError("unsupported channel blob version");
  }
  if (r.u32() != static_cast<std::uint32_t>(n_)) {
    throw WireError("channel blob process count mismatch");
  }
  std::vector<Link> links(static_cast<std::size_t>(n_));
  for (Link& link : links) {
    link.next_seq = r.u64();
    link.recv_cum = r.u64();
    const std::uint32_t ooo = r.u32();
    if (ooo > (1u << 20)) throw WireError("channel blob ooo set too large");
    link.recv_ooo.reserve(ooo);
    std::uint64_t prev = 0;
    for (std::uint32_t i = 0; i < ooo; ++i) {
      const std::uint64_t s = r.u64();
      if (s <= link.recv_cum || (i > 0 && s <= prev)) {
        throw WireError("channel blob ooo set not strictly ascending");
      }
      prev = s;
      link.recv_ooo.push_back(s);
    }
  }
  const std::uint32_t unacked_n = r.u32();
  if (unacked_n > (1u << 20)) throw WireError("channel blob too many unacked");
  std::vector<Unacked> unacked;
  unacked.reserve(unacked_n);
  for (std::uint32_t i = 0; i < unacked_n; ++i) {
    Unacked u;
    u.seq = r.u64();
    const std::uint32_t to = r.u32();
    if (to >= static_cast<std::uint32_t>(n_)) {
      throw WireError("channel blob bad destination");
    }
    u.to = static_cast<int>(to);
    u.attempts = static_cast<int>(r.u32());
    const std::uint32_t len = r.u32();
    if (len > (1u << 24)) throw WireError("channel blob payload too large");
    u.bytes.reserve(len);
    for (std::uint32_t j = 0; j < len; ++j) u.bytes.push_back(r.u8());
    // Validate now: a restored payload that cannot decode would otherwise
    // only surface when retransmitted into a peer.
    (void)decode_payload(u.bytes, static_cast<std::size_t>(n_));
    unacked.push_back(std::move(u));
  }
  std::uint64_t jitter_rng = r.u64();
  if (r.u32() != crc) throw WireError("channel blob CRC mismatch");
  r.done();

  NodeState& ns = node(node_index);
  std::lock_guard<std::mutex> lock(ns.mu);
  ns.links = std::move(links);
  ns.unacked = std::move(unacked);
  ns.jitter_rng = jitter_rng;
  // Any pre-crash timer message was lost with the node; re-base deadlines
  // and arm a fresh timer so retransmission resumes. Deadlines are rebased
  // WITHOUT drawing jitter: restore must not advance the saved jitter
  // stream, so that save -> restore -> save round-trips byte-identically.
  ns.timer_armed = false;
  double next_deadline = 0.0;
  bool have_next = false;
  for (Unacked& u : ns.unacked) {
    int exponent = u.attempts - 1;
    if (exponent > config_.backoff_cap) exponent = config_.backoff_cap;
    if (exponent < 0) exponent = 0;
    double interval = config_.rto;
    for (int i = 0; i < exponent; ++i) interval *= config_.backoff;
    u.deadline = now + interval;
    if (!have_next || u.deadline < next_deadline) {
      next_deadline = u.deadline;
      have_next = true;
    }
  }
  if (have_next) arm_timer(ns, node_index, next_deadline);
}

}  // namespace decmon
