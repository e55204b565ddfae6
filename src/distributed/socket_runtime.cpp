#include "decmon/distributed/socket_runtime.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "decmon/monitor/wire.hpp"
#include "decmon/util/rng.hpp"
#include "run_core.hpp"
#include "wall_time.hpp"

namespace decmon {

namespace {

// Record type bytes (after the u32 length prefix).
constexpr std::uint8_t kAppRecord = 0x01;
constexpr std::uint8_t kMonRecord = 0x02;
constexpr std::uint8_t kCtlRecord = 0x03;
constexpr std::size_t kRecordHeader = 5;  // u32 length + type byte

// Control record kinds.
constexpr std::uint8_t kCtlHello = 1;
/// Full on-wire size of a HELLO record: header + kind + sender u32 +
/// app-received u64 + monitor-received u64.
constexpr std::size_t kHelloRecordBytes = kRecordHeader + 1 + 4 + 8 + 8;

// epoll user data is (kind << 32 | value): value is a peer index for data
// sockets, unused for the eventfd and the listener.
constexpr std::uint64_t kKindPeer = 0;
constexpr std::uint64_t kKindEvent = 1;
constexpr std::uint64_t kKindListener = 2;

// Reconnect backoff: attempt k waits min(kReconnectCapMs, kReconnectBaseMs *
// 2^k) milliseconds, scaled by seeded jitter in [0.5, 1.5). Exhausting the
// attempt budget is a run error.
constexpr double kReconnectBaseMs = 1.0;
constexpr double kReconnectCapMs = 100.0;
constexpr int kMaxReconnectAttempts = 60;
// Link bring-up bounds (DESIGN.md §13.2): a redial waits at most
// kDialTimeout for its connect to complete, and an acceptor at most
// kHelloTimeout for the dialer's HELLO. A miss is one failed attempt.
constexpr std::chrono::milliseconds kDialTimeout{100};
constexpr std::chrono::milliseconds kHelloTimeout{500};

using Clock = std::chrono::steady_clock;

std::uint64_t make_tag(std::uint64_t kind, std::uint64_t value) {
  return (kind << 32) | value;
}

using detail::advance_saturated;
using detail::to_wall;

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void apply_buffer_sizes(int fd, const SocketConfig& config) {
  if (config.sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config.sndbuf,
                 sizeof config.sndbuf);
  }
  if (config.rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &config.rcvbuf,
                 sizeof config.rcvbuf);
  }
  // Loopback negotiates an MSS near its 64 KiB MTU. When the configured
  // buffers are of the same order, the advertised receive window can sink
  // below one segment whenever the reader lags; the sender's silly-window
  // avoidance then refuses to transmit at all and the stream degenerates
  // into zero-window persist probes -- hundreds of milliseconds apart and
  // exponentially backed off -- while both ends sit idle (observed as
  // multi-second whole-run stalls: `ss` shows notsent > 0, snd_wnd < mss,
  // timer:(persist,...) and rwnd_limited ~90%). Clamp the MSS so the
  // window always holds several segments, as it would on a real network
  // path where the MTU is tiny relative to any sane buffer size.
  int cap = config.rcvbuf;
  if (config.sndbuf > 0 && (cap <= 0 || config.sndbuf < cap)) {
    cap = config.sndbuf;
  }
  if (cap > 0) {
    const int mss = std::clamp(cap / 4, 1024, 65483);
    ::setsockopt(fd, IPPROTO_TCP, TCP_MAXSEG, &mss, sizeof mss);
  }
}

void apply_stream_options(int fd) {
  // TCP_NODELAY keeps small monitor records from being Nagle-delayed
  // behind unacked data.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // Small-buffer meshes can still drop segments at the receive queue
  // when skb overhead overruns SO_RCVBUF (TCPRcvQDrop); the retransmit
  // that repairs a drop is then the channel's latency floor. Monitor
  // streams are exactly the "thin stream" the linear-timeout option
  // targets -- few packets in flight, latency-critical -- so keep the
  // retransmit clock flat instead of exponential, and on kernels that
  // support it clamp the RTO ceiling too. Both are best-effort.
  ::setsockopt(fd, IPPROTO_TCP, TCP_THIN_LINEAR_TIMEOUTS, &one, sizeof one);
#ifdef TCP_RTO_MAX_MS
  const unsigned rto_max_ms = 1000;  // kernel-enforced floor
  ::setsockopt(fd, IPPROTO_TCP, TCP_RTO_MAX_MS, &rto_max_ms,
               sizeof rto_max_ms);
#endif
}

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

std::uint32_t read_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t read_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void write_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void write_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

using HelloRecord = std::array<std::uint8_t, kHelloRecordBytes>;

HelloRecord encode_hello(int sender, std::uint64_t app_received,
                         std::uint64_t mon_received) {
  HelloRecord rec{};
  write_le32(rec.data(), static_cast<std::uint32_t>(kHelloRecordBytes - 4));
  rec[4] = kCtlRecord;
  rec[5] = kCtlHello;
  write_le32(rec.data() + 6, static_cast<std::uint32_t>(sender));
  write_le64(rec.data() + 10, app_received);
  write_le64(rec.data() + 18, mon_received);
  return rec;
}

struct Hello {
  int sender = -1;
  std::uint64_t app_received = 0;
  std::uint64_t mon_received = 0;
};

/// Decode the body of a control record (the bytes after the type byte) as
/// a HELLO; nullopt when it is not one.
std::optional<Hello> decode_hello(std::span<const std::uint8_t> body) {
  if (body.size() != kHelloRecordBytes - kRecordHeader ||
      body[0] != kCtlHello) {
    return std::nullopt;
  }
  return Hello{static_cast<int>(read_le32(body.data() + 1)),
               read_le64(body.data() + 5), read_le64(body.data() + 13)};
}

/// Wait until `fd` reports one of `events` (or an error or hangup) or the
/// deadline passes; false on timeout.
bool wait_ready(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd pfd{fd, events, 0};
    const int pr =
        ::poll(&pfd, 1, static_cast<int>(std::max<decltype(left)>(left, 0)));
    if (pr > 0) return true;
    if (pr == 0 || errno != EINTR) return false;
  }
}

/// The one way a link is dialed, at setup and on every reconnect: a
/// nonblocking connect to the loopback `port`, then a wait for completion
/// until `deadline`. Returns the connected fd, or -1 with errno set
/// (ETIMEDOUT when the deadline passed first).
int dial(const SocketConfig& config, std::uint16_t port,
         Clock::time_point deadline) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  apply_buffer_sizes(fd, config);
  const sockaddr_in addr = loopback_addr(port);
  int err = 0;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    err = errno;
    if (err == EINPROGRESS) {
      err = ETIMEDOUT;
      if (wait_ready(fd, POLLOUT, deadline)) {
        socklen_t len = sizeof err;
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      }
    }
  }
  if (err == 0) return fd;
  ::close(fd);
  errno = err;
  return -1;
}

/// Accept one connection on the nonblocking listener, waiting until the
/// deadline for one to arrive; -1 with errno set on failure. The fd comes
/// back nonblocking and close-on-exec.
int accept_within(int listen_fd, Clock::time_point deadline) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    if ((errno != EAGAIN && errno != EWOULDBLOCK) ||
        !wait_ready(listen_fd, POLLIN, deadline)) {
      return -1;
    }
  }
}

/// Read exactly `len` bytes from the nonblocking `fd`, waiting until the
/// deadline; false on EOF, a socket error or timeout.
bool read_exact(int fd, std::uint8_t* buf, std::size_t len,
                Clock::time_point deadline) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t k = ::recv(fd, buf + got, len - got, 0);
    if (k > 0) {
      got += static_cast<std::size_t>(k);
    } else if (k == 0) {
      return false;
    } else if (errno != EINTR &&
               ((errno != EAGAIN && errno != EWOULDBLOCK) ||
                !wait_ready(fd, POLLIN, deadline))) {
      return false;
    }
  }
  return true;
}

/// The node loop this thread runs, if any. A send made on the node thread
/// that owns the channel is left to that loop's flush (flush_or_defer_locked).
struct NodeThread {
  const SocketRuntime* runtime = nullptr;
  int index = -1;
};
thread_local NodeThread t_node_thread;

}  // namespace

// ---------------------------------------------------------------------------
// FrameReassembler
// ---------------------------------------------------------------------------

void FrameReassembler::feed(const std::uint8_t* data, std::size_t len) {
  // Records handed out by next() view buf_, so consumed bytes are reclaimed
  // here, not there: all of them once everything was consumed, otherwise
  // the prefix once it dominates the buffer, so a long-lived stream does not
  // grow without bound.
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

std::optional<FrameReassembler::Record> FrameReassembler::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 4) return std::nullopt;
  const std::uint32_t len = read_le32(buf_.data() + pos_);
  if (len == 0 || len > kMaxRecordBytes) {
    throw WireError("bad record length prefix");
  }
  if (avail - 4 < len) return std::nullopt;
  const Record rec{buf_[pos_ + 4],
                   std::span<const std::uint8_t>(buf_.data() + pos_ + 5,
                                                 len - 1)};
  pos_ += 4 + len;
  return rec;
}

// ---------------------------------------------------------------------------
// Construction: TCP loopback mesh + per-node epoll/eventfd/listener
// ---------------------------------------------------------------------------

SocketRuntime::SocketRuntime(SystemTrace trace, const AtomRegistry* registry,
                             SocketConfig config)
    : config_(config),
      core_(std::make_unique<detail::RunCore>(trace, registry,
                                              config.time_scale)) {
  const int n = trace.num_processes();
  kills_left_.store(config_.fault.enabled ? config_.fault.max_kills : 0,
                    std::memory_order_relaxed);
  node_kill_armed_.store(config_.fault.enabled && config_.fault.kill_node >= 0,
                         std::memory_order_relaxed);
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto node = std::make_unique<Node>();
    node->reassembly.resize(static_cast<std::size_t>(n));
    node->peer_open.assign(static_cast<std::size_t>(n), false);
    node->app_recv.assign(static_cast<std::size_t>(n), 0);
    node->mon_recv.assign(static_cast<std::size_t>(n), 0);
    node->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (node->epoll_fd < 0) throw_errno("epoll_create1");
    node->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (node->event_fd < 0) throw_errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = make_tag(kKindEvent, 0);
    if (::epoll_ctl(node->epoll_fd, EPOLL_CTL_ADD, node->event_fd, &ev) < 0) {
      throw_errno("epoll_ctl eventfd");
    }
    // Persistent listener: setup connections arrive here, and so does
    // every reconnect after a link failure (lower pair index dials the
    // higher index's listener).
    node->listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (node->listen_fd < 0) throw_errno("socket");
    apply_buffer_sizes(node->listen_fd, config_);  // inherited by accept()
    sockaddr_in addr = loopback_addr(0);
    if (::bind(node->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) < 0 ||
        ::listen(node->listen_fd, n + 4) < 0) {
      throw_errno("bind/listen");
    }
    socklen_t addr_len = sizeof addr;
    if (::getsockname(node->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) < 0) {
      throw_errno("getsockname");
    }
    node->listen_port = ntohs(addr.sin_port);
    epoll_event lev{};
    lev.events = EPOLLIN;
    lev.data.u64 = make_tag(kKindListener, 0);
    if (::epoll_ctl(node->epoll_fd, EPOLL_CTL_ADD, node->listen_fd, &lev) <
        0) {
      throw_errno("epoll_ctl listener");
    }
    nodes_.push_back(std::move(node));
  }

  channels_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (auto& ch : channels_) ch = std::make_unique<Channel>();

  // Connect the mesh: one loopback TCP connection per unordered pair, the
  // lower index dialing the higher index's listener with the same dial() a
  // reconnect uses. A listener that refuses or whose backlog momentarily
  // overflows is retried on a fresh socket until the setup deadline.
  const Clock::time_point setup_deadline =
      Clock::now() + std::chrono::seconds(10);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const Node& acceptor = *nodes_[static_cast<std::size_t>(j)];
      int client = -1;
      while ((client = dial(config_, acceptor.listen_port, setup_deadline)) <
             0) {
        const int err = errno;
        const bool transient = err == ECONNREFUSED || err == ETIMEDOUT ||
                               err == EAGAIN || err == ECONNRESET ||
                               err == EADDRNOTAVAIL;
        if (!transient || Clock::now() >= setup_deadline) {
          throw std::system_error(err, std::generic_category(), "connect");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      const int accepted = accept_within(acceptor.listen_fd, setup_deadline);
      if (accepted < 0) throw_errno("accept");
      apply_stream_options(client);
      apply_stream_options(accepted);
      channel(i, j).fd = client;
      channel(j, i).fd = accepted;
    }
  }

  // Register every node's peer fds for reading and fill in channel owner
  // metadata (the sender side arms EPOLLOUT on the same fd when congested).
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      Channel& ch = channel(i, j);
      ch.owner_epoll = nodes_[static_cast<std::size_t>(i)]->epoll_fd;
      ch.self = i;
      ch.peer = j;
      ch.rng_state = config_.seed ^ config_.fault.seed ^
                     (0x5851F42D4C957F2Dull *
                      static_cast<std::uint64_t>(i * n + j + 1));
      if (config_.fault.enabled && config_.fault.max_kills > 0) {
        const std::uint32_t lo = std::min(config_.fault.kill_after_min,
                                          config_.fault.kill_after_max);
        const std::uint32_t hi = std::max(config_.fault.kill_after_min,
                                          config_.fault.kill_after_max);
        ch.kill_countdown =
            lo + static_cast<std::uint32_t>(splitmix64_next(ch.rng_state) %
                                            (hi - lo + 1));
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = make_tag(kKindPeer, static_cast<std::uint64_t>(j));
      if (::epoll_ctl(ch.owner_epoll, EPOLL_CTL_ADD, ch.fd, &ev) < 0) {
        throw_errno("epoll_ctl peer fd");
      }
      nodes_[static_cast<std::size_t>(i)]
          ->peer_open[static_cast<std::size_t>(j)] = true;
    }
  }
}

// run() joins every node thread before it returns or throws.
SocketRuntime::~SocketRuntime() {
  for (auto& ch : channels_) {
    if (ch) close_if_open(ch->fd);
  }
  for (auto& node : nodes_) {
    close_if_open(node->listen_fd);
    close_if_open(node->event_fd);
    close_if_open(node->epoll_fd);
  }
}

void SocketRuntime::set_hooks(MonitorHooks* hooks) { core_->set_hooks(hooks); }

const std::vector<std::vector<Event>>& SocketRuntime::history() const {
  return core_->history();
}

std::vector<LocalState> SocketRuntime::initial_states() const {
  return core_->initial_states();
}

double SocketRuntime::now() const { return core_->now(); }

std::uint64_t SocketRuntime::program_events() const {
  return core_->program_events;
}
std::uint64_t SocketRuntime::app_messages_sent() const {
  return core_->app_messages;
}
std::uint64_t SocketRuntime::monitor_messages_sent() const {
  return core_->monitor_sends;
}
std::uint64_t SocketRuntime::monitor_messages_processed() const {
  return core_->monitor_deliveries;
}

void SocketRuntime::wake(int index) {
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t r =
      ::write(nodes_[static_cast<std::size_t>(index)]->event_fd, &one,
              sizeof one);
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

std::size_t SocketRuntime::app_record_bytes() const {
  // u32 sender + u32 send_sn + vector clock (u32 width + one u32 per node).
  return kRecordHeader + 12 + 4 * nodes_.size();
}

void SocketRuntime::encode_record_locked(Channel& ch,
                                         const NetPayload& payload) {
  const std::size_t start = ch.out.size();
  ch.out.resize(start + kRecordHeader);
  ch.out[start + 4] = kMonRecord;
  encode_payload_into(payload, ch.out);
  const std::size_t len = ch.out.size() - start;
  write_le32(ch.out.data() + start, static_cast<std::uint32_t>(len - 4));
  ch.marks.push_back(RecordMark{ch.out.size(), kMonRecord});
  // Transport-truth accounting: TCP delivers every queued byte, so the
  // encoded length is the on-wire cost -- no size-walking here. (Bytes a
  // reconnect re-sends -- the partially written front record -- are not
  // re-counted: counters stay logical-record-deterministic under faults.)
  wire_bytes_.fetch_add(len, std::memory_order_relaxed);
  wire_frames_.fetch_add(1, std::memory_order_relaxed);
}

void SocketRuntime::materialize_staging_locked(Channel& ch) {
  encode_record_locked(ch, *ch.staging);
  ch.staging.reset();
}

void SocketRuntime::drop_written_locked(Channel& ch) {
  if (ch.next_mark == 0) return;
  const std::size_t done = ch.marks[ch.next_mark - 1].end;
  ch.out.erase(ch.out.begin(),
               ch.out.begin() + static_cast<std::ptrdiff_t>(done));
  ch.marks.erase(ch.marks.begin(),
                 ch.marks.begin() + static_cast<std::ptrdiff_t>(ch.next_mark));
  for (RecordMark& m : ch.marks) m.end -= done;
  ch.sent -= done;
  ch.next_mark = 0;
}

void SocketRuntime::flush_locked(Channel& ch) {
  // Data writes are gated until the link is up and the HELLO exchange has
  // rebuilt the buffer; a down (or dying) link just accumulates (staging
  // bounds the growth).
  if (ch.state != LinkState::kUp || ch.fd < 0 || ch.kill_pending ||
      ch.io_error) {
    return;
  }
  bool failed = false;
  for (;;) {
    if (ch.sent == ch.out.size()) {
      // Everything written: reuse the buffer from the start.
      ch.out.clear();
      ch.marks.clear();
      ch.sent = 0;
      ch.next_mark = 0;
      if (!ch.staging) break;
      materialize_staging_locked(ch);
    } else if (ch.staging && !ch.want_write) {
      // The bytes ahead of the staged frame are unflushed, not pushed back
      // by the socket: let the frame ride the same send().
      materialize_staging_locked(ch);
    }
    // One send() for the whole unsent span, cut short at the record where
    // an armed kill countdown reaches zero: the peer must never receive a
    // record the writer has not counted before the connection dies.
    std::size_t limit = ch.out.size();
    if (ch.kill_countdown > 0) {
      std::uint32_t left = ch.kill_countdown;
      for (std::size_t m = ch.next_mark; m < ch.marks.size(); ++m) {
        if (ch.marks[m].kind == kMonRecord && --left == 0) {
          limit = ch.marks[m].end;
          break;
        }
      }
    }
    const ssize_t k = ::send(ch.fd, ch.out.data() + ch.sent, limit - ch.sent,
                             MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        partial_writes_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Link failure (ECONNRESET, EPIPE, ...): flag it for the owner --
        // the fd's lifecycle is owner-thread only -- and stop writing.
        failed = true;
      }
      break;
    }
    send_calls_.fetch_add(1, std::memory_order_relaxed);
    ch.sent += static_cast<std::size_t>(k);
    for (; ch.next_mark < ch.marks.size() &&
           ch.marks[ch.next_mark].end <= ch.sent;
         ++ch.next_mark) {
      if (ch.marks[ch.next_mark].kind != kMonRecord) continue;
      ++ch.mon_written;
      if (ch.kill_countdown > 0 && --ch.kill_countdown == 0 &&
          kills_left_.fetch_sub(1, std::memory_order_acq_rel) > 0) {
        // Seeded fault: this connection dies right here. The owner
        // performs the abortive close; stop feeding the doomed socket.
        ch.kill_pending = true;
      }
    }
    if (ch.kill_pending) break;
    if (ch.sent < limit) {
      // Short write: the socket buffer is full. Reclaim the written prefix
      // once it dominates, so a long congested spell stays bounded.
      partial_writes_.fetch_add(1, std::memory_order_relaxed);
      if (ch.sent > 65536 && ch.sent >= ch.out.size() / 2) {
        drop_written_locked(ch);
      }
      break;
    }
  }
  if (failed || ch.kill_pending) {
    ch.io_error = ch.io_error || failed;
    nodes_[static_cast<std::size_t>(ch.self)]->links_dirty.store(
        true, std::memory_order_release);
    wake(ch.self);
    return;
  }
  // Keep epoll write-interest in sync with the buffer state. epoll_ctl is
  // thread-safe; want_write is guarded by ch.mutex, which the caller holds.
  const bool need_write = ch.sent < ch.out.size() || ch.staging != nullptr;
  if (need_write != ch.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (need_write ? EPOLLOUT : 0u);
    ev.data.u64 = make_tag(kKindPeer, static_cast<std::uint64_t>(ch.peer));
    if (::epoll_ctl(ch.owner_epoll, EPOLL_CTL_MOD, ch.fd, &ev) == 0) {
      ch.want_write = need_write;
    }
  }
}

void SocketRuntime::flush_or_defer_locked(Channel& ch) {
  if (t_node_thread.runtime == this && t_node_thread.index == ch.self) {
    if (!ch.dirty) {
      ch.dirty = true;
      nodes_[static_cast<std::size_t>(ch.self)]->dirty.push_back(ch.peer);
    }
    return;
  }
  flush_locked(ch);
}

void SocketRuntime::flush_dirty(int index) {
  Node& node = *nodes_[static_cast<std::size_t>(index)];
  for (const int peer : node.dirty) {
    Channel& ch = channel(index, peer);
    std::scoped_lock lock(ch.mutex);
    ch.dirty = false;
    flush_locked(ch);
  }
  node.dirty.clear();
}

void SocketRuntime::enqueue_monitor(int from, int to,
                                    std::unique_ptr<NetPayload> payload) {
  Channel& ch = channel(from, to);
  std::scoped_lock lock(ch.mutex);
  if (payload->tag == PayloadFrame::kTag) {
    std::unique_ptr<PayloadFrame> frame(
        static_cast<PayloadFrame*>(payload.release()));
    if (frame->units.empty()) {
      core_->finish_one();  // nothing to deliver; retire the message's credit
      return;
    }
    if (!config_.batch) {
      // Unbatched control posture: every unit crosses as its own record,
      // encoded as a one-unit frame (encode_payload_into on a bare unit).
      // The frame's single work credit becomes one credit per record; add
      // the difference before any record can complete at the receiver.
      core_->add_credits(static_cast<std::int64_t>(frame->units.size()) - 1);
      for (const auto& unit : frame->units) encode_record_locked(ch, *unit);
    } else if (ch.staging) {
      // Channel congested and a frame is already parked: merge (this is
      // the kTransit convoy on real congestion). The merged frame's bytes
      // are now owed by the staging frame's credit, so this one retires.
      for (auto& unit : frame->units) {
        ch.staging->units.push_back(std::move(unit));
      }
      coalesced_frames_.fetch_add(1, std::memory_order_relaxed);
      core_->finish_one();
    } else if (ch.sent < ch.out.size()) {
      // Earlier bytes still unsent: park instead of encoding, so later
      // frames can join and the buffer stays bounded.
      ch.staging = std::move(frame);
    } else {
      encode_record_locked(ch, *frame);
    }
  } else {
    // Monitors send only frames; a non-frame payload is a reliable-channel
    // envelope. It keeps FIFO order with frames: anything parked must hit
    // the buffer first.
    if (ch.staging) materialize_staging_locked(ch);
    encode_record_locked(ch, *payload);
  }
  flush_or_defer_locked(ch);
}

void SocketRuntime::send(MonitorMessage msg) {
  send_perturbed(std::move(msg), DeliveryPerturbation{});
}

void SocketRuntime::send_perturbed(MonitorMessage msg,
                                   const DeliveryPerturbation& perturbation) {
  if (msg.from < 0 || msg.from >= num_processes() || msg.to < 0 ||
      msg.to >= num_processes() || !msg.payload) {
    throw std::out_of_range("SocketRuntime::send: bad message");
  }
  // Count the work unit before it becomes visible anywhere (credit-counting
  // quiescence, see header).
  core_->add_credits(1);
  if (msg.from == msg.to) {
    // Self-delivery, possibly delayed (reliable-channel retransmit timers).
    // Nothing crosses the network; honored via the node's timer heap.
    // extra_delay is expressed in now() units -- for this runtime that is
    // real (unscaled) seconds, so it must NOT go through to_wall():
    // time_scale compresses scripted trace waits, and scaling a deadline
    // that was computed against the real clock would make every timer fire
    // early -- at time_scale=0, an armed retransmit timer would refire
    // immediately forever and quiescence could never be declared.
    Clock::time_point at = Clock::now();
    if (perturbation.extra_delay > 0.0) {
      at = advance_saturated(
          at, std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::duration<double>(perturbation.extra_delay)));
    }
    Node& node = *nodes_[static_cast<std::size_t>(msg.to)];
    {
      std::scoped_lock lock(node.timer_mutex);
      node.timers.push(
          Timer{at, timer_seq_.fetch_add(1, std::memory_order_relaxed),
                std::move(msg)});
    }
    wake(msg.to);
    return;
  }
  // Cross-node: the transport is a real TCP stream, so there is no modeled
  // latency to perturb and per-channel FIFO is physical; extra_delay and
  // bypass_fifo are simulation concepts and are ignored here.
  core_->monitor_sends.fetch_add(1, std::memory_order_relaxed);
  enqueue_monitor(msg.from, msg.to, std::move(msg.payload));
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void SocketRuntime::dispatch_record(int index, int peer,
                                    const FrameReassembler::Record& rec) {
  Node& node = *nodes_[static_cast<std::size_t>(index)];
  const std::span<const std::uint8_t> body = rec.body;
  if (rec.type == kCtlRecord) {
    // HELLO from a reconnected peer: reconcile our send direction.
    const std::optional<Hello> hello = decode_hello(body);
    if (!hello) throw WireError("bad control record");
    if (hello->sender != peer) throw WireError("hello from wrong peer");
    process_hello(index, peer, hello->app_received, hello->mon_received);
    return;
  }
  if (rec.type == kAppRecord) {
    WireReader r(body);
    AppMessage msg;
    msg.from = static_cast<int>(r.u32());
    msg.to = index;
    msg.send_sn = r.u32();
    msg.vc = r.vc(nodes_.size());
    r.done();
    if (msg.from != peer) throw WireError("app record from wrong peer");
    ++node.app_recv[static_cast<std::size_t>(peer)];
    core_->apply_receive(index, msg);
  } else if (rec.type == kMonRecord) {
    auto payload = decode_payload(body, nodes_.size());
    ++node.mon_recv[static_cast<std::size_t>(peer)];
    ++node.mon_recv_total;
    core_->apply_monitor(MonitorMessage{peer, index, std::move(payload)});
    // Node-kill drill: once this node has dispatched enough monitor
    // records, every one of its links dies at once (transport face of a
    // crash; the hooks-layer CrashInjector owns the state restore).
    if (node_kill_armed_.load(std::memory_order_relaxed) &&
        config_.fault.kill_node == index &&
        node.mon_recv_total > config_.fault.kill_node_after &&
        node_kill_armed_.exchange(false, std::memory_order_acq_rel)) {
      for (int p = 0; p < num_processes(); ++p) {
        if (p != index) request_kill(index, p);
      }
    }
  } else {
    throw WireError("unknown record type");
  }
}

void SocketRuntime::read_peer(int index, int peer) {
  Node& node = *nodes_[static_cast<std::size_t>(index)];
  if (!node.peer_open[static_cast<std::size_t>(peer)]) return;
  const int fd = channel(index, peer).fd;  // fd changes only on this thread
  if (fd < 0) return;
  FrameReassembler& ra = node.reassembly[static_cast<std::size_t>(peer)];
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t k = ::recv(fd, buf, sizeof buf, 0);
    if (k > 0) {
      ra.feed(buf, static_cast<std::size_t>(k));
      while (const auto rec = ra.next()) dispatch_record(index, peer, *rec);
      // A short read emptied the socket: level-triggered epoll reports the
      // next bytes (or EOF), so skip the recv() that would only see EAGAIN.
      if (static_cast<std::size_t>(k) < sizeof buf) return;
      continue;
    }
    if (k < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    }
    // EOF or a hard socket error (ECONNRESET after an abortive kill): the
    // peer is down, not the run. Partial bytes die with the reassembler
    // reset; the HELLO reconciliation replays or retires what was lost.
    if (core_->stopping()) {
      node.peer_open[static_cast<std::size_t>(peer)] = false;
      ::epoll_ctl(node.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
      return;
    }
    link_down(index, peer, /*abortive=*/false);
    return;
  }
}

void SocketRuntime::broadcast_app(int index, const AppMessage& message) {
  // The receiver id is implied by the stream, so every destination gets the
  // same record, encoded straight into its channel's buffer.
  const std::size_t rec_bytes = app_record_bytes();
  for (int to = 0; to < num_processes(); ++to) {
    if (to == index) continue;
    core_->app_messages.fetch_add(1, std::memory_order_relaxed);
    core_->add_credits(1);
    Channel& ch = channel(index, to);
    std::scoped_lock lock(ch.mutex);
    const std::size_t start = ch.out.size();
    WireWriter w(ch.out);
    w.u32(static_cast<std::uint32_t>(rec_bytes - 4));
    w.u8(kAppRecord);
    w.u32(static_cast<std::uint32_t>(message.from));
    w.u32(message.send_sn);
    w.vc(message.vc);
    if (ch.out.size() - start != rec_bytes) {
      throw std::logic_error("SocketRuntime: app clock width != node count");
    }
    ch.marks.push_back(RecordMark{ch.out.size(), kAppRecord});
    app_bytes_.fetch_add(rec_bytes, std::memory_order_relaxed);
    // App records are transport-reliable: losing one would strand the
    // receiver's expected-receives count forever, so every record is
    // retained in the replay log until a peer HELLO confirms delivery.
    ch.app_log.insert(ch.app_log.end(),
                      ch.out.begin() + static_cast<std::ptrdiff_t>(start),
                      ch.out.end());
    flush_or_defer_locked(ch);
  }
}

// ---------------------------------------------------------------------------
// Link lifecycle: failure detection, reconnect, HELLO reconciliation
// ---------------------------------------------------------------------------

void SocketRuntime::link_down(int index, int peer, bool abortive) {
  Channel& ch = channel(index, peer);
  std::scoped_lock lock(ch.mutex);
  link_down_locked(ch, abortive);
}

void SocketRuntime::link_down_locked(Channel& ch, bool abortive) {
  Node& node = *nodes_[static_cast<std::size_t>(ch.self)];
  ch.io_error = false;
  ch.kill_pending = false;
  if (ch.fd < 0) return;  // already down (kDown); keep the backoff clock
  if (abortive) {
    // RST instead of FIN: queued and in-flight bytes genuinely die, so the
    // reconciliation machinery is exercised, not just the handshake.
    const linger lg{1, 0};
    ::setsockopt(ch.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  }
  ::close(ch.fd);  // also deregisters from epoll
  ch.fd = -1;
  ch.state = LinkState::kDown;
  ch.want_write = false;
  node.peer_open[static_cast<std::size_t>(ch.peer)] = false;
  node.reassembly[static_cast<std::size_t>(ch.peer)].reset();
  ch.next_attempt_at = Clock::now();
  node.links_dirty.store(true, std::memory_order_release);
}

void SocketRuntime::schedule_retry_locked(Channel& ch) {
  ++ch.attempts;
  double delay_ms =
      kReconnectBaseMs * std::ldexp(1.0, std::min(ch.attempts - 1, 20));
  delay_ms = std::min(delay_ms, kReconnectCapMs);
  // Seeded jitter in [0.5, 1.5): reconnect storms decorrelate but stay
  // reproducible for a given (config seed, channel) pair.
  const double jitter =
      0.5 +
      static_cast<double>(splitmix64_next(ch.rng_state) >> 11) * 0x1.0p-53;
  delay_ms *= jitter;
  ch.next_attempt_at = advance_saturated(
      Clock::now(),
      std::chrono::nanoseconds(static_cast<std::int64_t>(delay_ms * 1e6)));
  nodes_[static_cast<std::size_t>(ch.self)]->links_dirty.store(
      true, std::memory_order_release);
}

SocketRuntime::Clock::time_point SocketRuntime::service_links(int index) {
  Node& node = *nodes_[static_cast<std::size_t>(index)];
  Clock::time_point deadline = Clock::time_point::max();
  // Clear-before-scan: a foreign thread that flags a channel after its
  // scan re-raises the flag (and wakes us), so nothing is lost.
  if (!node.links_dirty.exchange(false, std::memory_order_acq_rel)) {
    return deadline;
  }
  bool all_up = true;
  for (int peer = 0; peer < num_processes(); ++peer) {
    if (peer == index) continue;
    Channel& ch = channel(index, peer);
    std::scoped_lock lock(ch.mutex);
    if (ch.kill_pending) {
      if (ch.fd >= 0) {
        connections_killed_.fetch_add(1, std::memory_order_relaxed);
      }
      link_down_locked(ch, /*abortive=*/true);
    } else if (ch.io_error) {
      link_down_locked(ch, /*abortive=*/false);
    }
    if (ch.state == LinkState::kDown && index < peer) {
      // This side dials (the pair's lower index reconnects; the higher
      // index's listener answers -- same roles as setup), once per backoff
      // tick.
      if (ch.attempts > kMaxReconnectAttempts) {
        throw std::runtime_error(
            "SocketRuntime: reconnect budget exhausted (node " +
            std::to_string(index) + " -> " + std::to_string(peer) + ")");
      }
      if (Clock::now() >= ch.next_attempt_at) {
        const int fd =
            dial(config_, nodes_[static_cast<std::size_t>(peer)]->listen_port,
                 Clock::now() + kDialTimeout);
        if (fd >= 0) {
          finish_connect_locked(ch, fd);
        } else {
          schedule_retry_locked(ch);
        }
      }
    }
    if (ch.state != LinkState::kUp) {
      all_up = false;
      if (ch.state == LinkState::kDown && index < peer) {
        deadline = std::min(deadline, ch.next_attempt_at);
      }
    }
  }
  if (!all_up) node.links_dirty.store(true, std::memory_order_release);
  return deadline;
}

void SocketRuntime::finish_connect_locked(Channel& ch, int fd) {
  Node& node = *nodes_[static_cast<std::size_t>(ch.self)];
  apply_stream_options(fd);
  ch.fd = fd;
  ch.want_write = false;
  ch.state = LinkState::kHelloWait;
  node.reassembly[static_cast<std::size_t>(ch.peer)].reset();
  node.peer_open[static_cast<std::size_t>(ch.peer)] = true;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = make_tag(kKindPeer, static_cast<std::uint64_t>(ch.peer));
  if (::epoll_ctl(ch.owner_epoll, EPOLL_CTL_ADD, fd, &ev) < 0 ||
      !send_hello_locked(ch)) {
    link_down_locked(ch, /*abortive=*/false);
    schedule_retry_locked(ch);
    return;
  }
  // Counted once per outage, on the dialing side (the acceptor's half of
  // the same re-establishment is not a second reconnect).
  reconnects_.fetch_add(1, std::memory_order_relaxed);
}

bool SocketRuntime::send_hello_locked(Channel& ch) {
  // HELLO bypasses the data buffer (which is gated until reconciliation)
  // and is deliberately absent from wire/app byte accounting: it is
  // transport overhead, so the committed no-fault socket.* bench counts
  // stay untouched by the fault-tolerance machinery.
  // The connection is established and nothing was written on it yet, so
  // its empty send buffer takes the whole record in one send().
  Node& node = *nodes_[static_cast<std::size_t>(ch.self)];
  const HelloRecord rec = encode_hello(
      ch.self, node.app_recv[static_cast<std::size_t>(ch.peer)],
      node.mon_recv[static_cast<std::size_t>(ch.peer)]);
  ssize_t k = 0;
  do {
    k = ::send(ch.fd, rec.data(), rec.size(), MSG_NOSIGNAL);
  } while (k < 0 && errno == EINTR);
  return k == static_cast<ssize_t>(rec.size());
}

void SocketRuntime::process_hello(int index, int peer,
                                  std::uint64_t app_received,
                                  std::uint64_t mon_received) {
  Channel& ch = channel(index, peer);
  std::scoped_lock lock(ch.mutex);
  if (ch.state != LinkState::kHelloWait) return;  // stale or duplicate
  // Drop the app-log prefix the peer confirms it dispatched...
  const std::size_t rec_bytes = app_record_bytes();
  if (app_received > ch.app_log_base) {
    const std::uint64_t confirmed = std::min<std::uint64_t>(
        app_received - ch.app_log_base, ch.app_log.size() / rec_bytes);
    ch.app_log.erase(ch.app_log.begin(),
                     ch.app_log.begin() +
                         static_cast<std::ptrdiff_t>(confirmed * rec_bytes));
    ch.app_log_base += confirmed;
  }
  // ...then rebuild the buffer: the rest of the log (every app record the
  // peer has not dispatched, in order -- buffered app records are a suffix
  // of it), followed by the monitor records not yet fully written, in
  // order. A partially written front record is re-sent whole.
  std::vector<std::uint8_t> out(ch.app_log);
  std::vector<RecordMark> marks;
  for (std::size_t end = rec_bytes; end <= out.size(); end += rec_bytes) {
    marks.push_back(RecordMark{end, kAppRecord});
  }
  std::size_t begin = ch.next_mark == 0 ? 0 : ch.marks[ch.next_mark - 1].end;
  for (std::size_t m = ch.next_mark; m < ch.marks.size(); ++m) {
    const RecordMark& mark = ch.marks[m];
    if (mark.kind == kMonRecord) {
      out.insert(out.end(),
                 ch.out.begin() + static_cast<std::ptrdiff_t>(begin),
                 ch.out.begin() + static_cast<std::ptrdiff_t>(mark.end));
      marks.push_back(RecordMark{out.size(), kMonRecord});
    }
    begin = mark.end;
  }
  ch.out.swap(out);
  ch.marks.swap(marks);
  ch.sent = 0;
  ch.next_mark = 0;
  // Monitor records that were fully written but never dispatched died with
  // the old connection: retire their quiescence credits (the reliable
  // channel layered above re-sends the content; without one this is the
  // lossy-network posture the monitors already tolerate).
  if (mon_received + ch.mon_lost > ch.mon_written) {
    throw WireError("hello count ahead of writer");
  }
  const std::uint64_t lost = ch.mon_written - mon_received - ch.mon_lost;
  ch.mon_lost += lost;
  if (lost > 0) {
    disconnect_drops_.fetch_add(lost, std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < lost; ++i) core_->finish_one();
  }
  ch.state = LinkState::kUp;
  ch.attempts = 0;
  flush_locked(ch);
}

void SocketRuntime::accept_peer(int index) {
  Node& node = *nodes_[static_cast<std::size_t>(index)];
  const int fd = accept_within(node.listen_fd, Clock::now());
  // No connection yet, or a transient failure: the level-triggered event
  // reports a waiting connection again.
  if (fd < 0) return;
  // The stream's first record must be the dialer's HELLO. The dialer sends
  // it as soon as its connect completes and waits on nothing before that,
  // so this bounded read cannot deadlock. The dialer writes data only after
  // our reply raises its link, so nothing but the HELLO can be read here.
  HelloRecord rec{};
  std::optional<Hello> hello;
  if (read_exact(fd, rec.data(), rec.size(), Clock::now() + kHelloTimeout) &&
      read_le32(rec.data()) == kHelloRecordBytes - 4 &&
      rec[4] == kCtlRecord) {
    hello = decode_hello(std::span<const std::uint8_t>(rec).subspan(
        kRecordHeader));
  }
  // Only the pair's lower index dials this listener.
  if (!hello || hello->sender < 0 || hello->sender >= index) {
    ::close(fd);
    return;
  }
  const int sender = hello->sender;
  Channel& ch = channel(index, sender);
  bool ok = false;
  {
    std::scoped_lock lock(ch.mutex);
    if (ch.fd >= 0) {
      // The peer abandoned the old connection (we may not have read its
      // RST yet); the new one supersedes it.
      ::close(ch.fd);
    }
    ch.fd = fd;
    ch.want_write = false;
    ch.io_error = false;
    ch.kill_pending = false;
    ch.state = LinkState::kHelloWait;
    apply_stream_options(fd);
    node.reassembly[static_cast<std::size_t>(sender)].reset();
    node.peer_open[static_cast<std::size_t>(sender)] = true;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = make_tag(kKindPeer, static_cast<std::uint64_t>(sender));
    ok = ::epoll_ctl(node.epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0 &&
         send_hello_locked(ch);
  }
  if (!ok) {
    link_down(index, sender, /*abortive=*/false);
    return;
  }
  process_hello(index, sender, hello->app_received, hello->mon_received);
}

void SocketRuntime::request_kill(int from, int to) {
  Channel& ch = channel(from, to);
  {
    std::scoped_lock lock(ch.mutex);
    if (ch.fd < 0) return;  // already down
    ch.kill_pending = true;
  }
  nodes_[static_cast<std::size_t>(from)]->links_dirty.store(
      true, std::memory_order_release);
  wake(from);
}

void SocketRuntime::kill_connection(int a, int b) {
  if (a < 0 || a >= num_processes() || b < 0 || b >= num_processes() ||
      a == b) {
    throw std::out_of_range("SocketRuntime::kill_connection: bad pair");
  }
  request_kill(a, b);
}

void SocketRuntime::kill_node(int node) {
  if (node < 0 || node >= num_processes()) {
    throw std::out_of_range("SocketRuntime::kill_node: bad node");
  }
  for (int p = 0; p < num_processes(); ++p) {
    if (p != node) request_kill(node, p);
  }
}

// ---------------------------------------------------------------------------
// Node event loop + run()
// ---------------------------------------------------------------------------

void SocketRuntime::node_loop(int index) {
  Node& node = *nodes_[static_cast<std::size_t>(index)];
  detail::RunCore& core = *core_;
  epoll_event events[16];
  while (!core.stopping()) {
    // 1. Deliver due timers (delayed self-sends).
    for (;;) {
      std::optional<MonitorMessage> due;
      {
        std::scoped_lock lock(node.timer_mutex);
        if (!node.timers.empty() && node.timers.top().at <= Clock::now()) {
          due = std::move(const_cast<Timer&>(node.timers.top()).msg);
          node.timers.pop();
        }
      }
      if (!due) break;
      core.apply_monitor(std::move(*due));
    }
    // 2. Execute a due program action.
    if (Clock::now() >= core.next_action(index)) {
      const ProgramProcess::ActionResult result = core.execute_action(index);
      if (result.is_comm) broadcast_app(index, result.message);
      continue;  // more actions may already be due
    }
    // 3. Termination, once the last action ran and the last receive landed.
    core.announce_if_done(index);
    // 4. Write what this iteration's sends left in the channel buffers, one
    // send() per channel, before anything can block.
    flush_dirty(index);
    // 5. Service flagged links (teardowns, pending kills, due reconnect
    // attempts); the earliest backoff deadline bounds the epoll wait.
    const Clock::time_point link_deadline = service_links(index);
    // 6. Block on epoll until bytes arrive, a socket drains, a wakeup is
    // posted, or the earliest local deadline passes. The 50 ms cap is
    // insurance only -- every state change also posts a wakeup.
    Clock::time_point wake_at =
        std::min(core.next_action(index), link_deadline);
    {
      std::scoped_lock lock(node.timer_mutex);
      if (!node.timers.empty()) wake_at = std::min(wake_at, node.timers.top().at);
    }
    int timeout_ms = 50;
    const Clock::time_point wall = Clock::now();
    if (wake_at <= wall) {
      timeout_ms = 0;
    } else if (wake_at != Clock::time_point::max()) {
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          wake_at - wall)
                          .count() +
                      1;
      timeout_ms = static_cast<int>(std::clamp<long long>(ms, 0, 50));
    }
    const int nev = ::epoll_wait(node.epoll_fd, events, 16, timeout_ms);
    for (int e = 0; e < nev; ++e) {
      const std::uint64_t tag = events[e].data.u64;
      const std::uint32_t value = static_cast<std::uint32_t>(tag);
      switch (tag >> 32) {
        case kKindEvent: {
          std::uint64_t drained = 0;
          [[maybe_unused]] const ssize_t r =
              ::read(node.event_fd, &drained, sizeof drained);
          break;
        }
        case kKindListener:
          accept_peer(index);
          break;
        case kKindPeer: {
          const int peer = static_cast<int>(value);
          if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
            read_peer(index, peer);
          }
          if (events[e].events & EPOLLOUT) {
            Channel& ch = channel(index, peer);
            std::scoped_lock lock(ch.mutex);
            flush_locked(ch);
          }
          break;
        }
        default:
          break;
      }
    }
  }
}

void SocketRuntime::run() {
  core_->run(
      [this](int i) {
        t_node_thread = NodeThread{this, i};
        node_loop(i);
      },
      [this] {
        for (int i = 0; i < num_processes(); ++i) wake(i);
      });
}

}  // namespace decmon
