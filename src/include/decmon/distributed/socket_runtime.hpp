// Socket-backed runtime: real I/O sibling of SimRuntime / ThreadRuntime.
//
// One thread per node (program process + its monitor replica), but unlike
// ThreadRuntime the nodes exchange *bytes*, not pointers: every pair of
// nodes is connected by a nonblocking TCP loopback socket, each node runs
// an epoll event loop, monitor payloads are serialized with the wire
// codec (monitor/wire.hpp) on send and reassembled from length-prefixed
// records on receive.
// This is where frame batching finally pays for its encode cost -- fewer,
// larger records mean fewer syscalls and fewer bytes (shared frame header
// and base clock), measured at the socket, not inferred from stamps.
//
// Record framing (per TCP stream, both directions):
//
//   [u32 LE body length][u8 record type][body]
//
//   type 0x01 = application message  (u32 from, u32 send_sn, vc)
//   type 0x02 = monitor payload      (encode_payload_into bytes)
//   type 0x03 = transport control    (u8 kind; kind 1 = HELLO:
//               u32 sender, u64 app records received, u64 monitor records
//               received on this directed stream)
//
// Reassembly is incremental (FrameReassembler below): partial reads leave
// a prefix buffered; a peer that closes mid-record is detected as a
// truncated stream, never silent data loss.
//
// Send path and backpressure: each (from, to) channel owns one contiguous
// output buffer of encoded records, with each record's end offset and kind
// kept beside it. send() never blocks -- it encodes straight into that
// buffer. A send made on the node thread that owns the channel only marks
// the channel dirty: the node loop flushes every dirty channel once, just
// before it blocks in epoll_wait, so one send() syscall carries everything
// the iteration produced. Sends from any other thread flush at once. On
// EAGAIN the residue stays buffered and EPOLLOUT is armed. While earlier
// bytes are still unsent (unflushed or pushed back by the socket), newly
// sent PayloadFrames are not encoded at all: they park in a per-channel
// *staging* frame and later frames to the same destination merge into it
// (unit order preserved). This mirrors SimRuntime's kTransit convoy --
// congestion converts many small frames into one large record -- and
// bounds buffer growth by construction.
//
// Fault tolerance (DESIGN.md §13): a peer disconnect (EOF, ECONNRESET,
// EPIPE) is a peer-down state, not a fatal error. Each node keeps a
// persistent listener; the pair's lower index reconnects with capped
// exponential backoff + seeded jitter driven from the node's epoll loop.
// Every attempt is one bounded dial, and the acceptor identifies the new
// stream by one bounded read of its first record, the dialer's HELLO.
// Every (re)connection starts with a HELLO exchange carrying per-direction
// received-record counts, from which each sender rebuilds its buffer:
// application records are transport-reliable (retained in a replay log and
// replayed from the receiver's count -- losing one would strand the
// receiver's receives_left forever), while monitor records lost with the
// connection are dropped (counted as disconnect_drops, their quiescence
// credits retired) and repaired by the ReliableChannel layered above, when
// present. A seeded fault injector (SocketFaultPlan) kills connections
// abortively mid-run -- RST, not FIN, so in-flight bytes really die -- and
// can take down every link of one node at once (the transport half of a
// crash + checkpoint-restore + mesh-rejoin drill).
//
// Accounting is transport-truth: wire_bytes()/wire_frames() count encoded
// record bytes as they are queued (TCP delivers every queued byte), so no
// size-walking ever runs on this path; send_calls() counts the send()
// syscalls that carried them. Control records (HELLO) are
// transport overhead and deliberately excluded, so the committed no-fault
// socket.* bench counts are untouched by the fault-tolerance machinery.
//
// Credit-counted quiescence and failure propagation come from the run
// skeleton shared with ThreadRuntime (src/distributed/run_core.hpp). Here a
// merge into staging retires the merged frame's credit at once (its bytes
// are owed by the staging frame's credit), and a monitor record lost with a
// killed connection retires its credit at HELLO reconciliation.
//
// Thread-safety contract: all callbacks for node i run on node i's thread.
// Channel send state is per-channel mutex-guarded (off-thread sends are
// legal, as in ThreadRuntime); epoll interest updates for a channel happen
// under that same mutex. The channel fd's lifecycle (close, replace) is
// owner-thread only: foreign senders that hit a dead socket set a flag and
// wake the owner instead of touching the fd. Only the owner's thread
// defers a flush, so the list of dirty channels is touched by that thread
// alone.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "decmon/distributed/process.hpp"
#include "decmon/distributed/runtime.hpp"
#include "decmon/distributed/trace.hpp"

namespace decmon {

namespace detail {
class RunCore;
}

/// Seeded socket-level fault injection: connection kills are abortive
/// (SO_LINGER 0 -> RST), so queued and in-flight bytes genuinely die and
/// the reconnect/replay/reconcile machinery has to earn the verdicts.
struct SocketFaultPlan {
  bool enabled = false;
  std::uint64_t seed = 7;
  /// Per-channel kill threshold, drawn seeded in [kill_after_min,
  /// kill_after_max]: the connection dies right after that many monitor
  /// records were fully written on the channel.
  std::uint32_t kill_after_min = 8;
  std::uint32_t kill_after_max = 64;
  /// Global budget of connection kills across the whole run.
  int max_kills = 1;
  /// Optional node kill: once `kill_node` has dispatched
  /// `kill_node_after` monitor records, every one of its links dies at
  /// once (does not consume max_kills budget). -1 disables.
  int kill_node = -1;
  std::uint32_t kill_node_after = 0;
};

struct SocketConfig {
  /// Wall-clock seconds per trace second (same convention as ThreadConfig).
  /// 0 collapses every wait to "now". There is no modeled message latency:
  /// delivery takes whatever the kernel takes.
  double time_scale = 0.002;
  /// Coalesce same-destination PayloadFrames while the channel has unsent
  /// bytes (the batched posture). false = the unbatched control: every
  /// frame is split and each unit crosses the wire as its own record (a
  /// one-unit frame).
  bool batch = true;
  /// Socket buffer sizes in bytes; 0 keeps the kernel default. Tests use
  /// tiny values to force partial reads/writes.
  int sndbuf = 0;
  int rcvbuf = 0;
  std::uint64_t seed = 1;
  SocketFaultPlan fault;
};

/// Incremental reassembly of `[u32 len][type][body]` records from a TCP
/// byte stream. feed() accepts arbitrary fragments; next() yields complete
/// records in place (type byte plus a view of the body, length prefix
/// stripped). Public for direct unit testing of the partial-read state
/// machine.
class FrameReassembler {
 public:
  /// Hard ceiling on a record body; a corrupt length field fails fast
  /// instead of asking the allocator for gigabytes.
  static constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

  /// One complete record. `body` views the reassembler's buffer and stays
  /// valid until the next feed() or reset().
  struct Record {
    std::uint8_t type = 0;
    std::span<const std::uint8_t> body;
  };

  void feed(const std::uint8_t* data, std::size_t len);
  /// The next complete record, or nullopt when none is buffered. Throws
  /// WireError on an oversized or zero length prefix.
  std::optional<Record> next();
  /// True when a partial record is buffered -- a stream that ends here was
  /// truncated mid-record.
  bool mid_record() const { return buf_.size() - pos_ > 0; }
  std::size_t buffered() const { return buf_.size() - pos_; }
  /// Discard all buffered bytes (a reconnected stream starts clean).
  void reset() {
    buf_.clear();
    pos_ = 0;
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
};

class SocketRuntime final : public MonitorNetwork {
 public:
  SocketRuntime(SystemTrace trace, const AtomRegistry* registry,
                SocketConfig config = {});
  ~SocketRuntime() override;

  SocketRuntime(const SocketRuntime&) = delete;
  SocketRuntime& operator=(const SocketRuntime&) = delete;

  void set_hooks(MonitorHooks* hooks);

  /// Run to quiescence (blocking): all trace actions executed, all bytes
  /// delivered, all messages processed. On return every node thread has
  /// been joined -- no callback can fire afterwards. Rethrows the first
  /// node-thread failure (e.g. a link whose reconnect budget ran out).
  void run();

  // MonitorNetwork (safe from any thread; sender identity is msg.from):
  void send(MonitorMessage msg) override;
  void send_perturbed(MonitorMessage msg,
                      const DeliveryPerturbation& perturbation) override;
  double now() const override;

  int num_processes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<std::vector<Event>>& history() const;
  std::vector<LocalState> initial_states() const;

  /// Abortively kill the live connection of the (a, b) pair (RST both
  /// ways; in-flight bytes die). Safe from any thread, including mid-run
  /// test drivers; a no-op if the link is already down.
  void kill_connection(int a, int b);
  /// Kill every link of `node` at once (the transport face of a node
  /// crash). The mesh re-forms through the normal reconnect path.
  void kill_node(int node);

  // Transport-truth counters (stable after run() returns).
  std::uint64_t program_events() const;
  std::uint64_t app_messages_sent() const;
  /// Monitor payloads handed to send() (before any split/merge).
  std::uint64_t monitor_messages_sent() const;
  std::uint64_t monitor_messages_processed() const;
  /// Monitor records written to sockets (after split/merge) and their
  /// encoded bytes including the 5-byte record header.
  std::uint64_t wire_frames() const { return wire_frames_; }
  std::uint64_t wire_bytes() const { return wire_bytes_; }
  /// Application records and bytes (VC piggyback traffic).
  std::uint64_t app_bytes() const { return app_bytes_; }
  /// Frames that merged into a congested channel's staging frame instead
  /// of being encoded as their own record.
  std::uint64_t coalesced_frames() const { return coalesced_frames_; }
  /// Nonblocking writes that could not take the whole residue (EAGAIN or
  /// short write) -- proof the partial-write path actually ran.
  std::uint64_t partial_writes() const { return partial_writes_; }
  /// Successful send() syscalls on data records (app and monitor; the
  /// control-plane HELLO is excluded). One call carries every record a
  /// flush finds unsent, so this stays below wire_frames() +
  /// app_messages_sent() whenever records batch.
  std::uint64_t send_calls() const { return send_calls_; }
  // Fault-tolerance counters (DESIGN.md §13).
  /// Successful link re-establishments (counted once per outage, on the
  /// reconnecting side).
  std::uint64_t reconnects() const { return reconnects_; }
  /// Monitor records lost with a killed connection (credits retired at
  /// HELLO reconciliation; the reliable channel above re-sends content).
  std::uint64_t disconnect_drops() const { return disconnect_drops_; }
  /// Connections the seeded fault plan (or kill_connection/kill_node)
  /// actually killed.
  std::uint64_t connections_killed() const { return connections_killed_; }

 private:
  using Clock = std::chrono::steady_clock;

  enum class LinkState : std::uint8_t {
    kUp,        ///< connected, HELLO exchanged, data flows
    kDown,      ///< no socket; connector side is backing off to retry
    kHelloWait, ///< connected, our HELLO sent, waiting for the peer's
  };

  /// Where one buffered record ends in Channel::out, and its plane, so the
  /// reconnect path can tell replayable app records from droppable monitor
  /// records.
  struct RecordMark {
    std::size_t end = 0;
    std::uint8_t kind = 0;
  };

  /// Sender side of one directed (from, to) socket channel. All fields are
  /// guarded by `mutex`; epoll interest for the fd is changed only while
  /// holding it (the owner loop and foreign senders both flush). The fd
  /// itself is closed/replaced only on the owner's thread.
  struct Channel {
    std::mutex mutex;
    int fd = -1;
    int owner_epoll = -1;  ///< sender-side epoll watching this fd for OUT
    int self = -1;         ///< owning node
    int peer = -1;         ///< destination node (epoll event data)
    LinkState state = LinkState::kUp;
    /// Foreign flush hit a fatal socket error; the owner must tear the
    /// link down (fd lifecycle is owner-thread only).
    bool io_error = false;
    /// Fault injector tripped; the owner performs the abortive close.
    bool kill_pending = false;
    /// An owner-thread send left bytes for the node loop's flush.
    bool dirty = false;
    /// Encoded records back to back; out[0, sent) is already written.
    /// marks[k] is where record k ends; records before `next_mark` are
    /// fully written, the one at `next_mark` may be partially written.
    /// Grows on first use and keeps its capacity across flushes.
    std::vector<std::uint8_t> out;
    std::vector<RecordMark> marks;
    std::size_t sent = 0;
    std::size_t next_mark = 0;
    /// Congestion parking spot: frames coalesce here while `out` holds
    /// unsent bytes (see file comment). Owns one outstanding_ credit when
    /// set.
    std::unique_ptr<PayloadFrame> staging;
    bool want_write = false;  ///< EPOLLOUT currently armed
    // -- fault-tolerance bookkeeping --
    /// Monitor records fully written over all connection incarnations.
    std::uint64_t mon_written = 0;
    /// Monitor records already reconciled as lost (subset of mon_written).
    std::uint64_t mon_lost = 0;
    /// Replay log: every app record sent on this channel since logical
    /// record app_log_base, back to back. App records of one session all
    /// have the same size, so record k starts at
    /// (k - app_log_base) * app_record_bytes(). Pruned to the peer's
    /// received count at each HELLO.
    std::vector<std::uint8_t> app_log;
    std::uint64_t app_log_base = 0;
    // -- reconnect backoff (owner thread) --
    int attempts = 0;
    Clock::time_point next_attempt_at{};
    std::uint64_t rng_state = 0;  ///< seeded jitter stream
    /// Monitor records until the seeded kill fires; 0 = disarmed.
    std::uint32_t kill_countdown = 0;
  };

  /// Delayed self-delivery (reliable-channel retransmit timers).
  struct Timer {
    Clock::time_point at;
    std::uint64_t seq = 0;
    MonitorMessage msg;
    bool operator>(const Timer& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  struct Node {
    int epoll_fd = -1;
    int event_fd = -1;   ///< cross-thread wakeup (timers, stop)
    int listen_fd = -1;  ///< persistent listener (accepts reconnects)
    std::uint16_t listen_port = 0;
    /// Peers whose channel an owner-thread send marked dirty; flushed and
    /// cleared before every epoll_wait. Own thread only.
    std::vector<int> dirty;
    /// Self-delivery queue: immediate self-sends and due timers, guarded
    /// by `timer_mutex` (pushed by own thread and by channel layers above).
    std::mutex timer_mutex;
    std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;
    /// Receive-side reassembly, one per peer; touched only by this node's
    /// thread.
    std::vector<FrameReassembler> reassembly;
    std::vector<bool> peer_open;
    /// Complete records dispatched per peer on the inbound stream --
    /// advertised in our HELLOs so a reconnecting sender knows what to
    /// replay (app) and what died (monitor). Own thread only.
    std::vector<std::uint64_t> app_recv;
    std::vector<std::uint64_t> mon_recv;
    std::uint64_t mon_recv_total = 0;  ///< node-kill trigger counter
    /// Some owned link needs service (failure teardown, reconnect timer,
    /// pending kill). Set by foreign threads before waking the owner.
    std::atomic<bool> links_dirty{false};
  };

  void node_loop(int index);
  void broadcast_app(int index, const AppMessage& message);
  void read_peer(int index, int peer);
  void dispatch_record(int index, int peer,
                       const FrameReassembler::Record& rec);
  void enqueue_monitor(int from, int to, std::unique_ptr<NetPayload> payload);
  /// Encode `payload` as a monitor record appended to `ch.out`.
  /// Caller must hold ch.mutex.
  void encode_record_locked(Channel& ch, const NetPayload& payload);
  /// Write the unsent span of ch.out (and then staging) to the socket, one
  /// send() per pass, until empty, EAGAIN or a seeded kill; arms/clears
  /// EPOLLOUT to match. No-op unless the link is up. Caller must hold
  /// ch.mutex.
  void flush_locked(Channel& ch);
  /// After a send: flush now, or -- on the channel owner's own node
  /// thread -- leave it to the loop's flush_dirty. Caller must hold
  /// ch.mutex.
  void flush_or_defer_locked(Channel& ch);
  /// Flush every channel an owner-thread send marked dirty (node thread).
  void flush_dirty(int index);
  /// Drop the fully written records from the front of ch.out.
  static void drop_written_locked(Channel& ch);
  void materialize_staging_locked(Channel& ch);
  /// Encoded size of one app record (header + body); fixed per session.
  std::size_t app_record_bytes() const;

  // -- link lifecycle (owner thread unless noted) --
  /// Tear the link down after a failure (or abortively for a kill) and
  /// start the reconnect clock on the connector side.
  void link_down(int index, int peer, bool abortive);
  /// Core of link_down; caller must hold ch.mutex.
  void link_down_locked(Channel& ch, bool abortive);
  /// Arm the next reconnect attempt with capped exponential backoff and
  /// seeded jitter. Caller must hold ch.mutex.
  void schedule_retry_locked(Channel& ch);
  /// Per-iteration link service: teardowns flagged by foreign threads,
  /// pending kills, and due reconnect attempts (one bounded dial each).
  /// Returns the earliest deadline the epoll wait must honor
  /// (time_point::max() if none).
  Clock::time_point service_links(int index);
  /// Dial succeeded: socket options, epoll registration, HELLO, kHelloWait.
  /// Caller must hold ch.mutex.
  void finish_connect_locked(Channel& ch, int fd);
  /// Accept one connection on the node's listener and identify it by one
  /// bounded read of the dialer's HELLO; installs the fd as that peer's
  /// channel socket, replies and reconciles.
  void accept_peer(int index);
  /// Process a peer HELLO for the (index -> peer) send direction: drop
  /// the delivered app-log prefix, rebuild the buffer as the rest of the
  /// log plus the unwritten monitor records, retire lost monitor records,
  /// raise the link to kUp and flush.
  void process_hello(int index, int peer, std::uint64_t app_received,
                     std::uint64_t mon_received);
  /// Write a control record directly to the (fresh) socket, bypassing the
  /// data buffer; false on a socket failure. Caller must hold ch.mutex.
  bool send_hello_locked(Channel& ch);
  /// Flag the channel for an abortive close by its owner (any thread).
  void request_kill(int from, int to);

  Channel& channel(int from, int to) {
    return *channels_[static_cast<std::size_t>(from) * nodes_.size() +
                      static_cast<std::size_t>(to)];
  }
  void wake(int index);

  SocketConfig config_;
  std::unique_ptr<detail::RunCore> core_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Channel>> channels_;  ///< n*n, diagonal unused
  std::atomic<int> kills_left_{0};
  std::atomic<bool> node_kill_armed_{false};

  std::atomic<std::uint64_t> wire_frames_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::atomic<std::uint64_t> app_bytes_{0};
  std::atomic<std::uint64_t> coalesced_frames_{0};
  std::atomic<std::uint64_t> partial_writes_{0};
  std::atomic<std::uint64_t> send_calls_{0};
  std::atomic<std::uint64_t> timer_seq_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> disconnect_drops_{0};
  std::atomic<std::uint64_t> connections_killed_{0};
};

}  // namespace decmon
