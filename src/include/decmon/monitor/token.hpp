// Token messages: the monitoring layer's only network traffic (§4.2).
//
// A token is created by a global view to decide whether any of a set of
// possibly-enabled outgoing transitions can fire at a consistent cut
// reachable from the view's cut. Each TransitionEntry names a frontier
// record -- the partially-constructed cut, the dependency clock used to
// detect cut inconsistencies, and the believed letters -- shared with every
// entry at the same frontier, plus its own per-process conjunct
// evaluations; the token routes between monitors until every entry is
// enabled or disabled, then returns to its parent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "decmon/distributed/message.hpp"
#include "decmon/ltl/atoms.hpp"
#include "decmon/util/small_vec.hpp"
#include "decmon/util/vector_clock.hpp"

namespace decmon {

enum class ConjunctEval : std::uint8_t {
  kUnset,  ///< not (re-)evaluated against the entry's current cut
  kTrue,
  kFalse,  ///< transient within one event evaluation (see Alg. 5)
};

enum class EntryEval : std::uint8_t { kUnset, kTrue, kFalse };

/// One process's component of a record. A frontier record is the entry's
/// partially-constructed cut; a stay-point record is a certified stay-point:
/// the last consistent cut a walk passed where the believed letter kept the
/// source state on a self-loop (used to resurrect launchpad views). A
/// stay-point's `depend` is never read.
struct FrontierSlot {
  /// Constructed cut: sequence number of the last included event. Also the
  /// frontier vector clock component.
  std::uint32_t cut = 0;
  /// Max vector clock over the events included; cut < depend means the cut
  /// is inconsistent at this process.
  std::uint32_t depend = 0;
  /// Local letter at the cut's frontier.
  AtomSet gstate = 0;
};

/// An absent record index.
inline constexpr std::uint32_t kNoRecord = 0xFFFFFFFFu;

/// A token's records, frontiers and stay-points alike: record r is a block
/// of `width(r)` slots. Entries refer to records by index, so entries at the
/// same frontier step, copy and travel as one record. Clearing keeps the
/// capacity (pooled tokens carry it between hops).
class RecordTable {
 public:
  std::size_t size() const { return heads_.size(); }
  std::size_t width(std::uint32_t r) const { return heads_[r].width; }
  FrontierSlot* operator[](std::uint32_t r) {
    return slots_.data() + heads_[r].first;
  }
  const FrontierSlot* operator[](std::uint32_t r) const {
    return slots_.data() + heads_[r].first;
  }

  /// Append a record of `width` value-initialized slots; returns its index.
  /// Invalidates slot pointers into the table.
  std::uint32_t add(std::size_t width) {
    heads_.push_back({static_cast<std::uint32_t>(slots_.size()),
                      static_cast<std::uint32_t>(width)});
    slots_.resize(slots_.size() + width);
    return static_cast<std::uint32_t>(heads_.size() - 1);
  }
  /// Append a copy of record `r`; returns the copy's index.
  std::uint32_t add_copy(std::uint32_t r) {
    const Head h = heads_[r];
    const std::uint32_t copy = add(h.width);
    std::copy_n(slots_.data() + h.first, h.width,
                slots_.data() + heads_[copy].first);
    return copy;
  }
  void clear() {
    heads_.clear();
    slots_.clear();
  }

  /// Keep only the records with `remap[r] != kNoRecord`, renumbering record
  /// r to `remap[r]`; the kept records' new indexes must be 0, 1, ... in
  /// their old order.
  template <class Remap>
  void compact(const Remap& remap) {
    std::uint32_t slot = 0;
    std::uint32_t kept = 0;
    for (std::uint32_t r = 0; r < heads_.size(); ++r) {
      if (remap[r] == kNoRecord) continue;
      const Head h = heads_[r];
      std::copy_n(slots_.data() + h.first, h.width, slots_.data() + slot);
      heads_[kept++] = {slot, h.width};
      slot += h.width;
    }
    heads_.resize(kept);
    slots_.resize(slot);
  }

 private:
  struct Head {
    std::uint32_t first;
    std::uint32_t width;
  };
  std::vector<Head> heads_;
  std::vector<FrontierSlot> slots_;
};

/// One possibly-enabled outgoing transition under evaluation
/// (`OutgoingTransition` in the paper).
///
/// Invariant: the frontier record's `gstate(j)` is the *verified* letter of
/// process j at position `cut(j)` -- entries start from the creating view's
/// cut and the walk advances one event at a time, so no frontier position
/// is ever guessed.
struct TransitionEntry {
  int transition_id = -1;
  EntryEval eval = EntryEval::kUnset;
  int next_target_process = -1;
  std::uint32_t next_target_event = 0;
  /// Index of the entry's frontier record in Token::records.
  std::uint32_t frontier = 0;
  /// Index of the entry's certified stay-point record in Token::records, or
  /// kNoRecord.
  std::uint32_t stay = kNoRecord;
  /// Conjunct evaluation per process; its size is the entry's width.
  SmallVec<ConjunctEval, 8> conj;

  std::size_t width() const { return conj.size(); }
  bool loop_certified() const { return stay != kNoRecord; }
};

/// A monitoring message (`token` in the paper).
struct Token {
  std::uint64_t token_id = 0;  ///< globally unique: (parent << 32) | counter
  int parent = -1;             ///< creating monitor
  std::uint32_t parent_sn = 0; ///< local event that created the token
  VectorClock parent_vc;
  std::vector<TransitionEntry> entries;
  RecordTable records;  ///< frontier and stay-point records
  int next_target_process = -1;
  std::uint32_t next_target_event = 0;
  int hops = 0;  ///< network hops so far (metrics)

  FrontierSlot* frontier(const TransitionEntry& e) {
    return records[e.frontier];
  }
  const FrontierSlot* frontier(const TransitionEntry& e) const {
    return records[e.frontier];
  }
  /// The entry's stay-point record; only for a loop_certified() entry.
  const FrontierSlot* stay(const TransitionEntry& e) const {
    return records[e.stay];
  }

  /// Append an entry of width `n` with a fresh zeroed frontier record.
  TransitionEntry& add_entry(std::size_t n);

  /// Sum of the entry's stay-point cut components (advancement order).
  std::uint64_t loop_cut_total(const TransitionEntry& e) const {
    std::uint64_t t = 0;
    const FrontierSlot* s = stay(e);
    for (std::size_t j = 0; j < e.width(); ++j) t += s[j].cut;
    return t;
  }

  /// Once the records could outnumber the live ones, drop those no entry
  /// refers to, renumbering the rest in order.
  void compact_records();

  std::string entry_to_string(const TransitionEntry& e) const;
  std::string to_string() const;
};

/// Network payloads of the monitoring layer.
///
/// A token lives in one TokenMessage shell from the probe that builds it to
/// the return that consumes it: the walk, parking and routing all hold the
/// shell, and the shell itself is what a frame carries between monitors.
struct TokenMessage final : NetPayload {
  static constexpr std::uint8_t kTag = 1;
  TokenMessage() : NetPayload(kTag) {}
  Token token;

  std::unique_ptr<NetPayload> clone() const override {
    auto copy = std::make_unique<TokenMessage>();
    copy->token = token;
    return copy;
  }
};

struct TerminationMessage final : NetPayload {
  static constexpr std::uint8_t kTag = 2;
  TerminationMessage() : NetPayload(kTag) {}
  int process = -1;
  std::uint32_t last_sn = 0;  ///< last event the process produced

  std::unique_ptr<NetPayload> clone() const override {
    auto copy = std::make_unique<TerminationMessage>();
    copy->process = process;
    copy->last_sn = last_sn;
    return copy;
  }
};

/// Streaming-GC gossip (DESIGN.md §12): the sender promises that no token
/// walk or view spawn it can still launch references the receiver's events
/// below `floor`. Within one epoch floors are monotone at the receiver
/// (max-merge), so duplicated or reordered copies are harmless. `epoch`
/// rises when the sender restarts from a checkpoint (DESIGN.md §13): a
/// higher epoch REPLACES the stored floor -- the one case where a floor may
/// legitimately regress -- and reordered stale advertisements from the
/// pre-crash epoch are ignored rather than re-raising the clamped value.
struct HistoryFloorMessage final : NetPayload {
  static constexpr std::uint8_t kTag = 6;
  HistoryFloorMessage() : NetPayload(kTag) {}
  int process = -1;          ///< sender index
  std::uint32_t floor = 0;   ///< receiver-local sequence number bound
  std::uint32_t epoch = 0;   ///< sender's advertisement epoch (crash count)

  std::unique_ptr<NetPayload> clone() const override {
    auto copy = std::make_unique<HistoryFloorMessage>();
    copy->process = process;
    copy->floor = floor;
    copy->epoch = epoch;
    return copy;
  }
};

}  // namespace decmon
