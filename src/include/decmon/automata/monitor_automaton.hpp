// The deterministic LTL3 monitor automaton (Def. 12): a complete Moore
// machine whose states carry verdicts in {TRUE, FALSE, UNKNOWN} and whose
// transitions are guarded by conjunctive global-state predicates.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "decmon/automata/guard.hpp"
#include "decmon/ltl/atoms.hpp"

namespace decmon {

/// 3-valued LTL verdict (Def. 11).
enum class Verdict : std::uint8_t {
  kUnknown = 0,  ///< '?': current finite trace decides nothing
  kTrue = 1,     ///< every infinite extension satisfies the property
  kFalse = 2,    ///< every infinite extension violates the property
};

std::string to_string(Verdict v);

/// One monitor transition; `id` is dense across the whole automaton.
struct MonitorTransition {
  int id = -1;
  int from = -1;
  int to = -1;
  Cube guard;

  bool self_loop() const { return from == to; }
};

/// Deterministic, complete Moore machine over global states.
///
/// Determinism and completeness are with respect to the *relevant* atoms
/// (the union of all guard supports): for every state and every assignment
/// of those atoms, exactly one transition matches. `validate()` checks this
/// exhaustively.
class MonitorAutomaton {
 public:
  MonitorAutomaton() = default;

  /// Add a state with the given verdict; returns its index.
  int add_state(Verdict v);

  /// Add a transition; returns its dense id.
  int add_transition(int from, int to, Cube guard);

  int num_states() const { return static_cast<int>(verdicts_.size()); }
  int initial_state() const { return initial_; }
  void set_initial(int q) { initial_ = q; }

  Verdict verdict(int q) const {
    return verdicts_.at(static_cast<std::size_t>(q));
  }
  bool is_final(int q) const { return verdict(q) != Verdict::kUnknown; }

  /// Ids of the transitions leaving state `q` (self-loops included).
  const std::vector<int>& transitions_from(int q) const {
    return out_.at(static_cast<std::size_t>(q));
  }
  const MonitorTransition& transition(int id) const {
    return transitions_.at(static_cast<std::size_t>(id));
  }
  int num_transitions() const { return static_cast<int>(transitions_.size()); }
  const std::vector<MonitorTransition>& transitions() const {
    return transitions_;
  }

  /// Deterministic step: the target of the unique matching transition, or
  /// nullopt when no transition matches (incomplete automaton). With the
  /// dispatch table built this is one table lookup -- the target array is
  /// separate from the transition array so stepping loads no transition.
  std::optional<int> step(int q, AtomSet letter) const {
    if (dispatch_built_) {
      const std::int32_t to =
          dispatch_to_[static_cast<std::size_t>(q) << dispatch_bits_ |
                       compress_letter(letter)];
      if (to < 0) return std::nullopt;
      return static_cast<int>(to);
    }
    const MonitorTransition* t = matching_transition_linear(q, letter);
    if (!t) return std::nullopt;
    return t->to;
  }

  /// The matching transition itself (nullptr when none matches). O(1) via
  /// the dense dispatch table once build_dispatch() has run; otherwise the
  /// linear guard scan.
  const MonitorTransition* matching_transition(int q, AtomSet letter) const {
    if (dispatch_built_) {
      const std::int32_t id =
          dispatch_[static_cast<std::size_t>(q) << dispatch_bits_ |
                    compress_letter(letter)];
      return id < 0 ? nullptr : &transitions_[static_cast<std::size_t>(id)];
    }
    return matching_transition_linear(q, letter);
  }

  /// Reference implementation: first transition out of `q` (in insertion
  /// order) whose guard matches. The dispatch table reproduces exactly this;
  /// kept public for the table's cross-check tests.
  const MonitorTransition* matching_transition_linear(int q,
                                                      AtomSet letter) const;

  /// Build the dense (state, letter)-indexed dispatch table. Guard matching
  /// depends only on the relevant atoms, so letters are compressed to their
  /// relevant bits: the table has num_states * 2^k entries. A no-op above
  /// kMaxDispatchAtoms relevant atoms (the linear scan stays in use) and
  /// when already built. Call after the last add_state/add_transition;
  /// mutation invalidates the table. Not thread-safe; the built table is
  /// safe for concurrent readers.
  void build_dispatch();
  bool dispatch_built() const { return dispatch_built_; }

  /// Largest relevant-atom count the dense table is built for (the paper's
  /// properties use <= 2n atoms; 16 caps the table at 64K entries/state).
  static constexpr int kMaxDispatchAtoms = 16;

  /// Run the automaton over a finite trace from the initial state.
  /// Precondition: the automaton is complete over the trace's letters.
  int run(const std::vector<AtomSet>& trace) const;

  /// All atoms mentioned by any guard. O(1): maintained incrementally by
  /// add_transition.
  AtomSet relevant_atoms() const { return relevant_mask_; }

  // -- statistics reported by Table 5.1 / Fig. 5.1 --
  int count_total() const { return num_transitions(); }
  int count_self_loops() const;
  int count_outgoing() const { return count_total() - count_self_loops(); }

  /// Check determinism + completeness over the relevant atoms. Returns an
  /// error description, or nullopt when valid: the first state, then the
  /// lowest letter, with no or conflicting matches. Exhaustive up to 20
  /// relevant atoms (more are rejected); the work grows with the letters
  /// the guards match, not with guards x letters.
  std::optional<std::string> validate() const;

  std::string to_dot(const AtomRegistry* reg = nullptr) const;

 private:
  /// The letter matching behind validate() and build_dispatch(), driven by
  /// the guards rather than the alphabet: walks q's transitions in
  /// insertion order and enumerates the compressed letters each guard
  /// matches. Fills 2^k entries of each array (k = relevant atoms):
  /// first[m] = id of the first matching transition (-1: none), exactly
  /// matching_transition_linear's order; to[m] = its target (-1: none);
  /// conflict[m] = 1 when a later match has a different target.
  void match_letters(int q, std::int32_t* first, std::int32_t* to,
                     std::uint8_t* conflict) const;

  /// Per-byte compression lane: maps one byte of the letter to its packed
  /// relevant bits (a software pext, one lookup per mask-covered byte).
  struct CompressLane {
    std::uint8_t shift = 0;
    std::array<std::uint16_t, 256> table{};
  };

  /// Dense index of `letter` restricted to the relevant atoms (the table's
  /// second key). Bits outside the relevant mask cannot influence any guard,
  /// so dropping them preserves matching semantics exactly. The paper's
  /// properties keep all relevant atoms within one or two bytes, so this is
  /// one or two table lookups.
  std::size_t compress_letter(AtomSet letter) const {
    std::size_t out = 0;
    for (const CompressLane& lane : compress_lanes_) {
      out |= lane.table[(letter >> lane.shift) & 0xFF];
    }
    return out;
  }

  int initial_ = 0;
  std::vector<Verdict> verdicts_;
  std::vector<std::vector<int>> out_;       ///< per-state transition ids
  std::vector<MonitorTransition> transitions_;
  AtomSet relevant_mask_ = 0;  ///< union of guard supports, kept incrementally

  // -- O(1) dispatch (built by build_dispatch) --
  bool dispatch_built_ = false;
  int dispatch_bits_ = 0;                     ///< popcount(relevant_mask_)
  std::vector<CompressLane> compress_lanes_;  ///< bytes the mask covers
  /// [q << dispatch_bits_ | compressed letter] -> transition id (-1 = none).
  std::vector<std::int32_t> dispatch_;
  /// Same indexing -> target state (-1 = none); lets step() skip the
  /// transition-record load entirely.
  std::vector<std::int32_t> dispatch_to_;
};

}  // namespace decmon
