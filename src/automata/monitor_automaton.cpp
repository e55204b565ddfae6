#include "decmon/automata/monitor_automaton.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace decmon {
namespace {

/// The bits of `x` at the set positions of `mask`, packed densely in
/// ascending position order (a software pext).
std::uint32_t compress(AtomSet x, AtomSet mask) {
  std::uint32_t out = 0;
  int b = 0;
  for (AtomSet rest = mask; rest != 0; rest &= rest - 1, ++b) {
    if (x & rest & (~rest + 1)) out |= std::uint32_t{1} << b;
  }
  return out;
}

/// Inverse of compress: spread dense index `m` over the set bits of `mask`.
AtomSet expand(std::uint32_t m, AtomSet mask) {
  AtomSet out = 0;
  int b = 0;
  for (AtomSet rest = mask; rest != 0; rest &= rest - 1, ++b) {
    if (m & (std::uint32_t{1} << b)) out |= rest & (~rest + 1);
  }
  return out;
}

}  // namespace

std::string to_string(Verdict v) {
  switch (v) {
    case Verdict::kUnknown: return "?";
    case Verdict::kTrue: return "TRUE";
    case Verdict::kFalse: return "FALSE";
  }
  return "?";
}

int MonitorAutomaton::add_state(Verdict v) {
  verdicts_.push_back(v);
  out_.emplace_back();
  dispatch_built_ = false;
  return static_cast<int>(verdicts_.size()) - 1;
}

int MonitorAutomaton::add_transition(int from, int to, Cube guard) {
  if (from < 0 || from >= num_states() || to < 0 || to >= num_states()) {
    throw std::out_of_range("MonitorAutomaton::add_transition: bad state");
  }
  MonitorTransition t;
  t.id = static_cast<int>(transitions_.size());
  t.from = from;
  t.to = to;
  t.guard = guard;
  transitions_.push_back(t);
  out_[static_cast<std::size_t>(from)].push_back(t.id);
  relevant_mask_ |= guard.support();
  dispatch_built_ = false;
  return t.id;
}

const MonitorTransition* MonitorAutomaton::matching_transition_linear(
    int q, AtomSet letter) const {
  for (int id : out_.at(static_cast<std::size_t>(q))) {
    const MonitorTransition& t = transitions_[static_cast<std::size_t>(id)];
    if (t.guard.matches(letter)) return &t;
  }
  return nullptr;
}

void MonitorAutomaton::match_letters(int q, std::int32_t* first,
                                     std::int32_t* to,
                                     std::uint8_t* conflict) const {
  const int k = std::popcount(relevant_mask_);
  const std::size_t letters = std::size_t{1} << k;
  std::fill_n(first, letters, -1);
  std::fill_n(to, letters, -1);
  std::fill_n(conflict, letters, 0);
  const std::uint32_t all = static_cast<std::uint32_t>(letters - 1);
  for (int id : out_[static_cast<std::size_t>(q)]) {
    const MonitorTransition& t = transitions_[static_cast<std::size_t>(id)];
    if (t.guard.contradictory()) continue;  // matches no letter
    const std::uint32_t pos = compress(t.guard.pos, relevant_mask_);
    const std::uint32_t free =
        all & ~(pos | compress(t.guard.neg, relevant_mask_));
    // Every letter the cube matches is pos plus a subset of the free bits.
    std::uint32_t sub = 0;
    do {
      const std::uint32_t m = pos | sub;
      if (first[m] < 0) {
        first[m] = id;
        to[m] = t.to;
      } else if (to[m] != t.to) {
        conflict[m] = 1;
      }
      sub = (sub - free) & free;
    } while (sub != 0);
  }
}

void MonitorAutomaton::build_dispatch() {
  if (dispatch_built_) return;
  const int k = std::popcount(relevant_mask_);
  if (k > kMaxDispatchAtoms) return;  // linear fallback stays in use
  dispatch_bits_ = k;
  // One compression lane per byte the relevant mask covers: lane tables map
  // a raw letter byte to its packed contribution, so compress_letter is one
  // lookup per covered byte instead of one shift per relevant atom.
  compress_lanes_.clear();
  for (int byte = 0; byte < 8; ++byte) {
    if (((relevant_mask_ >> (8 * byte)) & 0xFF) == 0) continue;
    CompressLane lane;
    lane.shift = static_cast<std::uint8_t>(8 * byte);
    for (int v = 0; v < 256; ++v) {
      lane.table[static_cast<std::size_t>(v)] = static_cast<std::uint16_t>(
          compress(static_cast<AtomSet>(v) << lane.shift, relevant_mask_));
    }
    compress_lanes_.push_back(lane);
  }
  const std::size_t letters = std::size_t{1} << k;
  dispatch_.resize(static_cast<std::size_t>(num_states()) * letters);
  dispatch_to_.resize(static_cast<std::size_t>(num_states()) * letters);
  std::vector<std::uint8_t> conflict(letters);
  for (int q = 0; q < num_states(); ++q) {
    const std::size_t row = static_cast<std::size_t>(q) << k;
    match_letters(q, dispatch_.data() + row, dispatch_to_.data() + row,
                  conflict.data());
  }
  dispatch_built_ = true;
}

int MonitorAutomaton::run(const std::vector<AtomSet>& trace) const {
  int q = initial_;
  for (AtomSet letter : trace) {
    auto next = step(q, letter);
    if (!next) {
      throw std::logic_error("MonitorAutomaton::run: no matching transition");
    }
    q = *next;
  }
  return q;
}

int MonitorAutomaton::count_self_loops() const {
  int n = 0;
  for (const MonitorTransition& t : transitions_) {
    if (t.self_loop()) ++n;
  }
  return n;
}

std::optional<std::string> MonitorAutomaton::validate() const {
  const int k = std::popcount(relevant_mask_);
  if (k > 20) return "too many relevant atoms to validate exhaustively";
  const std::size_t letters = std::size_t{1} << k;
  std::vector<std::int32_t> first(letters);
  std::vector<std::int32_t> to(letters);
  std::vector<std::uint8_t> conflict(letters);
  for (int q = 0; q < num_states(); ++q) {
    // Transitions split from one disjunctive predicate may overlap (e.g.
    // the cubes !p0 and !p1 both match !p0 && !p1), so determinism means:
    // at least one match, and all matches agree on the target.
    match_letters(q, first.data(), to.data(), conflict.data());
    for (std::size_t m = 0; m < letters; ++m) {
      if (first[m] >= 0 && !conflict[m]) continue;
      std::ostringstream os;
      os << "state " << q << (first[m] < 0 ? " has no" : " has conflicting")
         << " matching transitions for letter "
         << expand(static_cast<std::uint32_t>(m), relevant_mask_);
      return os.str();
    }
  }
  if (initial_ < 0 || initial_ >= num_states()) return "bad initial state";
  return std::nullopt;
}

std::string MonitorAutomaton::to_dot(const AtomRegistry* reg) const {
  std::ostringstream os;
  os << "digraph monitor {\n  rankdir=LR;\n";
  for (int q = 0; q < num_states(); ++q) {
    const char* color = "black";
    if (verdict(q) == Verdict::kTrue) color = "green";
    if (verdict(q) == Verdict::kFalse) color = "red";
    os << "  q" << q << " [label=\"q" << q << "\\n"
       << to_string(verdict(q)) << "\", color=" << color
       << (q == initial_ ? ", penwidth=2" : "") << "];\n";
  }
  for (const MonitorTransition& t : transitions_) {
    os << "  q" << t.from << " -> q" << t.to << " [label=\""
       << t.guard.to_string(reg) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace decmon
