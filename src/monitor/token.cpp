#include "decmon/monitor/token.hpp"

#include <sstream>

namespace decmon {

TransitionEntry& Token::add_entry(std::size_t n) {
  TransitionEntry& e = entries.emplace_back();
  e.frontier = records.add(n);
  e.conj.assign(n, ConjunctEval::kUnset);
  return e;
}

void Token::compact_records() {
  // Records are added as entries step apart and certify; erased entries and
  // replaced stay-points leave records nobody holds. Drop them once they
  // could outnumber the live ones.
  if (records.size() <= 2 * entries.size() + 8) return;
  SmallVec<std::uint32_t, 64> map(records.size(), kNoRecord);
  for (const TransitionEntry& e : entries) {
    map[e.frontier] = 0;
    if (e.loop_certified()) map[e.stay] = 0;
  }
  std::uint32_t next = 0;
  for (std::uint32_t& r : map) {
    if (r != kNoRecord) r = next++;
  }
  records.compact(map);
  for (TransitionEntry& e : entries) {
    e.frontier = map[e.frontier];
    if (e.loop_certified()) e.stay = map[e.stay];
  }
}

std::string Token::entry_to_string(const TransitionEntry& e) const {
  std::ostringstream os;
  os << "entry{t" << e.transition_id << " cut=[";
  const FrontierSlot* f = frontier(e);
  for (std::size_t i = 0; i < e.width(); ++i) {
    if (i) os << ',';
    os << f[i].cut;
  }
  os << "] eval="
     << (e.eval == EntryEval::kUnset ? "?"
                                     : e.eval == EntryEval::kTrue ? "T" : "F")
     << " ->P" << e.next_target_process << "@" << e.next_target_event << "}";
  return os.str();
}

std::string Token::to_string() const {
  std::ostringstream os;
  os << "token{" << token_id << " parent=P" << parent << "@" << parent_sn
     << " ->P" << next_target_process << "@" << next_target_event << " [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) os << ' ';
    os << entry_to_string(entries[i]);
  }
  os << "]}";
  return os.str();
}

}  // namespace decmon
