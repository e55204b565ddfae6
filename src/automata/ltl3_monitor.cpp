#include "decmon/automata/ltl3_monitor.hpp"

#include <bit>
#include <cassert>
#include <map>
#include <stdexcept>

#include "decmon/automata/buchi.hpp"
#include "decmon/automata/qm_minimize.hpp"

namespace decmon {
namespace {

/// Keep only states flagged in `keep`.
std::vector<int> filtered(const std::vector<int>& states,
                          const std::vector<char>& keep) {
  std::vector<int> out;
  for (int q : states) {
    if (keep[static_cast<std::size_t>(q)]) out.push_back(q);
  }
  return out;
}

}  // namespace

MooreTable build_moore_table(const FormulaPtr& formula) {
  const Nba pos = ltl_to_nba(formula);
  const Nba neg = ltl_to_nba(f_not(formula));
  const std::vector<char> ne_pos = pos.nonempty_states();
  const std::vector<char> ne_neg = neg.nonempty_states();

  // Dense letter encoding over the atoms either automaton mentions.
  const AtomSet mask = pos.atom_mask | neg.atom_mask;
  MooreTable table;
  for (int i = 0; i < 64; ++i) {
    if (mask & (AtomSet{1} << i)) table.atom_pos.push_back(i);
  }
  const int k = static_cast<int>(table.atom_pos.size());
  if (k > 20) {
    throw std::invalid_argument("synthesize_monitor: too many atoms (> 20)");
  }
  table.num_letters = 1 << k;
  auto to_atomset = [&](int letter) {
    AtomSet a = 0;
    for (int b = 0; b < k; ++b) {
      if (letter & (1 << b)) {
        a |= AtomSet{1} << table.atom_pos[static_cast<std::size_t>(b)];
      }
    }
    return a;
  };

  // Joint subset construction. Empty NBA states never lead to nonempty
  // ones (an accepting run from a successor yields one from the state), so
  // filtering subsets to nonempty states preserves the verdicts and keeps
  // subsets small. A product state is final once either side dies.
  using Key = std::pair<std::vector<int>, std::vector<int>>;
  std::map<Key, int> index;
  std::vector<Key> keys;
  auto intern = [&](Key key) {
    auto it = index.find(key);
    if (it != index.end()) return it->second;
    const int id = static_cast<int>(keys.size());
    index.emplace(key, id);
    keys.push_back(std::move(key));
    Verdict v = Verdict::kUnknown;
    if (keys.back().first.empty()) v = Verdict::kFalse;
    if (keys.back().second.empty()) v = Verdict::kTrue;
    assert(!(keys.back().first.empty() && keys.back().second.empty()));
    table.label.push_back(v);
    table.next.emplace_back();
    return id;
  };

  Key init{filtered(pos.initial, ne_pos), filtered(neg.initial, ne_neg)};
  table.initial = intern(std::move(init));
  for (int s = 0; s < static_cast<int>(keys.size()); ++s) {
    // Build the row locally: intern() may grow `table.next` and `keys`,
    // invalidating references into them.
    std::vector<int> row(static_cast<std::size_t>(table.num_letters), s);
    if (table.label[static_cast<std::size_t>(s)] == Verdict::kUnknown) {
      const Key key = keys[static_cast<std::size_t>(s)];  // copy: keys grows
      for (int letter = 0; letter < table.num_letters; ++letter) {
        const AtomSet a = to_atomset(letter);
        Key succ{filtered(pos.step(key.first, a), ne_pos),
                 filtered(neg.step(key.second, a), ne_neg)};
        row[static_cast<std::size_t>(letter)] = intern(std::move(succ));
      }
    }  // else: final verdicts are irrevocable, keep the absorbing sink row
    table.next[static_cast<std::size_t>(s)] = std::move(row);
  }
  table.num_states = static_cast<int>(keys.size());
  return table;
}

MonitorAutomaton monitor_from_table(const MooreTable& table) {
  MonitorAutomaton m;
  for (int s = 0; s < table.num_states; ++s) {
    m.add_state(table.label[static_cast<std::size_t>(s)]);
  }
  m.set_initial(table.initial);
  const int k = static_cast<int>(table.atom_pos.size());
  for (int s = 0; s < table.num_states; ++s) {
    if (table.label[static_cast<std::size_t>(s)] != Verdict::kUnknown) {
      // Final state: single `true` self-loop, as in the paper's figures.
      m.add_transition(s, s, Cube{});
      continue;
    }
    // Group letters by target, then minimize each group to cubes.
    std::map<int, std::vector<char>> onsets;
    for (int letter = 0; letter < table.num_letters; ++letter) {
      const int t = table.next[static_cast<std::size_t>(s)][static_cast<std::size_t>(letter)];
      auto& onset = onsets[t];
      if (onset.empty()) {
        onset.assign(static_cast<std::size_t>(table.num_letters), 0);
      }
      onset[static_cast<std::size_t>(letter)] = 1;
    }
    for (const auto& [target, onset] : onsets) {
      for (const Cube& cube : minimize_cover(onset, k, table.atom_pos)) {
        m.add_transition(s, target, cube);
      }
    }
  }
  return m;
}

MonitorAutomaton synthesize_monitor(const FormulaPtr& formula,
                                    const SynthesisOptions& options) {
  MooreTable table = build_moore_table(formula);
  if (options.minimize) table = minimize_moore(table);
  MonitorAutomaton m = monitor_from_table(table);
  // Exhaustively check determinism + completeness.
  if (auto err = m.validate()) {
    throw std::logic_error("synthesize_monitor: invalid automaton: " + *err);
  }
  m.build_dispatch();
  return m;
}

Verdict evaluate_ltl3(const FormulaPtr& formula,
                      const std::vector<AtomSet>& trace) {
  const MonitorAutomaton m = synthesize_monitor(formula);
  return m.verdict(m.run(trace));
}

}  // namespace decmon
