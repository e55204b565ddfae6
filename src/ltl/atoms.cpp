#include "decmon/ltl/atoms.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace decmon {

std::string to_string(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
    case CmpOp::kGe: return ">=";
    case CmpOp::kGt: return ">";
  }
  return "?";
}

bool Atom::holds(std::int64_t value) const {
  switch (op) {
    case CmpOp::kLt: return value < rhs;
    case CmpOp::kLe: return value <= rhs;
    case CmpOp::kEq: return value == rhs;
    case CmpOp::kNe: return value != rhs;
    case CmpOp::kGe: return value >= rhs;
    case CmpOp::kGt: return value > rhs;
  }
  return false;
}

bool Atom::holds_in(const LocalState& s) const {
  const std::int64_t value =
      (var >= 0 && static_cast<std::size_t>(var) < s.size()) ? s[var] : 0;
  return holds(value);
}

AtomRegistry::AtomRegistry(int num_processes) { set_num_processes(num_processes); }

void AtomRegistry::set_num_processes(int n) {
  if (n < num_processes_) {
    throw std::invalid_argument("AtomRegistry: cannot shrink process count");
  }
  num_processes_ = n;
  var_names_.resize(static_cast<std::size_t>(n));
  var_ids_.resize(static_cast<std::size_t>(n));
}

int AtomRegistry::declare_variable(int proc, const std::string& name) {
  if (proc < 0 || proc >= num_processes_) {
    throw std::out_of_range("AtomRegistry::declare_variable: bad process");
  }
  auto& ids = var_ids_[static_cast<std::size_t>(proc)];
  auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  auto& names = var_names_[static_cast<std::size_t>(proc)];
  const int id = static_cast<int>(names.size());
  names.push_back(name);
  ids.emplace(name, id);
  return id;
}

std::optional<int> AtomRegistry::find_variable(int proc,
                                               const std::string& name) const {
  if (proc < 0 || proc >= num_processes_) return std::nullopt;
  const auto& ids = var_ids_[static_cast<std::size_t>(proc)];
  auto it = ids.find(name);
  if (it == ids.end()) return std::nullopt;
  return it->second;
}

int AtomRegistry::num_variables(int proc) const {
  return static_cast<int>(var_names_.at(static_cast<std::size_t>(proc)).size());
}

const std::string& AtomRegistry::variable_name(int proc, int var) const {
  return var_names_.at(static_cast<std::size_t>(proc))
      .at(static_cast<std::size_t>(var));
}

int AtomRegistry::intern_atom(Atom a) {
  std::ostringstream key;
  key << a.process << '.' << a.var << to_string(a.op) << a.rhs;
  auto it = atom_ids_.find(key.str());
  if (it != atom_ids_.end()) return it->second;
  a.id = static_cast<int>(atoms_.size());
  if (a.id >= 64) {
    throw std::length_error("AtomRegistry: more than 64 atoms unsupported");
  }
  atom_ids_.emplace(key.str(), a.id);
  atoms_.push_back(std::move(a));
  return atoms_.back().id;
}

int AtomRegistry::comparison_atom(int proc, int var, CmpOp op,
                                  std::int64_t rhs) {
  Atom a;
  a.process = proc;
  a.var = var;
  a.op = op;
  a.rhs = rhs;
  std::ostringstream name;
  name << variable_name(proc, var) << ' ' << to_string(op) << ' ' << rhs;
  a.name = name.str();
  return intern_atom(std::move(a));
}

int AtomRegistry::boolean_atom(int proc, int var) {
  Atom a;
  a.process = proc;
  a.var = var;
  a.op = CmpOp::kNe;
  a.rhs = 0;
  a.name = "P";
  a.name += std::to_string(proc);
  a.name += '.';
  a.name += variable_name(proc, var);
  return intern_atom(std::move(a));
}

std::optional<int> AtomRegistry::resolve_boolean(const std::string& dotted) {
  // Convention: "P<k>.<var>" (also accepts lowercase 'p').
  if (dotted.size() < 4 || (dotted[0] != 'P' && dotted[0] != 'p')) {
    return std::nullopt;
  }
  const std::size_t dot = dotted.find('.');
  if (dot == std::string::npos || dot < 2) return std::nullopt;
  int proc = 0;
  for (std::size_t i = 1; i < dot; ++i) {
    if (dotted[i] < '0' || dotted[i] > '9') return std::nullopt;
    proc = proc * 10 + (dotted[i] - '0');
  }
  if (proc >= num_processes_) return std::nullopt;
  const std::string var = dotted.substr(dot + 1);
  if (var.empty()) return std::nullopt;
  return boolean_atom(proc, declare_variable(proc, var));
}

std::optional<std::pair<int, int>> AtomRegistry::resolve_bare(
    const std::string& name) const {
  std::optional<std::pair<int, int>> found;
  for (int p = 0; p < num_processes_; ++p) {
    if (auto v = find_variable(p, name)) {
      if (found) return std::nullopt;  // ambiguous across processes
      found = {p, *v};
    }
  }
  return found;
}

AtomSet AtomRegistry::evaluate(const GlobalState& g) const {
  AtomSet set = 0;
  for (const Atom& a : atoms_) {
    if (a.process >= 0 && static_cast<std::size_t>(a.process) < g.size() &&
        a.holds_in(g[static_cast<std::size_t>(a.process)])) {
      set |= AtomSet{1} << a.id;
    }
  }
  return set;
}

AtomSet AtomRegistry::evaluate_local(int proc, const LocalState& s) const {
  AtomSet set = 0;
  for (const Atom& a : atoms_) {
    if (a.process == proc && a.holds_in(s)) set |= AtomSet{1} << a.id;
  }
  return set;
}

AtomSet AtomRegistry::owned_mask(int proc) const {
  AtomSet set = 0;
  for (const Atom& a : atoms_) {
    if (a.process == proc) set |= AtomSet{1} << a.id;
  }
  return set;
}

}  // namespace decmon
