#include "dep/chain_rules.h"

#include <deque>
#include <functional>
#include <set>

namespace bdbms {

std::string ChainRule::ToString() const {
  std::string out = source.ToString() + " -> " + target.ToString() + " via [";
  for (size_t i = 0; i < procedures.size(); ++i) {
    if (i > 0) out += ", ";
    out += procedures[i];
  }
  out += "] (";
  out += executable ? "executable" : "non-executable";
  out += ", ";
  out += invertible ? "invertible" : "non-invertible";
  out += ")";
  return out;
}

std::vector<ColumnRef> ColumnClosure(const RuleSet& rules,
                                     const ColumnRef& start) {
  std::multimap<ColumnRef, ColumnRef> edges;
  for (const auto& [name, r] : rules) {
    for (const ColumnRef& s : r.sources) edges.insert({s, r.target});
  }
  std::set<ColumnRef> seen;
  std::deque<ColumnRef> q{start};
  while (!q.empty()) {
    ColumnRef cur = q.front();
    q.pop_front();
    auto [lo, hi] = edges.equal_range(cur);
    for (auto it = lo; it != hi; ++it) {
      if (seen.insert(it->second).second) q.push_back(it->second);
    }
  }
  return {seen.begin(), seen.end()};
}

std::vector<ColumnRef> ProcedureClosure(const RuleSet& rules,
                                        const std::string& procedure) {
  std::set<ColumnRef> seen;
  for (const auto& [name, r] : rules) {
    if (r.procedure != procedure) continue;
    if (seen.insert(r.target).second) {
      for (const ColumnRef& c : ColumnClosure(rules, r.target)) {
        seen.insert(c);
      }
    }
  }
  return {seen.begin(), seen.end()};
}

std::vector<ChainRule> DeriveChainRules(const RuleSet& rules,
                                        const ProcedureRegistry& procedures,
                                        size_t max_chain_len) {
  // Edge-level view: (source column, target column, procedure).
  struct Edge {
    ColumnRef from;
    ColumnRef to;
    std::string procedure;
    bool executable;
    bool invertible;
  };
  std::vector<Edge> edge_list;
  for (const auto& [name, r] : rules) {
    auto proc = procedures.Get(r.procedure);
    bool exec = proc.ok() && (*proc)->executable;
    bool inv = proc.ok() && (*proc)->invertible;
    for (const ColumnRef& s : r.sources) {
      edge_list.push_back({s, r.target, r.procedure, exec, inv});
    }
  }

  std::vector<ChainRule> chains;
  // DFS from every node; paths of length >= 2 become derived rules. The
  // graph is acyclic (enforced by AddRule) so plain DFS terminates.
  std::function<void(const ColumnRef&, ChainRule&)> dfs =
      [&](const ColumnRef& node, ChainRule& path) {
        if (path.procedures.size() >= max_chain_len) return;
        for (const Edge& e : edge_list) {
          if (!(e.from == node)) continue;
          ChainRule extended = path;
          extended.target = e.to;
          extended.procedures.push_back(e.procedure);
          extended.executable = path.executable && e.executable;
          extended.invertible = path.invertible && e.invertible;
          if (extended.procedures.size() >= 2) chains.push_back(extended);
          dfs(e.to, extended);
        }
      };
  std::set<ColumnRef> starts;
  for (const Edge& e : edge_list) starts.insert(e.from);
  for (const ColumnRef& s : starts) {
    ChainRule seed;
    seed.source = s;
    seed.target = s;
    seed.executable = true;
    seed.invertible = true;
    dfs(s, seed);
  }
  return chains;
}

}  // namespace bdbms
