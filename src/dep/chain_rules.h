#ifndef BDBMS_DEP_CHAIN_RULES_H_
#define BDBMS_DEP_CHAIN_RULES_H_

#include <map>
#include <string>
#include <vector>

#include "dep/procedure.h"
#include "dep/rule.h"

namespace bdbms {

// The paper's reasoning over Procedural Dependency rules (§5 "Modeling
// dependencies"): column and procedure closures, and chain rules composed
// from them. No SQL statement reaches it; the engine only needs cycle
// detection, which DependencyManager does itself. `rules` is
// DependencyManager::rules().
using RuleSet = std::map<std::string, DependencyRule>;

// A derived (composed) rule: a chain of base rules, e.g. the paper's
// Rule 4 = Rule 1 ∘ Rule 2. The chain is executable only if every link is;
// likewise invertible.
struct ChainRule {
  ColumnRef source;
  ColumnRef target;
  std::vector<std::string> procedures;  // in application order
  bool executable = false;
  bool invertible = false;

  std::string ToString() const;
};

// All columns transitively dependent on `start` (excluding start itself).
std::vector<ColumnRef> ColumnClosure(const RuleSet& rules,
                                     const ColumnRef& start);

// Closure of a procedure: every column whose value transitively depends
// on `procedure`.
std::vector<ColumnRef> ProcedureClosure(const RuleSet& rules,
                                        const std::string& procedure);

// Derives composed rules for every dependency path of length >= 2 (the
// paper's Rule 4 = Rule 1 then Rule 2). A link is executable/invertible
// when its procedure in `procedures` is.
std::vector<ChainRule> DeriveChainRules(const RuleSet& rules,
                                        const ProcedureRegistry& procedures,
                                        size_t max_chain_len = 8);

}  // namespace bdbms

#endif  // BDBMS_DEP_CHAIN_RULES_H_
