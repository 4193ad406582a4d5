#ifndef BDBMS_DEP_PROCEDURE_H_
#define BDBMS_DEP_PROCEDURE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace bdbms {

// A procedure mediating a procedural dependency (paper §5): the thing that
// derives target values from source values. Its two properties drive the
// dependency manager's behaviour:
//  * executable  — the DBMS can run it (a registered callback), so affected
//    targets are recomputed automatically (Rule 3: BLAST re-evaluates
//    Evalue). Non-executable procedures (lab experiments) only allow
//    marking targets Outdated.
//  * invertible  — sources could be derived back from targets; tracked for
//    rule reasoning (none of the paper's examples are invertible).
struct ProcedureInfo {
  // Computes the target value from the rule's source values, in rule
  // source order. Must be set iff `executable`.
  using Fn = std::function<Result<Value>(const std::vector<Value>&)>;

  std::string name;
  bool executable = false;
  bool invertible = false;
  Fn fn;
  // Bumped by UpdateVersion (e.g. BLAST-2.2.15 -> 2.2.16); a version change
  // triggers re-evaluation of the procedure's closure (paper §5).
  int version = 1;
};

// Registry of known procedures. Dependency rules refer to procedures by
// name; registering is how "prediction tool P" or "BLAST-2.2.15" becomes
// visible to the engine.
class ProcedureRegistry {
 public:
  ProcedureRegistry() = default;
  ProcedureRegistry(const ProcedureRegistry&) = delete;
  ProcedureRegistry& operator=(const ProcedureRegistry&) = delete;

  // Registers a procedure; executable procedures must supply fn.
  Status Register(ProcedureInfo info);

  bool Has(const std::string& name) const { return procs_.count(name) > 0; }
  Result<const ProcedureInfo*> Get(const std::string& name) const;

  // Replaces the implementation and bumps the version (models upgrading
  // BLAST-2.2.15); the dependency manager reacts via OnProcedureChanged.
  Status UpdateImplementation(const std::string& name, ProcedureInfo::Fn fn);

 private:
  std::map<std::string, ProcedureInfo> procs_;
};

}  // namespace bdbms

#endif  // BDBMS_DEP_PROCEDURE_H_
