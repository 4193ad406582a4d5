#ifndef BDBMS_DEP_RULE_H_
#define BDBMS_DEP_RULE_H_

#include <optional>
#include <string>
#include <vector>

namespace bdbms {

// A fully qualified column: Table.Column.
struct ColumnRef {
  std::string table;
  std::string column;

  std::string ToString() const { return table + "." + column; }
  bool operator==(const ColumnRef&) const = default;
  bool operator<(const ColumnRef& o) const {
    return table != o.table ? table < o.table : column < o.column;
  }
};

// How to locate dependent rows when a rule crosses tables: target rows are
// those whose `target_key` equals the modified row's `source_key` (the
// paper's schema-level dependencies "modeled using foreign key
// constraints", e.g. Protein.GID -> Gene.GID).
struct KeyJoin {
  std::string source_key_column;
  std::string target_key_column;

  bool operator==(const KeyJoin&) const = default;
};

// A Procedural Dependency (paper §5):
//   sources --procedure--> target
// e.g. Rule 1:  Gene.GSequence --P (executable, non-invertible)-->
//               Protein.PSequence
// Whether the rule can be auto-recomputed is a property of the procedure
// (looked up in the ProcedureRegistry), not duplicated here.
struct DependencyRule {
  std::string name;                 // unique rule identifier
  std::vector<ColumnRef> sources;   // all in the same table
  ColumnRef target;
  std::string procedure;            // ProcedureRegistry key
  std::optional<KeyJoin> join;      // required iff source/target tables differ
};

}  // namespace bdbms

#endif  // BDBMS_DEP_RULE_H_
