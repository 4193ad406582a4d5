#ifndef BDBMS_DEP_DEPENDENCY_MANAGER_H_
#define BDBMS_DEP_DEPENDENCY_MANAGER_H_

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "dep/outdated_bitmap.h"
#include "dep/procedure.h"
#include "dep/rule.h"
#include "table/table.h"

namespace bdbms {

// A cell in some user table.
struct CellRef {
  std::string table;
  RowId row = 0;
  size_t col = 0;

  bool operator==(const CellRef&) const = default;
  bool operator<(const CellRef& o) const {
    if (table != o.table) return table < o.table;
    if (row != o.row) return row < o.row;
    return col < o.col;
  }
  std::string ToString() const {
    return table + "[" + std::to_string(row) + "]." + std::to_string(col);
  }
};

// bdbms's local dependency tracker (paper §5). Holds the schema-level
// Procedural Dependency rules, rejects rules that would close a cycle, and
// at runtime reacts to cell modifications (closures and chain derivation
// over the rules live in dep/chain_rules.h):
//  * dependencies whose procedure is executable are re-evaluated in place
//    (Rule 3: Evalue is recomputed when Gene1/Gene2 change);
//  * non-executable dependencies mark their targets Outdated in the
//    per-table bitmap of Figure 10 (Rule 2: PFunction after PSequence);
//  * effects cascade transitively, and anything downstream of an outdated
//    cell is itself outdated regardless of executability.
class DependencyManager {
 public:
  struct PropagationReport {
    std::vector<CellRef> recomputed;  // auto-updated by executable procedures
    std::vector<CellRef> outdated;    // newly marked in bitmaps

    size_t total() const { return recomputed.size() + outdated.size(); }
  };

  DependencyManager(Catalog* catalog, ProcedureRegistry* procedures)
      : catalog_(catalog), procedures_(procedures) {}

  DependencyManager(const DependencyManager&) = delete;
  DependencyManager& operator=(const DependencyManager&) = delete;

  // Transactions: while a writer is installed, rule changes and flipped
  // outdated bits push compensations. Propagation's cell rewrites are
  // row versions, rolled back with the transaction's write set.
  void set_mvcc(MvccState* mvcc) { mvcc_ = mvcc; }

  // --- rule management ---------------------------------------------------
  // Validates tables/columns/procedure/join and rejects rules that would
  // create a cycle in the column dependency graph (paper: "detect
  // conflicts and cycles among dependency rules").
  Status AddRule(DependencyRule rule);
  Status RemoveRule(const std::string& name);
  const std::map<std::string, DependencyRule>& rules() const { return rules_; }

  // The first rule, by name, that reads or writes `table`; nullptr when
  // none does. DROP TABLE is refused while one exists.
  const DependencyRule* RuleOn(const std::string& table) const;

  // True if adding `rule` would close a cycle.
  bool WouldCreateCycle(const DependencyRule& rule) const;

  // --- runtime propagation ------------------------------------------------
  // Called after table[row].col changed; recomputes / marks everything
  // transitively affected.
  Result<PropagationReport> OnCellUpdated(const std::string& table, RowId row,
                                          size_t col);

  // Called when a procedure implementation changed (e.g. BLAST upgraded):
  // re-evaluates or invalidates the procedure's entire closure.
  Result<PropagationReport> OnProcedureChanged(const std::string& procedure);

  // Called when a row disappeared (DELETE, or rollback of a disapproved
  // INSERT). `old_values` is the erased row's pre-image, used to locate
  // joined dependents; their derivations lost an input, so they are marked
  // outdated (never recomputed) and the invalidation cascades.
  Result<PropagationReport> OnRowErased(const std::string& table, RowId row,
                                        const Row& old_values);

  // --- outdated state (paper §5 "Tracking outdated data") -----------------
  bool IsOutdated(const std::string& table, RowId row, size_t col) const;
  ColumnMask OutdatedMask(const std::string& table, RowId row) const;
  uint64_t OutdatedCount(const std::string& table) const;

  // The bitmap for `table`, created on first use (column count from the
  // catalog). Null result only if the table is unknown.
  Result<OutdatedBitmap*> BitmapFor(const std::string& table);
  const OutdatedBitmap* FindBitmap(const std::string& table) const;
  // Forgets `table`'s outdated bits (DROP TABLE), so a later table of the
  // same name starts with none.
  void DropBitmap(const std::string& table);

  // "Validating outdated data": the user confirmed the value is still
  // correct — clear the bit without modifying the cell.
  Status Revalidate(const std::string& table, RowId row, size_t col);

  // The user supplied a corrected value: update the cell, clear its bit and
  // propagate the change onward.
  Result<PropagationReport> RevalidateWithValue(const std::string& table,
                                                RowId row, size_t col,
                                                Value value);

 private:
  struct WorkItem {
    ColumnRef column;
    RowId row;
    bool upstream_valid;  // false once an outdated cell is on the path
  };

  // Runs the worklist until empty, filling `report`.
  Status Propagate(std::deque<WorkItem> work, PropagationReport* report);

  // Rows of the rule's target table affected by a change of `source_row`
  // in the rule's source table.
  Result<std::vector<RowId>> AffectedTargetRows(const DependencyRule& rule,
                                                RowId source_row);

  // Gathers current source values for recomputing `target_row`.
  Result<std::vector<Value>> GatherInputs(const DependencyRule& rule,
                                          RowId target_row);

  // Directed column-graph edges from all rules (+ optionally one extra).
  std::multimap<ColumnRef, ColumnRef> BuildEdges(
      const DependencyRule* extra = nullptr) const;

  // Sets (`outdated`) or clears a cell's outdated bit. When the bit flips,
  // records a compensation that flips it back; returns whether it did.
  Result<bool> SetOutdated(const std::string& table, RowId row, size_t col,
                           bool outdated);

  Catalog* catalog_;
  ProcedureRegistry* procedures_;
  std::map<std::string, DependencyRule> rules_;
  std::map<std::string, OutdatedBitmap> bitmaps_;
  uint64_t next_rule_id_ = 1;
  MvccState* mvcc_ = nullptr;
};

}  // namespace bdbms

#endif  // BDBMS_DEP_DEPENDENCY_MANAGER_H_
