#ifndef BDBMS_PLAN_PLANNER_H_
#define BDBMS_PLAN_PLANNER_H_

#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "plan/operator.h"
#include "sql/ast.h"

namespace bdbms {

// Lowers statements into physical operator trees, choosing access paths
// and join order with the cost model over the catalog's ANALYZE
// statistics (src/plan/cost_model.*, docs/planner.md):
//  * WHERE is split into AND-conjuncts; conjuncts touching exactly one
//    FROM entry are pushed below the join onto that entry's scan;
//  * every candidate index probe — per-index leading-column equalities
//    plus one trailing range or LIKE-prefix (ScanPrefix) constraint on
//    B+-tree indexes, prefix/exact descents on SP-GiST sequence indexes
//    (SpgistScan) — is costed against the sequential scan, and the
//    cheapest alternative wins, consuming its conjuncts;
//  * `col MATCHES '<regex>'` and leading-wildcard LIKE patterns on a
//    sequence-indexed column descend the trie NFA-guided
//    (SpgistRegexScan); `ALIGN(col, 'seq') >= s` lower bounds take the
//    shared-prefix Smith–Waterman descent (SpgistAlignScan);
//  * `ORDER BY DISTANCE(col, 'seq') LIMIT k` over a sequence-indexed
//    column becomes a best-first ranked trie traversal with the LIMIT
//    pushed into the scan (SpgistTopKScan);
//  * equi-join conjuncts (`a.col = b.col`) become join keys; the join
//    order is chosen greedily by estimated cardinality. Each step joins
//    with a HashJoin, or with an IndexNestedLoopJoin that probes the new
//    relation's B+-tree once per accumulated row when that relation has
//    an index led by a join key of a matching type and the probes cost
//    less than the hash join; NestedLoopJoin is kept for predicate-less
//    (cross product) joins;
//  * a single-table SELECT with AWHERE and no index probe scans only the
//    row intervals covered by live annotations (plus outdated rows),
//    courtesy of the annotation interval structures;
//  * everything unconsumed stays in a Filter above.
// Every node carries estimated rows/cost, which EXPLAIN prints.
class Planner {
 public:
  Planner(const ExecContext* ctx, std::string user)
      : ctx_(ctx), user_(std::move(user)) {}

  // Full SELECT pipeline: scans, join, WHERE/AWHERE, aggregation or
  // projection (with PROMOTE), DISTINCT, FILTER, ORDER BY, LIMIT and set
  // operations. Performs catalog and SELECT-privilege validation.
  Result<PlanNodePtr> PlanSelect(const SelectStmt& stmt);

  // Scan + WHERE + AWHERE of a single-table SELECT, without projection —
  // the row-targeting pipeline of the annotation commands (the caller
  // reads source RowIds and computes column masks itself).
  Result<PlanNodePtr> PlanTargetScan(const SelectStmt& stmt);

  // Index-aware scan + WHERE for UPDATE/DELETE row targeting. No
  // annotation attachment, no privilege check (the caller already
  // checked the DML privilege).
  Result<PlanNodePtr> PlanDmlScan(const std::string& table, const Expr* where);

  // EXPLAIN rendering for SELECT/UPDATE/DELETE statements.
  Result<std::string> ExplainStatement(const Statement& stmt);

 private:
  // Scans + join + Filter + AWhere (steps shared by PlanSelect and
  // PlanTargetScan).
  Result<PlanNodePtr> PlanFromWhere(const SelectStmt& stmt);

  // The parameterized inner of an index nested-loop join: an IndexScan
  // on `index` whose leading-column equality the join binds per outer
  // tuple. BuildScan sets `scan` to the node it built.
  struct JoinProbe {
    const SecondaryIndex* index = nullptr;
    std::string predicate_text;
    IndexScanNode* scan = nullptr;
  };

  // One FROM entry with its pushed conjuncts; chooses the access path.
  // With `join_probe` the access path is that probe and every conjunct
  // filters above it.
  Result<PlanNodePtr> BuildScan(const TableRef& ref,
                                std::vector<const Expr*> conjuncts,
                                bool attach_metadata, bool try_ann_interval,
                                JoinProbe* join_probe = nullptr);

  // set-op recursion: rhs plans suppress their own LIMIT (it applies to
  // the combined result, like a trailing ORDER BY).
  Result<PlanNodePtr> PlanSelectImpl(const SelectStmt& stmt, bool as_set_rhs);

  // Ranked trie traversal: a single-table SELECT shaped exactly
  // `... ORDER BY DISTANCE(col, 'seq') [ASC] LIMIT k` with no filtering
  // clauses, where `col` carries a sequence index, scans the trie
  // best-first and stops after the k closest rows (plus ties) — the LIMIT
  // is pushed into the scan. Returns nullptr when the statement does not
  // match; the caller falls back to sort-the-world.
  Result<PlanNodePtr> TryPlanTopKScan(const SelectStmt& stmt);

  const ExecContext* ctx_;
  std::string user_;
};

}  // namespace bdbms

#endif  // BDBMS_PLAN_PLANNER_H_
