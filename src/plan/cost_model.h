#ifndef BDBMS_PLAN_COST_MODEL_H_
#define BDBMS_PLAN_COST_MODEL_H_

#include <functional>
#include <optional>

#include "catalog/statistics.h"
#include "index/secondary_index.h"
#include "sql/ast.h"

namespace bdbms {

// The planner's cost model: abstract per-tuple work units (not time) used
// only to rank alternative plans. Formulas and constants are documented in
// docs/planner.md; changing a constant changes plan choices, so the golden
// EXPLAIN tests pin the observable behaviour.
namespace cost {

inline constexpr double kSeqTuple = 1.0;     // scan + decode one heap tuple
inline constexpr double kRandomFetch = 2.0;  // fetch one row via index RowId
inline constexpr double kFilterTuple = 0.1;  // evaluate one predicate once
inline constexpr double kHashBuild = 1.5;    // hash-insert one build tuple
inline constexpr double kHashProbe = 1.0;    // probe with one stream tuple
inline constexpr double kNlPair = 1.0;       // form one nested-loop pair
inline constexpr double kPipeTuple = 0.1;    // project/promote one tuple
inline constexpr double kSortTuple = 0.5;    // per tuple per log2 level

// Default selectivities when ANALYZE statistics are missing.
inline constexpr double kDefaultEq = 0.1;
inline constexpr double kDefaultRange = 1.0 / 3.0;
inline constexpr double kDefaultLike = 0.25;
inline constexpr double kDefaultSel = 1.0 / 3.0;
// Trie-pruned sequence searches: a regex keeps more of the table than a
// literal prefix; an ALIGN score threshold is assumed tighter.
inline constexpr double kDefaultRegex = 0.3;
inline constexpr double kDefaultAlign = 0.2;

// Output-fraction heuristics for nodes without a predicate model.
inline constexpr double kAnnIntervalFraction = 0.25;  // AnnIntervalScan
inline constexpr double kAnnMatchFraction = 0.5;      // AWHERE
inline constexpr double kGroupFraction = 0.1;         // GROUP BY groups

}  // namespace cost

// B+-tree descent cost for a table of `rows` tuples.
double IndexProbeCost(double rows);

// Full-scan cost: rows * kSeqTuple.
double SeqScanCost(double rows);

// Index-scan cost: one descent plus a random fetch per matching row.
double IndexScanCost(double table_rows, double matching_rows);

// Fraction of a table one equality probe matches when the key is known
// only at execution time (the parameterized inner of an index
// nested-loop join): 1/NDV of the key column, the default equality
// selectivity when it was never analyzed. `key_stats` may be null. One
// probe then costs IndexScanCost(rows, rows * JoinKeySelectivity(...)).
double JoinKeySelectivity(const ColumnStats* key_stats);

// A nonempty input never estimates below one row (the standard clamp:
// a zero estimate would zero out everything above it).
double ClampRows(double rows, double input_rows);

// Selectivity of `column = probe` from column statistics (1/NDV; 0 when
// the probe falls outside the analyzed [min, max]). `stats` may be null.
double EqSelectivity(const ColumnStats* stats, const Value& probe);

// Selectivity of a (half-)bounded range probe: histogram interpolation
// when available, else linear interpolation between the analyzed min and
// max — numeric, or string on their order-preserving index keys — else
// the default per bounded side. `stats` may be null.
double RangeSelectivity(const ColumnStats* stats,
                        const std::optional<IndexBound>& lo,
                        const std::optional<IndexBound>& hi);

// Resolves a kColumnRef expression to its column's statistics; returns
// nullptr when the column is unknown or the table was never analyzed.
using StatsResolver = std::function<const ColumnStats*(const Expr&)>;

// Estimated fraction of input tuples satisfying one WHERE conjunct.
// Handles comparisons against literals (either operand order), LIKE,
// IS [NOT] NULL, NOT, and nested AND/OR; anything else falls back to
// kDefaultSel. Always in [0, 1].
double EstimateConjunctSelectivity(const Expr& e,
                                   const StatsResolver& resolver);

}  // namespace bdbms

#endif  // BDBMS_PLAN_COST_MODEL_H_
