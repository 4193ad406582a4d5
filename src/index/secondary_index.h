#ifndef BDBMS_INDEX_SECONDARY_INDEX_H_
#define BDBMS_INDEX_SECONDARY_INDEX_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "index/btree/bplus_tree.h"
#include "table/table.h"

namespace bdbms {

// One bound of a key range probe. `inclusive` controls whether the bound
// value itself qualifies.
struct IndexBound {
  Value value;
  bool inclusive = true;
};

// A probe against a (possibly composite) secondary index: equality on the
// leading `eq.size()` key columns, then at most one extra constraint on
// the next key column —
//   * a (half-)bounded range (`lo`/`hi`), or
//   * a string-prefix constraint (`like_prefix`, from LIKE 'p%').
// Everything empty is a full-index scan.
struct IndexProbe {
  std::vector<Value> eq;
  std::optional<IndexBound> lo;
  std::optional<IndexBound> hi;
  std::optional<std::string> like_prefix;
};

// Whether an equality probe with a key of type `key_type` on a column
// declared `column_type` finds exactly the rows `Value::Compare` calls
// equal. Rows are coerced to the column type on write, so every stored
// non-null cell is encoded as `column_type`. INT keys on INT columns and
// string keys on string columns (TEXT and SEQUENCE encode alike) qualify.
// NULL does not (a probe for it returns nothing), nor does a mixed
// INT/DOUBLE pair (one rank tag, two encodings), nor any DOUBLE: `==`
// calls a NaN equal to every number, and the index keeps NaN under its
// own key. Every index-equality caller — dependency propagation's
// RowsWithKey and the planner's index nested-loop join — shares this rule.
bool ProbeMatchesEquality(DataType key_type, DataType column_type);

// A secondary index over one or more columns of a user table: a disk-paged
// B+-tree mapping the order-preserving composite key encoding of the cell
// values (key_codec.h) to the RowId. Maintained by Table on every
// INSERT/UPDATE/DELETE (and therefore by approval rollbacks, which run
// through the same Table mutations); consulted by the planner to turn
// WHERE equality/range/LIKE-prefix predicates into IndexScan and
// ScanPrefix probes, and join keys into index nested-loop probes.
//
// NULL cells are indexed (under the null rank tag) so maintenance is
// uniform, but range probes never return them: SQL comparisons are never
// true on NULL, and the range entry points fence NULLs out. Leading-prefix
// equality probes with fewer than all columns do include rows whose
// *unconstrained* trailing columns are NULL, since no predicate touches
// them.
//
// Internally synchronized: the B+-tree's buffer pool mutates its LRU state
// even on reads, so concurrent snapshot probes and a writer's maintenance
// must serialize on the index's own mutex.
class SecondaryIndex {
 public:
  static Result<std::unique_ptr<SecondaryIndex>> Create(
      std::string name, std::vector<size_t> columns);

  SecondaryIndex(const SecondaryIndex&) = delete;
  SecondaryIndex& operator=(const SecondaryIndex&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<size_t>& columns() const { return columns_; }
  // Leading key column (the whole key of a single-column index).
  size_t column() const { return columns_.front(); }
  uint64_t entry_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_->size();
  }

  // --- maintenance (Table calls these with the full stored row) -----------
  Status Insert(const Row& row, RowId row_id);
  Status Remove(const Row& row, RowId row_id);

  // --- probes (planner/IndexScan) -----------------------------------------
  // RowIds matching `probe`, ascending.
  Result<std::vector<RowId>> Find(const IndexProbe& probe) const;

  // Single-column equality convenience wrapper.
  Result<std::vector<RowId>> FindEqual(const Value& probe) const;

 private:
  SecondaryIndex(std::string name, std::vector<size_t> columns,
                 std::unique_ptr<BPlusTree> tree)
      : name_(std::move(name)),
        columns_(std::move(columns)),
        tree_(std::move(tree)) {}

  // Composite key of `row`'s indexed cells.
  std::string KeyOf(const Row& row) const;

  std::string name_;
  std::vector<size_t> columns_;
  std::unique_ptr<BPlusTree> tree_;
  mutable std::mutex mu_;
};

}  // namespace bdbms

#endif  // BDBMS_INDEX_SECONDARY_INDEX_H_
