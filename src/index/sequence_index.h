#ifndef BDBMS_INDEX_SEQUENCE_INDEX_H_
#define BDBMS_INDEX_SEQUENCE_INDEX_H_

#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "bio/alignment.h"
#include "common/result.h"
#include "common/rw_latch.h"
#include "common/value.h"
#include "index/spgist/trie_ops.h"
#include "table/table.h"

namespace bdbms {

// A sequence index: the SP-GiST disk-based trie (paper §7.1) registered as
// a planner-visible secondary index over one string-typed column —
// `CREATE SEQUENCE INDEX ... USING SPGIST`. The trie partitions keys by
// next character, so prefix probes (`seq LIKE 'ACGT%'`) descend only the
// matching subtrees instead of scanning the table; exact probes descend a
// single path. Maintained by Table on every INSERT/UPDATE/DELETE (and so
// by approval rollbacks), like the B+-tree secondary indexes.
//
// NULL cells stay out of the trie: no SQL comparison or LIKE predicate is
// ever true on NULL, so those probes could never return them. Their
// RowIds are kept on the side for FindNearest alone, since the sort ranks
// DISTANCE(NULL, t) — NULL — before every number. The trie reserves the
// NUL byte as its end-of-key label, so values containing embedded NUL
// bytes are rejected at maintenance time rather than silently dropped.
//
// Internally synchronized by a writer-preferring reader/writer latch:
// probes take it shared and run side by side (every trie node read goes
// through the node heap's own mutex), Insert/Remove take it exclusive.
// Writer preference keeps a DML statement, which holds its table's latch
// while it maintains the index, from starving behind overlapping walks.
class SequenceIndex {
 public:
  static Result<std::unique_ptr<SequenceIndex>> Create(std::string name,
                                                       size_t column);

  SequenceIndex(const SequenceIndex&) = delete;
  SequenceIndex& operator=(const SequenceIndex&) = delete;

  const std::string& name() const { return name_; }
  size_t column() const { return column_; }
  // Entries for non-NULL cells: the trie's size.
  uint64_t entry_count() const {
    std::shared_lock lock(latch_);
    return trie_->size();
  }

  // --- maintenance (Table calls these with the cell's stored value) -------
  Status Insert(const Value& cell, RowId row_id);
  Status Remove(const Value& cell, RowId row_id);

  // --- probes (planner/SpgistScan) ----------------------------------------
  // RowIds whose cell starts with `prefix`, ascending.
  Result<std::vector<RowId>> FindPrefix(const std::string& prefix) const;
  // RowIds whose cell equals `text` exactly, ascending.
  Result<std::vector<RowId>> FindExact(const std::string& text) const;
  // RowIds whose whole cell matches `program`, ascending. The NFA state
  // set advances edge by edge during the descent; subtrees whose state
  // set goes dead are never visited.
  Result<std::vector<RowId>> FindRegex(const RegexProgram& program) const;

  // RowIds of the nearest indexed sequences to `target` by edit distance,
  // in the sort's order: NULL cells first by RowId, then (distance, RowId).
  // The non-NULL cells come from a best-first traversal over per-subtree
  // Levenshtein lower bounds (spgscan.c-style ordered scan). `keep` vets
  // each candidate — MVCC visibility plus a stored-cell equality check,
  // with a null `cell` for a NULL one — before it counts toward k, so
  // stale index entries cannot underfill the result. All ties at the k-th
  // distance are returned; the caller's LIMIT makes the final cut. `keep`
  // is always invoked with the index latch released (it takes the table
  // lock, and DML locks table before index); a rejection blacklists the
  // entry and reruns the traversal.
  Result<std::vector<RowId>> FindNearest(
      const std::string& target, size_t k,
      const std::function<bool(RowId, const std::string* cell)>& keep) const;

  // RowIds whose cell aligns locally to `query` with Smith–Waterman
  // score >= min_score (or > when `strict`), ascending. The DP rows are
  // threaded down the trie, so keys sharing a prefix share that much of
  // the O(n*m) work and duplicate sequences are scored once per leaf
  // group rather than once per row.
  Result<std::vector<RowId>> FindAlign(
      const std::string& query, int min_score, bool strict,
      const AlignmentParams& params = {}) const;

 private:
  SequenceIndex(std::string name, size_t column,
                std::unique_ptr<SpGistTrie> trie)
      : name_(std::move(name)), column_(column), trie_(std::move(trie)) {}

  Result<std::vector<RowId>> Collect(const TrieOps::Query& query) const;

  std::string name_;
  size_t column_;
  std::unique_ptr<SpGistTrie> trie_;
  // RowId -> its entries with a NULL cell, one per retained version.
  std::map<RowId, uint32_t> null_rows_;
  mutable RwLatch latch_;
};

}  // namespace bdbms

#endif  // BDBMS_INDEX_SEQUENCE_INDEX_H_
