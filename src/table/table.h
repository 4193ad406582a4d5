#ifndef BDBMS_TABLE_TABLE_H_
#define BDBMS_TABLE_TABLE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/statistics.h"
#include "common/result.h"
#include "storage/heap_file.h"
#include "txn/mvcc.h"

namespace bdbms {

class SecondaryIndex;
class SequenceIndex;

// How a secondary index is organized: a B+-tree over the order-preserving
// composite key codec, or an SP-GiST trie over one sequence/text column
// (CREATE SEQUENCE INDEX ... USING SPGIST).
enum class IndexKind : uint8_t { kBTree, kSpGist };

// Logical row identifier: assigned densely in insertion order and never
// reused. The paper models a relation as a 2-D space (columns × tuples,
// Figure 5); RowId is the tuple axis, so annotation regions and outdated
// bitmaps can address rows by interval even across deletions.
using RowId = uint64_t;

// How a version came to be, which is what discarding it must undo: an
// update's predecessor waits at the back of the chain, an insert has
// none, and only a fresh insert (not the re-insert of a deleted RowId)
// allocated its RowId.
enum class RowOrigin : uint8_t { kUpdate, kInsert, kReinsert };

// One superseded row version kept for MVCC readers. The version's data
// lives here as an in-memory copy (the heap always holds only the newest
// version); begin/end events are (CSN, txn) pairs — a zero CSN with a
// non-zero txn means the event belongs to a still-uncommitted
// transaction, zero/zero means "since forever" (predates MVCC tracking).
struct RowVersion {
  Row row;
  uint64_t begin_csn = 0;
  uint64_t begin_txn = 0;
  uint64_t end_csn = 0;
  uint64_t end_txn = 0;
  RowOrigin origin = RowOrigin::kUpdate;
};

// MVCC bookkeeping for one RowId: the begin event of the CURRENT version
// (the one stored in the heap) plus the chain of superseded versions,
// oldest first. Rows with no entry in the side map are ancient — visible
// to every snapshot. `begin_*` and `origin` are meaningful only while a
// current version exists (the row is live in `rows_`); `begin_stmt` is
// the writer's statement number for an uncommitted current version.
struct RowMvcc {
  uint64_t begin_csn = 0;
  uint64_t begin_txn = 0;
  uint64_t begin_stmt = 0;
  RowOrigin origin = RowOrigin::kUpdate;
  std::vector<RowVersion> old;
};

// A user relation: schema-validated rows over a HeapFile. Each record
// embeds its RowId; the RowId -> RecordId map is rebuilt on open.
//
// Updates rewrite the record (delete + insert at the heap level) but keep
// the RowId, so all metadata keyed by RowId (annotations, provenance,
// outdated bits, pending approvals) stays attached, which is exactly the
// behaviour bdbms needs.
//
// Concurrency: public accessors and mutators latch an internal
// shared_mutex, so snapshot readers can fetch rows while a writer
// mutates. Index DDL (CreateIndex/DropIndex), the index accessors and the
// statistics snapshot are deliberately unlatched — they run or are only
// mutated under the engine's exclusive gate, which admits no concurrent
// table access.
class Table {
 public:
  // Fresh in-memory table.
  static Result<std::unique_ptr<Table>> CreateInMemory(TableSchema schema,
                                                       size_t pool_pages = 64);
  // Durable paged table over HeapFile::OpenPaged: rows live in file-backed
  // pages that fault in and evict under the `pool_pages` budget (0 =
  // unbounded), so tables larger than RAM work. Existing rows are
  // recovered by scanning.
  static Result<std::unique_ptr<Table>> OpenPaged(TableSchema schema,
                                                  WalEnv* env,
                                                  const std::string& path,
                                                  size_t pool_pages);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  ~Table();

  const TableSchema& schema() const { return schema_; }

  // Validates against the schema and appends; returns the new RowId.
  // While an MVCC writer is ambient the new row is tagged with the
  // writer's txn so only that transaction sees it until commit. With no
  // writer every mutator below writes in place, unversioned.
  Result<RowId> Insert(Row row);

  // Re-inserts a row under a specific RowId — the inverse of a DELETE
  // (used when a disapproved deletion is rolled back, paper §6). Fails if
  // the RowId is live.
  Status InsertWithRowId(RowId row_id, Row row);

  // Full row fetch of the current (newest) version.
  Result<Row> Get(RowId row_id) const;

  // Snapshot fetch: the version of `row_id` visible to `snap`, or nullopt
  // when no version is visible (never existed, created after the
  // snapshot, or deleted before it).
  Result<std::optional<Row>> GetVisible(RowId row_id,
                                        const MvccSnapshot& snap) const;

  // Replaces the whole row (schema-validated). Under an ambient MVCC
  // writer the superseded version is pushed onto the row's chain — unless
  // the same statement of the same writer created it, which rewrites it
  // in place — and the statement fails with a serialization-failure
  // status if another uncommitted transaction (or one that committed
  // after the writer's snapshot) already replaced the row — first updater
  // wins.
  Status Update(RowId row_id, Row row);

  // Replaces one cell (type-coerced).
  Status UpdateCell(RowId row_id, size_t column, Value value);

  // Removes the row. Its RowId is never reused. Versioned like Update.
  Status Delete(RowId row_id);

  // Visits live rows in RowId order; `fn` returning non-OK stops the scan.
  Status Scan(const std::function<Status(RowId, const Row&)>& fn) const;

  // RowIds with a version visible to `snap`, ascending. Includes rows
  // whose current version is deleted or not yet committed but whose chain
  // still holds a version the snapshot can see. The InRange form keeps
  // begin <= RowId <= end — the pushdown primitive for RowId intervals
  // coming from the annotation interval index.
  std::vector<RowId> VisibleRowIds(const MvccSnapshot& snap) const;
  std::vector<RowId> VisibleRowIdsInRange(RowId begin, RowId end,
                                          const MvccSnapshot& snap) const;

  // --- MVCC commit / garbage collection ------------------------------------
  // Stamps every version event of `row_id` owned by `txn` with commit
  // sequence number `csn`. Idempotent; called once per write-set entry at
  // commit under the engine's writer mutex.
  void CommitRow(RowId row_id, uint64_t txn, uint64_t csn);

  // Discards the newest version event `txn` wrote on `row_id` — one
  // write-set entry: an inserted version disappears (a fresh insert hands
  // its RowId back when no newer one was handed out), an updated or
  // deleted one is replaced by its predecessor. Called newest entry first
  // under the engine's writer mutex.
  void AbortRow(RowId row_id, uint64_t txn);

  // Drops superseded versions whose end CSN is committed and <=
  // `oldest_csn` (no active snapshot can need them), removing their index
  // entries, and retires chain bookkeeping for rows whose current version
  // is visible to every active snapshot. Pass UINT64_MAX to drop
  // everything dead.
  void Vacuum(uint64_t oldest_csn);

  // Live rows plus retained superseded versions — the metric the GC and
  // crash tests watch ("GC must not resurrect or leak versions").
  uint64_t version_count() const;

  // --- secondary indexes ---------------------------------------------------
  // Builds index `name` over the named columns from every version, current
  // or retained; maintained by every subsequent Insert/Update/Delete. Each
  // version owns exactly one entry per index until vacuum or abort removes
  // it. A B+-tree keys on the columns in list order (composite keys); an
  // SP-GiST trie takes exactly one TEXT/SEQUENCE column. Fails when a
  // column is unknown or repeated, or the name is taken on this table.
  Status CreateIndex(const std::string& name,
                     const std::vector<std::string>& columns,
                     IndexKind kind = IndexKind::kBTree);

  // Drops a B+-tree or sequence index by name.
  Status DropIndex(const std::string& name);

  const SecondaryIndex* FindIndex(const std::string& name) const;
  const SequenceIndex* FindSequenceIndex(const std::string& name) const;

  // All indexes, in creation order (the planner's candidate sets).
  const std::vector<std::unique_ptr<SecondaryIndex>>& indexes() const {
    return indexes_;
  }
  const std::vector<std::unique_ptr<SequenceIndex>>& sequence_indexes()
      const {
    return seq_indexes_;
  }

  uint64_t row_count() const;

  // One full scan computing the ANALYZE statistics snapshot: row count
  // plus per-column null count, NDV, min/max, and (for columns whose
  // non-null values are all numeric) an equi-width histogram with
  // `histogram_buckets` buckets.
  Result<TableStats> ComputeStats(size_t histogram_buckets = 16) const;

  // The statistics snapshot ANALYZE stored last, or nullptr before the
  // first ANALYZE. A snapshot goes stale under DML until the next ANALYZE
  // and is dropped with the table. SetStats replaces it; under a writer
  // the prior snapshot (or its absence) comes back on rollback.
  const TableStats* stats() const {
    return stats_.has_value() ? &*stats_ : nullptr;
  }
  void SetStats(TableStats stats);

  // One past the largest RowId ever assigned (the tuple-axis extent).
  RowId next_row_id() const;

  // Recovery: restores the tuple-axis extent recorded in a checkpoint.
  // max(live RowId)+1 underestimates it when the newest rows were deleted;
  // reusing their RowIds would re-attach their old annotations, outdated
  // bits and pending approvals to unrelated new rows.
  void AdvanceNextRowId(RowId next);

  // WAL replay: restores the exact id counter a statement allocated
  // from. Unlike AdvanceNextRowId this can move the counter *down* —
  // group commit writes a transaction's statements to the log at COMMIT,
  // so a record appended earlier can carry a counter captured later.
  void SetNextRowId(RowId next);

  uint64_t SizeBytes() const { return heap_->SizeBytes(); }
  const IoStats& io_stats() const { return heap_->io_stats(); }
  IoStats& io_stats() { return heap_->io_stats(); }

  // --- paged storage -------------------------------------------------------
  bool paged() const { return heap_->paged(); }
  uint32_t heap_page_count() const { return heap_->page_count(); }
  BufferPoolStats buffer_stats() const { return heap_->buffer_stats(); }

  // Basename of the paged heap file ("" for in-memory tables); recorded in
  // the checkpoint manifest so recovery reopens the same incarnation.
  const std::string& heap_file_name() const { return heap_file_name_; }

  // Incremental-checkpoint protocol, delegated to the heap (no-ops for
  // in-memory tables).
  Status CheckpointPrepare(uint64_t gen);
  Status CheckpointCommit();

  // Installs the engine's ambient MVCC context. When `mvcc->writer` is
  // non-null, mutators take the versioned path (row writes roll back
  // through AbortRow) and index DDL and SetStats push a compensation.
  void set_mvcc(MvccState* mvcc) { mvcc_ = mvcc; }

 private:
  Table(TableSchema schema, std::unique_ptr<HeapFile> heap);

  // Recovers rows_ / next_row_id_ from heap contents.
  Status Bootstrap();

  static std::string EncodeRecord(RowId row_id, const Row& row);
  static Result<std::pair<RowId, Row>> DecodeRecord(std::string_view payload);

  // Rejects rows a sequence index could not store (embedded NUL bytes)
  // BEFORE any mutation: a failure halfway through IndexInsert would
  // leave the index families divergent — and the row undeletable, since
  // the trie never received the entry IndexRemove would look for.
  Status CheckIndexable(const Row& row) const;

  // Adds/removes `row`'s entries in every secondary index. IndexRemove
  // visits every index even after a failure and reports the first one.
  Status IndexInsert(RowId row_id, const Row& row);
  Status IndexRemove(RowId row_id, const Row& row);

  // Stores a row that has no current version: in place with no writer,
  // else as a new uncommitted version of `origin`.
  Status StoreNewLocked(RowId row_id, const Row& row, RowOrigin origin);

  // Visits every version, current and retained (index builds).
  Status ScanAllVersions(
      const std::function<Status(RowId, const Row&)>& fn) const;

  // Unlatched bodies — callers hold latch_ (shared for reads, unique for
  // writes). Split out because the mutators call the readers internally
  // and shared_mutex is not recursive.
  Result<RowId> InsertLocked(Row row);
  Status InsertWithRowIdLocked(RowId row_id, Row row);
  Result<Row> GetLocked(RowId row_id) const;
  Status UpdateLocked(RowId row_id, Row row);
  Status DeleteLocked(RowId row_id);
  Status ScanLocked(const std::function<Status(RowId, const Row&)>& fn) const;

  // First-updater-wins check for Update/Delete under an ambient writer.
  Status CheckWriteConflictLocked(RowId row_id, const MvccWriter& w) const;

  // Resolves which version of `row_id` the snapshot sees: 0 = none,
  // 1 = the current heap version, 2 = a chain version (`*node` set).
  int ResolveVisibleLocked(RowId row_id, const MvccSnapshot& snap,
                           const RowVersion** node) const;

  TableSchema schema_;
  std::unique_ptr<HeapFile> heap_;
  std::map<RowId, RecordId> rows_;
  std::map<RowId, RowMvcc> mvcc_rows_;
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_;
  std::vector<std::unique_ptr<SequenceIndex>> seq_indexes_;
  std::optional<TableStats> stats_;
  RowId next_row_id_ = 0;
  MvccState* mvcc_ = nullptr;
  std::string heap_file_name_;   // basename of the paged heap ("" if none)
  mutable std::shared_mutex latch_;
};

}  // namespace bdbms

#endif  // BDBMS_TABLE_TABLE_H_
