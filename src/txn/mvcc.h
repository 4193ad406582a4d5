#ifndef BDBMS_TXN_MVCC_H_
#define BDBMS_TXN_MVCC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace bdbms {

class Table;
class AnnotationTable;

// A consistent point-in-time view of the database under snapshot
// isolation. `csn` is the newest commit sequence number whose effects the
// snapshot sees; `txn_id` identifies the owning transaction so it also
// sees its own uncommitted writes (read-your-own-writes). Captured at
// BEGIN for explicit transactions and per statement in autocommit.
struct MvccSnapshot {
  uint64_t csn = 0;
  uint64_t txn_id = 0;  // 0 = pure reader with no writes of its own
};

// Snapshot and conflict-baseline CSN of a transaction that runs alone (an
// escalated one, or the replay of its statements): it reads every
// committed version plus its own, and no commit can postdate it.
inline constexpr uint64_t kLatestCsn = UINT64_MAX;

// Write-side identity and write set of one in-flight transaction (an
// autocommit statement is an implicit single-statement transaction).
// While a writer is installed in the ambient MvccState, the mutation
// paths in Table/AnnotationTable create versions tagged with `txn_id` and
// record here what they touched, and every mutation of state that has no
// versions pushes a compensation onto `undo`. Commit stamps every entry
// with the commit CSN and drops the compensations; abort discards the
// entries' versions and then runs the compensations, statement by
// statement, newest first. A Mark taken at a statement boundary rolls
// back just the statements after it.
struct MvccWriter {
  uint64_t txn_id = 0;
  uint64_t snapshot_csn = 0;  // first-updater-wins conflict baseline

  // Numbers the transaction's statements. A version remembers the
  // statement that wrote it: a second touch within that statement
  // rewrites it in place, a later statement pushes a new version.
  uint64_t statement = 0;

  // The write set in execution order: one entry per statement that
  // touched a row (annotation), plus one when a statement deletes a
  // version it wrote itself.
  std::vector<std::pair<Table*, uint64_t>> rows;
  std::vector<std::pair<AnnotationTable*, uint64_t>> annotations;

  // Compensations for the unversioned state (catalog entries, storage
  // objects, index DDL, archive flags, grants and principals, the
  // approval log, dependency rules and outdated bits, the deletion log),
  // each undoing one primitive effect. A dropped storage object is parked
  // inside its closure until the transaction settles, so every Table and
  // AnnotationTable that `rows` and `annotations` name stays alive.
  std::vector<std::function<void()>> undo;

  // Write-set position at a statement boundary.
  struct Mark {
    size_t rows = 0;
    size_t annotations = 0;
    size_t undo = 0;
  };

  // Starts the next statement and returns the savepoint before it.
  Mark BeginStatement() {
    ++statement;
    return {rows.size(), annotations.size(), undo.size()};
  }
};

// The ambient MVCC context shared by the engine facade, every manager and
// every storage object. `writer` is non-null exactly while a mutating
// statement executes (live or replayed) — installed and cleared under the
// engine's writer mutex, so mutators never observe a torn pointer. State
// mutated with no writer (snapshot load, direct Table use, a rollback's
// compensations) is written in place, unversioned and unrecorded.
struct MvccState {
  MvccWriter* writer = nullptr;
};

}  // namespace bdbms

#endif  // BDBMS_TXN_MVCC_H_
