#ifndef BDBMS_CORE_DATABASE_H_
#define BDBMS_CORE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "annot/annotation_manager.h"
#include "auth/access_control.h"
#include "auth/approval.h"
#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/rw_latch.h"
#include "dep/dependency_manager.h"
#include "dep/procedure.h"
#include "exec/executor.h"
#include "exec/query_result.h"
#include "prov/provenance.h"
#include "table/table.h"
#include "txn/mvcc.h"
#include "wal/wal.h"
#include "wal/wal_env.h"

namespace bdbms {

class Database;

// Tuning and wiring for a durable database (Database::Open).
struct DurabilityOptions {
  // fsync the WAL after this many committed statements. 1 (the default)
  // is per-statement durability: Execute() returns only once the
  // statement is on stable storage. Larger values batch fsyncs (group
  // commit): up to interval-1 recently committed statements may be lost
  // on a crash, but throughput rises by roughly the same factor
  // (bench/bench_wal.cc).
  uint64_t group_commit_interval = 1;

  // Take an automatic CHECKPOINT after this many logged statements,
  // bounding both log length and recovery replay time. 0 disables
  // auto-checkpointing (CHECKPOINT can still be issued manually).
  uint64_t checkpoint_interval = 1024;

  // Filesystem the WAL and checkpoint-commit steps go through. Null means
  // the default POSIX environment; the crash-injection tests inject a
  // fault-wrapping environment here.
  WalEnv* env = nullptr;

  // Per-table buffer-pool budget, in 8 KiB page frames, for the durable
  // paged row heaps (dir/heap/*.heap). Pages beyond the budget evict LRU,
  // writing dirty pages back first, so tables larger than RAM work. 0 =
  // unbounded (every touched page stays resident).
  size_t buffer_pool_pages = 64;

  // Run on the freshly constructed engine before any recovery. Procedures
  // (ProcedureRegistry) and provenance system agents are registered
  // programmatically, not via SQL, so a database whose log contains
  // CREATE DEPENDENCY statements must re-register the procedures here or
  // recovery fails with the underlying validation error.
  std::function<Status(Database&)> bootstrap;
};

// Counters describing the durability subsystem, for tests and benches.
struct DurabilityStats {
  uint64_t last_lsn = 0;             // newest committed statement's lsn
  uint64_t replayed_on_open = 0;     // statements Open() replayed
  uint64_t checkpoints_taken = 0;    // by this instance (manual + auto)
  uint64_t checkpoint_failures = 0;  // failed auto-checkpoints (retried)
  uint64_t wal_bytes_appended = 0;   // by this instance
  uint64_t wal_syncs = 0;            // fsyncs issued on the log
  uint64_t statements_since_checkpoint = 0;
};

// The bdbms engine facade — the public API of the library.
//
//   bdbms::Database db;
//   db.Execute("CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence SEQUENCE)");
//   db.Execute("CREATE ANNOTATION TABLE GAnnotation ON Gene");
//   db.Execute("ADD ANNOTATION TO Gene.GAnnotation "
//              "VALUE '<Annotation>curated</Annotation>' "
//              "ON (SELECT G.GSequence FROM Gene G)");
//   auto r = db.Execute("SELECT GID FROM Gene ANNOTATION(GAnnotation)");
//
// One Database instance wires together the annotation manager, provenance
// manager, dependency manager and authorization manager of the paper's
// architecture (Figure: Section 2) over the paged storage engine.
//
// A default-constructed Database is memory-only and evaporates with the
// process. Database::Open(dir) attaches a durable store: every committed
// mutating statement is journaled to a CRC-framed write-ahead log before
// Execute() returns, checkpoints bound replay, and Open() recovers the
// full engine state — tables, annotations, dependencies, approvals,
// grants — from the newest valid checkpoint plus the log tail
// (docs/durability.md).
//
// Concurrency (docs/transactions.md): Execute() is safe to call from any
// number of threads. Statements run under snapshot-isolation MVCC:
//
//  - Read-only statements take a shared hold on the engine gate, capture
//    a snapshot (the newest commit sequence number), and never block on
//    — or are blocked by — concurrent DML. They see exactly the commits
//    with CSN <= their snapshot.
//  - INSERT/UPDATE/DELETE (and SELECT-form ADD ANNOTATION) on tables not
//    involved in dependency rules or content approval also run under the
//    shared gate, versioning superseded rows instead of overwriting
//    them. Write-write conflicts resolve first-updater-wins: the loser
//    fails with a serialization-failure status and, inside an explicit
//    transaction, dooms it (only ROLLBACK/COMMIT-as-rollback is accepted
//    afterwards).
//  - Statements that drive cross-cutting machinery (DDL, dependency
//    propagation into other tables, approvals, grants, ANALYZE, ...)
//    escalate to the exclusive side of the gate and drain concurrent
//    transactions. From then on the transaction runs alone: it still
//    writes versions, but reads the latest state.
//
// Commit order is journaled: each WAL frame carries its commit CSN and
// each statement its read snapshot, so recovery replays the exact
// visibility decisions of the original run. Superseded versions are
// garbage-collected as soon as no live snapshot can need them.
//
// The programmatic manager accessors below bypass the gate and remain
// single-threaded, like the CIDR'07 prototype.
class Database {
 public:
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Opens (creating if needed) a durable database rooted at directory
  // `dir` (layout: dir/wal.log + dir/checkpoint.bdb). Recovers state from
  // the newest valid checkpoint and the committed prefix of the log; a
  // torn or corrupted log tail is discarded (that is the expected crash
  // shape), while a corrupted checkpoint fails the open with Corruption —
  // silently dropping a checkpoint would lose acknowledged commits.
  static Result<std::unique_ptr<Database>> Open(const std::string& dir,
                                                DurabilityOptions options = {});

  // Parses and executes one A-SQL statement as `user`. "admin" is the
  // built-in superuser. On a durable database, a successful mutating
  // statement is appended to the WAL and fsynced per
  // DurabilityOptions::group_commit_interval before this returns; an
  // error from the journaling path is the caller's signal that the
  // statement may not survive a crash.
  //
  // Every statement is atomic: a mid-statement failure discards the row
  // and annotation versions it wrote and runs the compensations it
  // recorded for the rest of its partial effects before the error
  // returns.
  //
  // `session` identifies the issuing session for transaction ownership
  // (BEGIN/COMMIT/ROLLBACK); callers without a Session object share one
  // implicit session. Any number of sessions may hold open transactions
  // concurrently; each sees its own snapshot. A statement that requires
  // exclusive escalation waits for other open transactions to finish
  // first (and fails with a serialization-failure status if two open
  // transactions try to escalate at once).
  Result<QueryResult> Execute(std::string_view sql,
                              const std::string& user = "admin",
                              const void* session = nullptr);

  // True when `session` (nullptr = the implicit session) has an open
  // transaction.
  bool InTransaction(const void* session = nullptr) const;

  // Snapshots the entire engine state to checkpoint.bdb (write-temp +
  // fsync + atomic rename + directory fsync) and truncates the WAL. Also
  // available as the A-SQL statement CHECKPOINT. Waits for open
  // transactions to drain (uncommitted effects never reach the
  // checkpoint file).
  Status Checkpoint();

  // Flushes pending group-commit WAL records, releases the directory
  // lock, and latches the instance: later mutating statements fail with
  // FailedPrecondition instead of silently running memory-only. The
  // error-reporting counterpart of the destructor, which can only sync
  // best-effort; a sync failure is reported by the first Close call
  // only (the instance is latched either way, and reopening the
  // directory is how the caller recovers).
  Status Close();

  bool is_durable() const { return dur_ != nullptr; }
  DurabilityStats durability_stats() const;

  // Sum of Table::version_count() over all tables: live rows plus the
  // superseded versions still retained — the metric the GC tests watch
  // ("vacuum must not resurrect or leak versions").
  uint64_t version_count() const;

  // --- programmatic access to the managers (examples, tests, benches) ----
  Catalog& catalog() { return catalog_; }
  AnnotationManager& annotations() { return annotations_; }
  ProvenanceManager& provenance() { return provenance_; }
  ProcedureRegistry& procedures() { return procedures_; }
  DependencyManager& dependencies() { return dependencies_; }
  AccessControl& access() { return access_; }
  ApprovalManager& approvals() { return approvals_; }
  LogicalClock& clock() { return clock_; }

  // Storage object of a user table (the catalog's).
  Result<Table*> GetTable(const std::string& name);

  // Rows removed via ADD ANNOTATION ... ON (DELETE ...), with the
  // annotation explaining why (paper §3.2).
  const std::vector<DeletionLogEntry>& DeletionLog(const std::string& table);

  // Runs the dependency engine's reaction to an externally performed cell
  // update (used by code driving Table objects directly).
  Result<DependencyManager::PropagationReport> NotifyCellUpdated(
      const std::string& table, RowId row, size_t col);

 private:
  // State of one transaction. An explicit one (BEGIN) lives in txns_
  // keyed by session token. An autocommit statement runs as an implicit
  // one: stack-local, never registered, committed by the statement's own
  // writer_mu_ hold.
  struct TxnState {
    bool implicit = false;
    uint64_t txn_id = 0;
    // Captured at BEGIN (implicit: per statement); {kLatestCsn, txn_id}
    // once escalated.
    MvccSnapshot snapshot;
    MvccWriter writer;  // write set: versions and compensations
    // Where each executed statement began in the write set.
    std::vector<MvccWriter::Mark> savepoints;
    // Its executed statements, buffered for its WAL frame (the WAL never
    // sees uncommitted work); lsns are assigned at commit.
    std::vector<WalStatement> pending;
    uint64_t clock_at_begin = 0;
    uint64_t clock_at_escalation = 0;
    uint64_t epoch_at_begin = 0;  // mutation_epoch_ at BEGIN
    uint64_t own_mutations = 0;   // committed statements of this txn
    bool escalated = false;       // holds the gate exclusively until end
    bool doomed = false;          // serialization failure; rolled back
  };

  // How a mutating statement executes.
  enum class StmtClass {
    kConcurrentDml,  // under the shared gate
    kExclusive,      // escalates: drains transactions, then runs alone
  };

  ExecContext MakeContext();

  // Classification of a mutating statement; called under the shared gate
  // (rule/approval changes are exclusive, so the answer is stable for
  // the duration of the hold).
  StmtClass Classify(const Statement& stmt) const;
  bool TableInvolved(const std::string& table) const;

  Result<QueryResult> BeginTxn(const void* token);
  // COMMIT (`commit`) or ROLLBACK of the session's open transaction.
  Result<QueryResult> FinishTxn(const void* token, bool commit);
  // Unregisters the transaction (waking escalation/checkpoint waiters),
  // releases an escalated one's exclusive gate hold, and vacuums.
  void EndTxn(const void* token);
  TxnState* FindTxn(const void* token) const;

  // The statement runner, for explicit and implicit transactions alike.
  // Chooses the gate mode once: reads take the shared gate (none once
  // escalated); mutating statements classify under the shared gate and
  // either run versioned under that hold or escalate to the exclusive
  // side. An implicit transaction commits before this returns (the
  // caller releases its exclusive hold, if any).
  Result<QueryResult> RunStatement(TxnState& t, const Statement& stmt,
                                   std::string_view sql,
                                   const std::string& user);
  // Executes one mutating statement of `t` in a single writer_mu_ hold,
  // with a statement-level savepoint; the caller holds the gate.
  Result<QueryResult> RunMutation(TxnState& t, const Statement& stmt,
                                  std::string_view sql,
                                  const std::string& user);
  // The execution kernel shared with WAL replay: runs `stmt` reading at
  // `snapshot`, with `writer` installed for a mutating statement (null
  // for a read). The writer is cleared again before this returns, so a
  // rollback never runs with one installed.
  Result<QueryResult> ExecuteUnder(const Statement& stmt,
                                   const std::string& user,
                                   const MvccSnapshot& snapshot,
                                   MvccWriter* writer);

  // FailedPrecondition once the durable store is latched unusable.
  Status WritableLocked() const;

  // Gives `t` a fresh txn id and snapshot and records the clock/epoch
  // marks rollback rewinds to. Caller holds writer_mu_ (and txn_mu_ when
  // `t` is being registered).
  void BeginLocked(TxnState& t);

  // Journals `t` (if durable and it executed anything), then stamps and
  // publishes its commit CSN and drops its compensations. A journal
  // failure rolls `t` back instead. Caller holds writer_mu_.
  Status CommitLocked(TxnState& t);

  // Rolls the whole transaction back in memory and marks it doomed (only
  // ROLLBACK / COMMIT-as-rollback is accepted afterwards, and its
  // snapshot stops pinning GC). Caller holds writer_mu_.
  void DoomLocked(TxnState& t);

  // Rolls back every statement of `t` after its first `keep` ones, newest
  // first: the statement's versions are discarded, then its compensations
  // run, newest first. Statement by statement, so each statement's
  // versions meet the tables and indexes that existed when it ran. No
  // writer is installed, so a compensation records nothing. Caller holds
  // writer_mu_.
  void RollbackToLocked(TxnState& t, size_t keep);

  // Acquires the exclusive side of the gate and waits until no
  // transaction other than `self` is open (running alone at the latest
  // snapshot and a full vacuum are only sound with no foreign snapshot
  // alive). An escalating explicit transaction fails with a
  // serialization-failure status instead of deadlocking when another one
  // is already draining; every other caller (`self` null or implicit)
  // waits.
  Status LockExclusiveNoTxns(const TxnState* self);

  // Settles every row and annotation entry of the write set past `from`,
  // newest first — commits it with `csn`, or, when `csn` is 0, aborts it
  // (discards its version) — then truncates them to `from`. Every storage
  // object they name is alive: a dropped one stays parked in a
  // compensation until the transaction settles. The compensations are
  // the caller's. Caller holds writer_mu_.
  void SettleWritesLocked(MvccWriter& writer, MvccWriter::Mark from,
                          uint64_t csn);

  // Fills `bases` with every table's next_row_id and every annotation
  // table's next_id (aborted transactions burn ids without leaving WAL
  // entries, so replay restores the counters explicitly). Replay sets
  // them exactly, or (`exact` false) only advances them.
  void CaptureBases(WalIdBases* bases) const;
  void ApplyReplayBases(const WalIdBases& bases, bool exact);

  // min snapshot CSN across open transactions and in-flight readers;
  // caller holds txn_mu_.
  uint64_t ComputeOldestCsnLocked() const;
  void VacuumAllLocked(uint64_t oldest_csn);  // caller holds writer_mu_
  void TryVacuumLocked();                     // caller holds writer_mu_
  void TryVacuum();                           // try-locks writer_mu_

  // Restores the clock after a whole-transaction rollback when no
  // foreign mutation interleaved (fingerprint parity with PR-6);
  // caller holds writer_mu_.
  void ApplyRollbackClockPolicy(const TxnState& t);

  // Journals a committing transaction as one WAL frame with commit CSN
  // `csn` (0 when it wrote no versions), moving its statements out, and
  // drives the fsync / deferred-checkpoint cadence: an implicit one on
  // the group-commit cadence, an explicit one with its own fsync.
  Status JournalLocked(TxnState& t, uint64_t csn);

  // Runs a deferred auto-checkpoint if one is due and no transaction is
  // open. Called after the gate hold of the triggering statement ends.
  void MaybeDeferredCheckpoint();

  // Checkpoint body; the caller holds the gate exclusively + writer_mu_.
  Status CheckpointLocked();

  // Latches the durable store unusable after a write-path failure left
  // the log in an untrustworthy state; every later commit fails with
  // FailedPrecondition until the database is reopened (recovery trims
  // the torn tail).
  void TearDownWal();

  // Re-executes one WAL frame as one transaction: each statement with its
  // recorded user, clock value, id bases and snapshot, then commits the
  // write set with the frame's CSN and advances the id counters to its
  // end bases. A frame that wrote but journals CSN 0 is Corruption.
  Status ReplayFrame(const WalFrame& frame);

  // Checkpoint payload (de)serialization over the full engine state;
  // defined in src/wal/checkpoint.cc next to the file format. `gen` is the
  // checkpoint generation the paged heaps staged their dirty pages under.
  // The payload replaces the contents of `*out`.
  Status SerializeSnapshot(uint64_t last_lsn, uint64_t gen,
                           std::string* out) const;
  Status LoadSnapshot(std::string_view payload, uint64_t* last_lsn);

  // Durable-mode state; null for memory-only databases.
  struct Durable {
    std::string dir;
    DurabilityOptions options;
    WalEnv* env = nullptr;
    std::unique_ptr<DirLock> lock;  // exclusive dir/LOCK, lifetime-held
    std::unique_ptr<WalWriter> wal;
    uint64_t last_lsn = 0;
    uint64_t replayed_on_open = 0;
    uint64_t checkpoints_taken = 0;
    uint64_t checkpoint_failures = 0;
    uint64_t statements_since_checkpoint = 0;
    uint64_t wal_bytes_total = 0;  // across WalWriter reopens
    uint64_t wal_syncs_total = 0;
    // Checkpoint payload buffer, reused across checkpoints: a fresh
    // megabyte-sized string per checkpoint, freed on whichever worker
    // thread ran it, stays resident in that thread's malloc arena.
    std::string snapshot;

    std::string WalPath() const;
  };

  // Paged-heap wiring of a durable database; null for memory-only ones.
  // Separate from `dur_` because recovery creates paged tables while WAL
  // logging is still off (dur_ is installed only after replay).
  struct PagedStorage {
    WalEnv* env = nullptr;
    std::string heap_dir;  // <dir>/heap
    size_t pool_pages = 64;
    // Monotonic counter naming heap files (<table>.<counter>.heap);
    // persisted in the manifest so reopened incarnations never collide
    // with files parked by compensations or awaiting GC.
    uint64_t next_heap_file = 0;
    // Generation of the last committed checkpoint; each attempt stages
    // dirty pages under gen+1 and records it on success.
    uint64_t checkpoint_gen = 0;
  };

  // Creates (replacing any stale files) the paged heap of a new table:
  // the storage factory CREATE TABLE uses on a durable database.
  Result<std::unique_ptr<Table>> CreatePagedTable(const TableSchema& schema);

  LogicalClock clock_;
  Catalog catalog_;
  AnnotationManager annotations_;
  ProvenanceManager provenance_;
  ProcedureRegistry procedures_;
  DependencyManager dependencies_;
  AccessControl access_;
  ApprovalManager approvals_;
  std::map<std::string, std::vector<DeletionLogEntry>> deletion_log_;
  std::unique_ptr<Durable> dur_;
  std::unique_ptr<PagedStorage> paged_;

  // Ambient MVCC context shared with every manager and storage object. A
  // transaction's writer is installed exactly while one of its mutating
  // statements executes (under writer_mu_); that is what makes the
  // mutation paths record into its write set.
  MvccState mvcc_state_;

  // The engine gate: shared for reads and concurrent DML, exclusive for
  // escalated transactions and checkpoints. Writer-preferring, so an
  // escalation cannot starve behind a stream of readers, and not
  // thread-affine (an escalated transaction may release from a different
  // pool thread than it acquired on).
  RwLatch gate_;

  // Serializes every mutating execution, commit, rollback and vacuum.
  // Lock order: gate_ -> writer_mu_ -> txn_mu_ -> storage latches.
  mutable std::mutex writer_mu_;

  // Guards the transaction registry, reader-snapshot set and escalation
  // counter; txn_cv_ signals registry shrinkage to draining waiters.
  mutable std::mutex txn_mu_;
  std::condition_variable txn_cv_;
  std::map<const void*, std::unique_ptr<TxnState>> txns_;
  std::multiset<uint64_t> read_snapshots_;  // in-flight read statements
  int escalations_waiting_ = 0;

  std::atomic<uint64_t> next_txn_id_{1};
  // Commit sequence numbers live on their own counter, never the logical
  // clock: commits must not perturb the clock values statements observe
  // (replay and the COMMIT-equals-autocommit equivalence depend on it).
  std::atomic<uint64_t> next_csn_{1};
  std::atomic<uint64_t> last_completed_csn_{0};

  // Bumped (under writer_mu_) by every committed mutating statement;
  // lets rollback detect whether foreign mutations interleaved.
  uint64_t mutation_epoch_ = 0;

  // Set when the WAL append path decides an auto-checkpoint is due;
  // consumed by MaybeDeferredCheckpoint() once the gate is free.
  std::atomic<bool> checkpoint_due_{false};
};

}  // namespace bdbms

#endif  // BDBMS_CORE_DATABASE_H_
