#include "core/database.h"

#include <algorithm>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <variant>

#include "sql/parser.h"
#include "wal/checkpoint.h"

namespace bdbms {

Database::Database()
    : annotations_(&clock_),
      provenance_(&annotations_),
      dependencies_(&catalog_, &procedures_),
      approvals_(&catalog_, &access_, &clock_) {
  // Every manager records its compensations into the currently bound undo
  // log (the idle log by default; a transaction's private log while one
  // of its statements runs), so a statement or transaction rollback
  // unwinds all unversioned engine state; row and annotation versions
  // roll back through the transaction's write set.
  catalog_.set_undo_log(&undo_);
  annotations_.set_undo_log(&undo_);
  dependencies_.set_undo_log(&undo_);
  access_.set_undo_log(&undo_);
  approvals_.set_undo_log(&undo_);
  annotations_.set_mvcc(&mvcc_state_);
}

Database::~Database() {
  if (dur_ && dur_->wal) {
    // Best-effort: a destructor cannot report a failed fsync. Call
    // Close() before destruction when the error matters.
    (void)dur_->wal->Sync();
  }
}

std::string Database::Durable::WalPath() const {
  return dir + "/" + kWalFileName;
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table " + name);
  }
  return it->second.get();
}

DependencyManager::TableResolver Database::Resolver() {
  return [this](const std::string& name) { return GetTable(name); };
}

const std::vector<DeletionLogEntry>& Database::DeletionLog(
    const std::string& table) {
  return deletion_log_[table];
}

Result<DependencyManager::PropagationReport> Database::NotifyCellUpdated(
    const std::string& table, RowId row, size_t col) {
  return dependencies_.OnCellUpdated(table, row, col, Resolver());
}

Result<std::unique_ptr<Table>> Database::CreatePagedTable(
    const TableSchema& schema) {
  const std::string path = paged_->heap_dir + "/" + schema.name() + "." +
                           std::to_string(paged_->next_heap_file++) + ".heap";
  // A dead orphan from an earlier incarnation (GC runs only at open) may
  // occupy the name; start from a clean slate.
  for (const std::string& stale :
       {path, Pager::SpillPath(path), Pager::JournalPath(path)}) {
    if (paged_->env->FileExists(stale)) {
      BDBMS_RETURN_IF_ERROR(paged_->env->RemoveFile(stale));
    }
  }
  BDBMS_ASSIGN_OR_RETURN(
      std::unique_ptr<Table> t,
      Table::OpenPaged(schema, paged_->env, path, paged_->pool_pages));
  t->set_readahead_pages(paged_->readahead_pages);
  return t;
}

ExecContext Database::MakeContext() {
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.annotations = &annotations_;
  ctx.provenance = &provenance_;
  ctx.dependencies = &dependencies_;
  ctx.approvals = &approvals_;
  ctx.access = &access_;
  ctx.clock = &clock_;
  ctx.tables = [this](const std::string& name) { return GetTable(name); };
  ctx.create_table = [this](const TableSchema& schema) -> Status {
    std::unique_ptr<Table> t;
    if (paged_ != nullptr) {
      BDBMS_ASSIGN_OR_RETURN(t, CreatePagedTable(schema));
    } else {
      BDBMS_ASSIGN_OR_RETURN(t, Table::CreateInMemory(schema));
    }
    UndoLog* undo = active_undo_.load(std::memory_order_acquire);
    t->set_undo_log(undo);
    t->set_mvcc(&mvcc_state_);
    if (undo->recording()) {
      undo->Record("create table storage " + schema.name(),
                   [this, name = schema.name()] { tables_.erase(name); });
    }
    tables_[schema.name()] = std::move(t);
    return Status::Ok();
  };
  ctx.drop_table = [this](const std::string& name) -> Status {
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("no table storage for " + name);
    }
    UndoLog* undo = active_undo_.load(std::memory_order_acquire);
    if (undo->recording()) {
      // Park the storage object instead of destroying it: ROLLBACK
      // re-inserts it wholesale, rows and indexes intact, no rebuild.
      auto held =
          std::make_shared<std::unique_ptr<Table>>(std::move(it->second));
      undo->Record("drop table storage " + name,
                   [this, name, held] { tables_[name] = std::move(*held); });
    }
    tables_.erase(it);
    return Status::Ok();
  };
  ctx.deletion_log = &deletion_log_;
  ctx.undo = active_undo_.load(std::memory_order_acquire);
  return ctx;
}

bool Database::InTransaction(const void* session) const {
  const void* token = session ? session : static_cast<const void*>(this);
  return FindTxn(token) != nullptr;
}

Database::TxnState* Database::FindTxn(const void* token) const {
  std::lock_guard<std::mutex> lock(txn_mu_);
  auto it = txns_.find(token);
  return it == txns_.end() ? nullptr : it->second.get();
}

bool Database::TableInvolved(const std::string& table) const {
  if (approvals_.configs().count(table) != 0) return true;
  for (const auto& [name, rule] : dependencies_.rules()) {
    if (rule.target.table == table) return true;
    for (const ColumnRef& src : rule.sources) {
      if (src.table == table) return true;
    }
  }
  return false;
}

Database::StmtClass Database::Classify(const Statement& stmt) const {
  // DML runs under the shared gate as long as the target table drives no
  // cross-cutting machinery: no dependency rule reads or writes it, and
  // no approval config intercepts its writes. Everything else — DDL,
  // grants, approvals, ANALYZE, dependency-propagating updates —
  // escalates to run alone.
  if (const auto* ins = std::get_if<InsertStmt>(&stmt.node)) {
    return TableInvolved(ins->table) ? StmtClass::kExclusive
                                     : StmtClass::kConcurrentDml;
  }
  if (const auto* upd = std::get_if<UpdateStmt>(&stmt.node)) {
    return TableInvolved(upd->table) ? StmtClass::kExclusive
                                     : StmtClass::kConcurrentDml;
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt.node)) {
    return TableInvolved(del->table) ? StmtClass::kExclusive
                                     : StmtClass::kConcurrentDml;
  }
  if (const auto* add = std::get_if<AddAnnotationStmt>(&stmt.node)) {
    const bool select_form =
        add->on == nullptr || std::holds_alternative<SelectStmt>(add->on->node);
    if (!select_form) return StmtClass::kExclusive;
    for (const auto& [table, ann] : add->targets) {
      if (TableInvolved(table)) return StmtClass::kExclusive;
    }
    return StmtClass::kConcurrentDml;
  }
  return StmtClass::kExclusive;
}

Result<QueryResult> Database::Execute(std::string_view sql,
                                      const std::string& user,
                                      const void* session) {
  const void* token = session ? session : static_cast<const void*>(this);
  BDBMS_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));

  if (const auto* txn = std::get_if<TxnStmt>(&stmt.node)) {
    switch (txn->kind) {
      case TxnStmt::Kind::kBegin:
        return BeginTxn(token);
      case TxnStmt::Kind::kCommit: {
        auto r = FinishTxn(token, /*commit=*/true);
        MaybeDeferredCheckpoint();
        return r;
      }
      case TxnStmt::Kind::kRollback:
        return FinishTxn(token, /*commit=*/false);
    }
  }

  TxnState* t = FindTxn(token);

  // CHECKPOINT is handled here, not in the executor: it operates on the
  // WAL/checkpoint files the facade owns, and must never itself be
  // journaled (replaying it would re-truncate the log mid-recovery).
  // Without a durable store it falls through to the executor's no-op.
  if (std::holds_alternative<CheckpointStmt>(stmt.node)) {
    {
      std::shared_lock g(gate_);
      if (!access_.IsSuperuser(user)) {
        return Status::PermissionDenied("only superusers may checkpoint");
      }
    }
    if (t) {
      // A checkpoint snapshots committed state; uncommitted transaction
      // effects must never reach the checkpoint file.
      return Status::FailedPrecondition(
          "CHECKPOINT cannot run inside a transaction");
    }
    if (dur_) {
      BDBMS_RETURN_IF_ERROR(Checkpoint());
      const uint64_t lsn = durability_stats().last_lsn;
      QueryResult result;
      result.message = "CHECKPOINT complete (lsn " + std::to_string(lsn) + ")";
      return result;
    }
  }

  if (t) return RunStatement(*t, stmt, sql, user);

  // Autocommit: the statement runs as an implicit single-statement
  // transaction, committed before RunStatement returns.
  TxnState implicit;
  implicit.implicit = true;
  auto result = RunStatement(implicit, stmt, sql, user);
  if (implicit.escalated) gate_.unlock();
  MaybeDeferredCheckpoint();
  return result;
}

Result<QueryResult> Database::RunStatement(TxnState& t, const Statement& stmt,
                                           std::string_view sql,
                                           const std::string& user) {
  if (t.doomed) {
    return Status::FailedPrecondition(
        "transaction is aborted, commands ignored until end of "
        "transaction block");
  }
  if (!StatementMutatesState(stmt)) {
    // An escalated transaction already owns the gate exclusively.
    if (t.escalated) return ExecuteUnder(stmt, user, t.snapshot, nullptr);
    std::shared_lock g(gate_);
    if (!t.implicit) return ExecuteUnder(stmt, user, t.snapshot, nullptr);
    {
      // Capture + registration are one atomic step under txn_mu_: the GC
      // computes the oldest live snapshot under the same mutex, so a
      // version can never be vacuumed between a reader choosing its CSN
      // and announcing it. Reads never take writer_mu_.
      std::lock_guard<std::mutex> lock(txn_mu_);
      t.snapshot.csn = last_completed_csn_.load(std::memory_order_acquire);
      read_snapshots_.insert(t.snapshot.csn);
    }
    auto result = ExecuteUnder(stmt, user, t.snapshot, nullptr);
    {
      std::lock_guard<std::mutex> lock(txn_mu_);
      read_snapshots_.erase(read_snapshots_.find(t.snapshot.csn));
    }
    TryVacuum();
    return result;
  }
  if (!t.escalated) {
    {
      // Classification happens under the shared gate (rule/approval
      // changes are exclusive, so the answer cannot shift mid-hold), and
      // versioned DML executes under that same hold.
      std::shared_lock g(gate_);
      if (Classify(stmt) == StmtClass::kConcurrentDml) {
        return RunMutation(t, stmt, sql, user);
      }
    }
    // The statement needs the exclusive path: escalate. The shared hold
    // above is released first — waiting for exclusive while holding
    // shared would deadlock on ourselves.
    Status escalated = LockExclusiveNoTxns(&t);
    if (!escalated.ok()) {
      std::lock_guard<std::mutex> w(writer_mu_);
      DoomLocked(t);
      return escalated;
    }
    t.escalated = true;
    std::lock_guard<std::mutex> w(writer_mu_);
    t.clock_at_escalation = clock_.Peek();
    // Only this transaction is alive: from here on it reads the latest
    // state and cannot lose a write conflict (an implicit one gets the
    // same from BeginLocked). Every retained version is garbage; its own
    // uncommitted versions survive — their events carry a txn id, not a
    // CSN, so the vacuum keeps them.
    t.snapshot.csn = t.writer.snapshot_csn = kLatestCsn;
    VacuumAllLocked(UINT64_MAX);
  }
  return RunMutation(t, stmt, sql, user);
}

Result<QueryResult> Database::RunMutation(TxnState& t, const Statement& stmt,
                                          std::string_view sql,
                                          const std::string& user) {
  // Caller holds the gate: shared for concurrent DML, exclusive once the
  // transaction escalated. writer_mu_ serializes this against other
  // mutating statements, commits and vacuums; readers sail past on table
  // latches and snapshot visibility. An implicit transaction takes its
  // snapshot, executes, journals and stamps in this one hold, so
  // concurrent autocommit writers never see each other's uncommitted
  // versions.
  std::lock_guard<std::mutex> w(writer_mu_);
  // The latch must refuse BEFORE execution: applying the statement in
  // memory and then reporting FailedPrecondition would let a retrying
  // caller stack up unjournaled in-memory effects.
  BDBMS_RETURN_IF_ERROR(WritableLocked());
  if (t.implicit) BeginLocked(t);
  const uint64_t clock_before = clock_.Peek();
  PendingStatement ps;
  if (dur_) CaptureBases(&ps);
  BindUndo(&t.undo);
  t.savepoints.push_back({t.undo.MarkPoint(), t.writer.BeginStatement()});
  auto result = ExecuteUnder(stmt, user, t.snapshot, &t.writer);
  if (!result.ok()) {
    if (t.implicit || result.status().IsSerializationFailure()) {
      // First updater wins, and this transaction lost: per snapshot
      // isolation the whole transaction aborts, not just the statement.
      // An implicit transaction is just this statement.
      DoomLocked(t);
    } else {
      // Statement-level savepoint: undo this statement's effects only;
      // the transaction stays open.
      RollbackToLocked(t, t.savepoints.size() - 1);
      clock_.Reset(clock_before);
      BindUndo(&undo_);
    }
    return result.status();
  }
  BindUndo(&undo_);
  ++mutation_epoch_;
  ++t.own_mutations;
  if (dur_) {
    // Replay reads at the journaled snapshot (`versioned` = 1), or at the
    // latest state for a statement that ran escalated (0).
    ps.user = user;
    ps.sql = std::string(sql);
    ps.clock_before = clock_before;
    ps.versioned = t.escalated ? 0 : 1;
    ps.snapshot = t.escalated ? 0 : t.snapshot.csn;
    t.pending.push_back(std::move(ps));
  }
  if (t.implicit) {
    BDBMS_RETURN_IF_ERROR(CommitLocked(t));
    TryVacuumLocked();
  }
  return result;
}

Result<QueryResult> Database::ExecuteUnder(const Statement& stmt,
                                           const std::string& user,
                                           const MvccSnapshot& snapshot,
                                           MvccWriter* writer) {
  // Only mutating statements (under writer_mu_) install a writer; a
  // reader must leave the ambient one alone.
  if (writer) mvcc_state_.writer = writer;
  ExecContext ctx = MakeContext();
  ctx.snapshot = snapshot;
  Executor executor(std::move(ctx), user);
  auto result = executor.Execute(stmt);
  if (writer) mvcc_state_.writer = nullptr;
  return result;
}

Status Database::WritableLocked() const {
  if (dur_ && !dur_->wal) {
    return Status::FailedPrecondition(
        "durable store is unusable after a write failure; reopen");
  }
  return Status::Ok();
}

void Database::BeginLocked(TxnState& t) {
  t.txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t csn =
      t.escalated ? kLatestCsn
                  : last_completed_csn_.load(std::memory_order_acquire);
  t.snapshot = MvccSnapshot{csn, t.txn_id};
  t.writer.txn_id = t.txn_id;
  t.writer.snapshot_csn = csn;
  t.clock_at_begin = clock_.Peek();
  t.epoch_at_begin = mutation_epoch_;
  t.undo.Begin();
}

Result<QueryResult> Database::BeginTxn(const void* token) {
  if (FindTxn(token)) {
    return Status::FailedPrecondition("transaction already in progress");
  }
  // writer_mu_ keeps the durable latch, clock and epoch reads consistent
  // with any in-flight commit; BEGIN never touches the gate, so any
  // number of transactions may be open at once.
  std::lock_guard<std::mutex> w(writer_mu_);
  BDBMS_RETURN_IF_ERROR(WritableLocked());
  auto t = std::make_unique<TxnState>();
  {
    // Snapshot capture + registration are one step under txn_mu_, as
    // for a read statement.
    std::lock_guard<std::mutex> lock(txn_mu_);
    BeginLocked(*t);
    txns_[token] = std::move(t);
  }
  QueryResult result;
  result.message = "BEGIN";
  return result;
}

Result<QueryResult> Database::FinishTxn(const void* token, bool commit) {
  TxnState* t = FindTxn(token);
  if (!t) {
    return Status::FailedPrecondition("no transaction in progress");
  }
  // A doomed transaction was already rolled back at the conflict; COMMIT
  // merely closes it (PostgreSQL reports ROLLBACK here too).
  const uint64_t statements = t->own_mutations;
  Status s = Status::Ok();
  if (!t->doomed) {
    std::shared_lock<RwLatch> g;  // an escalated txn holds exclusive
    if (!t->escalated) g = std::shared_lock(gate_);
    std::lock_guard<std::mutex> w(writer_mu_);
    if (commit) {
      s = CommitLocked(*t);
    } else {
      DoomLocked(*t);
    }
  }
  const bool committed = !t->doomed;
  EndTxn(token);
  BDBMS_RETURN_IF_ERROR(s);
  QueryResult result;
  if (!committed) {
    result.message = "ROLLBACK";
  } else {
    result.message = "COMMIT (" + std::to_string(statements) +
                     (statements == 1 ? " statement)" : " statements)");
  }
  return result;
}

Status Database::CommitLocked(TxnState& t) {
  const bool wrote = !t.writer.rows.empty() || !t.writer.annotations.empty();
  const uint64_t csn =
      wrote ? next_csn_.fetch_add(1, std::memory_order_relaxed) : 0;
  if (dur_ && !t.pending.empty()) {
    Status logged = JournalLocked(t, csn);
    if (!logged.ok()) {
      // The journal rejected the transaction, so it must not commit in
      // memory either: unwind everything and report the failure.
      DoomLocked(t);
      return logged;
    }
  }
  // Journal first, then stamp and publish. Stamp before Stop(): a storage
  // object parked by a DROP lives inside the undo log until Stop()
  // releases it, and the stamping pass needs the liveness filter to
  // compare against it.
  SettleWritesLocked(t.writer, {}, csn);
  t.savepoints.clear();
  t.undo.Stop();
  if (wrote) last_completed_csn_.store(csn, std::memory_order_release);
  return Status::Ok();
}

void Database::EndTxn(const void* token) {
  bool escalated = false;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = txns_.find(token);
    if (it == txns_.end()) return;
    escalated = it->second->escalated;
    txns_.erase(it);
    // Wake escalation/checkpoint drains waiting for the registry to
    // empty out.
    txn_cv_.notify_all();
  }
  if (escalated) gate_.unlock();
  TryVacuum();  // retire versions the finished snapshot was pinning
}

void Database::DoomLocked(TxnState& t) {
  BindUndo(&t.undo);
  RollbackToLocked(t, 0);
  t.undo.Stop();
  BindUndo(&undo_);
  t.pending.clear();
  ApplyRollbackClockPolicy(t);
  // The doomed flag also un-pins the transaction's snapshot from GC
  // (ComputeOldestCsnLocked skips doomed entries), so an abandoned
  // conflicted session cannot stall version reclamation.
  t.doomed = true;
}

void Database::RollbackToLocked(TxnState& t, size_t keep) {
  while (t.savepoints.size() > keep) {
    const Savepoint sp = t.savepoints.back();
    t.savepoints.pop_back();
    SettleWritesLocked(t.writer, sp.writes, 0);
    t.undo.RollbackTo(sp.undo);
  }
}

Status Database::LockExclusiveNoTxns(const TxnState* self) {
  // Only an explicit transaction can be drained by another escalation;
  // everyone else simply waits.
  const bool may_abort = self != nullptr && !self->implicit;
  if (may_abort) {
    std::lock_guard<std::mutex> lock(txn_mu_);
    if (escalations_waiting_ > 0) {
      // Two open transactions draining each other would deadlock; the
      // later one aborts instead.
      return Status::SerializationFailure(
          "serialization failure, retry transaction (concurrent "
          "transaction is escalating to exclusive)");
    }
    ++escalations_waiting_;
  }
  for (;;) {
    gate_.lock();
    std::unique_lock<std::mutex> lock(txn_mu_);
    bool others = false;
    for (const auto& [tok, txn] : txns_) {
      if (txn.get() != self) {
        others = true;
        break;
      }
    }
    if (!others) {
      if (may_abort) --escalations_waiting_;
      return Status::Ok();  // exclusive gate held
    }
    // Open transactions do not hold the gate between statements, so
    // releasing it here lets them finish; EndTxn signals the retry.
    gate_.unlock();
    txn_cv_.wait(lock);
  }
}

void Database::BindUndo(UndoLog* undo) {
  active_undo_.store(undo, std::memory_order_release);
  catalog_.set_undo_log(undo);
  annotations_.set_undo_log(undo);
  dependencies_.set_undo_log(undo);
  access_.set_undo_log(undo);
  approvals_.set_undo_log(undo);
  for (auto& [name, table] : tables_) table->set_undo_log(undo);
}

void Database::SettleWritesLocked(MvccWriter& writer, MvccWriter::Mark from,
                                  uint64_t csn) {
  // Filter against live storage: a table dropped later in the same
  // transaction took its pending versions with it.
  if (writer.rows.size() > from.rows) {
    std::set<const Table*> live_tables;
    for (const auto& [name, table] : tables_) live_tables.insert(table.get());
    for (size_t i = writer.rows.size(); i-- > from.rows;) {
      auto [table, row] = writer.rows[i];
      if (!live_tables.count(table)) continue;
      if (csn != 0) {
        table->CommitRow(row, writer.txn_id, csn);
      } else {
        table->AbortRow(row, writer.txn_id);
      }
    }
    writer.rows.resize(from.rows);
  }
  if (writer.annotations.size() > from.annotations) {
    std::set<const AnnotationTable*> live_anns;
    annotations_.ForEachTable(
        [&](const std::string&, AnnotationTable* at) { live_anns.insert(at); });
    for (size_t i = writer.annotations.size(); i-- > from.annotations;) {
      auto [at, id] = writer.annotations[i];
      if (!live_anns.count(at)) continue;
      if (csn != 0) {
        at->CommitAnnotation(id, writer.txn_id, csn);
      } else {
        at->AbortAnnotation(id, writer.txn_id);
      }
    }
    writer.annotations.resize(from.annotations);
  }
}

void Database::CaptureBases(PendingStatement* ps) const {
  for (const auto& [name, table] : tables_) {
    ps->row_bases.emplace_back(name, table->next_row_id());
  }
  annotations_.ForEachTable([&](const std::string& key, AnnotationTable* at) {
    ps->ann_bases.emplace_back(key, at->next_id());
  });
}

void Database::ApplyReplayBases(const WalRecord& rec) {
  // Statement records carry the counters the statement *allocated from*
  // and must restore them exactly: group commit appends a transaction's
  // statements at COMMIT time, so a concurrently committed record that
  // landed earlier in the log can carry counters captured later — a
  // monotonic advance would then replay the ids too high. The commit
  // marker carries the counters as of COMMIT and is applied as a
  // max-advance, restoring the end-of-group high-water mark that other
  // transactions' statement-time allocations pushed past this group's.
  const bool exact = rec.kind != WalRecordKind::kTxnCommit;
  for (const auto& [name, base] : rec.row_bases) {
    auto it = tables_.find(name);
    if (it == tables_.end()) continue;
    if (exact) {
      it->second->SetNextRowId(base);
    } else {
      it->second->AdvanceNextRowId(base);
    }
  }
  if (!rec.ann_bases.empty()) {
    std::map<std::string, uint64_t> want(rec.ann_bases.begin(),
                                         rec.ann_bases.end());
    annotations_.ForEachTable([&](const std::string& key, AnnotationTable* at) {
      auto it = want.find(key);
      if (it == want.end()) return;
      if (exact) {
        at->SetNextId(it->second);
      } else {
        at->AdvanceNextId(it->second);
      }
    });
  }
}

uint64_t Database::ComputeOldestCsnLocked() const {
  uint64_t oldest = UINT64_MAX;
  for (const auto& [tok, t] : txns_) {
    // Doomed transactions rolled back already and no longer need their
    // snapshot (an escalated one reads at kLatestCsn).
    if (!t->doomed) oldest = std::min(oldest, t->snapshot.csn);
  }
  if (!read_snapshots_.empty()) {
    oldest = std::min(oldest, *read_snapshots_.begin());
  }
  return oldest;
}

void Database::VacuumAllLocked(uint64_t oldest_csn) {
  for (auto& [name, table] : tables_) table->Vacuum(oldest_csn);
}

void Database::TryVacuumLocked() {
  uint64_t oldest;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    oldest = ComputeOldestCsnLocked();
  }
  VacuumAllLocked(oldest);
}

void Database::TryVacuum() {
  // A finished reader or transaction may have been the oldest snapshot.
  // Skip if a mutating statement currently owns writer_mu_ — its commit
  // will vacuum anyway.
  std::unique_lock<std::mutex> w(writer_mu_, std::try_to_lock);
  if (!w.owns_lock()) return;
  TryVacuumLocked();
}

void Database::ApplyRollbackClockPolicy(const TxnState& t) {
  if (mutation_epoch_ == t.epoch_at_begin + t.own_mutations) {
    // No foreign mutation interleaved: rewinding to BEGIN reproduces the
    // PR-6 exclusive-transaction behavior bit for bit.
    clock_.Reset(t.clock_at_begin);
  } else if (t.escalated) {
    // Interleaving happened before the escalation; everything after it
    // ran exclusively, so the escalation point is a safe rewind target.
    clock_.Reset(t.clock_at_escalation);
  }
  // Otherwise: concurrent history, the clock only moves forward.
}

uint64_t Database::version_count() const {
  std::lock_guard<std::mutex> w(writer_mu_);
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) total += table->version_count();
  return total;
}

Status Database::JournalLocked(const TxnState& t, uint64_t csn) {
  BDBMS_RETURN_IF_ERROR(WritableLocked());
  // An implicit transaction is one bare statement record carrying its
  // commit CSN. An explicit one is a BEGIN-framed group: begin marker,
  // buffered statements, commit marker carrying the CSN.
  std::vector<WalRecord> records;
  if (!t.implicit) {
    WalRecord begin;
    begin.clock = t.clock_at_begin;
    begin.kind = WalRecordKind::kTxnBegin;
    records.push_back(std::move(begin));
  }
  uint8_t any_versioned = 0;
  for (const PendingStatement& p : t.pending) {
    WalRecord rec;
    rec.clock = p.clock_before;
    rec.user = p.user;
    rec.sql = p.sql;
    rec.versioned = p.versioned;
    rec.snapshot = p.snapshot;
    if (t.implicit) rec.csn = csn;
    rec.row_bases = p.row_bases;
    rec.ann_bases = p.ann_bases;
    any_versioned |= p.versioned;
    records.push_back(std::move(rec));
  }
  if (!t.implicit) {
    WalRecord commit;
    commit.clock = clock_.Peek();
    commit.kind = WalRecordKind::kTxnCommit;
    commit.versioned = any_versioned;
    commit.csn = csn;
    // Commit-time id counters: replay applies these as a max-advance
    // after the group's members, restoring the high-water mark that
    // other transactions' statement-time allocations pushed past this
    // group's own (see ApplyReplayBases).
    PendingStatement commit_bases;
    CaptureBases(&commit_bases);
    commit.row_bases = std::move(commit_bases.row_bases);
    commit.ann_bases = std::move(commit_bases.ann_bases);
    records.push_back(std::move(commit));
  }
  uint64_t lsn = dur_->last_lsn;
  for (WalRecord& rec : records) {
    rec.lsn = ++lsn;
    Status appended = dur_->wal->Append(rec);
    if (!appended.ok()) {
      // The log may now end in a torn record. Latch the writer dead: a
      // later commit appended after torn bytes would be fsync-acked yet
      // silently discarded by recovery (the scan stops at the tear). A
      // partially appended group is harmless on its own — recovery
      // discards a begin marker without a commit marker.
      TearDownWal();
      return appended;
    }
  }
  // A transaction is durable exactly when its commit marker is, so a
  // group always gets its own fsync; group_commit_interval batches only
  // implicit transactions.
  const uint64_t interval =
      std::max<uint64_t>(dur_->options.group_commit_interval, 1);
  if (!t.implicit || dur_->wal->unsynced() >= interval) {
    Status synced = dur_->wal->Sync();
    if (!synced.ok()) {
      // After a failed fsync the kernel may have dropped the dirty
      // pages; nothing appended afterwards could be trusted either.
      TearDownWal();
      return synced;
    }
  }
  dur_->last_lsn = lsn;
  dur_->statements_since_checkpoint += t.pending.size();
  if (dur_->options.checkpoint_interval > 0 &&
      dur_->statements_since_checkpoint >= dur_->options.checkpoint_interval) {
    // The transaction IS durably committed at this point, and this thread
    // may hold only the shared gate — the checkpoint itself needs the
    // exclusive side. Defer it to after the hold ends; a failure there
    // is recorded and retried, never reported against this transaction.
    checkpoint_due_.store(true, std::memory_order_relaxed);
  }
  return Status::Ok();
}

void Database::MaybeDeferredCheckpoint() {
  if (!dur_ || !checkpoint_due_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    // Open transactions park uncommitted effects in the heaps; the
    // checkpoint waits for a later statement to retry instead of
    // freezing them into the snapshot.
    if (!txns_.empty()) return;
  }
  std::lock_guard g(gate_);
  std::lock_guard<std::mutex> w(writer_mu_);
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    // BEGIN needs writer_mu_, which we hold, so the re-check is stable.
    if (!txns_.empty()) return;
  }
  if (!checkpoint_due_.exchange(false, std::memory_order_relaxed)) return;
  if (!dur_->wal) return;
  Status ckpt = CheckpointLocked();
  if (!ckpt.ok()) {
    // The triggering statement is durably committed and the log intact;
    // record the failure and retry at the next statement.
    ++dur_->checkpoint_failures;
  }
}

void Database::TearDownWal() {
  if (!dur_ || !dur_->wal) return;
  // Fold the dying writer's counters into the running totals so
  // durability_stats() never goes backwards after a write failure.
  dur_->wal_bytes_total += dur_->wal->bytes_appended();
  dur_->wal_syncs_total += dur_->wal->syncs();
  dur_->wal.reset();
}

Status Database::Checkpoint() {
  (void)LockExclusiveNoTxns(nullptr);
  Status s;
  {
    std::lock_guard<std::mutex> w(writer_mu_);
    s = CheckpointLocked();
  }
  gate_.unlock();
  return s;
}

Status Database::CheckpointLocked() {
  if (!dur_) {
    return Status::FailedPrecondition("not a durable database");
  }
  if (!dur_->wal) {
    return Status::FailedPrecondition(
        "durable store is unusable after a failed checkpoint; reopen");
  }
  // Commit everything the snapshot will claim to cover. A failed fsync
  // poisons the log the same way it does in JournalLocked — the kernel
  // may have dropped the dirty pages — so the writer must latch dead
  // rather than let later appends be acked over a hole.
  Status synced = dur_->wal->Sync();
  if (!synced.ok()) {
    TearDownWal();
    return synced;
  }
  // Incremental page checkpoint, phase 1: every paged heap flushes its
  // pool and stages dirty pages durably (base extensions directly, base
  // overwrites in a redo journal) under the candidate generation. The
  // overlays are untouched, so a failure here is an ordinary retryable
  // error — the committed checkpoint and log are still authoritative.
  const uint64_t gen = paged_ ? paged_->checkpoint_gen + 1 : 0;
  for (auto& [name, table] : tables_) {
    (void)name;
    BDBMS_RETURN_IF_ERROR(table->CheckpointPrepare(gen));
  }
  BDBMS_ASSIGN_OR_RETURN(std::string payload,
                         SerializeSnapshot(dur_->last_lsn, gen));
  BDBMS_RETURN_IF_ERROR(WriteCheckpointFile(dur_->env, dur_->dir, payload));
  // The rename above is the commit point; only now is it safe to drop the
  // log. A crash in between leaves records with lsn <= the checkpoint's,
  // which recovery skips by lsn.
  //
  // Phase 2: write journaled pages home and reset the overlays. After the
  // rename the new manifest (plus the journals naming `gen`) is the
  // authoritative state; if writing home fails the in-memory engine can
  // no longer prove it matches it, so latch the store — reopening runs
  // the same journal application from a clean slate.
  for (auto& [name, table] : tables_) {
    (void)name;
    Status committed = table->CheckpointCommit();
    if (!committed.ok()) {
      TearDownWal();
      return committed;
    }
  }
  if (paged_) paged_->checkpoint_gen = gen;
  dur_->wal_bytes_total += dur_->wal->bytes_appended();
  dur_->wal_syncs_total += dur_->wal->syncs();
  dur_->wal.reset();
  BDBMS_RETURN_IF_ERROR(dur_->env->TruncateFile(dur_->WalPath(), 0));
  BDBMS_ASSIGN_OR_RETURN(dur_->wal,
                         WalWriter::Open(dur_->env, dur_->WalPath()));
  dur_->statements_since_checkpoint = 0;
  ++dur_->checkpoints_taken;
  return Status::Ok();
}

Status Database::Close() {
  (void)LockExclusiveNoTxns(nullptr);
  Status s = Status::Ok();
  {
    std::lock_guard<std::mutex> w(writer_mu_);
    if (dur_) {
      if (dur_->wal) {
        s = dur_->wal->Sync();
        TearDownWal();
      }
      // The store stays latched (dur_ alive, writer gone): a mutation
      // after Close must refuse rather than silently run memory-only
      // with no journaling. Only the dir lock is released, so the
      // directory can be reopened — including after a failed sync,
      // where reopening is how the caller recovers (the torn tail is
      // trimmed).
      dur_->lock.reset();
    }
  }
  gate_.unlock();
  return s;
}

DurabilityStats Database::durability_stats() const {
  std::lock_guard<std::mutex> w(writer_mu_);
  DurabilityStats stats;
  if (!dur_) return stats;
  stats.last_lsn = dur_->last_lsn;
  stats.replayed_on_open = dur_->replayed_on_open;
  stats.checkpoints_taken = dur_->checkpoints_taken;
  stats.checkpoint_failures = dur_->checkpoint_failures;
  stats.wal_bytes_appended =
      dur_->wal_bytes_total + (dur_->wal ? dur_->wal->bytes_appended() : 0);
  stats.wal_syncs =
      dur_->wal_syncs_total + (dur_->wal ? dur_->wal->syncs() : 0);
  stats.statements_since_checkpoint = dur_->statements_since_checkpoint;
  return stats;
}

void Database::AdvanceCsn(uint64_t csn) {
  if (csn >= next_csn_.load(std::memory_order_relaxed)) {
    next_csn_.store(csn + 1, std::memory_order_relaxed);
  }
  if (csn > last_completed_csn_.load(std::memory_order_relaxed)) {
    last_completed_csn_.store(csn, std::memory_order_relaxed);
  }
}

Status Database::ReplayRecord(const WalRecord& rec, MvccWriter* group_writer) {
  auto parsed = ParseStatement(rec.sql);
  if (!parsed.ok()) {
    return Status::Corruption("WAL replay: lsn " + std::to_string(rec.lsn) +
                              " does not parse: " + parsed.status().message());
  }
  // Restore the exact clock value and id counters the statement
  // originally saw, so every timestamp/id handed out during replay
  // matches the original run (aborted transactions burned ids the log
  // never shows).
  clock_.Reset(rec.clock);
  ApplyReplayBases(rec);
  // Re-create the original execution mode: the statement writes versions
  // under its transaction's writer and reads at the journaled snapshot,
  // so visibility decisions replay bit for bit against the version
  // stamps of earlier replayed commits. A statement that ran escalated
  // (`versioned` = 0) reads the latest state and can no longer conflict,
  // as the escalation's full vacuum guaranteed in the original run.
  MvccWriter local;
  MvccWriter* writer = group_writer;
  if (writer == nullptr) {
    local.txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
    writer = &local;
  }
  writer->snapshot_csn = rec.versioned ? rec.snapshot : kLatestCsn;
  writer->BeginStatement();
  const MvccSnapshot snapshot{writer->snapshot_csn, writer->txn_id};
  auto result = ExecuteUnder(*parsed, rec.user, snapshot, writer);
  if (!result.ok()) {
    return Status::Corruption(
        "WAL replay diverged at lsn " + std::to_string(rec.lsn) + " (" +
        rec.sql + "): " + result.status().message() +
        " — if the statement is CREATE DEPENDENCY, the procedure registry "
        "must be re-populated via DurabilityOptions::bootstrap");
  }
  // Implicit-transaction record: stamp with the journaled commit CSN.
  if (writer == &local) CommitReplayed(local, rec.csn);
  return Status::Ok();
}

void Database::CommitReplayed(MvccWriter& writer, uint64_t csn) {
  if (writer.rows.empty() && writer.annotations.empty()) return;
  if (csn == 0) {
    // A log written before escalated statements wrote versions commits
    // them without a CSN: they ran alone, in place, visible to every later
    // snapshot. Rebuild that ancient state. Annotations have no vacuum, so
    // they commit straight into it (CSN 0); rows are stamped and then
    // flattened by a full vacuum, as the escalation's vacuum did in the
    // original run (no later record can read below it).
    std::vector<std::pair<AnnotationTable*, uint64_t>> anns;
    anns.swap(writer.annotations);
    annotations_.ForEachTable([&](const std::string&, AnnotationTable* at) {
      for (auto [owner, id] : anns) {
        if (owner == at) at->CommitAnnotation(id, writer.txn_id, 0);
      }
    });
    SettleWritesLocked(writer, {}, next_csn_.load(std::memory_order_relaxed));
    VacuumAllLocked(UINT64_MAX);
    return;
  }
  SettleWritesLocked(writer, {}, csn);
  AdvanceCsn(csn);
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                 DurabilityOptions options) {
  WalEnv* env = options.env ? options.env : WalEnv::Default();
  BDBMS_RETURN_IF_ERROR(env->CreateDir(dir));
  // Exclusive dir lock for the Database's lifetime: a second simultaneous
  // open would interleave O_APPEND frames into wal.log and corrupt
  // acknowledged commits. flock-based, so a crashed holder self-clears.
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<DirLock> lock, env->LockDir(dir));

  auto db = std::unique_ptr<Database>(new Database());
  // Paged-heap wiring precedes everything that can create tables: WAL
  // replay re-executes CREATE TABLE statements before `dur_` exists.
  {
    auto paged = std::make_unique<PagedStorage>();
    paged->env = env;
    paged->heap_dir = dir + "/heap";
    paged->pool_pages = options.buffer_pool_pages;
    paged->readahead_pages = options.readahead_pages;
    BDBMS_RETURN_IF_ERROR(env->CreateDir(paged->heap_dir));
    db->paged_ = std::move(paged);
  }
  if (options.bootstrap) {
    BDBMS_RETURN_IF_ERROR(options.bootstrap(*db));
  }

  const std::string wal_path = dir + "/" + kWalFileName;
  const std::string ckpt_path = dir + "/" + kCheckpointFileName;
  const std::string tmp_path = dir + "/" + kCheckpointTmpFileName;

  // A leftover .tmp is a checkpoint that never reached its rename commit
  // point: the previous checkpoint + full log are authoritative.
  if (env->FileExists(tmp_path)) {
    BDBMS_RETURN_IF_ERROR(env->RemoveFile(tmp_path));
  }

  uint64_t last_lsn = 0;
  if (env->FileExists(ckpt_path)) {
    BDBMS_ASSIGN_OR_RETURN(std::string payload, ReadCheckpointFile(env, dir));
    BDBMS_RETURN_IF_ERROR(db->LoadSnapshot(payload, &last_lsn));
    // Snapshot-loaded tables must record index-DDL compensations and
    // version rows like freshly created ones. Their reloaded rows carry
    // no version metadata — everything in a checkpoint is ancient
    // (committed before any snapshot that can ever be taken again).
    for (auto& [name, table] : db->tables_) {
      table->set_undo_log(&db->undo_);
      table->set_mvcc(&db->mvcc_state_);
    }
  }

  {
    // Garbage-collect heap files no checkpointed table references: heaps
    // of an incarnation that never reached a checkpoint (WAL replay
    // rebuilds those tables from scratch), orphans of dropped or
    // rolled-back CREATEs, and stale overlay files. Runs before replay so
    // replayed CREATEs start from a clean directory.
    std::set<std::string> keep;
    for (const auto& [name, table] : db->tables_) {
      if (!table->paged()) continue;
      keep.insert(table->heap_file_name());
      keep.insert(table->heap_file_name() + ".spill");
    }
    BDBMS_ASSIGN_OR_RETURN(std::vector<std::string> files,
                           env->ListDir(db->paged_->heap_dir));
    for (const std::string& f : files) {
      if (keep.count(f) != 0) continue;
      BDBMS_RETURN_IF_ERROR(env->RemoveFile(db->paged_->heap_dir + "/" + f));
    }
  }

  uint64_t replayed = 0;
  if (env->FileExists(wal_path)) {
    BDBMS_ASSIGN_OR_RETURN(std::string data, env->ReadFileToString(wal_path));
    BDBMS_ASSIGN_OR_RETURN(WalScan scan, ScanWal(data));
    bool dangling = false;
    uint64_t truncate_at = 0;
    const size_t n = scan.records.size();
    size_t i = 0;
    while (i < n) {
      const WalRecord& rec = scan.records[i];
      if (rec.kind == WalRecordKind::kStatement) {
        if (rec.lsn > last_lsn) {  // else already in the checkpoint
          BDBMS_RETURN_IF_ERROR(db->ReplayRecord(rec, nullptr));
          last_lsn = rec.lsn;
          ++replayed;
        }
        ++i;
        continue;
      }
      if (rec.kind == WalRecordKind::kTxnCommit) {
        return Status::Corruption(
            "WAL: commit marker without an open transaction at lsn " +
            std::to_string(rec.lsn));
      }
      // kTxnBegin: the group counts only if its commit marker made it
      // into the valid prefix. A dangling group is the expected shape of
      // a crash mid-commit — discard it, and everything after it, by
      // truncating at the begin marker's byte offset (later appends must
      // extend the last record recovery acknowledged).
      size_t end = i + 1;
      while (end < n && scan.records[end].kind == WalRecordKind::kStatement) {
        ++end;
      }
      if (end == n || scan.records[end].kind != WalRecordKind::kTxnCommit) {
        dangling = true;
        truncate_at = scan.record_offsets[i];
        break;
      }
      // Members share one writer (they were one transaction); the commit
      // marker's journaled CSN stamps the whole write set.
      MvccWriter group_writer;
      group_writer.txn_id =
          db->next_txn_id_.fetch_add(1, std::memory_order_relaxed);
      for (size_t k = i + 1; k < end; ++k) {
        const WalRecord& member = scan.records[k];
        if (member.lsn <= last_lsn) continue;
        BDBMS_RETURN_IF_ERROR(db->ReplayRecord(member, &group_writer));
        ++replayed;
      }
      const WalRecord& commit = scan.records[end];
      if (commit.lsn > last_lsn) {
        db->CommitReplayed(group_writer, commit.csn);
        db->ApplyReplayBases(commit);
      }
      last_lsn = std::max(last_lsn, commit.lsn);
      i = end + 1;
    }
    if (dangling) {
      BDBMS_RETURN_IF_ERROR(env->TruncateFile(wal_path, truncate_at));
    } else if (scan.tail_discarded) {
      // Cut the torn/corrupt tail so future appends extend valid data.
      BDBMS_RETURN_IF_ERROR(env->TruncateFile(wal_path, scan.valid_bytes));
    }
  }
  // Replay is serial and every replayed commit is final: no snapshot
  // survives a reopen, so every retained version is garbage.
  db->VacuumAllLocked(UINT64_MAX);

  auto dur = std::make_unique<Durable>();
  dur->dir = dir;
  dur->options = std::move(options);
  dur->env = env;
  dur->lock = std::move(lock);
  dur->last_lsn = last_lsn;
  dur->replayed_on_open = replayed;
  const bool wal_existed = env->FileExists(wal_path);
  BDBMS_ASSIGN_OR_RETURN(dur->wal, WalWriter::Open(env, wal_path));
  if (!wal_existed) {
    // The wal.log dirent itself must be durable before any fsync-acked
    // commit relies on it: file data survives a power cut only if the
    // directory entry does too (the LevelDB/SQLite create-then-sync-dir
    // pattern).
    BDBMS_RETURN_IF_ERROR(env->SyncDir(dir));
  }
  db->dur_ = std::move(dur);
  return db;
}

}  // namespace bdbms
