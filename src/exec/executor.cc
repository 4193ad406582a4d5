#include "exec/executor.h"

#include <algorithm>

#include "plan/expr_eval.h"
#include "plan/operator.h"
#include "plan/planner.h"

namespace bdbms {

namespace {

Result<Privilege> ParsePrivilege(const std::string& name) {
  if (name == "SELECT") return Privilege::kSelect;
  if (name == "INSERT") return Privilege::kInsert;
  if (name == "UPDATE") return Privilege::kUpdate;
  if (name == "DELETE") return Privilege::kDelete;
  return Status::InvalidArgument("unknown privilege " + name);
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::Execute(const Statement& stmt) {
  return std::visit(
      [this](const auto& node) -> Result<QueryResult> {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, SelectStmt>) {
          return ExecSelect(node);
        } else if constexpr (std::is_same_v<T, CreateTableStmt>) {
          return ExecCreateTable(node);
        } else if constexpr (std::is_same_v<T, DropTableStmt>) {
          return ExecDropTable(node);
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          return ExecInsert(node);
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          return ExecUpdate(node);
        } else if constexpr (std::is_same_v<T, DeleteStmt>) {
          return ExecDelete(node);
        } else if constexpr (std::is_same_v<T, CreateIndexStmt>) {
          return ExecCreateIndex(node);
        } else if constexpr (std::is_same_v<T, DropIndexStmt>) {
          return ExecDropIndex(node);
        } else if constexpr (std::is_same_v<T, ExplainStmt>) {
          return ExecExplain(node);
        } else if constexpr (std::is_same_v<T, AnalyzeStmt>) {
          return ExecAnalyze(node);
        } else if constexpr (std::is_same_v<T, CheckpointStmt>) {
          // The Database facade intercepts CHECKPOINT before dispatch (it
          // owns the WAL); reaching the executor means there is no durable
          // store attached, and the statement is a deliberate no-op.
          QueryResult result;
          result.message = "CHECKPOINT: no durable store attached (no-op)";
          return result;
        } else if constexpr (std::is_same_v<T, TxnStmt>) {
          // Transaction control lives in the Database facade (it owns the
          // write sets, WAL and engine lock). Reaching the executor means
          // the statement arrived through a path with no transaction
          // support wired up.
          (void)node;
          return Status::FailedPrecondition(
              "transaction control requires the Database facade");
        } else if constexpr (std::is_same_v<T, CreateAnnTableStmt>) {
          return ExecCreateAnnTable(node);
        } else if constexpr (std::is_same_v<T, DropAnnTableStmt>) {
          return ExecDropAnnTable(node);
        } else if constexpr (std::is_same_v<T, AddAnnotationStmt>) {
          return ExecAddAnnotation(node);
        } else if constexpr (std::is_same_v<T, ArchiveAnnotationStmt>) {
          return ExecArchiveRestore(node);
        } else if constexpr (std::is_same_v<T, GrantStmt>) {
          return ExecGrant(node);
        } else if constexpr (std::is_same_v<T, CreateUserStmt>) {
          return ExecCreateUser(node);
        } else if constexpr (std::is_same_v<T, AddUserToGroupStmt>) {
          return ExecAddUserToGroup(node);
        } else if constexpr (std::is_same_v<T, StartApprovalStmt>) {
          return ExecStartApproval(node);
        } else if constexpr (std::is_same_v<T, StopApprovalStmt>) {
          return ExecStopApproval(node);
        } else if constexpr (std::is_same_v<T, ApproveStmt>) {
          return ExecApprove(node);
        } else if constexpr (std::is_same_v<T, ShowPendingStmt>) {
          return ExecShowPending(node);
        } else if constexpr (std::is_same_v<T, CreateDependencyStmt>) {
          return ExecCreateDependency(node);
        } else {
          return ExecDropDependency(node);
        }
      },
      stmt.node);
}

// ---------------------------------------------------------------------------
// SELECT / EXPLAIN via the plan layer
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecSelect(const SelectStmt& stmt) {
  Planner planner(&ctx_, user_);
  BDBMS_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.PlanSelect(stmt));
  std::vector<PlanTuple> tuples;
  BDBMS_RETURN_IF_ERROR(DrainPlan(plan.get(), &tuples));
  QueryResult result;
  for (const BoundColumn& c : plan->columns()) {
    result.columns.push_back(c.name);
  }
  for (PlanTuple& t : tuples) {
    result.rows.push_back({std::move(t.values), std::move(t.anns)});
  }
  result.affected = result.rows.size();
  return result;
}

Result<QueryResult> Executor::ExecExplain(const ExplainStmt& stmt) {
  Planner planner(&ctx_, user_);
  BDBMS_ASSIGN_OR_RETURN(std::string text,
                         planner.ExplainStatement(*stmt.target));
  QueryResult result;
  result.columns = {"plan"};
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    ResultRow row;
    row.values = {Value::Text(text.substr(start, end - start))};
    row.annotations.resize(1);
    result.rows.push_back(std::move(row));
    start = end + 1;
  }
  result.affected = result.rows.size();
  result.message = std::move(text);
  return result;
}

Result<QueryResult> Executor::ExecAnalyze(const AnalyzeStmt& stmt) {
  // ANALYZE reads every row of its targets, so it demands the same
  // SELECT privilege a full scan would.
  std::vector<std::pair<std::string, Table*>> targets;
  if (stmt.table.empty()) {
    for (const auto& [name, table] : ctx_.catalog->tables()) {
      targets.emplace_back(name, table.get());
    }
  } else {
    BDBMS_ASSIGN_OR_RETURN(Table * t, ctx_.catalog->GetTable(stmt.table));
    targets.emplace_back(stmt.table, t);
  }
  // Check every target up front so a privilege failure midway cannot
  // leave a partial batch of refreshed snapshots behind.
  for (const auto& [name, t] : targets) {
    BDBMS_RETURN_IF_ERROR(ctx_.access->Check(user_, name, Privilege::kSelect));
  }
  QueryResult r;
  r.columns = {"table", "rows"};
  for (const auto& [name, t] : targets) {
    BDBMS_ASSIGN_OR_RETURN(TableStats stats, t->ComputeStats());
    uint64_t row_count = stats.row_count;
    t->SetStats(std::move(stats));
    ResultRow row;
    row.values = {Value::Text(name),
                  Value::Int(static_cast<int64_t>(row_count))};
    row.annotations.resize(row.values.size());
    r.rows.push_back(std::move(row));
  }
  r.affected = r.rows.size();
  r.message = "analyzed " + std::to_string(r.rows.size()) + " table(s)";
  return r;
}

Result<std::vector<std::pair<RowId, ColumnMask>>> Executor::SelectTargets(
    const SelectStmt& stmt, std::string* out_table) {
  if (stmt.from.size() != 1 || stmt.set_op != SetOpKind::kNone ||
      !stmt.group_by.empty()) {
    return Status::NotSupported(
        "annotation commands require a single-table SELECT without grouping "
        "or set operations");
  }
  *out_table = stmt.from[0].table;
  Planner planner(&ctx_, user_);
  BDBMS_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.PlanTargetScan(stmt));
  std::vector<PlanTuple> tuples;
  BDBMS_RETURN_IF_ERROR(DrainPlan(plan.get(), &tuples));
  const std::vector<BoundColumn>& columns = plan->columns();

  // The column mask: projected columns of the source table.
  ColumnMask mask = 0;
  if (stmt.star) {
    mask = AllColumnsMask(columns.size());
  } else {
    for (const SelectItem& item : stmt.items) {
      const Expr& e = *item.expr;
      if (e.kind != ExprKind::kColumnRef) continue;
      if (e.column == "*") {
        mask = AllColumnsMask(columns.size());
        continue;
      }
      BDBMS_ASSIGN_OR_RETURN(size_t idx,
                             BindColumn(columns, e.qualifier, e.column));
      mask |= ColumnBit(idx);
    }
  }
  if (mask == 0) {
    return Status::InvalidArgument(
        "the ON query must project at least one column");
  }

  std::vector<std::pair<RowId, ColumnMask>> targets;
  for (const PlanTuple& t : tuples) {
    if (!t.has_source) continue;
    targets.emplace_back(t.source_row, mask);
  }
  return targets;
}

// ---------------------------------------------------------------------------
// DDL / DML
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecCreateTable(const CreateTableStmt& stmt) {
  if (!ctx_.access->IsSuperuser(user_)) {
    return Status::PermissionDenied("only superusers may create tables");
  }
  BDBMS_RETURN_IF_ERROR(
      ctx_.catalog->CreateTable(stmt.schema, ctx_.new_table));
  QueryResult r;
  r.message = "table " + stmt.schema.name() + " created";
  return r;
}

Result<QueryResult> Executor::ExecDropTable(const DropTableStmt& stmt) {
  if (!ctx_.access->IsSuperuser(user_)) {
    return Status::PermissionDenied("only superusers may drop tables");
  }
  // No CASCADE: a rule or approval config naming a dropped table would
  // fail every later write on its other tables, and the checkpoint
  // restore that re-validates it.
  if (const DependencyRule* rule = ctx_.dependencies->RuleOn(stmt.table)) {
    return Status::FailedPrecondition("cannot drop table " + stmt.table +
                                      ": dependency rule " + rule->name +
                                      " names it");
  }
  if (ctx_.approvals->configs().count(stmt.table) != 0) {
    return Status::FailedPrecondition(
        "cannot drop table " + stmt.table +
        ": content approval is configured on it");
  }
  // A pending operation settles by table name: disapproving it after a
  // drop and re-create would run its inverse on the new table.
  const auto pending = ctx_.approvals->Pending(stmt.table);
  if (!pending.empty()) {
    return Status::FailedPrecondition(
        "cannot drop table " + stmt.table + ": pending operation " +
        std::to_string(pending.front()->op_id) + " names it");
  }
  BDBMS_RETURN_IF_ERROR(ctx_.catalog->DropTable(stmt.table));
  ctx_.annotations->DropAllFor(stmt.table);
  ctx_.access->DropGrantsOn(stmt.table);
  ctx_.dependencies->DropBitmap(stmt.table);
  QueryResult r;
  r.message = "table " + stmt.table + " dropped";
  return r;
}

Result<QueryResult> Executor::ExecCreateIndex(const CreateIndexStmt& stmt) {
  if (!ctx_.access->IsSuperuser(user_)) {
    return Status::PermissionDenied("only superusers may create indexes");
  }
  BDBMS_ASSIGN_OR_RETURN(Table * t, ctx_.catalog->GetTable(stmt.table));
  BDBMS_RETURN_IF_ERROR(t->CreateIndex(
      stmt.index, stmt.columns,
      stmt.spgist ? IndexKind::kSpGist : IndexKind::kBTree));
  QueryResult r;
  std::string cols;
  for (const std::string& name : stmt.columns) {
    if (!cols.empty()) cols += ", ";
    cols += name;
  }
  r.message = std::string(stmt.spgist ? "sequence index " : "index ") +
              stmt.index + " created on " + stmt.table + "(" + cols + ")";
  return r;
}

Result<QueryResult> Executor::ExecDropIndex(const DropIndexStmt& stmt) {
  if (!ctx_.access->IsSuperuser(user_)) {
    return Status::PermissionDenied("only superusers may drop indexes");
  }
  BDBMS_ASSIGN_OR_RETURN(Table * t, ctx_.catalog->GetTable(stmt.table));
  BDBMS_RETURN_IF_ERROR(t->DropIndex(stmt.index));
  QueryResult r;
  r.message = "index " + stmt.index + " dropped from " + stmt.table;
  return r;
}

Status Executor::AfterCellsChanged(const std::string& table, RowId row,
                                   ColumnMask cols, const std::string& op) {
  // Local dependency tracking (paper §5).
  BDBMS_ASSIGN_OR_RETURN(Table * t, ctx_.catalog->GetTable(table));
  for (size_t c = 0; c < t->schema().num_columns(); ++c) {
    if ((cols & ColumnBit(c)) == 0) continue;
    BDBMS_RETURN_IF_ERROR(
        ctx_.dependencies->OnCellUpdated(table, row, c).status());
  }
  // System-maintained provenance (paper §4).
  return AutoProvenance(table, {Region{cols, row, row}}, op);
}

Status Executor::AutoProvenance(const std::string& table,
                                const std::vector<Region>& regions,
                                const std::string& op) {
  for (const std::string& ann : ctx_.annotations->ListFor(table)) {
    BDBMS_ASSIGN_OR_RETURN(AnnotationTable * at,
                           ctx_.annotations->Get(table, ann));
    if (!at->is_provenance()) continue;
    ProvenanceRecord rec;
    rec.source = "local";
    rec.operation = op;
    rec.user = user_;
    BDBMS_RETURN_IF_ERROR(
        ctx_.provenance->Record(table, ann, regions, rec, "system").status());
  }
  return Status::Ok();
}

Result<QueryResult> Executor::ExecInsert(const InsertStmt& stmt,
                                         std::vector<RowId>* inserted) {
  BDBMS_ASSIGN_OR_RETURN(Table * t, ctx_.catalog->GetTable(stmt.table));
  BDBMS_RETURN_IF_ERROR(
      ctx_.access->Check(user_, stmt.table, Privilege::kInsert));
  const std::vector<BoundColumn> no_columns;
  const PlanTuple no_tuple;
  size_t ncols = t->schema().num_columns();
  ColumnMask all_cols = AllColumnsMask(ncols);
  uint64_t count = 0;
  for (const auto& exprs : stmt.rows) {
    Row row;
    for (const ExprPtr& e : exprs) {
      BDBMS_ASSIGN_OR_RETURN(Value v, EvalScalar(*e, no_columns, no_tuple));
      row.push_back(std::move(v));
    }
    BDBMS_ASSIGN_OR_RETURN(RowId rid, t->Insert(std::move(row)));
    if (inserted != nullptr) inserted->push_back(rid);
    ++count;
    if (ctx_.approvals->ShouldLog(stmt.table, OpType::kInsert, all_cols)) {
      BDBMS_ASSIGN_OR_RETURN(Row stored, t->Get(rid));
      BDBMS_RETURN_IF_ERROR(ctx_.approvals
                                ->LogOperation(OpType::kInsert, stmt.table,
                                               rid, user_, {}, stored)
                                .status());
    }
    BDBMS_RETURN_IF_ERROR(
        AfterCellsChanged(stmt.table, rid, all_cols, "insert"));
  }
  QueryResult r;
  r.affected = count;
  r.message = std::to_string(count) + " row(s) inserted into " + stmt.table;
  return r;
}

Result<std::vector<std::pair<RowId, Row>>> Executor::CollectDmlMatches(
    const std::string& table, const Expr* where) {
  // Matching rows are materialized before mutation (mutating while
  // scanning is unsafe) through an index-aware plan: an indexed WHERE
  // column turns this into an IndexScan instead of a full scan.
  Planner planner(&ctx_, user_);
  BDBMS_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.PlanDmlScan(table, where));
  std::vector<PlanTuple> tuples;
  BDBMS_RETURN_IF_ERROR(DrainPlan(plan.get(), &tuples));
  std::vector<std::pair<RowId, Row>> matches;
  matches.reserve(tuples.size());
  for (PlanTuple& t : tuples) {
    matches.emplace_back(t.source_row, std::move(t.values));
  }
  return matches;
}

Result<QueryResult> Executor::ExecUpdate(
    const UpdateStmt& stmt,
    std::vector<std::pair<RowId, ColumnMask>>* touched) {
  BDBMS_ASSIGN_OR_RETURN(Table * t, ctx_.catalog->GetTable(stmt.table));
  BDBMS_RETURN_IF_ERROR(
      ctx_.access->Check(user_, stmt.table, Privilege::kUpdate));
  const TableSchema& schema = t->schema();

  // Bind assignment targets.
  std::vector<std::pair<size_t, const Expr*>> sets;
  ColumnMask assigned = 0;
  for (const auto& [col, expr] : stmt.assignments) {
    BDBMS_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
    sets.emplace_back(idx, expr.get());
    assigned |= ColumnBit(idx);
  }

  std::vector<BoundColumn> columns = QualifiedColumns(schema, stmt.table);
  BDBMS_ASSIGN_OR_RETURN(auto matches,
                         CollectDmlMatches(stmt.table, stmt.where.get()));

  uint64_t count = 0;
  for (auto& [rid, old_row] : matches) {
    PlanTuple tuple;
    tuple.values = old_row;
    Row new_row = old_row;
    ColumnMask changed = 0;
    for (const auto& [idx, expr] : sets) {
      BDBMS_ASSIGN_OR_RETURN(Value v, EvalScalar(*expr, columns, tuple));
      BDBMS_ASSIGN_OR_RETURN(Value coerced,
                             v.CoerceTo(schema.column(idx).type));
      if (!(coerced == old_row[idx])) changed |= ColumnBit(idx);
      new_row[idx] = std::move(coerced);
    }
    BDBMS_RETURN_IF_ERROR(t->Update(rid, new_row));
    ++count;
    if (touched != nullptr) touched->emplace_back(rid, changed);
    if (ctx_.approvals->ShouldLog(stmt.table, OpType::kUpdate, assigned)) {
      BDBMS_RETURN_IF_ERROR(ctx_.approvals
                                ->LogOperation(OpType::kUpdate, stmt.table,
                                               rid, user_, old_row, new_row)
                                .status());
    }
    if (changed != 0) {
      BDBMS_RETURN_IF_ERROR(
          AfterCellsChanged(stmt.table, rid, changed, "update"));
    }
  }
  QueryResult r;
  r.affected = count;
  r.message = std::to_string(count) + " row(s) updated in " + stmt.table;
  return r;
}

Result<QueryResult> Executor::ExecDelete(const DeleteStmt& stmt,
                                         const std::string& annotation_body) {
  BDBMS_ASSIGN_OR_RETURN(Table * t, ctx_.catalog->GetTable(stmt.table));
  BDBMS_RETURN_IF_ERROR(
      ctx_.access->Check(user_, stmt.table, Privilege::kDelete));
  BDBMS_ASSIGN_OR_RETURN(auto matches,
                         CollectDmlMatches(stmt.table, stmt.where.get()));

  uint64_t count = 0;
  for (auto& [rid, old_row] : matches) {
    if (ctx_.approvals->ShouldLog(stmt.table, OpType::kDelete, 0)) {
      BDBMS_RETURN_IF_ERROR(ctx_.approvals
                                ->LogOperation(OpType::kDelete, stmt.table,
                                               rid, user_, old_row, {})
                                .status());
    }
    if (!annotation_body.empty() && ctx_.deletion_log != nullptr) {
      (*ctx_.deletion_log)[stmt.table].push_back(
          {rid, old_row, annotation_body, user_, ctx_.clock->Tick()});
      if (ctx_.writer != nullptr) {
        auto* log = ctx_.deletion_log;
        ctx_.writer->undo.push_back([log, table = stmt.table] {
          auto it = log->find(table);
          if (it == log->end() || it->second.empty()) return;
          it->second.pop_back();
          if (it->second.empty()) log->erase(it);
        });
      }
    }
    BDBMS_RETURN_IF_ERROR(t->Delete(rid));
    BDBMS_RETURN_IF_ERROR(
        ctx_.dependencies->OnRowErased(stmt.table, rid, old_row).status());
    ++count;
  }
  QueryResult r;
  r.affected = count;
  r.message = std::to_string(count) + " row(s) deleted from " + stmt.table;
  return r;
}

// ---------------------------------------------------------------------------
// Annotation commands
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecCreateAnnTable(
    const CreateAnnTableStmt& stmt) {
  if (!ctx_.catalog->HasTable(stmt.table)) {
    return Status::NotFound("no table " + stmt.table);
  }
  BDBMS_RETURN_IF_ERROR(ctx_.annotations->CreateAnnotationTable(
      stmt.table, stmt.ann_table, stmt.provenance));
  QueryResult r;
  r.message = "annotation table " + stmt.ann_table + " created on " +
              stmt.table + (stmt.provenance ? " (provenance)" : "");
  return r;
}

Result<QueryResult> Executor::ExecDropAnnTable(const DropAnnTableStmt& stmt) {
  BDBMS_RETURN_IF_ERROR(
      ctx_.annotations->DropAnnotationTable(stmt.table, stmt.ann_table));
  QueryResult r;
  r.message = "annotation table " + stmt.ann_table + " dropped from " +
              stmt.table;
  return r;
}

Result<QueryResult> Executor::ExecAddAnnotation(const AddAnnotationStmt& stmt) {
  // Validate targets.
  for (const auto& [table, ann] : stmt.targets) {
    BDBMS_ASSIGN_OR_RETURN(AnnotationTable * at,
                           ctx_.annotations->Get(table, ann));
    if (at->is_provenance()) {
      if (!ctx_.provenance->IsSystemAgent(user_)) {
        return Status::PermissionDenied(
            "only system agents may write provenance annotations");
      }
      BDBMS_RETURN_IF_ERROR(
          ProvenanceManager::RecordSchema().ValidateText(stmt.value));
    }
  }

  // Determine the regions from the ON statement.
  std::string on_table;
  std::vector<Region> regions;
  uint64_t side_effect_rows = 0;
  if (const auto* sel = std::get_if<SelectStmt>(&stmt.on->node)) {
    BDBMS_ASSIGN_OR_RETURN(auto targets, SelectTargets(*sel, &on_table));
    regions = ComputeRegions(targets);
  } else if (const auto* ins = std::get_if<InsertStmt>(&stmt.on->node)) {
    on_table = ins->table;
    std::vector<RowId> inserted;
    BDBMS_ASSIGN_OR_RETURN(QueryResult qr, ExecInsert(*ins, &inserted));
    side_effect_rows = qr.affected;
    BDBMS_ASSIGN_OR_RETURN(Table * t, ctx_.catalog->GetTable(on_table));
    std::vector<std::pair<RowId, ColumnMask>> targets;
    for (RowId rid : inserted) {
      targets.emplace_back(rid, AllColumnsMask(t->schema().num_columns()));
    }
    regions = ComputeRegions(targets);
  } else if (const auto* upd = std::get_if<UpdateStmt>(&stmt.on->node)) {
    on_table = upd->table;
    std::vector<std::pair<RowId, ColumnMask>> touched;
    BDBMS_ASSIGN_OR_RETURN(QueryResult qr, ExecUpdate(*upd, &touched));
    side_effect_rows = qr.affected;
    // Annotate the assigned cells (even if values happened to be equal the
    // user's intent covers them): use assigned columns per row.
    std::vector<std::pair<RowId, ColumnMask>> targets;
    BDBMS_ASSIGN_OR_RETURN(Table * t, ctx_.catalog->GetTable(on_table));
    ColumnMask assigned = 0;
    for (const auto& [col, expr] : upd->assignments) {
      BDBMS_ASSIGN_OR_RETURN(size_t idx, t->schema().ColumnIndex(col));
      assigned |= ColumnBit(idx);
    }
    for (const auto& [rid, changed] : touched) {
      targets.emplace_back(rid, assigned);
    }
    regions = ComputeRegions(targets);
  } else if (const auto* del = std::get_if<DeleteStmt>(&stmt.on->node)) {
    // Deleted tuples go to the deletion log together with the annotation
    // (paper §3.2); there are no live cells left to attach regions to.
    on_table = del->table;
    BDBMS_ASSIGN_OR_RETURN(QueryResult qr, ExecDelete(*del, stmt.value));
    QueryResult r;
    r.affected = qr.affected;
    r.message = std::to_string(qr.affected) +
                " row(s) deleted and logged with annotation";
    return r;
  } else {
    return Status::NotSupported(
        "ADD ANNOTATION supports SELECT, INSERT, UPDATE or DELETE in ON");
  }

  for (const auto& [table, ann] : stmt.targets) {
    if (table != on_table) {
      return Status::InvalidArgument(
          "annotation table " + ann + " belongs to " + table +
          " but the ON statement addresses " + on_table);
    }
  }
  if (regions.empty()) {
    QueryResult r;
    r.message = "no rows matched; annotation not added";
    return r;
  }
  for (const auto& [table, ann] : stmt.targets) {
    BDBMS_ASSIGN_OR_RETURN(AnnotationTable * at,
                           ctx_.annotations->Get(table, ann));
    BDBMS_RETURN_IF_ERROR(at->Add(stmt.value, regions, user_).status());
  }
  QueryResult r;
  r.affected = side_effect_rows;
  r.message = "annotation added over " + std::to_string(regions.size()) +
              " region(s) to " + std::to_string(stmt.targets.size()) +
              " annotation table(s)";
  return r;
}

Result<QueryResult> Executor::ExecArchiveRestore(
    const ArchiveAnnotationStmt& stmt) {
  std::string on_table;
  BDBMS_ASSIGN_OR_RETURN(auto targets, SelectTargets(*stmt.on, &on_table));
  std::vector<Region> regions = ComputeRegions(targets);
  uint64_t t1 = stmt.time_begin.value_or(0);
  uint64_t t2 = stmt.time_end.value_or(UINT64_MAX);
  uint64_t affected = 0;
  for (const auto& [table, ann] : stmt.targets) {
    if (table != on_table) {
      return Status::InvalidArgument(
          "annotation table " + ann + " belongs to " + table +
          " but the ON statement addresses " + on_table);
    }
    BDBMS_ASSIGN_OR_RETURN(AnnotationTable * at,
                           ctx_.annotations->Get(table, ann));
    if (stmt.restore) {
      BDBMS_ASSIGN_OR_RETURN(size_t n, at->RestoreMatching(regions, t1, t2));
      affected += n;
    } else {
      BDBMS_ASSIGN_OR_RETURN(size_t n, at->ArchiveMatching(regions, t1, t2));
      affected += n;
    }
  }
  QueryResult r;
  r.affected = affected;
  r.message = std::to_string(affected) + " annotation(s) " +
              (stmt.restore ? "restored" : "archived");
  return r;
}

// ---------------------------------------------------------------------------
// Authorization commands
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecGrant(const GrantStmt& stmt) {
  if (!ctx_.access->IsSuperuser(user_)) {
    return Status::PermissionDenied("only superusers may grant/revoke");
  }
  if (!ctx_.catalog->HasTable(stmt.table)) {
    return Status::NotFound("no table " + stmt.table);
  }
  BDBMS_ASSIGN_OR_RETURN(Privilege priv, ParsePrivilege(stmt.privilege));
  QueryResult r;
  if (stmt.revoke) {
    BDBMS_RETURN_IF_ERROR(
        ctx_.access->Revoke(stmt.principal, stmt.table, priv));
    r.message = "revoked " + stmt.privilege + " on " + stmt.table + " from " +
                stmt.principal;
  } else {
    BDBMS_RETURN_IF_ERROR(ctx_.access->Grant(stmt.principal, stmt.table, priv));
    r.message = "granted " + stmt.privilege + " on " + stmt.table + " to " +
                stmt.principal;
  }
  return r;
}

Result<QueryResult> Executor::ExecCreateUser(const CreateUserStmt& stmt) {
  if (!ctx_.access->IsSuperuser(user_)) {
    return Status::PermissionDenied("only superusers may manage principals");
  }
  QueryResult r;
  if (stmt.is_group) {
    BDBMS_RETURN_IF_ERROR(ctx_.access->CreateGroup(stmt.name));
    r.message = "group " + stmt.name + " created";
  } else {
    BDBMS_RETURN_IF_ERROR(ctx_.access->CreateUser(stmt.name));
    r.message = "user " + stmt.name + " created";
  }
  return r;
}

Result<QueryResult> Executor::ExecAddUserToGroup(
    const AddUserToGroupStmt& stmt) {
  if (!ctx_.access->IsSuperuser(user_)) {
    return Status::PermissionDenied("only superusers may manage principals");
  }
  BDBMS_RETURN_IF_ERROR(ctx_.access->AddToGroup(stmt.user, stmt.group));
  QueryResult r;
  r.message = "user " + stmt.user + " added to group " + stmt.group;
  return r;
}

Result<QueryResult> Executor::ExecStartApproval(const StartApprovalStmt& stmt) {
  if (!ctx_.access->IsSuperuser(user_)) {
    return Status::PermissionDenied(
        "only superusers may configure content approval");
  }
  BDBMS_RETURN_IF_ERROR(ctx_.approvals->StartContentApproval(
      stmt.table, stmt.columns, stmt.approver));
  QueryResult r;
  r.message = "content approval started on " + stmt.table + " (approved by " +
              stmt.approver + ")";
  return r;
}

Result<QueryResult> Executor::ExecStopApproval(const StopApprovalStmt& stmt) {
  if (!ctx_.access->IsSuperuser(user_)) {
    return Status::PermissionDenied(
        "only superusers may configure content approval");
  }
  BDBMS_RETURN_IF_ERROR(
      ctx_.approvals->StopContentApproval(stmt.table, stmt.columns));
  QueryResult r;
  r.message = "content approval stopped on " + stmt.table;
  return r;
}

Result<QueryResult> Executor::ExecApprove(const ApproveStmt& stmt) {
  QueryResult r;
  if (!stmt.disapprove) {
    BDBMS_RETURN_IF_ERROR(ctx_.approvals->Approve(stmt.op_id, user_));
    r.message = "operation " + std::to_string(stmt.op_id) + " approved";
    return r;
  }
  BDBMS_ASSIGN_OR_RETURN(
      LoggedOperation op,
      ctx_.approvals->Disapprove(stmt.op_id, user_));
  // The rollback changed data; run dependency invalidation (paper §6:
  // "Executing the inverse statement may affect other elements ... It is
  // the functionality of the Local Dependency Tracking feature to track
  // and invalidate these elements").
  BDBMS_ASSIGN_OR_RETURN(Table * t, ctx_.catalog->GetTable(op.table));
  switch (op.type) {
    case OpType::kInsert:
      // Row removed again.
      BDBMS_RETURN_IF_ERROR(
          ctx_.dependencies->OnRowErased(op.table, op.row, op.new_row)
              .status());
      break;
    case OpType::kDelete: {
      // Row restored: all its cells (re)appeared.
      ColumnMask all = AllColumnsMask(t->schema().num_columns());
      BDBMS_RETURN_IF_ERROR(AfterCellsChanged(op.table, op.row, all, "update"));
      break;
    }
    case OpType::kUpdate: {
      ColumnMask changed = 0;
      for (size_t c = 0; c < op.old_row.size() && c < op.new_row.size(); ++c) {
        if (!(op.old_row[c] == op.new_row[c])) changed |= ColumnBit(c);
      }
      if (changed != 0) {
        BDBMS_RETURN_IF_ERROR(
            AfterCellsChanged(op.table, op.row, changed, "update"));
      }
      break;
    }
  }
  r.message = "operation " + std::to_string(stmt.op_id) +
              " disapproved; inverse executed: " + op.inverse_sql;
  return r;
}

Result<QueryResult> Executor::ExecShowPending(const ShowPendingStmt& stmt) {
  QueryResult r;
  r.columns = {"op_id", "type", "table", "row", "issuer", "inverse_sql"};
  for (const LoggedOperation* op : ctx_.approvals->Pending(stmt.table)) {
    ResultRow row;
    row.values = {Value::Int(static_cast<int64_t>(op->op_id)),
                  Value::Text(std::string(OpTypeName(op->type))),
                  Value::Text(op->table),
                  Value::Int(static_cast<int64_t>(op->row)),
                  Value::Text(op->issuer),
                  Value::Text(op->inverse_sql)};
    row.annotations.resize(row.values.size());
    r.rows.push_back(std::move(row));
  }
  r.affected = r.rows.size();
  return r;
}

// ---------------------------------------------------------------------------
// Dependency DDL
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecCreateDependency(
    const CreateDependencyStmt& stmt) {
  BDBMS_RETURN_IF_ERROR(ctx_.dependencies->AddRule(stmt.rule));
  QueryResult r;
  r.message = "dependency " + stmt.rule.name + " created";
  return r;
}

Result<QueryResult> Executor::ExecDropDependency(
    const DropDependencyStmt& stmt) {
  BDBMS_RETURN_IF_ERROR(ctx_.dependencies->RemoveRule(stmt.name));
  QueryResult r;
  r.message = "dependency " + stmt.name + " dropped";
  return r;
}

}  // namespace bdbms
