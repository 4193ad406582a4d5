#include "auth/approval.h"

#include <algorithm>

#include "index/secondary_index.h"
#include "txn/mvcc.h"

namespace bdbms {

namespace {

// Approval log columns (kApprovalLogTable), in schema order.
enum LogColumn : size_t {
  kTypeCol, kStateCol, kTableCol, kRowCol, kIssuerCol, kTimestampCol,
  kInverseCol, kOldImageCol, kNewImageCol,
};

constexpr char kStateIndex[] = "bdbms_approval_log_state";

// What the type and state columns hold, indexed by OpType and OpState.
constexpr std::string_view kTypeNames[] = {"INSERT", "UPDATE", "DELETE"};
constexpr std::string_view kStateNames[] = {"PENDING", "APPROVED",
                                            "DISAPPROVED"};

Value StateValue(OpState state) {
  return Value::Text(std::string(kStateNames[static_cast<size_t>(state)]));
}

Result<LoggedOperation> FromLogRow(RowId row_id, const Row& row) {
  LoggedOperation op;
  op.op_id = row_id + 1;
  // The enum value a name stands for is its index in the name list.
  auto index_of = [](const auto& names, const Value& name) {
    return std::find(std::begin(names), std::end(names), name.as_string()) -
           std::begin(names);
  };
  op.type = static_cast<OpType>(index_of(kTypeNames, row[kTypeCol]));
  op.state = static_cast<OpState>(index_of(kStateNames, row[kStateCol]));
  op.table = row[kTableCol].as_string();
  op.row = static_cast<RowId>(row[kRowCol].as_int());
  op.issuer = row[kIssuerCol].as_string();
  op.inverse_sql = row[kInverseCol].as_string();
  BDBMS_ASSIGN_OR_RETURN(op.old_row,
                         DecodeRowHex(row[kOldImageCol].as_string()));
  BDBMS_ASSIGN_OR_RETURN(op.new_row,
                         DecodeRowHex(row[kNewImageCol].as_string()));
  return op;
}

}  // namespace

std::string_view OpTypeName(OpType t) {
  return kTypeNames[static_cast<size_t>(t)];
}

Status ApprovalManager::StartContentApproval(
    const std::string& table, const std::vector<std::string>& columns,
    const std::string& approver) {
  BDBMS_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(table));
  const TableSchema& schema = t->schema();
  if (approver.empty()) {
    return Status::InvalidArgument("APPROVED BY must name a user or group");
  }
  ColumnMask mask = 0;
  if (columns.empty()) {
    mask = AllColumnsMask(schema.num_columns());
  } else {
    for (const std::string& c : columns) {
      BDBMS_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(c));
      mask |= ColumnBit(idx);
    }
  }
  if (!catalog_->HasTable(kApprovalLogTable)) {
    BDBMS_RETURN_IF_ERROR(catalog_->CreateTable(
        TableSchema(kApprovalLogTable, {{"type", DataType::kText},
                                        {"state", DataType::kText},
                                        {"table_name", DataType::kText},
                                        {"row_id", DataType::kInt},
                                        {"issuer", DataType::kText},
                                        {"timestamp", DataType::kInt},
                                        {"inverse_sql", DataType::kText},
                                        {"old_image", DataType::kText},
                                        {"new_image", DataType::kText}})));
    BDBMS_ASSIGN_OR_RETURN(Table * log, catalog_->GetTable(kApprovalLogTable));
    BDBMS_RETURN_IF_ERROR(
        log->CreateIndex(kStateIndex, {"state", "table_name"}));
  }
  RecordConfigUndo(table);
  ApprovalConfig& cfg = configs_[table];
  cfg.enabled = true;
  cfg.columns |= mask;
  cfg.approver = approver;
  return Status::Ok();
}

void ApprovalManager::RecordConfigUndo(const std::string& table) {
  MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr;
  if (w == nullptr) return;
  auto it = configs_.find(table);
  if (it == configs_.end()) {
    w->undo.push_back([this, table] { configs_.erase(table); });
  } else {
    w->undo.push_back(
        [this, table, prior = it->second] { configs_[table] = prior; });
  }
}

Status ApprovalManager::StopContentApproval(
    const std::string& table, const std::vector<std::string>& columns) {
  auto it = configs_.find(table);
  if (it == configs_.end() || !it->second.enabled) {
    return Status::FailedPrecondition("content approval is not active on " +
                                      table);
  }
  if (columns.empty()) {
    RecordConfigUndo(table);
    configs_.erase(it);
    return Status::Ok();
  }
  BDBMS_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(table));
  const TableSchema& schema = t->schema();
  RecordConfigUndo(table);
  for (const std::string& c : columns) {
    BDBMS_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(c));
    it->second.columns &= ~ColumnBit(idx);
  }
  if (it->second.columns == 0) configs_.erase(it);
  return Status::Ok();
}

bool ApprovalManager::ShouldLog(const std::string& table, OpType type,
                                ColumnMask touched) const {
  auto it = configs_.find(table);
  if (it == configs_.end() || !it->second.enabled) return false;
  if (type == OpType::kUpdate) return (it->second.columns & touched) != 0;
  return true;
}

Result<std::string> ApprovalManager::BuildInverseSql(OpType type,
                                                     const std::string& table,
                                                     RowId row,
                                                     const Row& old_row) const {
  BDBMS_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(table));
  const TableSchema& schema = t->schema();
  switch (type) {
    case OpType::kInsert:
      // Inverse of INSERT is DELETE (paper §6).
      return "DELETE FROM " + table + " WHERE _rowid = " + std::to_string(row);
    case OpType::kDelete: {
      // Inverse of DELETE is INSERT of the pre-image.
      std::string sql = "INSERT INTO " + table + " VALUES (";
      for (size_t i = 0; i < old_row.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += old_row[i].ToString();
      }
      sql += ")";
      return sql;
    }
    case OpType::kUpdate: {
      // Inverse of UPDATE restores the old values.
      std::string sql = "UPDATE " + table + " SET ";
      for (size_t i = 0; i < old_row.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += schema.column(i).name + " = " + old_row[i].ToString();
      }
      sql += " WHERE _rowid = " + std::to_string(row);
      return sql;
    }
  }
  return Status::Internal("unknown op type");
}

Result<uint64_t> ApprovalManager::LogOperation(OpType type,
                                               const std::string& table,
                                               RowId row,
                                               const std::string& issuer,
                                               Row old_row, Row new_row) {
  const uint64_t timestamp = clock_->Tick();
  BDBMS_ASSIGN_OR_RETURN(std::string inverse,
                         BuildInverseSql(type, table, row, old_row));
  BDBMS_ASSIGN_OR_RETURN(Table * log, catalog_->GetTable(kApprovalLogTable));
  BDBMS_ASSIGN_OR_RETURN(
      RowId id,
      log->Insert({Value::Text(std::string(OpTypeName(type))),
                   StateValue(OpState::kPending), Value::Text(table),
                   Value::Int(static_cast<int64_t>(row)), Value::Text(issuer),
                   Value::Int(static_cast<int64_t>(timestamp)),
                   Value::Text(std::move(inverse)),
                   Value::Text(EncodeRowHex(old_row)),
                   Value::Text(EncodeRowHex(new_row))}));
  return id + 1;
}

Result<std::vector<LoggedOperation>> ApprovalManager::Pending(
    const std::string& table, const MvccSnapshot& snap) const {
  std::vector<LoggedOperation> out;
  auto log = catalog_->GetTable(kApprovalLogTable);
  if (!log.ok()) return out;  // approval never started
  const SecondaryIndex* index = (*log)->FindIndex(kStateIndex);
  if (index == nullptr) return Status::Corruption("approval log index lost");
  IndexProbe probe;
  probe.eq.push_back(StateValue(OpState::kPending));
  if (!table.empty()) probe.eq.push_back(Value::Text(table));
  BDBMS_ASSIGN_OR_RETURN(std::vector<RowId> ids, index->Find(probe));
  for (RowId id : ids) {
    BDBMS_ASSIGN_OR_RETURN(std::optional<Row> row,
                           (*log)->GetVisible(id, snap));
    // IndexScan's recheck: a retained version keeps its old key indexed
    // until vacuum, so the visible version may have settled since.
    if (!row.has_value() || !ProbeMatchesRow(probe, index->columns(), *row)) {
      continue;
    }
    BDBMS_ASSIGN_OR_RETURN(LoggedOperation op, FromLogRow(id, *row));
    out.push_back(std::move(op));
  }
  return out;
}

Result<LoggedOperation> ApprovalManager::FindPending(
    uint64_t op_id, const std::string& principal, Table** log) const {
  const Status not_found =
      Status::NotFound("no logged operation " + std::to_string(op_id));
  auto table = catalog_->GetTable(kApprovalLogTable);
  if (op_id == 0 || !table.ok()) return not_found;
  *log = *table;
  // Settling runs escalated, alone: the current version is the latest.
  auto row = (*log)->Get(op_id - 1);
  if (!row.ok()) return row.status().IsNotFound() ? not_found : row.status();
  BDBMS_ASSIGN_OR_RETURN(LoggedOperation op, FromLogRow(op_id - 1, *row));
  if (op.state != OpState::kPending) {
    return Status::FailedPrecondition("operation already settled");
  }
  if (access_->IsSuperuser(principal)) return op;
  auto it = configs_.find(op.table);
  // Use the table's current approver; if approval was stopped meanwhile,
  // only superusers can settle the backlog.
  if (it == configs_.end() || !it->second.enabled) {
    return Status::PermissionDenied(
        "approval no longer configured on " + op.table +
        "; a superuser must settle pending operations");
  }
  if (!access_->MatchesPrincipal(principal, it->second.approver)) {
    return Status::PermissionDenied(principal + " is not the approver for " +
                                    op.table);
  }
  return op;
}

Status ApprovalManager::Approve(uint64_t op_id, const std::string& principal) {
  Table* log = nullptr;
  BDBMS_RETURN_IF_ERROR(FindPending(op_id, principal, &log).status());
  return log->UpdateCell(op_id - 1, kStateCol, StateValue(OpState::kApproved));
}

Result<LoggedOperation> ApprovalManager::Disapprove(
    uint64_t op_id, const std::string& principal) {
  Table* log = nullptr;
  BDBMS_ASSIGN_OR_RETURN(LoggedOperation op,
                         FindPending(op_id, principal, &log));
  BDBMS_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(op.table));

  // Execute the inverse statement.
  switch (op.type) {
    case OpType::kInsert:
      BDBMS_RETURN_IF_ERROR(t->Delete(op.row));
      break;
    case OpType::kDelete:
      BDBMS_RETURN_IF_ERROR(t->InsertWithRowId(op.row, op.old_row));
      break;
    case OpType::kUpdate:
      BDBMS_RETURN_IF_ERROR(t->Update(op.row, op.old_row));
      break;
  }
  op.state = OpState::kDisapproved;
  BDBMS_RETURN_IF_ERROR(log->UpdateCell(op_id - 1, kStateCol,
                                        StateValue(OpState::kDisapproved)));
  return op;
}

}  // namespace bdbms
