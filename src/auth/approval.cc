#include "auth/approval.h"

#include "txn/mvcc.h"

namespace bdbms {

std::string_view OpTypeName(OpType t) {
  switch (t) {
    case OpType::kInsert:
      return "INSERT";
    case OpType::kUpdate:
      return "UPDATE";
    case OpType::kDelete:
      return "DELETE";
  }
  return "UNKNOWN";
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
  LoggedOperation op;
  op.op_id = next_op_id_++;
  op.type = type;
  op.state = OpState::kPending;
  op.table = table;
  op.row = row;
  op.issuer = issuer;
  op.timestamp = clock_->Tick();
  op.old_row = std::move(old_row);
  op.new_row = std::move(new_row);
  BDBMS_ASSIGN_OR_RETURN(op.inverse_sql,
                         BuildInverseSql(type, table, row, op.old_row));
  uint64_t id = op.op_id;
  log_[id] = std::move(op);
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    // The id was next_op_id_ before this append bumped it.
    w->undo.push_back([this, id] {
      log_.erase(id);
      next_op_id_ = id;
    });
  }
  return id;
}

Status ApprovalManager::RestoreOperation(LoggedOperation op) {
  if (op.op_id == 0) return Status::InvalidArgument("op_id 0 is reserved");
  if (log_.count(op.op_id)) {
    return Status::AlreadyExists("operation " + std::to_string(op.op_id) +
                                 " already present");
  }
  if (op.op_id >= next_op_id_) next_op_id_ = op.op_id + 1;
  uint64_t id = op.op_id;
  log_[id] = std::move(op);
  return Status::Ok();
}

std::vector<const LoggedOperation*> ApprovalManager::Pending(
    const std::string& table) const {
  std::vector<const LoggedOperation*> out;
  for (const auto& [id, op] : log_) {
    if (op.state != OpState::kPending) continue;
    if (!table.empty() && op.table != table) continue;
    out.push_back(&op);
  }
  return out;
}

Status ApprovalManager::CheckApprover(const LoggedOperation& op,
                                      const std::string& principal) const {
  if (access_->IsSuperuser(principal)) return Status::Ok();
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
  return Status::Ok();
}

Status ApprovalManager::Approve(uint64_t op_id, const std::string& principal) {
  auto it = log_.find(op_id);
  if (it == log_.end()) {
    return Status::NotFound("no logged operation " + std::to_string(op_id));
  }
  LoggedOperation& op = it->second;
  if (op.state != OpState::kPending) {
    return Status::FailedPrecondition("operation already settled");
  }
  BDBMS_RETURN_IF_ERROR(CheckApprover(op, principal));
  op.state = OpState::kApproved;
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, op_id] {
      auto entry = log_.find(op_id);
      if (entry != log_.end()) entry->second.state = OpState::kPending;
    });
  }
  return Status::Ok();
}

Result<LoggedOperation> ApprovalManager::Disapprove(
    uint64_t op_id, const std::string& principal) {
  auto it = log_.find(op_id);
  if (it == log_.end()) {
    return Status::NotFound("no logged operation " + std::to_string(op_id));
  }
  LoggedOperation& op = it->second;
  if (op.state != OpState::kPending) {
    return Status::FailedPrecondition("operation already settled");
  }
  BDBMS_RETURN_IF_ERROR(CheckApprover(op, principal));
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
  // The inverse-DML effects above are row versions, rolled back with the
  // transaction's write set; only the settle-state flip needs its own
  // compensation.
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, op_id] {
      auto entry = log_.find(op_id);
      if (entry != log_.end()) entry->second.state = OpState::kPending;
    });
  }
  return op;
}

}  // namespace bdbms
