#include "dep/dependency_manager.h"

#include <algorithm>

#include "index/secondary_index.h"
#include "txn/mvcc.h"

namespace bdbms {

namespace {

// Reachability in the column graph via BFS.
bool Reaches(const std::multimap<ColumnRef, ColumnRef>& edges,
             const ColumnRef& from, const ColumnRef& to) {
  std::set<ColumnRef> seen{from};
  std::deque<ColumnRef> q{from};
  while (!q.empty()) {
    ColumnRef cur = q.front();
    q.pop_front();
    if (cur == to) return true;
    auto [lo, hi] = edges.equal_range(cur);
    for (auto it = lo; it != hi; ++it) {
      if (seen.insert(it->second).second) q.push_back(it->second);
    }
  }
  return false;
}

// Current RowIds of `table` whose `col` equals `key`, ascending: exactly
// the rows a full scan would match, in the scan's order. Probes a
// single-column B+-tree on `col` when one exists and the key qualifies;
// otherwise scans. The index keeps an entry for every retained version,
// so each candidate is re-read and kept only if its current value still
// matches (a key changed earlier in the transaction leaves a stale entry).
//
// Reading `indexes()` without the table latch is safe only because every
// DML statement on a table a rule names escalates to the exclusive engine
// gate (Database::Classify), which admits no concurrent index DDL.
Result<std::vector<RowId>> RowsWithKey(const Table& table, size_t col,
                                       const Value& key) {
  std::vector<RowId> rows;
  const SecondaryIndex* index = nullptr;
  if (ProbeMatchesEquality(key.type(), table.schema().column(col).type)) {
    for (const auto& idx : table.indexes()) {
      if (idx->columns().size() == 1 && idx->column() == col) {
        index = idx.get();
        break;
      }
    }
  }
  if (index == nullptr) {
    BDBMS_RETURN_IF_ERROR(table.Scan([&](RowId rid, const Row& row) {
      if (row[col] == key) rows.push_back(rid);
      return Status::Ok();
    }));
    return rows;
  }
  BDBMS_ASSIGN_OR_RETURN(std::vector<RowId> candidates,
                         index->FindEqual(key));
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i > 0 && candidates[i] == candidates[i - 1]) continue;
    auto row = table.Get(candidates[i]);
    if (!row.ok()) {
      if (row.status().IsNotFound()) continue;  // deleted since
      return row.status();
    }
    if ((*row)[col] == key) rows.push_back(candidates[i]);
  }
  return rows;
}

}  // namespace

Status DependencyManager::AddRule(DependencyRule rule) {
  if (rule.sources.empty()) {
    return Status::InvalidArgument("dependency rule needs at least one source");
  }
  const std::string& src_table = rule.sources[0].table;
  for (const ColumnRef& s : rule.sources) {
    if (s.table != src_table) {
      return Status::NotSupported(
          "all sources of a rule must come from one table");
    }
  }
  // Validate tables and columns against the catalog.
  BDBMS_ASSIGN_OR_RETURN(Table * src, catalog_->GetTable(src_table));
  const TableSchema& src_schema = src->schema();
  for (const ColumnRef& s : rule.sources) {
    BDBMS_RETURN_IF_ERROR(src_schema.ColumnIndex(s.column).status());
  }
  BDBMS_ASSIGN_OR_RETURN(Table * dst, catalog_->GetTable(rule.target.table));
  const TableSchema& dst_schema = dst->schema();
  BDBMS_RETURN_IF_ERROR(dst_schema.ColumnIndex(rule.target.column).status());

  // Procedure must be known.
  BDBMS_RETURN_IF_ERROR(procedures_->Get(rule.procedure).status());

  // Join spec: required exactly when the rule crosses tables.
  bool cross_table = src_table != rule.target.table;
  if (cross_table && !rule.join.has_value()) {
    return Status::InvalidArgument(
        "cross-table rule requires a key join (source_key = target_key)");
  }
  if (rule.join.has_value()) {
    BDBMS_RETURN_IF_ERROR(
        src_schema.ColumnIndex(rule.join->source_key_column).status());
    BDBMS_RETURN_IF_ERROR(
        dst_schema.ColumnIndex(rule.join->target_key_column).status());
  }

  // A column must not depend on itself, directly or transitively.
  for (const ColumnRef& s : rule.sources) {
    if (s == rule.target) {
      return Status::InvalidArgument("rule target equals its source " +
                                     s.ToString());
    }
  }
  if (WouldCreateCycle(rule)) {
    return Status::FailedPrecondition(
        "rule would create a dependency cycle through " +
        rule.target.ToString());
  }

  uint64_t next_before = next_rule_id_;
  if (rule.name.empty()) {
    rule.name = "rule_" + std::to_string(next_rule_id_++);
  }
  if (rules_.count(rule.name)) {
    next_rule_id_ = next_before;
    return Status::AlreadyExists("rule " + rule.name + " already exists");
  }
  std::string name = rule.name;
  rules_[name] = std::move(rule);
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, name, next_before] {
      rules_.erase(name);
      next_rule_id_ = next_before;
    });
  }
  return Status::Ok();
}

Status DependencyManager::RemoveRule(const std::string& name) {
  auto it = rules_.find(name);
  if (it == rules_.end()) {
    return Status::NotFound("no rule " + name);
  }
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, name, rule = it->second] { rules_[name] = rule; });
  }
  rules_.erase(it);
  return Status::Ok();
}

const DependencyRule* DependencyManager::RuleOn(
    const std::string& table) const {
  for (const auto& [name, rule] : rules_) {
    if (rule.target.table == table) return &rule;
    for (const ColumnRef& src : rule.sources) {
      if (src.table == table) return &rule;
    }
  }
  return nullptr;
}

Result<bool> DependencyManager::SetOutdated(const std::string& table,
                                            RowId row, size_t col,
                                            bool outdated) {
  BDBMS_ASSIGN_OR_RETURN(OutdatedBitmap * bm, BitmapFor(table));
  if (bm->IsOutdated(row, col) == outdated) return false;
  if (outdated) {
    bm->Mark(row, col);
  } else {
    bm->Clear(row, col);
  }
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, table, row, col, outdated] {
      (void)SetOutdated(table, row, col, !outdated);
    });
  }
  return true;
}

std::multimap<ColumnRef, ColumnRef> DependencyManager::BuildEdges(
    const DependencyRule* extra) const {
  std::multimap<ColumnRef, ColumnRef> edges;
  auto add = [&edges](const DependencyRule& r) {
    for (const ColumnRef& s : r.sources) {
      edges.insert({s, r.target});
    }
  };
  for (const auto& [name, r] : rules_) add(r);
  if (extra != nullptr) add(*extra);
  return edges;
}

bool DependencyManager::WouldCreateCycle(const DependencyRule& rule) const {
  auto edges = BuildEdges(&rule);
  // A cycle exists iff the target can reach one of the sources.
  for (const ColumnRef& s : rule.sources) {
    if (Reaches(edges, rule.target, s)) return true;
  }
  return false;
}

Result<std::vector<RowId>> DependencyManager::AffectedTargetRows(
    const DependencyRule& rule, RowId source_row) {
  const std::string& src_table = rule.sources[0].table;
  if (!rule.join.has_value()) {
    return std::vector<RowId>{source_row};  // same table, same row
  }
  BDBMS_ASSIGN_OR_RETURN(Table * src, catalog_->GetTable(src_table));
  BDBMS_ASSIGN_OR_RETURN(Table * dst, catalog_->GetTable(rule.target.table));
  BDBMS_ASSIGN_OR_RETURN(
      size_t src_key, src->schema().ColumnIndex(rule.join->source_key_column));
  BDBMS_ASSIGN_OR_RETURN(
      size_t dst_key, dst->schema().ColumnIndex(rule.join->target_key_column));
  auto src_row_data = src->Get(source_row);
  if (!src_row_data.ok()) {
    if (src_row_data.status().IsNotFound()) return std::vector<RowId>{};
    return src_row_data.status();
  }
  return RowsWithKey(*dst, dst_key, (*src_row_data)[src_key]);
}

Result<std::vector<Value>> DependencyManager::GatherInputs(
    const DependencyRule& rule, RowId target_row) {
  const std::string& src_table = rule.sources[0].table;
  BDBMS_ASSIGN_OR_RETURN(Table * dst, catalog_->GetTable(rule.target.table));
  if (!rule.join.has_value()) {
    // Sources live in the target row's own table.
    BDBMS_ASSIGN_OR_RETURN(Row row, dst->Get(target_row));
    std::vector<Value> inputs;
    for (const ColumnRef& s : rule.sources) {
      BDBMS_ASSIGN_OR_RETURN(size_t idx, dst->schema().ColumnIndex(s.column));
      inputs.push_back(row[idx]);
    }
    return inputs;
  }
  // Cross-table: locate the (first) source row joining to the target row.
  BDBMS_ASSIGN_OR_RETURN(Table * src, catalog_->GetTable(src_table));
  BDBMS_ASSIGN_OR_RETURN(
      size_t src_key, src->schema().ColumnIndex(rule.join->source_key_column));
  BDBMS_ASSIGN_OR_RETURN(
      size_t dst_key, dst->schema().ColumnIndex(rule.join->target_key_column));
  BDBMS_ASSIGN_OR_RETURN(Row target_data, dst->Get(target_row));
  const Value& key = target_data[dst_key];
  BDBMS_ASSIGN_OR_RETURN(std::vector<RowId> matches,
                         RowsWithKey(*src, src_key, key));
  if (matches.empty()) {
    return Status::NotFound("no joining source row for target key " +
                            key.ToString());
  }
  BDBMS_ASSIGN_OR_RETURN(Row source_row, src->Get(matches.front()));
  std::vector<Value> inputs;
  for (const ColumnRef& s : rule.sources) {
    BDBMS_ASSIGN_OR_RETURN(size_t idx, src->schema().ColumnIndex(s.column));
    inputs.push_back(source_row[idx]);
  }
  return inputs;
}

Result<DependencyManager::PropagationReport> DependencyManager::OnCellUpdated(
    const std::string& table, RowId row, size_t col) {
  BDBMS_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(table));
  const TableSchema& schema = t->schema();
  if (col >= schema.num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  PropagationReport report;
  std::deque<WorkItem> work;
  work.push_back({{table, schema.column(col).name}, row, true});
  BDBMS_RETURN_IF_ERROR(Propagate(std::move(work), &report));
  return report;
}

Status DependencyManager::Propagate(std::deque<WorkItem> work,
                                    PropagationReport* report) {
  // Deduplicate (cell, validity) work items; the rule graph is acyclic so
  // this terminates, the dedupe just avoids rework on diamonds.
  std::set<std::tuple<std::string, std::string, RowId, bool>> enqueued;
  for (const WorkItem& w : work) {
    enqueued.insert({w.column.table, w.column.column, w.row, w.upstream_valid});
  }
  while (!work.empty()) {
    WorkItem item = std::move(work.front());
    work.pop_front();
    for (const auto& [name, rule] : rules_) {
      bool matches = false;
      for (const ColumnRef& s : rule.sources) {
        if (s == item.column) {
          matches = true;
          break;
        }
      }
      if (!matches) continue;

      BDBMS_ASSIGN_OR_RETURN(std::vector<RowId> targets,
                             AffectedTargetRows(rule, item.row));
      BDBMS_ASSIGN_OR_RETURN(const ProcedureInfo* proc,
                             procedures_->Get(rule.procedure));
      BDBMS_ASSIGN_OR_RETURN(Table * dst,
                             catalog_->GetTable(rule.target.table));
      BDBMS_ASSIGN_OR_RETURN(size_t dst_col,
                             dst->schema().ColumnIndex(rule.target.column));

      for (RowId t_row : targets) {
        CellRef cell{rule.target.table, t_row, dst_col};
        bool valid_next;
        if (item.upstream_valid && proc->executable) {
          BDBMS_ASSIGN_OR_RETURN(std::vector<Value> inputs,
                                 GatherInputs(rule, t_row));
          BDBMS_ASSIGN_OR_RETURN(Value out, proc->fn(inputs));
          BDBMS_RETURN_IF_ERROR(dst->UpdateCell(t_row, dst_col, out));
          // The recomputed value is fresh again.
          BDBMS_RETURN_IF_ERROR(
              SetOutdated(rule.target.table, t_row, dst_col, false).status());
          report->recomputed.push_back(cell);
          valid_next = true;
        } else {
          BDBMS_ASSIGN_OR_RETURN(
              bool marked,
              SetOutdated(rule.target.table, t_row, dst_col, true));
          if (marked) report->outdated.push_back(cell);
          valid_next = false;
        }
        std::tuple<std::string, std::string, RowId, bool> key{
            rule.target.table, rule.target.column, t_row, valid_next};
        if (enqueued.insert(key).second) {
          work.push_back({{rule.target.table, rule.target.column}, t_row,
                          valid_next});
        }
      }
    }
  }
  return Status::Ok();
}

Result<DependencyManager::PropagationReport>
DependencyManager::OnProcedureChanged(const std::string& procedure) {
  BDBMS_ASSIGN_OR_RETURN(const ProcedureInfo* proc,
                         procedures_->Get(procedure));
  PropagationReport report;
  std::deque<WorkItem> work;
  for (const auto& [name, rule] : rules_) {
    if (rule.procedure != procedure) continue;
    BDBMS_ASSIGN_OR_RETURN(Table * dst, catalog_->GetTable(rule.target.table));
    BDBMS_ASSIGN_OR_RETURN(size_t dst_col,
                           dst->schema().ColumnIndex(rule.target.column));
    std::vector<RowId> all_rows;
    BDBMS_RETURN_IF_ERROR(dst->Scan([&](RowId rid, const Row&) {
      all_rows.push_back(rid);
      return Status::Ok();
    }));
    for (RowId t_row : all_rows) {
      CellRef cell{rule.target.table, t_row, dst_col};
      if (proc->executable) {
        BDBMS_ASSIGN_OR_RETURN(std::vector<Value> inputs,
                               GatherInputs(rule, t_row));
        BDBMS_ASSIGN_OR_RETURN(Value out, proc->fn(inputs));
        BDBMS_RETURN_IF_ERROR(dst->UpdateCell(t_row, dst_col, out));
        BDBMS_RETURN_IF_ERROR(
            SetOutdated(rule.target.table, t_row, dst_col, false).status());
        report.recomputed.push_back(cell);
        work.push_back({rule.target, t_row, true});
      } else {
        BDBMS_ASSIGN_OR_RETURN(
            bool marked, SetOutdated(rule.target.table, t_row, dst_col, true));
        if (marked) report.outdated.push_back(cell);
        work.push_back({rule.target, t_row, false});
      }
    }
  }
  BDBMS_RETURN_IF_ERROR(Propagate(std::move(work), &report));
  return report;
}

Result<DependencyManager::PropagationReport> DependencyManager::OnRowErased(
    const std::string& table, RowId row, const Row& old_values) {
  PropagationReport report;
  std::deque<WorkItem> work;
  for (const auto& [name, rule] : rules_) {
    if (rule.sources[0].table != table) continue;
    if (!rule.join.has_value()) continue;  // same-table target died with row
    BDBMS_ASSIGN_OR_RETURN(Table * src, catalog_->GetTable(table));
    BDBMS_ASSIGN_OR_RETURN(
        size_t src_key,
        src->schema().ColumnIndex(rule.join->source_key_column));
    if (src_key >= old_values.size()) {
      return Status::Internal("row image does not match schema");
    }
    const Value& key = old_values[src_key];
    BDBMS_ASSIGN_OR_RETURN(Table * dst, catalog_->GetTable(rule.target.table));
    BDBMS_ASSIGN_OR_RETURN(
        size_t dst_key,
        dst->schema().ColumnIndex(rule.join->target_key_column));
    BDBMS_ASSIGN_OR_RETURN(size_t dst_col,
                           dst->schema().ColumnIndex(rule.target.column));
    BDBMS_ASSIGN_OR_RETURN(std::vector<RowId> targets,
                           RowsWithKey(*dst, dst_key, key));
    for (RowId t_row : targets) {
      BDBMS_ASSIGN_OR_RETURN(
          bool marked, SetOutdated(rule.target.table, t_row, dst_col, true));
      if (marked) {
        report.outdated.push_back({rule.target.table, t_row, dst_col});
      }
      work.push_back({rule.target, t_row, /*upstream_valid=*/false});
    }
  }
  (void)row;
  BDBMS_RETURN_IF_ERROR(Propagate(std::move(work), &report));
  return report;
}

bool DependencyManager::IsOutdated(const std::string& table, RowId row,
                                   size_t col) const {
  const OutdatedBitmap* bm = FindBitmap(table);
  return bm != nullptr && bm->IsOutdated(row, col);
}

ColumnMask DependencyManager::OutdatedMask(const std::string& table,
                                           RowId row) const {
  const OutdatedBitmap* bm = FindBitmap(table);
  return bm == nullptr ? 0 : bm->RowMask(row);
}

uint64_t DependencyManager::OutdatedCount(const std::string& table) const {
  const OutdatedBitmap* bm = FindBitmap(table);
  return bm == nullptr ? 0 : bm->CountOutdated();
}

Result<OutdatedBitmap*> DependencyManager::BitmapFor(
    const std::string& table) {
  auto it = bitmaps_.find(table);
  if (it != bitmaps_.end()) return &it->second;
  BDBMS_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(table));
  auto [inserted, ok] =
      bitmaps_.emplace(table, OutdatedBitmap(t->schema().num_columns()));
  return &inserted->second;
}

const OutdatedBitmap* DependencyManager::FindBitmap(
    const std::string& table) const {
  auto it = bitmaps_.find(table);
  return it == bitmaps_.end() ? nullptr : &it->second;
}

void DependencyManager::DropBitmap(const std::string& table) {
  auto it = bitmaps_.find(table);
  if (it == bitmaps_.end()) return;
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, table, bitmap = std::move(it->second)] {
      bitmaps_.emplace(table, bitmap);
    });
  }
  bitmaps_.erase(it);
}

Status DependencyManager::Revalidate(const std::string& table, RowId row,
                                     size_t col) {
  BDBMS_ASSIGN_OR_RETURN(bool cleared, SetOutdated(table, row, col, false));
  if (!cleared) {
    return Status::FailedPrecondition("cell is not marked outdated");
  }
  return Status::Ok();
}

Result<DependencyManager::PropagationReport>
DependencyManager::RevalidateWithValue(const std::string& table, RowId row,
                                       size_t col, Value value) {
  BDBMS_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(table));
  BDBMS_RETURN_IF_ERROR(t->UpdateCell(row, col, std::move(value)));
  BDBMS_RETURN_IF_ERROR(SetOutdated(table, row, col, false).status());
  return OnCellUpdated(table, row, col);
}

}  // namespace bdbms
