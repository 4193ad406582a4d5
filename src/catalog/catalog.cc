#include "catalog/catalog.h"

#include <memory>

#include "txn/mvcc.h"

namespace bdbms {

Status Catalog::CreateTable(const TableSchema& schema) {
  if (schema.name().empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table " + schema.name() +
                                   " must have at least one column");
  }
  if (tables_.count(schema.name())) {
    return Status::AlreadyExists("table " + schema.name() + " already exists");
  }
  tables_[schema.name()] = schema;
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, name = schema.name()] { tables_.erase(name); });
  }
  return Status::Ok();
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table " + name);
  }
  // The drop cascades over four maps; the compensation restores every
  // erased entry, so capture them before touching anything.
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    TableSchema schema = it->second;
    std::map<std::string, AnnotationTableInfo> anns;
    for (const auto& [key, info] : annotation_tables_) {
      if (info.on_table == name) anns[key] = info;
    }
    std::map<std::string, IndexInfo> idxs;
    for (const auto& [key, info] : indexes_) {
      if (info.on_table == name) idxs[key] = info;
    }
    auto stats = std::make_shared<std::map<std::string, TableStats>>();
    auto stats_it = stats_.find(name);
    if (stats_it != stats_.end()) (*stats)[name] = stats_it->second;
    w->undo.push_back([this, schema, anns, idxs, stats] {
      tables_[schema.name()] = schema;
      for (const auto& [key, info] : anns) annotation_tables_[key] = info;
      for (const auto& [key, info] : idxs) indexes_[key] = info;
      for (const auto& [key, st] : *stats) stats_[key] = st;
    });
  }
  tables_.erase(it);
  // Drop dependent annotation tables.
  for (auto ann_it = annotation_tables_.begin();
       ann_it != annotation_tables_.end();) {
    if (ann_it->second.on_table == name) {
      ann_it = annotation_tables_.erase(ann_it);
    } else {
      ++ann_it;
    }
  }
  // Drop dependent indexes.
  for (auto idx_it = indexes_.begin(); idx_it != indexes_.end();) {
    if (idx_it->second.on_table == name) {
      idx_it = indexes_.erase(idx_it);
    } else {
      ++idx_it;
    }
  }
  stats_.erase(name);
  return Status::Ok();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Result<TableSchema> Catalog::GetSchema(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table " + name);
  }
  return it->second;
}

std::vector<std::string> Catalog::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, schema] : tables_) names.push_back(name);
  return names;
}

Status Catalog::CreateAnnotationTable(const std::string& on_table,
                                      const std::string& ann_name,
                                      bool is_provenance) {
  if (!tables_.count(on_table)) {
    return Status::NotFound("no table " + on_table);
  }
  std::string key = AnnKey(on_table, ann_name);
  if (annotation_tables_.count(key)) {
    return Status::AlreadyExists("annotation table " + key + " already exists");
  }
  annotation_tables_[key] = {ann_name, on_table, is_provenance};
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, key] { annotation_tables_.erase(key); });
  }
  return Status::Ok();
}

Status Catalog::DropAnnotationTable(const std::string& on_table,
                                    const std::string& ann_name) {
  auto it = annotation_tables_.find(AnnKey(on_table, ann_name));
  if (it == annotation_tables_.end()) {
    return Status::NotFound("no annotation table " + ann_name + " on " +
                            on_table);
  }
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, key = it->first, info = it->second] {
      annotation_tables_[key] = info;
    });
  }
  annotation_tables_.erase(it);
  return Status::Ok();
}

bool Catalog::HasAnnotationTable(const std::string& on_table,
                                 const std::string& ann_name) const {
  return annotation_tables_.count(AnnKey(on_table, ann_name)) > 0;
}

Result<AnnotationTableInfo> Catalog::GetAnnotationTable(
    const std::string& on_table, const std::string& ann_name) const {
  auto it = annotation_tables_.find(AnnKey(on_table, ann_name));
  if (it == annotation_tables_.end()) {
    return Status::NotFound("no annotation table " + ann_name + " on " +
                            on_table);
  }
  return it->second;
}

std::vector<AnnotationTableInfo> Catalog::ListAnnotationTables(
    const std::string& on_table) const {
  std::vector<AnnotationTableInfo> out;
  for (const auto& [key, info] : annotation_tables_) {
    if (info.on_table == on_table) out.push_back(info);
  }
  return out;
}

Status Catalog::CreateIndex(const std::string& on_table,
                            const std::string& index_name,
                            const std::vector<std::string>& columns,
                            IndexKind kind) {
  auto table_it = tables_.find(on_table);
  if (table_it == tables_.end()) {
    return Status::NotFound("no table " + on_table);
  }
  if (columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    auto found = table_it->second.FindColumn(columns[i]);
    if (!found.has_value()) {
      return Status::NotFound("no column " + columns[i] + " in " + on_table);
    }
    for (size_t j = 0; j < i; ++j) {
      if (columns[j] == columns[i]) {
        return Status::InvalidArgument("duplicate index column " +
                                       columns[i]);
      }
    }
    if (kind == IndexKind::kSpGist) {
      DataType type = table_it->second.column(*found).type;
      if (type != DataType::kText && type != DataType::kSequence) {
        return Status::InvalidArgument(
            "sequence index requires a TEXT or SEQUENCE column");
      }
    }
  }
  if (kind == IndexKind::kSpGist && columns.size() != 1) {
    return Status::InvalidArgument(
        "sequence index takes exactly one column");
  }
  std::string key = AnnKey(on_table, index_name);
  if (indexes_.count(key)) {
    return Status::AlreadyExists("index " + index_name + " already exists on " +
                                 on_table);
  }
  indexes_[key] = {index_name, on_table, columns.front(), columns, kind};
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, key] { indexes_.erase(key); });
  }
  return Status::Ok();
}

Status Catalog::DropIndex(const std::string& on_table,
                          const std::string& index_name) {
  auto it = indexes_.find(AnnKey(on_table, index_name));
  if (it == indexes_.end()) {
    return Status::NotFound("no index " + index_name + " on " + on_table);
  }
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back(
        [this, key = it->first, info = it->second] { indexes_[key] = info; });
  }
  indexes_.erase(it);
  return Status::Ok();
}

bool Catalog::HasIndex(const std::string& on_table,
                       const std::string& index_name) const {
  return indexes_.count(AnnKey(on_table, index_name)) > 0;
}

std::vector<IndexInfo> Catalog::ListIndexes(const std::string& on_table) const {
  std::vector<IndexInfo> out;
  for (const auto& [key, info] : indexes_) {
    if (info.on_table == on_table) out.push_back(info);
  }
  return out;
}

Status Catalog::SetStats(const std::string& table, TableStats stats) {
  if (!tables_.count(table)) {
    return Status::NotFound("no table " + table);
  }
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    auto it = stats_.find(table);
    if (it == stats_.end()) {
      w->undo.push_back([this, table] { stats_.erase(table); });
    } else {
      auto prior = std::make_shared<TableStats>(it->second);
      w->undo.push_back([this, table, prior] { stats_[table] = *prior; });
    }
  }
  stats_[table] = std::move(stats);
  return Status::Ok();
}

const TableStats* Catalog::GetStats(const std::string& table) const {
  auto it = stats_.find(table);
  return it == stats_.end() ? nullptr : &it->second;
}

}  // namespace bdbms
