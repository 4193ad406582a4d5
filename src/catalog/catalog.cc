#include "catalog/catalog.h"

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
  std::unique_ptr<Table> table;
  if (storage_) {
    BDBMS_ASSIGN_OR_RETURN(table, storage_(schema));
  } else {
    BDBMS_ASSIGN_OR_RETURN(table, Table::CreateInMemory(schema));
  }
  return AddTable(std::move(table));
}

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  const std::string name = table->schema().name();
  if (tables_.count(name)) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  table->set_mvcc(mvcc_);
  tables_[name] = std::move(table);
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, name] { tables_.erase(name); });
  }
  return Status::Ok();
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table " + name);
  }
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    // std::function needs a copyable capture, hence the shared_ptr.
    auto held = std::make_shared<std::unique_ptr<Table>>(std::move(it->second));
    w->undo.push_back([this, name, held] { tables_[name] = std::move(*held); });
  }
  tables_.erase(it);
  return Status::Ok();
}

Result<Table*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table " + name);
  }
  return it->second.get();
}

}  // namespace bdbms
