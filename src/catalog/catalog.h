#ifndef BDBMS_CATALOG_CATALOG_H_
#define BDBMS_CATALOG_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "catalog/schema.h"
#include "common/result.h"
#include "table/table.h"

namespace bdbms {

struct MvccState;

// Builds the storage object of a table: a durable database opens paged
// heaps, a memory-only one builds in-memory tables.
using TableFactory =
    std::function<Result<std::unique_ptr<Table>>(const TableSchema&)>;

// Engine tables (the approval and deletion logs) are written only by the
// engine; no statement but a read may name one (Executor::Execute).
inline constexpr std::string_view kEngineTablePrefix = "bdbms_";
inline bool IsEngineTable(std::string_view name) {
  return name.substr(0, kEngineTablePrefix.size()) == kEngineTablePrefix;
}

// System catalog: the one registry of tables, and the one place that
// builds their storage. It owns every Table; a Table owns its indexes and
// ANALYZE statistics, and AnnotationManager owns the annotation tables,
// so dropping a table drops its indexes and statistics with it.
// Dependency rules live in DependencyManager, ACL/approval configs in
// AccessControl and ApprovalManager; all of them resolve names here.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Transactions: installed on every registered Table as well. While a
  // writer is installed, CreateTable and DropTable push a compensation
  // that restores the prior registration (or absence) exactly.
  void set_mvcc(MvccState* mvcc) { mvcc_ = mvcc; }

  // Installs how CreateTable builds storage; Database::Open installs the
  // paged-heap factory once. Without one, tables are in-memory.
  void set_storage(TableFactory storage) { storage_ = std::move(storage); }

  // Validates the schema (non-empty name, at least one column, name not
  // taken), then registers the Table the installed storage builds for it.
  Status CreateTable(const TableSchema& schema);

  // Registers a table whose storage already exists (checkpoint restore);
  // AlreadyExists when the name is taken.
  Status AddTable(std::unique_ptr<Table> table);

  // Unregisters `name`. While a writer is installed the Table — rows,
  // indexes and statistics — is parked in the compensation instead of
  // destroyed: rollback re-registers it intact, and until the
  // transaction settles its write set may still name it.
  Status DropTable(const std::string& name);

  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }
  // NotFound ("no table <name>") for unknown tables.
  Result<Table*> GetTable(const std::string& name) const;

  // Every table, in name order.
  const std::map<std::string, std::unique_ptr<Table>>& tables() const {
    return tables_;
  }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  TableFactory storage_;
  MvccState* mvcc_ = nullptr;
};

}  // namespace bdbms

#endif  // BDBMS_CATALOG_CATALOG_H_
