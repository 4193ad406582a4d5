#ifndef BDBMS_CATALOG_CATALOG_H_
#define BDBMS_CATALOG_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/statistics.h"
#include "common/result.h"

namespace bdbms {

// Metadata about one annotation table attached to a user relation
// (paper Figure 4: CREATE ANNOTATION TABLE <ann> ON <table>). Annotation
// tables categorize annotations — e.g. one for provenance, one for user
// comments (Section 3.1).
struct AnnotationTableInfo {
  std::string name;        // annotation table name (unique per user table)
  std::string on_table;    // the user relation it annotates
  bool is_provenance = false;  // provenance tables get system-only writers
};

// How a secondary index is organized: a B+-tree over the order-preserving
// composite key codec, or an SP-GiST trie over one sequence/text column
// (CREATE SEQUENCE INDEX ... USING SPGIST).
enum class IndexKind { kBTree, kSpGist };

// Metadata about one secondary index (CREATE [SEQUENCE] INDEX <name> ON
// <table> (<columns>)). The storage object lives in Table; the catalog
// entry is what DDL validates against.
struct IndexInfo {
  std::string name;     // index name (unique per user table)
  std::string on_table;
  std::string column;   // leading key column (compat accessor)
  std::vector<std::string> columns;  // full key column list, in order
  IndexKind kind = IndexKind::kBTree;
};

struct MvccState;

// System catalog: user tables and their annotation tables. Dependency
// rules live in DependencyManager, ACL/approval state in
// AuthorizationManager; the catalog is the name authority all of them
// validate against.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Transactions: while a writer is installed, every catalog mutation
  // pushes a compensation that restores the prior entry (or absence)
  // exactly.
  void set_mvcc(MvccState* mvcc) { mvcc_ = mvcc; }

  // --- user tables -------------------------------------------------------
  Status CreateTable(const TableSchema& schema);
  Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;
  Result<TableSchema> GetSchema(const std::string& name) const;
  std::vector<std::string> ListTables() const;

  // --- annotation tables -------------------------------------------------
  // Registers `ann_name` over `on_table`. Annotation table names are scoped
  // per user table (the A-SQL surface addresses them as table.ann_name).
  Status CreateAnnotationTable(const std::string& on_table,
                               const std::string& ann_name,
                               bool is_provenance = false);
  Status DropAnnotationTable(const std::string& on_table,
                             const std::string& ann_name);
  bool HasAnnotationTable(const std::string& on_table,
                          const std::string& ann_name) const;
  Result<AnnotationTableInfo> GetAnnotationTable(
      const std::string& on_table, const std::string& ann_name) const;
  // All annotation tables attached to `on_table`.
  std::vector<AnnotationTableInfo> ListAnnotationTables(
      const std::string& on_table) const;

  // --- secondary indexes ---------------------------------------------------
  // Registers index `index_name` over `on_table`(`columns`); validates the
  // table and every column exist, the name is unused on that table, the
  // key columns are distinct, and — for SP-GiST — that the key is a single
  // TEXT/SEQUENCE column.
  Status CreateIndex(const std::string& on_table,
                     const std::string& index_name,
                     const std::vector<std::string>& columns,
                     IndexKind kind = IndexKind::kBTree);
  Status CreateIndex(const std::string& on_table,
                     const std::string& index_name,
                     const std::string& column) {
    return CreateIndex(on_table, index_name,
                       std::vector<std::string>{column});
  }
  Status DropIndex(const std::string& on_table, const std::string& index_name);
  bool HasIndex(const std::string& on_table,
                const std::string& index_name) const;
  // All indexes on `on_table`.
  std::vector<IndexInfo> ListIndexes(const std::string& on_table) const;

  // --- statistics (ANALYZE) ------------------------------------------------
  // Stores the statistics snapshot ANALYZE collected for `table`,
  // replacing any previous snapshot. NotFound on unknown tables.
  Status SetStats(const std::string& table, TableStats stats);
  // The latest snapshot for `table`; nullptr when the table was never
  // analyzed (or was dropped/recreated since, which clears statistics).
  const TableStats* GetStats(const std::string& table) const;

 private:
  static std::string AnnKey(const std::string& on_table,
                            const std::string& ann_name) {
    return on_table + "." + ann_name;
  }

  std::map<std::string, TableSchema> tables_;
  // Keyed by "tbl.ann".
  std::map<std::string, AnnotationTableInfo> annotation_tables_;
  // Keyed by "tbl.index".
  std::map<std::string, IndexInfo> indexes_;
  std::map<std::string, TableStats> stats_;
  MvccState* mvcc_ = nullptr;
};

}  // namespace bdbms

#endif  // BDBMS_CATALOG_CATALOG_H_
