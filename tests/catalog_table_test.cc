// Unit tests for src/catalog and src/table.
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "common/random.h"
#include "core/database.h"
#include "storage/pager.h"
#include "table/table.h"
#include "wal/wal_env.h"

namespace bdbms {
namespace {

TableSchema GeneSchema() {
  TableSchema s("DB1_Gene");
  EXPECT_TRUE(s.AddColumn("GID", DataType::kText).ok());
  EXPECT_TRUE(s.AddColumn("GName", DataType::kText).ok());
  EXPECT_TRUE(s.AddColumn("GSequence", DataType::kSequence).ok());
  return s;
}

TEST(SchemaTest, ColumnLookup) {
  TableSchema s = GeneSchema();
  EXPECT_EQ(s.num_columns(), 3u);
  auto idx = s.ColumnIndex("GSequence");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 2u);
  EXPECT_FALSE(s.ColumnIndex("Nope").ok());
}

TEST(SchemaTest, RejectsDuplicateColumn) {
  TableSchema s("T");
  ASSERT_TRUE(s.AddColumn("a", DataType::kInt).ok());
  EXPECT_TRUE(s.AddColumn("a", DataType::kInt).IsAlreadyExists());
}

TEST(SchemaTest, EnforcesColumnLimit) {
  TableSchema s("T");
  for (size_t i = 0; i < kMaxColumns; ++i) {
    // Built stepwise: inline "c" + std::to_string(i) trips GCC 12's
    // -Wrestrict false positive (PR105329) at -O2 under -Werror.
    std::string name = "c";
    name += std::to_string(i);
    ASSERT_TRUE(s.AddColumn(name, DataType::kInt).ok());
  }
  EXPECT_FALSE(s.AddColumn("overflow", DataType::kInt).ok());
}

TEST(SchemaTest, ValidateRowCoerces) {
  TableSchema s("T");
  ASSERT_TRUE(s.AddColumn("x", DataType::kDouble).ok());
  auto row = s.ValidateRow({Value::Int(3)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].type(), DataType::kDouble);

  EXPECT_FALSE(s.ValidateRow({Value::Text("nope")}).ok());
  EXPECT_FALSE(s.ValidateRow({Value::Int(1), Value::Int(2)}).ok());
}

TEST(ColumnMaskTest, Helpers) {
  EXPECT_EQ(ColumnBit(0), 1u);
  EXPECT_EQ(ColumnBit(3), 8u);
  EXPECT_EQ(AllColumnsMask(3), 7u);
  EXPECT_EQ(AllColumnsMask(kMaxColumns), ~ColumnMask{0});
}

TEST(CatalogTest, CreateAndDropTable) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable(GeneSchema()).ok());
  EXPECT_TRUE(cat.HasTable("DB1_Gene"));
  EXPECT_TRUE(cat.CreateTable(GeneSchema()).IsAlreadyExists());
  auto table = cat.GetTable("DB1_Gene");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->schema().num_columns(), 3u);
  ASSERT_TRUE(cat.DropTable("DB1_Gene").ok());
  EXPECT_FALSE(cat.HasTable("DB1_Gene"));
  EXPECT_TRUE(cat.GetTable("DB1_Gene").status().IsNotFound());
  EXPECT_TRUE(cat.DropTable("DB1_Gene").IsNotFound());
}

TEST(CatalogTest, RejectsEmptyTable) {
  Catalog cat;
  EXPECT_FALSE(cat.CreateTable(TableSchema("NoCols")).ok());
  EXPECT_FALSE(cat.CreateTable(TableSchema("")).ok());
}

// Annotation tables live in the AnnotationManager; CREATE checks the user
// table against the catalog, and DROP TABLE takes them along.
TEST(CatalogTest, AnnotationTables) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE DB1_Gene (GID TEXT)").ok());
  EXPECT_TRUE(db.Execute("CREATE ANNOTATION TABLE GAnnotation ON NoSuch")
                  .status()
                  .IsNotFound());
  ASSERT_TRUE(
      db.Execute("CREATE ANNOTATION TABLE GAnnotation ON DB1_Gene").ok());
  ASSERT_TRUE(db.Execute("CREATE ANNOTATION TABLE GProvenance ON DB1_Gene "
                         "AS PROVENANCE")
                  .ok());
  EXPECT_TRUE(db.Execute("CREATE ANNOTATION TABLE GAnnotation ON DB1_Gene")
                  .status()
                  .IsAlreadyExists());
  auto plain = db.annotations().Get("DB1_Gene", "GAnnotation");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE((*plain)->is_provenance());
  auto prov = db.annotations().Get("DB1_Gene", "GProvenance");
  ASSERT_TRUE(prov.ok());
  EXPECT_TRUE((*prov)->is_provenance());
  EXPECT_EQ(db.annotations().ListFor("DB1_Gene").size(), 2u);

  // Dropping the user table cascades.
  ASSERT_TRUE(db.Execute("DROP TABLE DB1_Gene").ok());
  EXPECT_TRUE(
      db.annotations().Get("DB1_Gene", "GAnnotation").status().IsNotFound());
  EXPECT_TRUE(db.annotations().ListFor("DB1_Gene").empty());
}

TEST(TableTest, InsertGetUpdateDelete) {
  auto table = Table::CreateInMemory(GeneSchema());
  ASSERT_TRUE(table.ok());
  auto rid = (*table)->Insert(
      {Value::Text("JW0080"), Value::Text("mraW"), Value::Sequence("ATGATG")});
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*rid, 0u);

  auto row = (*table)->Get(*rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].as_string(), "mraW");

  ASSERT_TRUE((*table)->UpdateCell(*rid, 2, Value::Text("GTGAAA")).ok());
  row = (*table)->Get(*rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2].as_string(), "GTGAAA");
  // Coerced to the declared SEQUENCE type.
  EXPECT_EQ((*row)[2].type(), DataType::kSequence);

  ASSERT_TRUE((*table)->Delete(*rid).ok());
  EXPECT_TRUE((*table)->Get(*rid).status().IsNotFound());
}

TEST(TableTest, RowIdsNeverReused) {
  auto table = Table::CreateInMemory(GeneSchema());
  ASSERT_TRUE(table.ok());
  Row row = {Value::Text("a"), Value::Text("b"), Value::Sequence("C")};
  auto r0 = (*table)->Insert(row);
  auto r1 = (*table)->Insert(row);
  ASSERT_TRUE(r0.ok() && r1.ok());
  ASSERT_TRUE((*table)->Delete(*r1).ok());
  auto r2 = (*table)->Insert(row);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 2u);  // not 1
  EXPECT_EQ((*table)->next_row_id(), 3u);
  EXPECT_EQ((*table)->row_count(), 2u);
}

TEST(TableTest, ScanInRowIdOrder) {
  auto table = Table::CreateInMemory(GeneSchema());
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*table)
                    ->Insert({Value::Text("id" + std::to_string(i)),
                              Value::Text("n"), Value::Sequence("A")})
                    .ok());
  }
  ASSERT_TRUE((*table)->Delete(4).ok());
  std::vector<RowId> seen;
  ASSERT_TRUE((*table)
                  ->Scan([&](RowId id, const Row&) {
                    seen.push_back(id);
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<RowId>{0, 1, 2, 3, 5, 6, 7, 8, 9}));
}

TEST(TableTest, UpdateKeepsRowId) {
  auto table = Table::CreateInMemory(GeneSchema());
  ASSERT_TRUE(table.ok());
  auto rid = (*table)->Insert(
      {Value::Text("JW0055"), Value::Text("yabP"), Value::Sequence("ATG")});
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(
      (*table)
          ->Update(*rid, {Value::Text("JW0055"), Value::Text("yabP-v2"),
                          Value::Sequence("ATGATG")})
          .ok());
  auto row = (*table)->Get(*rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].as_string(), "yabP-v2");
}

TEST(TableTest, LongSequencePayload) {
  auto table = Table::CreateInMemory(GeneSchema());
  ASSERT_TRUE(table.ok());
  Rng rng(5);
  std::string genome = rng.NextString(50000, "ACGT");
  auto rid = (*table)->Insert(
      {Value::Text("JW9999"), Value::Text("big"), Value::Sequence(genome)});
  ASSERT_TRUE(rid.ok());
  auto row = (*table)->Get(*rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2].as_string(), genome);
}

TEST(TableTest, FileBackedReopenRecoversRows) {
  WalEnv env;
  std::string path = testing::TempDir() + "/bdbms_table_test.heap";
  const std::string files[] = {path, Pager::SpillPath(path),
                               Pager::JournalPath(path)};
  for (const std::string& f : files) std::remove(f.c_str());
  {
    auto table = Table::OpenPaged(GeneSchema(), &env, path, 64);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)
                    ->Insert({Value::Text("JW0027"), Value::Text("ispH"),
                              Value::Sequence("ATGCAG")})
                    .ok());
    // OpenPaged truncates the spill overlay, so rows survive a reopen
    // only once a checkpoint has written them into the base file.
    ASSERT_TRUE((*table)->CheckpointPrepare(1).ok());
    ASSERT_TRUE((*table)->CheckpointCommit().ok());
  }
  {
    auto table = Table::OpenPaged(GeneSchema(), &env, path, 64);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->row_count(), 1u);
    EXPECT_EQ((*table)->next_row_id(), 1u);
    auto row = (*table)->Get(0);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[0].as_string(), "JW0027");
  }
  for (const std::string& f : files) std::remove(f.c_str());
}

}  // namespace
}  // namespace bdbms
