// Index nested-loop join: the planner probes the inner table's B+-tree
// once per outer row when that is cheaper than hashing a scan of it.
// Every differential case runs a statement under the IndexNestedLoopJoin
// plan and again after DROP INDEX (which plans a HashJoin over a scan) or
// in its nested-loop form (`a <= b AND a >= b`, no equi key), and expects
// the same multiset of rows and per-column annotations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/session.h"

namespace bdbms {
namespace {

#define EXEC_OK(db, sql)                                          \
  do {                                                            \
    auto _r = (db).Execute(sql);                                  \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> "                      \
                         << _r.status().ToString();               \
  } while (0)

std::string Cell(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.type() == DataType::kInt) return std::to_string(v.as_int());
  if (v.type() == DataType::kDouble) return std::to_string(v.as_double());
  return v.as_string();
}

// The result as a sorted multiset: one string per row, each cell followed
// by its annotations (category, id, body), sorted within the cell.
std::vector<std::string> RowSet(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const ResultRow& row : result.rows) {
    std::string line;
    for (size_t c = 0; c < row.values.size(); ++c) {
      line += Cell(row.values[c]);
      std::vector<std::string> anns;
      for (const ResultAnnotation& a : row.annotations[c]) {
        anns.push_back(a.category + ":" + std::to_string(a.id) + ":" +
                       a.body);
      }
      std::sort(anns.begin(), anns.end());
      for (const std::string& a : anns) line += "[" + a + "]";
      line += '|';
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

template <typename Engine>
std::string ExplainOf(Engine& engine, const std::string& sql) {
  auto r = engine.Execute("EXPLAIN " + sql);
  EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
  return r.ok() ? r->message : "";
}

template <typename Engine>
std::vector<std::string> RowsOf(Engine& engine, const std::string& sql) {
  auto r = engine.Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
  return r.ok() ? RowSet(*r) : std::vector<std::string>{"<error>"};
}

bool Has(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

std::string GeneId(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "G%03d", i);
  return buf;
}

// Gene(GID TEXT, Num INT, Grp INT, GName TEXT): 200 genes, every 7th with
// NULL keys, Grp = i % 20 (indexed, so `Grp = 3` is a 10-row outer side).
// Protein(PName TEXT, GID TEXT, GNum INT, Len INT): 400 proteins, two per
// gene key, every 25th with NULL keys; GID and GNum indexed.
class IndexNestedLoopJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EXEC_OK(db_, "CREATE TABLE Gene (GID TEXT, Num INT, Grp INT, "
                 "GName TEXT)");
    EXEC_OK(db_, "CREATE TABLE Protein (PName TEXT, GID TEXT, GNum INT, "
                 "Len INT)");
    std::string insert = "INSERT INTO Gene VALUES ";
    for (int i = 0; i < 200; ++i) {
      if (i > 0) insert += ", ";
      bool null_key = i % 7 == 0;
      insert += "(" + (null_key ? "NULL" : "'" + GeneId(i) + "'") + ", " +
                (null_key ? "NULL" : std::to_string(i)) + ", " +
                std::to_string(i % 20) + ", 'g" + std::to_string(i) + "')";
    }
    EXEC_OK(db_, insert);
    insert = "INSERT INTO Protein VALUES ";
    for (int j = 0; j < 400; ++j) {
      if (j > 0) insert += ", ";
      bool null_key = j % 25 == 0;
      insert += "('p" + std::to_string(j) + "', " +
                (null_key ? "NULL" : "'" + GeneId(j / 2) + "'") + ", " +
                (null_key ? "NULL" : std::to_string(j / 2)) + ", " +
                std::to_string(j) + ")";
    }
    EXEC_OK(db_, insert);
    EXEC_OK(db_, "CREATE INDEX gene_grp ON Gene (Grp)");
    EXEC_OK(db_, "CREATE INDEX protein_gid ON Protein (GID)");
    EXEC_OK(db_, "CREATE INDEX protein_num ON Protein (GNum)");
    EXEC_OK(db_, "ANALYZE");
  }

  // Runs `sql` under the index nested-loop plan, then after `drop`, which
  // must turn it into a HashJoin; both runs return the same multiset.
  void ExpectSameAfterDrop(const std::string& sql,
                           const std::vector<std::string>& drops,
                           size_t expected_rows) {
    std::string plan = ExplainOf(db_, sql);
    EXPECT_TRUE(Has(plan, "IndexNestedLoopJoin")) << plan;
    std::vector<std::string> probed = RowsOf(db_, sql);
    EXPECT_EQ(probed.size(), expected_rows) << sql;
    for (const std::string& drop : drops) EXEC_OK(db_, drop);
    plan = ExplainOf(db_, sql);
    EXPECT_FALSE(Has(plan, "IndexNestedLoopJoin")) << plan;
    EXPECT_TRUE(Has(plan, "HashJoin")) << plan;
    EXPECT_EQ(RowsOf(db_, sql), probed) << sql;
  }

  Database db_;
};

// Outer `Grp = 3` is genes 3, 23, ..., 183; gene 63 has NULL keys, so 9
// genes join, each with both its proteins (none of them has NULL keys).
constexpr size_t kGrp3Rows = 18;

TEST_F(IndexNestedLoopJoinTest, TextKeysWithNullsAndDuplicates) {
  const std::string sql =
      "SELECT G.GName, P.PName FROM Gene G, Protein P "
      "WHERE G.GID = P.GID AND G.Grp = 3";
  EXPECT_EQ(ExplainOf(db_, sql),
            "Project [GName, PName]  (rows=20 cost=156.1)\n"
            "  IndexNestedLoopJoin (G.GID = P.GID)  (rows=20 cost=154.1)\n"
            "    IndexScan Gene AS G USING gene_grp (G.Grp = 3)"
            "  (rows=10 cost=27.7)\n"
            "    IndexScan Protein AS P USING protein_gid (P.GID = G.GID)"
            "  (rows=2 cost=12.6)\n");
  ExpectSameAfterDrop(sql, {"DROP INDEX protein_gid ON Protein"},
                      kGrp3Rows);
}

TEST_F(IndexNestedLoopJoinTest, IntKeysWithNullsAndDuplicates) {
  ExpectSameAfterDrop(
      "SELECT G.Num, P.PName, P.GNum FROM Gene G, Protein P "
      "WHERE G.Num = P.GNum AND G.Grp = 3",
      {"DROP INDEX protein_num ON Protein"}, kGrp3Rows);
}

TEST_F(IndexNestedLoopJoinTest, TwoKeysProbeOneAndVerifyTheOther) {
  // Gene 3's proteins match on GID only: p6's second key differs, and
  // p7's is NULL on both sides, which never joins. Neither must join.
  EXEC_OK(db_, "UPDATE Protein SET GNum = 999 WHERE PName = 'p6'");
  EXEC_OK(db_, "UPDATE Protein SET GNum = NULL WHERE PName = 'p7'");
  EXEC_OK(db_, "UPDATE Gene SET Num = NULL WHERE GName = 'g3'");
  ExpectSameAfterDrop(
      "SELECT G.GName, P.PName FROM Gene G, Protein P "
      "WHERE G.GID = P.GID AND G.Num = P.GNum AND G.Grp = 3",
      {"DROP INDEX protein_gid ON Protein",
       "DROP INDEX protein_num ON Protein"},
      kGrp3Rows - 2);
}

TEST_F(IndexNestedLoopJoinTest, PushedInnerFilterRunsPerProbe) {
  const std::string sql =
      "SELECT G.GName, P.PName, P.Len FROM Gene G, Protein P "
      "WHERE G.GID = P.GID AND G.Grp = 3 AND P.Len > 100";
  std::string plan = ExplainOf(db_, sql);
  EXPECT_TRUE(Has(plan,
                  "    Filter (P.Len > 100)  (rows=1 cost=12.8)\n"
                  "      IndexScan Protein AS P USING protein_gid "
                  "(P.GID = G.GID)"))
      << plan;
  // Genes 3, 23 and 43 hold proteins 6, 7, 46, 47, 86, 87: all at or
  // below 100.
  ExpectSameAfterDrop(sql, {"DROP INDEX protein_gid ON Protein"},
                      kGrp3Rows - 6);
}

TEST_F(IndexNestedLoopJoinTest, ThreeTableChainKeepsStarColumnOrder) {
  EXEC_OK(db_, "CREATE TABLE Func (PName TEXT, Fn TEXT)");
  std::string insert = "INSERT INTO Func VALUES ";
  for (int j = 0; j < 400; ++j) {
    if (j > 0) insert += ", ";
    insert += "('p" + std::to_string(j) + "', 'f" + std::to_string(j) + "')";
  }
  EXEC_OK(db_, insert);
  EXEC_OK(db_, "CREATE INDEX func_pname ON Func (PName)");
  EXEC_OK(db_, "ANALYZE Func");
  const std::string sql =
      "SELECT * FROM Func F, Protein P, Gene G "
      "WHERE G.GID = P.GID AND P.PName = F.PName AND G.Grp = 3";
  std::string plan = ExplainOf(db_, sql);
  // Gene drives both probes, so the physical order is G, P, F and a
  // projection restores FROM order.
  EXPECT_TRUE(Has(plan, "IndexNestedLoopJoin (P.PName = F.PName)")) << plan;
  EXPECT_TRUE(Has(plan, "IndexNestedLoopJoin (G.GID = P.GID)")) << plan;
  EXPECT_TRUE(Has(plan, "USING func_pname (F.PName = P.PName)")) << plan;
  auto r = db_.Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->columns.size(), 10u);  // Func ++ Protein ++ Gene
  EXPECT_EQ(r->columns[1], "Fn");
  EXPECT_EQ(r->columns[5], "Len");
  EXPECT_EQ(r->columns[9], "GName");
  for (const ResultRow& row : r->rows) {
    EXPECT_EQ(row.values[0].as_string(), row.values[2].as_string());
    EXPECT_EQ(row.values[3].as_string(), row.values[6].as_string());
  }
  ExpectSameAfterDrop(sql,
                      {"DROP INDEX protein_gid ON Protein",
                       "DROP INDEX func_pname ON Func"},
                      kGrp3Rows);
}

TEST_F(IndexNestedLoopJoinTest, InnerAnnotationsAndOutdatedCells) {
  EXEC_OK(db_, "CREATE ANNOTATION TABLE Notes ON Protein");
  EXEC_OK(db_, "ADD ANNOTATION TO Protein.Notes VALUE '<n>checked</n>' "
               "ON (SELECT Len FROM Protein WHERE GID = 'G023')");
  EXEC_OK(db_, "ADD ANNOTATION TO Protein.Notes VALUE '<n>named</n>' "
               "ON (SELECT PName FROM Protein WHERE PName = 'p6')");
  auto bitmap = db_.dependencies().BitmapFor("Protein");
  ASSERT_TRUE(bitmap.ok());
  (*bitmap)->Mark(7, 3);  // p7's Len
  const std::string sql =
      "SELECT G.GName, P.PName, P.Len FROM Gene G, Protein P "
      "ANNOTATION(Notes) WHERE G.GID = P.GID AND G.Grp = 3";
  std::vector<std::string> before = RowsOf(db_, sql);
  size_t annotated = 0;
  for (const std::string& row : before) {
    annotated += Has(row, "[Notes:") || Has(row, "[_outdated:");
  }
  EXPECT_EQ(annotated, 4u);  // p6, p7, p46, p47
  ExpectSameAfterDrop(sql, {"DROP INDEX protein_gid ON Protein"},
                      kGrp3Rows);
}

TEST_F(IndexNestedLoopJoinTest, PinnedSnapshotWhileKeysMove) {
  const std::string sql =
      "SELECT G.GName, P.PName FROM Gene G, Protein P "
      "WHERE G.GID = P.GID AND G.Grp = 3";
  const std::string nested =
      "SELECT G.GName, P.PName FROM Gene G, Protein P "
      "WHERE G.GID <= P.GID AND G.GID >= P.GID AND G.Grp = 3";
  Session reader(&db_, "admin");
  Session writer(&db_, "admin");
  EXEC_OK(reader, "BEGIN");
  EXPECT_TRUE(Has(ExplainOf(reader, sql), "IndexNestedLoopJoin"));
  std::vector<std::string> pinned = RowsOf(reader, sql);
  ASSERT_EQ(pinned.size(), kGrp3Rows);
  // Move keys into, out of and within the outer side.
  EXEC_OK(writer, "UPDATE Protein SET GID = 'G100' WHERE PName = 'p6'");
  EXEC_OK(writer, "UPDATE Protein SET GID = 'G023' WHERE PName = 'p8'");
  EXEC_OK(writer, "UPDATE Protein SET GID = 'G043' WHERE PName = 'p46'");
  EXPECT_EQ(RowsOf(reader, sql), pinned);
  EXPECT_EQ(RowsOf(reader, nested), pinned);
  EXEC_OK(reader, "COMMIT");
  std::vector<std::string> latest = RowsOf(reader, sql);
  EXPECT_EQ(latest.size(), kGrp3Rows);  // one out, one in, one moved
  EXPECT_NE(latest, pinned);
  EXPECT_EQ(RowsOf(reader, nested), latest);
}

// The EscalatedIsolationTest shapes: once a transaction escalates, it
// reads the latest state, and the index keeps an entry per retained
// version — repeated entries for a row updated outside its key, a stale
// entry under the old key for a row whose key changed.
TEST_F(IndexNestedLoopJoinTest, EscalatedTransactionRepeatedAndStaleKeys) {
  const std::string sql =
      "SELECT G.GName, P.PName, P.Len FROM Gene G, Protein P "
      "WHERE G.GID = P.GID AND G.Grp = 3";
  const std::string nested =
      "SELECT G.GName, P.PName, P.Len FROM Gene G, Protein P "
      "WHERE G.GID <= P.GID AND G.GID >= P.GID AND G.Grp = 3";
  Session s(&db_, "admin");
  EXEC_OK(s, "BEGIN");
  EXEC_OK(s, "UPDATE Protein SET GID = 'G023' WHERE PName = 'p7'");
  EXEC_OK(s, "ANALYZE Protein");  // escalates
  EXEC_OK(s, "UPDATE Protein SET Len = 9999 WHERE PName = 'p6'");
  EXEC_OK(s, "UPDATE Protein SET Len = 9998 WHERE PName = 'p6'");
  EXPECT_TRUE(Has(ExplainOf(s, sql), "IndexNestedLoopJoin"));
  std::vector<std::string> rows = RowsOf(s, sql);
  EXPECT_EQ(rows, RowsOf(s, nested));
  size_t p6 = 0, p7 = 0;
  for (const std::string& row : rows) {
    if (Has(row, "|p6|")) {
      ++p6;
      EXPECT_EQ(row, "g3|p6|9998|");
    }
    if (Has(row, "|p7|")) {
      ++p7;
      EXPECT_EQ(row, "g23|p7|7|");  // only under its new key
    }
  }
  EXPECT_EQ(p6, 1u);
  EXPECT_EQ(p7, 1u);
  EXPECT_EQ(rows.size(), kGrp3Rows);
  EXEC_OK(s, "COMMIT");
}

TEST_F(IndexNestedLoopJoinTest, MixedIntDoubleKeysKeepHashJoin) {
  // An INT outer key cannot probe a DOUBLE index exactly (one numeric
  // rank, two encodings): the join stays a HashJoin however cheap the
  // probes would be.
  EXEC_OK(db_, "CREATE TABLE Weight (GNum DOUBLE, W INT)");
  std::string insert = "INSERT INTO Weight VALUES ";
  for (int j = 0; j < 400; ++j) {
    if (j > 0) insert += ", ";
    insert += "(" + std::to_string(j / 2) + ".0, " + std::to_string(j) + ")";
  }
  EXEC_OK(db_, insert);
  EXEC_OK(db_, "CREATE INDEX weight_num ON Weight (GNum)");
  EXEC_OK(db_, "ANALYZE Weight");
  const std::string sql =
      "SELECT G.Num, W.W FROM Gene G, Weight W "
      "WHERE G.Num = W.GNum AND G.Grp = 3";
  std::string plan = ExplainOf(db_, sql);
  EXPECT_TRUE(Has(plan, "HashJoin (G.Num = W.GNum)")) << plan;
  EXPECT_FALSE(Has(plan, "IndexNestedLoopJoin")) << plan;
  EXPECT_EQ(RowsOf(db_, sql).size(), kGrp3Rows);
}

// The curation join of the paper's schema: a 50-gene GID range joined to
// Protein on GID. The text range estimates 50 of 1,000 rows from the
// analyzed min and max ('GG000'..'GG999' interpolate in base 10), and
// each outer gene probes protein_gid instead of hashing a Protein scan.
TEST(GeneProteinJoinPlan, TextRangeOuterProbesProteinIndex) {
  Database db;
  EXEC_OK(db, "CREATE TABLE Gene (GID TEXT, GName TEXT)");
  EXEC_OK(db, "CREATE TABLE Protein (PName TEXT, GID TEXT)");
  std::string genes = "INSERT INTO Gene VALUES ";
  std::string proteins = "INSERT INTO Protein VALUES ";
  for (int i = 0; i < 1000; ++i) {
    if (i > 0) {
      genes += ", ";
      proteins += ", ";
    }
    std::string gid = "G" + GeneId(i);
    genes += "('" + gid + "', 'g" + std::to_string(i) + "')";
    proteins += "('p" + std::to_string(i) + "', '" + gid + "')";
  }
  EXEC_OK(db, genes);
  EXEC_OK(db, proteins);
  EXEC_OK(db, "CREATE INDEX gene_gid ON Gene (GID)");
  EXEC_OK(db, "CREATE INDEX protein_gid ON Protein (GID)");
  EXEC_OK(db, "ANALYZE");
  const std::string sql =
      "SELECT G.GID, P.PName FROM Gene G, Protein P WHERE G.GID = P.GID "
      "AND G.GID >= 'GG100' AND G.GID < 'GG150'";
  EXPECT_EQ(ExplainOf(db, sql),
            "Project [GID, PName]  (rows=50 cost=714.0)\n"
            "  IndexNestedLoopJoin (G.GID = P.GID)  (rows=50 cost=709.0)\n"
            "    IndexScan Gene AS G USING gene_gid (G.GID >= 'GG100') AND "
            "(G.GID < 'GG150')  (rows=50 cost=110.1)\n"
            "    IndexScan Protein AS P USING protein_gid (P.GID = G.GID)"
            "  (rows=1 cost=12.0)\n");
  EXPECT_EQ(RowsOf(db, sql).size(), 50u);
}

}  // namespace
}  // namespace bdbms
