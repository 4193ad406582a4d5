// ANALYZE statistics and cost-based planning: statistics collection
// (row count, NDV, min/max, nulls, histograms), the statistics
// lifecycle (empty tables, staleness after bulk DML, refresh, drop),
// cost-based SeqScan-vs-IndexScan selection, greedy join reordering
// with HashJoin for equi predicates, and HashJoin / NestedLoopJoin
// result equivalence.
#include <gtest/gtest.h>

#include <string>

#include "catalog/statistics.h"
#include "core/database.h"
#include "plan/cost_model.h"

namespace bdbms {
namespace {

#define EXEC_OK(db, sql)                                          \
  do {                                                            \
    auto _r = (db).Execute(sql);                                  \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> "                      \
                         << _r.status().ToString();               \
  } while (0)

// The ANALYZE snapshot stored on `table` (nullptr when never analyzed).
const TableStats* StatsOf(Database& db, const std::string& table) {
  auto t = db.GetTable(table);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.ok() ? (*t)->stats() : nullptr;
}

std::string Explain(Database& db, const std::string& sql) {
  auto r = db.Execute("EXPLAIN " + sql);
  EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
  return r.ok() ? r->message : "";
}

// ---------------------------------------------------------------------------
// ANALYZE statement + statistics collection
// ---------------------------------------------------------------------------

TEST(Analyze, CollectsRowCountNdvMinMaxAndNulls) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (id INT, grp TEXT, val DOUBLE)");
  EXEC_OK(db,
          "INSERT INTO T VALUES (1, 'a', 0.5), (2, 'a', 1.5), "
          "(3, 'b', 2.5), (4, 'b', NULL), (5, 'b', 4.5)");
  auto r = db.Execute("ANALYZE T");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].values[0].as_string(), "T");
  EXPECT_EQ(r->rows[0].values[1].as_int(), 5);

  const TableStats* stats = StatsOf(db, "T");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, 5u);
  ASSERT_EQ(stats->columns.size(), 3u);
  EXPECT_EQ(stats->columns[0].ndv, 5u);
  EXPECT_EQ(stats->columns[0].min->as_int(), 1);
  EXPECT_EQ(stats->columns[0].max->as_int(), 5);
  EXPECT_EQ(stats->columns[1].ndv, 2u);  // 'a', 'b'
  EXPECT_EQ(stats->columns[1].null_count, 0u);
  EXPECT_EQ(stats->columns[2].ndv, 4u);
  EXPECT_EQ(stats->columns[2].null_count, 1u);
  EXPECT_EQ(stats->columns[2].non_null, 4u);
  // Numeric columns carry a histogram covering all non-null values.
  ASSERT_TRUE(stats->columns[2].histogram.has_value());
  EXPECT_EQ(stats->columns[2].histogram->total, 4u);
  EXPECT_DOUBLE_EQ(stats->columns[2].histogram->lo, 0.5);
  EXPECT_DOUBLE_EQ(stats->columns[2].histogram->hi, 4.5);
  // Text columns do not.
  EXPECT_FALSE(stats->columns[1].histogram.has_value());
}

TEST(Analyze, EmptyTableAndAllTables) {
  Database db;
  EXEC_OK(db, "CREATE TABLE Empty (x INT)");
  EXEC_OK(db, "CREATE TABLE Full (x INT)");
  EXEC_OK(db, "INSERT INTO Full VALUES (1), (2)");
  // Bare ANALYZE covers every table.
  auto r = db.Execute("ANALYZE");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);
  const TableStats* stats = StatsOf(db, "Empty");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, 0u);
  ASSERT_EQ(stats->columns.size(), 1u);
  EXPECT_EQ(stats->columns[0].ndv, 0u);
  EXPECT_FALSE(stats->columns[0].min.has_value());
  EXPECT_FALSE(stats->columns[0].histogram.has_value());
  // Planning over the analyzed empty table works and estimates zero.
  std::string plan = Explain(db, "SELECT x FROM Empty WHERE x = 1");
  EXPECT_NE(plan.find("rows=0"), std::string::npos) << plan;
  auto sel =
      db.Execute("SELECT Empty.x FROM Empty, Full WHERE Empty.x = Full.x");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->rows.size(), 0u);
}

TEST(Analyze, ErrorsAndPrivileges) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (x INT)");
  EXPECT_FALSE(db.Execute("ANALYZE NoSuch").ok());
  // ANALYZE reads the table, so it demands SELECT privilege.
  EXEC_OK(db, "CREATE USER eve");
  EXPECT_FALSE(db.Execute("ANALYZE T", "eve").ok());
  EXPECT_FALSE(db.Execute("ANALYZE", "eve").ok());
  EXEC_OK(db, "GRANT SELECT ON T TO eve");
  EXPECT_TRUE(db.Execute("ANALYZE T", "eve").ok());
}

TEST(Analyze, StaleAfterBulkDeleteUntilReanalyzed) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (id INT, val INT)");
  std::string insert = "INSERT INTO T VALUES ";
  for (int i = 0; i < 100; ++i) {
    if (i > 0) insert += ", ";
    insert += "(";
    insert += std::to_string(i);
    insert += ", ";
    insert += std::to_string(i % 10);
    insert += ")";
  }
  EXEC_OK(db, insert);
  EXEC_OK(db, "ANALYZE T");
  EXPECT_NE(Explain(db, "SELECT * FROM T").find("rows=100"),
            std::string::npos);

  // Bulk delete: statistics are a snapshot and go stale...
  EXEC_OK(db, "DELETE FROM T WHERE id >= 10");
  EXPECT_NE(Explain(db, "SELECT * FROM T").find("rows=100"),
            std::string::npos);
  // ...but execution stays correct regardless.
  auto r = db.Execute("SELECT COUNT(*) AS n FROM T");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0].values[0].as_int(), 10);
  // Re-ANALYZE refreshes the snapshot.
  EXEC_OK(db, "ANALYZE T");
  EXPECT_NE(Explain(db, "SELECT * FROM T").find("rows=10"),
            std::string::npos);
  EXPECT_EQ(StatsOf(db, "T")->row_count, 10u);
}

TEST(Analyze, DropTableClearsStats) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (x INT)");
  EXEC_OK(db, "INSERT INTO T VALUES (1)");
  EXEC_OK(db, "ANALYZE T");
  ASSERT_NE(StatsOf(db, "T"), nullptr);
  EXEC_OK(db, "DROP TABLE T");
  EXEC_OK(db, "CREATE TABLE T (x INT)");
  EXPECT_EQ(StatsOf(db, "T"), nullptr);
}

// ---------------------------------------------------------------------------
// Cost-based access-path selection
// ---------------------------------------------------------------------------

class CostBasedScanFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    EXEC_OK(db_, "CREATE TABLE T (id INT, val INT)");
    std::string insert = "INSERT INTO T VALUES ";
    for (int i = 0; i < 100; ++i) {
      if (i > 0) insert += ", ";
      insert += "(";
      insert += std::to_string(i);
      insert += ", ";
      insert += std::to_string(i);
      insert += ")";
    }
    EXEC_OK(db_, insert);
    EXEC_OK(db_, "CREATE INDEX idx_val ON T (val)");
    EXEC_OK(db_, "ANALYZE T");
  }
  Database db_;
};

TEST_F(CostBasedScanFixture, SelectiveProbesUseTheIndex) {
  std::string plan = Explain(db_, "SELECT id FROM T WHERE val = 42");
  EXPECT_NE(plan.find("IndexScan T USING idx_val"), std::string::npos)
      << plan;
  plan = Explain(db_, "SELECT id FROM T WHERE val >= 90 AND val < 95");
  EXPECT_NE(plan.find("IndexScan T USING idx_val"), std::string::npos)
      << plan;
}

TEST_F(CostBasedScanFixture, LowSelectivityRangePrefersSeqScan) {
  // The histogram puts ~all rows in val >= 0: random index fetches for
  // the whole table cost more than one sequential pass.
  std::string plan = Explain(db_, "SELECT id FROM T WHERE val >= 0");
  EXPECT_NE(plan.find("SeqScan T"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter (val >= 0)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("IndexScan"), std::string::npos) << plan;
  // Both paths return the same rows.
  auto r = db_.Execute("SELECT COUNT(*) AS n FROM T WHERE val >= 0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0].values[0].as_int(), 100);
}

TEST_F(CostBasedScanFixture, OutOfRangeProbeEstimatesOneRow) {
  // The analyzed [min, max] excludes the probe: selectivity 0, clamped
  // to one row in the display; execution finds nothing.
  std::string plan = Explain(db_, "SELECT id FROM T WHERE val = 10000");
  EXPECT_NE(plan.find("IndexScan"), std::string::npos) << plan;
  auto r = db_.Execute("SELECT id FROM T WHERE val = 10000");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 0u);
}

// String ranges interpolate between the analyzed min and max on one
// scale: the byte range of the min and max digits after their shared
// prefix ('0'..'9' here). A bound byte outside it is clamped, so a
// letter in one bound does not read that bound in another base.
TEST(CostBasedStringRange, BoundsOfOneRangeShareOneScale) {
  ColumnStats gid;
  gid.non_null = 5000;
  gid.ndv = 5000;
  gid.min = Value::Text("G000000");
  gid.max = Value::Text("G004999");
  auto rows = [&](const char* lo, const char* hi) {
    return 5000 * RangeSelectivity(&gid, IndexBound{Value::Text(lo), true},
                                   IndexBound{Value::Text(hi), false});
  };
  EXPECT_NEAR(rows("G001000", "G001050"), 50.0, 1.0);
  // 'A' sorts above '9' and reads as 9: [G001009, G001050).
  EXPECT_NEAR(rows("G00100A", "G001050"), 41.0, 1.0);
  EXPECT_NEAR(rows("G001000", "G00105A"), 59.0, 1.0);
  // Bounds beyond the analyzed extremes.
  EXPECT_NEAR(rows("A", "G001000"), 5000 * (1000.0 / 4999.0), 1e-6);
  EXPECT_NEAR(rows("G004000", "Z"), 5000 * (999.0 / 4999.0), 1e-6);
}

// ---------------------------------------------------------------------------
// Join reordering + HashJoin (golden plans)
// ---------------------------------------------------------------------------

class JoinOrderFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three relations of very different size, chained by equi-joins:
    // Genes (40) -> Species (8) -> Fams (4).
    EXEC_OK(db_, "CREATE TABLE Genes (gid INT, sid INT, gname TEXT)");
    EXEC_OK(db_, "CREATE TABLE Species (sid INT, fam INT, sname TEXT)");
    EXEC_OK(db_, "CREATE TABLE Fams (fam INT, fname TEXT)");
    std::string insert = "INSERT INTO Genes VALUES ";
    for (int i = 0; i < 40; ++i) {
      if (i > 0) insert += ", ";
      insert += "(";
      insert += std::to_string(i);
      insert += ", ";
      insert += std::to_string(i % 8);
      insert += ", 'g";
      insert += std::to_string(i);
      insert += "')";
    }
    EXEC_OK(db_, insert);
    insert = "INSERT INTO Species VALUES ";
    for (int i = 0; i < 8; ++i) {
      if (i > 0) insert += ", ";
      insert += "(";
      insert += std::to_string(i);
      insert += ", ";
      insert += std::to_string(i / 2);
      insert += ", 's";
      insert += std::to_string(i);
      insert += "')";
    }
    EXEC_OK(db_, insert);
    insert = "INSERT INTO Fams VALUES ";
    for (int i = 0; i < 4; ++i) {
      if (i > 0) insert += ", ";
      insert += "(";
      insert += std::to_string(i);
      insert += ", 'f";
      insert += std::to_string(i);
      insert += "')";
    }
    EXEC_OK(db_, insert);
    EXEC_OK(db_, "ANALYZE");
  }
  Database db_;
};

TEST_F(JoinOrderFixture, ThreeTableEquiJoinReordersByCardinality) {
  // Written largest-first, executed smallest-first: the greedy order
  // joins Fams (4 rows) and Species (8) first, chaining HashJoins along
  // the equi predicates with the smaller side building on the right —
  // a right-deep pipeline probing the large fact table last, instead of
  // the left-deep order as written.
  EXPECT_EQ(Explain(db_,
                    "SELECT g.gname, f.fname FROM Genes g, Species s, Fams f "
                    "WHERE g.sid = s.sid AND s.fam = f.fam"),
            "Project [gname, fname]  (rows=40 cost=122.0)\n"
            "  HashJoin (g.sid = s.sid)  (rows=40 cost=118.0)\n"
            "    SeqScan Genes AS g  (rows=40 cost=40.0)\n"
            "    HashJoin (s.fam = f.fam)  (rows=8 cost=26.0)\n"
            "      SeqScan Species AS s  (rows=8 cost=8.0)\n"
            "      SeqScan Fams AS f  (rows=4 cost=4.0)\n");
}

TEST_F(JoinOrderFixture, ThreeTableJoinResultsMatchAnyOrder) {
  // Every FROM permutation must produce the same joined rows.
  const std::string where = "WHERE g.sid = s.sid AND s.fam = f.fam ";
  auto baseline = db_.Execute(
      "SELECT g.gname, f.fname FROM Genes g, Species s, Fams f " + where +
      "ORDER BY gname, fname");
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->rows.size(), 40u);
  for (const char* from :
       {"Fams f, Species s, Genes g", "Species s, Fams f, Genes g",
        "Genes g, Fams f, Species s"}) {
    auto r = db_.Execute("SELECT g.gname, f.fname FROM " + std::string(from) +
                         " " + where + "ORDER BY gname, fname");
    ASSERT_TRUE(r.ok()) << from;
    EXPECT_EQ(r->ToString(), baseline->ToString()) << from;
  }
}

TEST_F(JoinOrderFixture, NonEquiPredicateKeepsNestedLoopJoin) {
  // No equi conjunct: the join stays a nested-loop cross product with
  // the predicate filtering above.
  EXPECT_EQ(Explain(db_,
                    "SELECT s.sname, f.fname FROM Species s, Fams f "
                    "WHERE s.fam < f.fam"),
            "Project [sname, fname]  (rows=11 cost=48.3)\n"
            "  Filter (s.fam < f.fam)  (rows=11 cost=47.2)\n"
            "    NestedLoopJoin  (rows=32 cost=44.0)\n"
            "      SeqScan Species AS s  (rows=8 cost=8.0)\n"
            "      SeqScan Fams AS f  (rows=4 cost=4.0)\n");
}

TEST_F(JoinOrderFixture, StarSelectKeepsFromOrderAfterReorder) {
  // The reordered physical join is hidden behind a projection restoring
  // the FROM column order for SELECT *.
  auto r = db_.Execute(
      "SELECT * FROM Genes g, Species s, Fams f "
      "WHERE g.sid = s.sid AND s.fam = f.fam AND g.gid = 0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  ASSERT_EQ(r->columns.size(), 8u);  // Genes ++ Species ++ Fams
  EXPECT_EQ(r->columns[0], "gid");
  EXPECT_EQ(r->columns[3], "sid");
  EXPECT_EQ(r->columns[6], "fam");
  EXPECT_EQ(r->rows[0].values[0].as_int(), 0);   // g.gid
  EXPECT_EQ(r->rows[0].values[2].as_string(), "g0");
  EXPECT_EQ(r->rows[0].values[5].as_string(), "s0");
  EXPECT_EQ(r->rows[0].values[7].as_string(), "f0");
}

// ---------------------------------------------------------------------------
// HashJoin vs NestedLoopJoin equivalence
// ---------------------------------------------------------------------------

TEST(HashJoinEquivalence, SameRowsAsNestedLoopPipeline) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE L (id INT, k INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE R (k INT, name TEXT)").ok());
  std::string insert = "INSERT INTO L VALUES ";
  for (int i = 0; i < 60; ++i) {
    if (i > 0) insert += ", ";
    insert += "(";
    insert += std::to_string(i);
    insert += ", ";
    insert += std::to_string(i % 12);
    insert += ")";
  }
  ASSERT_TRUE(db.Execute(insert).ok());
  // NULL keys on both sides must never join.
  ASSERT_TRUE(db.Execute("INSERT INTO L VALUES (999, NULL)").ok());
  insert = "INSERT INTO R VALUES ";
  for (int i = 0; i < 10; ++i) {  // keys 10/11 dangle on the L side
    if (i > 0) insert += ", ";
    insert += "(";
    insert += std::to_string(i);
    insert += ", 'r";
    insert += std::to_string(i);
    insert += "')";
  }
  ASSERT_TRUE(db.Execute(insert).ok());
  ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (NULL, 'rnull')").ok());
  ASSERT_TRUE(db.Execute("ANALYZE").ok());

  // `l.k = r.k` plans a HashJoin; the equivalent `<= AND >=` form is not
  // an equi conjunct, so it runs the NestedLoopJoin + Filter pipeline.
  const std::string hash_sql =
      "SELECT id, name FROM L l, R r WHERE l.k = r.k ORDER BY id, name";
  const std::string nl_sql =
      "SELECT id, name FROM L l, R r WHERE l.k <= r.k AND l.k >= r.k "
      "ORDER BY id, name";
  auto hash_plan = db.Execute("EXPLAIN " + hash_sql);
  ASSERT_TRUE(hash_plan.ok());
  EXPECT_NE(hash_plan->message.find("HashJoin"), std::string::npos);
  auto nl_plan = db.Execute("EXPLAIN " + nl_sql);
  ASSERT_TRUE(nl_plan.ok());
  EXPECT_NE(nl_plan->message.find("NestedLoopJoin"), std::string::npos);

  auto hash = db.Execute(hash_sql);
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  auto nested = db.Execute(nl_sql);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(hash->rows.size(), 50u);  // keys 0..9 match 5 L rows each
  EXPECT_EQ(hash->ToString(), nested->ToString());
}

TEST(HashJoinEquivalence, MixedIntDoubleKeysCompareNumerically) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE A (x INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE B (y DOUBLE)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO A VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO B VALUES (1.0), (2.5), (3.0)").ok());
  // An index on the inner key does not make the join probe it: an INT
  // key cannot find DOUBLE cells exactly in the index (one numeric rank,
  // two encodings), so the join stays a HashJoin.
  ASSERT_TRUE(db.Execute("CREATE INDEX b_y ON B (y)").ok());
  EXPECT_EQ(Explain(db, "SELECT x FROM A, B WHERE A.x = B.y ORDER BY x"),
            "Sort [x ASC]  (rows=3 cost=16.2)\n"
            "  Project [x]  (rows=3 cost=13.8)\n"
            "    HashJoin (A.x = B.y)  (rows=3 cost=13.5)\n"
            "      SeqScan A  (rows=3 cost=3.0)\n"
            "      SeqScan B  (rows=3 cost=3.0)\n");
  auto r = db.Execute(
      "SELECT x FROM A, B WHERE A.x = B.y ORDER BY x");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0].values[0].as_int(), 1);
  EXPECT_EQ(r->rows[1].values[0].as_int(), 3);
}

}  // namespace
}  // namespace bdbms
