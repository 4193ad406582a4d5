// Planner + operator-pipeline coverage: golden EXPLAIN output, index
// selection and maintenance, differential IndexScan-vs-SeqScan results
// (including the A-SQL AWHERE/FILTER/PROMOTE paths), Table row-range
// access, the order-preserving index key codec, and the self-join alias
// regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/database.h"
#include "index/key_codec.h"
#include "index/secondary_index.h"
#include "table/table.h"

namespace bdbms {
namespace {

#define EXEC_OK(db, sql)                                          \
  do {                                                            \
    auto _r = (db).Execute(sql);                                  \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> "                      \
                         << _r.status().ToString();               \
  } while (0)

// Renders rows + annotations into one comparable string.
std::string Render(const QueryResult& r) {
  return r.ToString(/*show_annotations=*/true);
}

std::string Explain(Database& db, const std::string& sql) {
  auto r = db.Execute("EXPLAIN " + sql);
  EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
  return r.ok() ? r->message : "";
}

// ---------------------------------------------------------------------------
// Golden EXPLAIN output
// ---------------------------------------------------------------------------

class ExplainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    EXEC_OK(db_, "CREATE TABLE Gene (GID INT, GName TEXT, Score DOUBLE)");
    EXEC_OK(db_,
            "INSERT INTO Gene VALUES (1, 'aldoa', 1.5), (2, 'eno1', 2.5), "
            "(3, 'gapdh', 3.5)");
  }
  Database db_;
};

TEST_F(ExplainFixture, SeqScanWithFilter) {
  EXPECT_EQ(Explain(db_, "SELECT GID FROM Gene WHERE GName = 'eno1'"),
            "Project [GID]  (rows=1 cost=3.4)\n"
            "  Filter (GName = 'eno1')  (rows=1 cost=3.3)\n"
            "    SeqScan Gene  (rows=3 cost=3.0)\n");
}

TEST_F(ExplainFixture, CreateIndexSwitchesToIndexScan) {
  EXEC_OK(db_, "CREATE INDEX idx_name ON Gene (GName)");
  EXPECT_EQ(Explain(db_, "SELECT GID FROM Gene WHERE GName = 'eno1'"),
            "Project [GID]  (rows=1 cost=2.7)\n"
            "  IndexScan Gene USING idx_name (GName = 'eno1')"
            "  (rows=1 cost=2.6)\n");
}

TEST_F(ExplainFixture, RangeProbeKeepsResidualFilter) {
  EXEC_OK(db_, "CREATE INDEX idx_score ON Gene (Score)");
  EXPECT_EQ(
      Explain(db_,
              "SELECT GID FROM Gene "
              "WHERE Score > 1 AND Score <= 3 AND GID != 2"),
      "Project [GID]  (rows=1 cost=2.9)\n"
      "  Filter (GID != 2)  (rows=1 cost=2.8)\n"
      "    IndexScan Gene USING idx_score (Score > 1) AND (Score <= 3)"
      "  (rows=1 cost=2.7)\n");
}

TEST_F(ExplainFixture, DropIndexRevertsToSeqScan) {
  EXEC_OK(db_, "CREATE INDEX idx_name ON Gene (GName)");
  EXEC_OK(db_, "DROP INDEX idx_name ON Gene");
  EXPECT_EQ(Explain(db_, "SELECT GID FROM Gene WHERE GName = 'eno1'"),
            "Project [GID]  (rows=1 cost=3.4)\n"
            "  Filter (GName = 'eno1')  (rows=1 cost=3.3)\n"
            "    SeqScan Gene  (rows=3 cost=3.0)\n");
}

TEST_F(ExplainFixture, JoinPushesSingleTableConjunctsBelow) {
  // The single-table conjunct is pushed below the join (on a 3-row table
  // the cost model keeps the sequential scan: a range probe is not worth
  // the index overhead); the equi conjunct becomes the HashJoin key, and
  // the filtered (smaller) side becomes the build input on the right.
  EXEC_OK(db_, "CREATE INDEX idx_score ON Gene (Score)");
  EXPECT_EQ(Explain(db_,
                    "SELECT A.GID FROM Gene A, Gene B "
                    "WHERE A.GID = B.GID AND A.Score > 2"),
            "Project [GID]  (rows=1 cost=10.9)\n"
            "  HashJoin (A.GID = B.GID)  (rows=1 cost=10.8)\n"
            "    SeqScan Gene AS B  (rows=3 cost=3.0)\n"
            "    Filter (A.Score > 2)  (rows=1 cost=3.3)\n"
            "      SeqScan Gene AS A  (rows=3 cost=3.0)\n");
}

TEST_F(ExplainFixture, AWhereUsesAnnotationIntervalScan) {
  EXEC_OK(db_, "CREATE ANNOTATION TABLE Notes ON Gene");
  EXPECT_EQ(Explain(db_,
                    "SELECT GID FROM Gene ANNOTATION(Notes) "
                    "AWHERE VALUE LIKE '%x%'"),
            "Project [GID]  (rows=1 cost=1.2)\n"
            "  AWhere (VALUE LIKE '%x%')  (rows=1 cost=1.1)\n"
            "    AnnIntervalScan Gene ANNOTATION(Notes) "
            "(annotated row intervals + outdated rows)"
            "  (rows=1 cost=1.0)\n");
}

TEST_F(ExplainFixture, AggregateSortLimit) {
  EXPECT_EQ(Explain(db_,
                    "SELECT GName, COUNT(*) AS n FROM Gene GROUP BY GName "
                    "HAVING COUNT(*) > 0 ORDER BY n DESC LIMIT 2"),
            "Limit 2  (rows=1 cost=8.0)\n"
            "  Sort [n DESC]  (rows=1 cost=8.0)\n"
            "    HashAggregate keys=[GName] [GName, COUNT(*)] "
            "HAVING (COUNT(*) > 0)  (rows=1 cost=7.5)\n"
            "      SeqScan Gene  (rows=3 cost=3.0)\n");
}

TEST_F(ExplainFixture, PromoteIsAPlanNode) {
  EXPECT_EQ(Explain(db_, "SELECT GID PROMOTE (GName, Score) FROM Gene"),
            "Project [GID]  (rows=3 cost=3.6)\n"
            "  Promote GID <- (GName, Score)  (rows=3 cost=3.3)\n"
            "    SeqScan Gene  (rows=3 cost=3.0)\n");
}

TEST_F(ExplainFixture, DistinctSetOpAndAnnotFilter) {
  // The trailing ORDER BY parses into the right-hand SELECT but sorts the
  // combination exactly once.
  EXPECT_EQ(Explain(db_,
                    "SELECT DISTINCT GName FROM Gene FILTER CATEGORY = 'x' "
                    "UNION SELECT GName FROM Gene ORDER BY GName"),
            "Sort [GName ASC]  (rows=6 cost=28.2)\n"
            "  Union  (rows=6 cost=20.4)\n"
            "    AnnotFilter (CATEGORY = 'x')  (rows=3 cost=8.1)\n"
            "      Distinct  (rows=3 cost=7.8)\n"
            "        Project [GName]  (rows=3 cost=3.3)\n"
            "          SeqScan Gene  (rows=3 cost=3.0)\n"
            "    Project [GName]  (rows=3 cost=3.3)\n"
            "      SeqScan Gene  (rows=3 cost=3.0)\n");
}

TEST_F(ExplainFixture, UpdateAndDeleteShowScanPlan) {
  EXEC_OK(db_, "CREATE INDEX idx_name ON Gene (GName)");
  EXPECT_EQ(Explain(db_, "UPDATE Gene SET Score = 0.0 WHERE GName = 'eno1'"),
            "Update Gene SET Score\n"
            "  IndexScan Gene USING idx_name (GName = 'eno1')"
            "  (rows=1 cost=2.6)\n");
  EXPECT_EQ(Explain(db_, "DELETE FROM Gene WHERE GID = 1"),
            "Delete Gene\n"
            "  Filter (GID = 1)  (rows=1 cost=3.3)\n"
            "    SeqScan Gene  (rows=3 cost=3.0)\n");
}

TEST_F(ExplainFixture, ExplainRejectsNonDml) {
  auto r = db_.Execute("EXPLAIN CREATE TABLE X (a INT)");
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// CREATE INDEX DDL
// ---------------------------------------------------------------------------

TEST_F(ExplainFixture, CreateIndexValidation) {
  EXPECT_TRUE(
      db_.Execute("CREATE INDEX i ON NoSuch (x)").status().IsNotFound());
  EXPECT_TRUE(
      db_.Execute("CREATE INDEX i ON Gene (NoCol)").status().IsNotFound());
  EXEC_OK(db_, "CREATE INDEX i ON Gene (GID)");
  EXPECT_TRUE(db_.Execute("CREATE INDEX i ON Gene (GName)")
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(
      db_.Execute("DROP INDEX nope ON Gene").status().IsNotFound());
  // Non-superusers may not manage indexes.
  EXPECT_TRUE(db_.Execute("CREATE INDEX j ON Gene (GName)", "mallory")
                  .status()
                  .IsPermissionDenied());
  // The table holds exactly the index that was created, built over
  // every row.
  auto table = db_.GetTable("Gene");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->indexes().size(), 1u);
  EXPECT_TRUE((*table)->sequence_indexes().empty());
  const SecondaryIndex* index = (*table)->FindIndex("i");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->columns(), std::vector<size_t>{0});
  EXPECT_EQ(index->entry_count(), (*table)->row_count());
}

TEST_F(ExplainFixture, DropTableDropsIndexMetadata) {
  EXEC_OK(db_, "CREATE INDEX i ON Gene (GID)");
  EXEC_OK(db_, "DROP TABLE Gene");
  EXEC_OK(db_, "CREATE TABLE Gene (GID INT, GName TEXT, Score DOUBLE)");
  // The old index must be gone: same name is free again, scans are seq.
  EXEC_OK(db_, "CREATE INDEX i ON Gene (GID)");
}

// ---------------------------------------------------------------------------
// Differential: IndexScan and SeqScan must agree, annotations included
// ---------------------------------------------------------------------------

class DifferentialFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    EXEC_OK(db_, "CREATE TABLE T (id INT, grp TEXT, val DOUBLE, tag TEXT)");
    EXEC_OK(db_, "CREATE ANNOTATION TABLE Curation ON T");
    EXEC_OK(db_, "CREATE ANNOTATION TABLE Lab ON T");
    // Deterministic pseudo-random rows with duplicate keys.
    std::string insert = "INSERT INTO T VALUES ";
    for (int i = 0; i < 200; ++i) {
      int key = (i * 37) % 50;
      if (i > 0) insert += ", ";
      insert += "(";
      insert += std::to_string(key);
      insert += ", 'g";
      insert += std::to_string(key % 7);
      insert += "', ";
      insert += std::to_string((key * 13) % 29);
      insert += ".5, 't";
      insert += std::to_string(i % 11);
      insert += "')";
    }
    EXEC_OK(db_, insert);
    // Annotate a few slices through the A-SQL surface.
    EXEC_OK(db_,
            "ADD ANNOTATION TO T.Curation VALUE '<C>verified</C>' "
            "ON (SELECT id, val FROM T WHERE id < 10)");
    EXEC_OK(db_,
            "ADD ANNOTATION TO T.Lab VALUE '<L>smith</L>' "
            "ON (SELECT grp FROM T WHERE val > 20)");
    EXEC_OK(db_,
            "ADD ANNOTATION TO T.Curation VALUE '<C>suspect</C>' "
            "ON (SELECT tag FROM T WHERE grp = 'g3')");
  }

  // Runs every query without indexes, then with, and compares the full
  // rendered results (values + per-column annotations).
  void ExpectIndexedMatchesSeq(const std::vector<std::string>& queries) {
    std::vector<std::string> baseline;
    for (const auto& q : queries) {
      auto r = db_.Execute(q);
      ASSERT_TRUE(r.ok()) << q << "\n-> " << r.status().ToString();
      baseline.push_back(Render(*r));
    }
    EXEC_OK(db_, "CREATE INDEX idx_id ON T (id)");
    EXEC_OK(db_, "CREATE INDEX idx_grp ON T (grp)");
    EXEC_OK(db_, "CREATE INDEX idx_val ON T (val)");
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = db_.Execute(queries[i]);
      ASSERT_TRUE(r.ok()) << queries[i];
      EXPECT_EQ(Render(*r), baseline[i]) << queries[i];
    }
  }

  Database db_;
};

TEST_F(DifferentialFixture, PointAndRangeSelects) {
  ExpectIndexedMatchesSeq({
      "SELECT * FROM T WHERE id = 17",
      "SELECT * FROM T WHERE id = 9999",
      "SELECT id, val FROM T WHERE id >= 10 AND id < 20",
      "SELECT id FROM T WHERE id > 45",
      "SELECT id FROM T WHERE val <= 3.5 ORDER BY id",
      "SELECT id, grp FROM T WHERE grp = 'g3' AND id > 5",
      "SELECT id FROM T WHERE id = 17 AND grp = 'g0'",
  });
}

TEST_F(DifferentialFixture, AnnotationPathsAgree) {
  ExpectIndexedMatchesSeq({
      "SELECT id, val FROM T ANNOTATION(Curation) WHERE id = 3",
      "SELECT id, val FROM T ANNOTATION(ALL) WHERE id < 10 ORDER BY id, val",
      "SELECT id FROM T ANNOTATION(Curation) AWHERE VALUE LIKE '%verified%' "
      "ORDER BY id",
      "SELECT id FROM T ANNOTATION(Curation, Lab) WHERE id = 5 "
      "AWHERE AUTHOR = 'admin'",
      "SELECT id, val FROM T ANNOTATION(ALL) WHERE id = 3 "
      "FILTER CATEGORY = 'Curation'",
      "SELECT grp PROMOTE (id, val) FROM T ANNOTATION(Curation) "
      "WHERE id = 7",
      "SELECT grp, COUNT(id) AS n FROM T ANNOTATION(Curation) "
      "WHERE id < 10 GROUP BY grp ORDER BY grp",
      "SELECT DISTINCT grp FROM T ANNOTATION(Lab) WHERE val > 20 "
      "ORDER BY grp",
      "SELECT id FROM T WHERE id < 5 UNION SELECT id FROM T WHERE id = 17 "
      "ORDER BY id",
  });
}

TEST_F(DifferentialFixture, IndexMaintainedAcrossDml) {
  EXEC_OK(db_, "CREATE INDEX idx_id ON T (id)");
  EXEC_OK(db_, "INSERT INTO T VALUES (500, 'gx', 1.0, 'tx')");
  EXEC_OK(db_, "UPDATE T SET id = 501 WHERE id = 500");
  auto r = db_.Execute("SELECT grp FROM T WHERE id = 501");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].values[0].as_string(), "gx");
  // The old key must be gone from the index.
  r = db_.Execute("SELECT grp FROM T WHERE id = 500");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 0u);
  EXEC_OK(db_, "DELETE FROM T WHERE id = 501");
  r = db_.Execute("SELECT grp FROM T WHERE id = 501");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 0u);
}

TEST_F(DifferentialFixture, IndexMaintainedByApprovalRollback) {
  EXEC_OK(db_, "CREATE INDEX idx_id ON T (id)");
  EXEC_OK(db_, "CREATE USER bob");
  EXEC_OK(db_, "GRANT INSERT ON T TO bob");
  EXEC_OK(db_, "START CONTENT APPROVAL ON T APPROVED BY admin");
  EXEC_OK(db_, "INSERT INTO T VALUES (600, 'gy', 2.0, 'ty')");
  auto pending = db_.Execute("SHOW PENDING ON T");
  ASSERT_TRUE(pending.ok());
  ASSERT_EQ(pending->rows.size(), 1u);
  int64_t op_id = pending->rows[0].values[0].as_int();
  EXEC_OK(db_, "DISAPPROVE OPERATION " + std::to_string(op_id));
  // The rollback removed the row through Table::Delete, so the index must
  // not surface it any more.
  auto r = db_.Execute("SELECT grp FROM T WHERE id = 600");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 0u);
}

TEST_F(DifferentialFixture, UpdateDeleteViaIndexMatchSeqSemantics) {
  // Mirror DBs: one indexed, one not; the same DML must touch the same
  // rows.
  auto affected = [](Database& db, const std::string& sql) {
    auto r = db.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql;
    return r.ok() ? r->affected : uint64_t{0};
  };
  EXEC_OK(db_, "CREATE INDEX idx_id ON T (id)");
  uint64_t updated = affected(db_, "UPDATE T SET tag = 'hit' WHERE id = 17");
  EXPECT_EQ(updated, 4u);  // (i*37)%50==17 has 4 solutions in [0,200)
  uint64_t deleted = affected(db_, "DELETE FROM T WHERE id >= 40 AND id < 45");
  auto rest = db_.Execute(
      "SELECT COUNT(*) AS n FROM T WHERE id >= 40 AND id < 45");
  ASSERT_TRUE(rest.ok());
  EXPECT_GT(deleted, 0u);
  EXPECT_EQ(rest->rows[0].values[0].as_int(), 0);
}

TEST_F(DifferentialFixture, ChainedPromoteReadsUnmutatedSources) {
  // `id PROMOTE (val)` then `grp PROMOTE (id)`: grp must receive only
  // id's own annotations, never val's transitively through the first
  // mapping's merge.
  EXEC_OK(db_,
          "ADD ANNOTATION TO T.Curation VALUE '<C>valnote</C>' "
          "ON (SELECT val FROM T WHERE id = 30)");
  auto r = db_.Execute(
      "SELECT id PROMOTE (val), grp PROMOTE (id) "
      "FROM T ANNOTATION(Curation) WHERE id = 30");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 4u);
  for (const auto& row : r->rows) {
    // Column 0 (id) picked up the val annotation...
    bool id_has_valnote = false;
    for (const auto& a : row.annotations[0]) {
      if (a.body.find("valnote") != std::string::npos) id_has_valnote = true;
    }
    EXPECT_TRUE(id_has_valnote);
    // ...but column 1 (grp) must not see it through the chain.
    for (const auto& a : row.annotations[1]) {
      EXPECT_EQ(a.body.find("valnote"), std::string::npos)
          << "annotation leaked transitively through PROMOTE chain";
    }
  }
}

// ---------------------------------------------------------------------------
// Self-join alias regression (qualifier resolution must use the alias)
// ---------------------------------------------------------------------------

TEST(SelfJoinAlias, QualifiersResolveThroughAliases) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (x INT, y INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1, 2), (2, 3), (3, 1)").ok());
  auto r = db.Execute("SELECT A.x FROM T A, T B WHERE A.x = B.y ORDER BY x");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0].values[0].as_int(), 1);
  EXPECT_EQ(r->rows[1].values[0].as_int(), 2);
  EXPECT_EQ(r->rows[2].values[0].as_int(), 3);
  // Both sides stay independently addressable.
  auto r2 = db.Execute("SELECT A.x, B.x FROM T A, T B WHERE A.x = B.y");
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->rows.size(), 3u);
  for (const auto& row : r2->rows) {
    EXPECT_NE(row.values[0].as_int(), row.values[1].as_int());
  }
  // An unqualified ambiguous column must still error.
  EXPECT_FALSE(db.Execute("SELECT x FROM T A, T B").ok());
  // With an index on the join source the differential holds too.
  ASSERT_TRUE(db.Execute("CREATE INDEX ix ON T (x)").ok());
  auto r3 = db.Execute("SELECT A.x FROM T A, T B WHERE A.x = B.y ORDER BY x");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(Render(*r3), Render(*r));
}

// ---------------------------------------------------------------------------
// LIMIT
// ---------------------------------------------------------------------------

TEST(LimitClause, CapsRowsAfterSort) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (x INT)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO T VALUES (5), (3), (9), (1), (7)").ok());
  auto r = db.Execute("SELECT x FROM T ORDER BY x DESC LIMIT 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0].values[0].as_int(), 9);
  EXPECT_EQ(r->rows[1].values[0].as_int(), 7);
  // LIMIT 0 and over-large limits behave sanely.
  auto r0 = db.Execute("SELECT x FROM T LIMIT 0");
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0->rows.size(), 0u);
  auto rall = db.Execute("SELECT x FROM T LIMIT 100");
  ASSERT_TRUE(rall.ok());
  EXPECT_EQ(rall->rows.size(), 5u);
  // A trailing LIMIT after a set operation caps the combination.
  auto ru = db.Execute(
      "SELECT x FROM T UNION SELECT x FROM T ORDER BY x LIMIT 3");
  ASSERT_TRUE(ru.ok());
  EXPECT_EQ(ru->rows.size(), 3u);
  // ... even on a chain of three set operations (the trailing clauses
  // parse into the deepest SELECT).
  auto ru3 = db.Execute(
      "SELECT x FROM T UNION SELECT x FROM T UNION SELECT x FROM T "
      "ORDER BY x DESC LIMIT 2");
  ASSERT_TRUE(ru3.ok());
  ASSERT_EQ(ru3->rows.size(), 2u);
  EXPECT_EQ(ru3->rows[0].values[0].as_int(), 9);
  EXPECT_EQ(ru3->rows[1].values[0].as_int(), 7);
  // A LIMIT wedged between set-operation branches is rejected, not
  // silently dropped.
  auto mid = db.Execute(
      "SELECT x FROM T UNION SELECT x FROM T LIMIT 2 UNION SELECT x FROM T");
  EXPECT_FALSE(mid.ok());
}

TEST(ExplainPrivileges, DmlExplainRequiresDmlPrivilege) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (x INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE USER eve").ok());
  // Without privileges, EXPLAIN must not leak the plan (or table shape).
  EXPECT_FALSE(db.Execute("EXPLAIN SELECT x FROM T", "eve").ok());
  EXPECT_FALSE(db.Execute("EXPLAIN UPDATE T SET x = 1", "eve").ok());
  EXPECT_FALSE(db.Execute("EXPLAIN DELETE FROM T", "eve").ok());
  ASSERT_TRUE(db.Execute("GRANT UPDATE ON T TO eve").ok());
  EXPECT_TRUE(db.Execute("EXPLAIN UPDATE T SET x = 1", "eve").ok());
  // UPDATE privilege alone does not unlock SELECT/DELETE explains.
  EXPECT_FALSE(db.Execute("EXPLAIN SELECT x FROM T", "eve").ok());
  EXPECT_FALSE(db.Execute("EXPLAIN DELETE FROM T", "eve").ok());
}

TEST(ExpressionEdges, LikeIsLinearAndDivisionGuarded) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (s TEXT, x INT)").ok());
  std::string row(300, 'b');
  ASSERT_TRUE(
      db.Execute("INSERT INTO T VALUES ('" + row + "', -9223372036854775807)")
          .ok());
  // Exponential-blowup pattern for the naive matcher: must return quickly.
  auto r = db.Execute(
      "SELECT x FROM T WHERE s LIKE '%a%a%a%a%a%a%a%a%a%a%a%a'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 0u);
  auto rm = db.Execute("SELECT x FROM T WHERE s LIKE '%b_b%'");
  ASSERT_TRUE(rm.ok());
  EXPECT_EQ(rm->rows.size(), 1u);
  // INT64_MIN / -1 must not trap: it takes the double path.
  auto d = db.Execute("SELECT (x - 1) / -1 AS q FROM T");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_EQ(d->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(d->rows[0].values[0].as_double(), 9223372036854775808.0);
  // SUM of big ints stays exact (a double accumulator would round).
  ASSERT_TRUE(db.Execute("DELETE FROM T").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES ('a', 9007199254740993), "
                         "('b', 2), ('c', 2)")
                  .ok());
  auto s = db.Execute("SELECT SUM(x) AS s FROM T");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->rows[0].values[0].as_int(), 9007199254740997);
}

// ---------------------------------------------------------------------------
// Table row-range access (RowId-interval pushdown primitives)
// ---------------------------------------------------------------------------

TEST(TableScanRange, VisitsInclusiveRowIdInterval) {
  TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn("v", DataType::kInt).ok());
  auto table = Table::CreateInMemory(schema);
  ASSERT_TRUE(table.ok());
  Table* t = table->get();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t->Insert({Value::Int(i)}).ok());
  }
  ASSERT_TRUE(t->Delete(4).ok());
  const MvccSnapshot latest{kLatestCsn, 0};
  EXPECT_EQ(t->VisibleRowIdsInRange(2, 6, latest),
            (std::vector<RowId>{2, 3, 5, 6}));
  EXPECT_EQ(t->VisibleRowIdsInRange(8, 100, latest),
            (std::vector<RowId>{8, 9}));
  EXPECT_EQ(t->VisibleRowIds(latest).size(), 9u);
}

// ---------------------------------------------------------------------------
// Index key codec: memcmp order must match the engine's value order
// ---------------------------------------------------------------------------

TEST(IndexKeyCodec, OrderPreserving) {
  auto expect_order = [](const Value& a, const Value& b) {
    std::string ka = EncodeIndexKey(a), kb = EncodeIndexKey(b);
    EXPECT_LT(ka.compare(kb), 0)
        << a.ToString() << " should encode below " << b.ToString();
  };
  expect_order(Value::Int(-5), Value::Int(-1));
  expect_order(Value::Int(-1), Value::Int(0));
  expect_order(Value::Int(0), Value::Int(1));
  expect_order(Value::Int(1), Value::Int(INT64_MAX));
  expect_order(Value::Int(INT64_MIN), Value::Int(-1));
  expect_order(Value::Double(-2.5), Value::Double(-1.25));
  expect_order(Value::Double(-1.25), Value::Double(0.0));
  expect_order(Value::Double(0.0), Value::Double(0.125));
  expect_order(Value::Double(1e-300), Value::Double(1e300));
  expect_order(Value::Text("abc"), Value::Text("abd"));
  expect_order(Value::Text("ab"), Value::Text("abc"));
  expect_order(Value::Null(), Value::Int(0));
  expect_order(Value::Int(7), Value::Text(""));
  // Negative zero and positive zero are equal values: identical keys.
  EXPECT_EQ(EncodeIndexKey(Value::Double(-0.0)),
            EncodeIndexKey(Value::Double(0.0)));
}

}  // namespace
}  // namespace bdbms
