// Coverage for the composite / LIKE-prefix / SP-GiST access paths:
// composite key codec ordering and prefix bounds, golden EXPLAIN output
// for each path, differential result-identity against the SeqScan
// pipeline, and DML + approval-rollback maintenance of multi-column and
// sequence indexes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "index/key_codec.h"
#include "index/secondary_index.h"
#include "index/sequence_index.h"
#include "table/table.h"

namespace bdbms {
namespace {

#define EXEC_OK(db, sql)                                          \
  do {                                                            \
    auto _r = (db).Execute(sql);                                  \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> "                      \
                         << _r.status().ToString();               \
  } while (0)

std::string Render(const QueryResult& r) {
  return r.ToString(/*show_annotations=*/true);
}

std::string Explain(Database& db, const std::string& sql) {
  auto r = db.Execute("EXPLAIN " + sql);
  EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
  return r.ok() ? r->message : "";
}

// ---------------------------------------------------------------------------
// Composite key codec: memcmp order must match row (tuple) order
// ---------------------------------------------------------------------------

TEST(CompositeKeyCodec, OrderPreservingAcrossComponents) {
  auto expect_order = [](const std::vector<Value>& a,
                         const std::vector<Value>& b) {
    std::string ka = EncodeCompositeKey(a), kb = EncodeCompositeKey(b);
    EXPECT_LT(ka.compare(kb), 0);
  };
  // Second component breaks first-component ties, mixed types.
  expect_order({Value::Int(1), Value::Text("a")},
               {Value::Int(1), Value::Text("b")});
  expect_order({Value::Int(1), Value::Text("z")},
               {Value::Int(2), Value::Text("a")});
  expect_order({Value::Text("x"), Value::Double(-1.5)},
               {Value::Text("x"), Value::Double(2.25)});
  expect_order({Value::Double(1.0), Value::Int(9)},
               {Value::Double(1.5), Value::Int(0)});
  // NULL sorts below any value in every component position.
  expect_order({Value::Null(), Value::Text("z")},
               {Value::Int(-100), Value::Text("a")});
  expect_order({Value::Int(3), Value::Null()},
               {Value::Int(3), Value::Int(0)});
  expect_order({Value::Int(3), Value::Null()},
               {Value::Int(3), Value::Text("")});
  // The string terminator must keep component boundaries honest: the row
  // ("ab", "c") sorts below ("abc", "") because "ab" < "abc", even though
  // naive concatenation would say otherwise.
  expect_order({Value::Text("ab"), Value::Text("c")},
               {Value::Text("abc"), Value::Text("")});
  expect_order({Value::Text("ab"), Value::Text("z")},
               {Value::Text("abc"), Value::Text("a")});
  // Embedded NUL bytes survive the escape and keep ordering.
  expect_order({Value::Text("a")}, {Value::Text(std::string("a\0", 2))});
  expect_order({Value::Text(std::string("a\0", 2))}, {Value::Text("ab")});
}

TEST(CompositeKeyCodec, PrefixUpperBoundCoversAllContinuations) {
  // Every key starting with the prefix lies in [prefix, upper).
  std::string prefix = EncodeIndexKey(Value::Int(7));
  std::string upper = IndexKeyPrefixUpperBound(prefix);
  std::string with_text = prefix + EncodeIndexKey(Value::Text("zzz"));
  std::string with_null = prefix + EncodeIndexKey(Value::Null());
  EXPECT_LE(prefix.compare(with_null), 0);
  EXPECT_LT(with_null.compare(upper), 0);
  EXPECT_LT(with_text.compare(upper), 0);
  EXPECT_LT(prefix.compare(upper), 0);
  // 0xFF runs carry into the preceding byte.
  std::string ff("\xFF\xFF", 2);
  EXPECT_EQ(IndexKeyPrefixUpperBound("a" + ff), "b");
  // An all-0xFF prefix has no byte successor: the fence bounds it.
  EXPECT_EQ(IndexKeyPrefixUpperBound(ff), IndexKeyUpperFence());
}

// ---------------------------------------------------------------------------
// Composite probes against a standalone SecondaryIndex
// ---------------------------------------------------------------------------

TEST(CompositeIndexProbe, PrefixEqualityAndTrailingRange) {
  TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn("a", DataType::kInt).ok());
  ASSERT_TRUE(schema.AddColumn("b", DataType::kText).ok());
  ASSERT_TRUE(schema.AddColumn("c", DataType::kDouble).ok());
  auto table = Table::CreateInMemory(schema);
  ASSERT_TRUE(table.ok());
  Table* t = table->get();
  // Rows: (a, b, c) with duplicates on a and NULLs in b.
  auto ins = [&](Value a, Value b, Value c) {
    ASSERT_TRUE(t->Insert({std::move(a), std::move(b), std::move(c)}).ok());
  };
  ins(Value::Int(1), Value::Text("x"), Value::Double(1.0));    // row 0
  ins(Value::Int(1), Value::Text("y"), Value::Double(2.0));    // row 1
  ins(Value::Int(1), Value::Null(), Value::Double(3.0));       // row 2
  ins(Value::Int(2), Value::Text("x"), Value::Double(4.0));    // row 3
  ins(Value::Int(2), Value::Text("xa"), Value::Double(5.0));   // row 4
  ASSERT_TRUE(t->CreateIndex("ab", {"a", "b"}).ok());
  const SecondaryIndex* idx = t->FindIndex("ab");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->entry_count(), 5u);

  auto find = [&](const IndexProbe& p) {
    auto r = idx->Find(p);
    EXPECT_TRUE(r.ok());
    return r.ok() ? *r : std::vector<RowId>{};
  };
  // Full-key equality.
  IndexProbe full;
  full.eq = {Value::Int(1), Value::Text("y")};
  EXPECT_EQ(find(full), (std::vector<RowId>{1}));
  // Leading-prefix equality includes rows whose unconstrained trailing
  // column is NULL.
  IndexProbe lead;
  lead.eq = {Value::Int(1)};
  EXPECT_EQ(find(lead), (std::vector<RowId>{0, 1, 2}));
  // Prefix equality + trailing range excludes NULLs (no comparison is
  // ever true on NULL).
  IndexProbe range;
  range.eq = {Value::Int(1)};
  range.lo = IndexBound{Value::Text("x"), true};
  EXPECT_EQ(find(range), (std::vector<RowId>{0, 1}));
  // Inclusive upper bound catches exactly the boundary value.
  IndexProbe hi;
  hi.eq = {Value::Int(2)};
  hi.hi = IndexBound{Value::Text("x"), true};
  EXPECT_EQ(find(hi), (std::vector<RowId>{3}));
  // Exclusive bounds.
  hi.hi->inclusive = false;
  EXPECT_EQ(find(hi), (std::vector<RowId>{}));
  // Trailing LIKE prefix.
  IndexProbe like;
  like.eq = {Value::Int(2)};
  like.like_prefix = "x";
  EXPECT_EQ(find(like), (std::vector<RowId>{3, 4}));
  // Full scan (no constraints) sees every entry, NULL keys included.
  EXPECT_EQ(find(IndexProbe{}), (std::vector<RowId>{0, 1, 2, 3, 4}));
  // Maintenance under update: the key (1, 'y') moves to (5, 'y').
  ASSERT_TRUE(t->UpdateCell(1, 0, Value::Int(5)).ok());
  EXPECT_EQ(find(lead), (std::vector<RowId>{0, 2}));
  IndexProbe moved;
  moved.eq = {Value::Int(5)};
  EXPECT_EQ(find(moved), (std::vector<RowId>{1}));
}

// ---------------------------------------------------------------------------
// Golden EXPLAIN output for the four access paths
// ---------------------------------------------------------------------------

class IndexPathsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    EXEC_OK(db_,
            "CREATE TABLE Prot (PID INT, Org TEXT, Score DOUBLE, "
            "Seq SEQUENCE)");
    EXEC_OK(db_,
            "INSERT INTO Prot VALUES "
            "(1, 'ecoli', 1.5, 'ACGTAC'), "
            "(2, 'ecoli', 2.5, 'ACCTGA'), "
            "(3, 'yeast', 3.5, 'GGTACA'), "
            "(4, 'yeast', 0.5, 'ACGTTT'), "
            "(5, 'human', 4.5, 'TTGACA'), "
            "(6, 'ecoli', 5.5, 'ACGAAA')");
  }
  Database db_;
};

TEST_F(IndexPathsFixture, CompositeProbeUsesLeadingEqualityPlusRange) {
  EXEC_OK(db_, "CREATE INDEX idx_org_pid ON Prot (Org, PID)");
  EXPECT_EQ(Explain(db_,
                    "SELECT Score FROM Prot "
                    "WHERE Org = 'ecoli' AND PID > 1"),
            "Project [Score]  (rows=1 cost=3.3)\n"
            "  IndexScan Prot USING idx_org_pid (Org = 'ecoli') AND "
            "(PID > 1)  (rows=1 cost=3.2)\n");
}

TEST_F(IndexPathsFixture, KeyOnlyProjectionPlansLikeAnyOtherProjection) {
  EXEC_OK(db_, "CREATE INDEX idx_org_pid ON Prot (Org, PID)");
  // Only key columns are referenced: the probe still fetches each row.
  EXPECT_EQ(Explain(db_,
                    "SELECT PID FROM Prot WHERE Org = 'ecoli' AND PID > 1"),
            "Project [PID]  (rows=1 cost=3.3)\n"
            "  IndexScan Prot USING idx_org_pid (Org = 'ecoli') AND "
            "(PID > 1)  (rows=1 cost=3.2)\n");
  // With no probe the index offers nothing: the heap is scanned.
  EXPECT_EQ(Explain(db_, "SELECT Org, PID FROM Prot"),
            "Project [Org, PID]  (rows=6 cost=6.6)\n"
            "  SeqScan Prot  (rows=6 cost=6.0)\n");
}

TEST_F(IndexPathsFixture, LikePrefixFoldsIntoScanPrefix) {
  EXEC_OK(db_, "CREATE INDEX idx_org ON Prot (Org)");
  EXPECT_EQ(Explain(db_, "SELECT Score FROM Prot WHERE Org LIKE 'ec%'"),
            "Project [Score]  (rows=2 cost=6.0)\n"
            "  ScanPrefix Prot USING idx_org (Org LIKE 'ec%')"
            "  (rows=2 cost=5.8)\n");
  // A pattern with an inner wildcard keeps the LIKE as a residual filter
  // over the prefix probe's superset.
  EXPECT_EQ(Explain(db_, "SELECT Score FROM Prot WHERE Org LIKE 'ec%i'"),
            "Project [Score]  (rows=1 cost=6.1)\n"
            "  Filter (Org LIKE 'ec%i')  (rows=1 cost=6.0)\n"
            "    ScanPrefix Prot USING idx_org (Org LIKE 'ec%i')"
            "  (rows=2 cost=5.8)\n");
}

TEST_F(IndexPathsFixture, SequenceIndexPlansSpgistScan) {
  EXEC_OK(db_, "CREATE SEQUENCE INDEX idx_seq ON Prot (Seq) USING SPGIST");
  EXPECT_EQ(Explain(db_, "SELECT PID FROM Prot WHERE Seq LIKE 'ACG%'"),
            "Project [PID]  (rows=2 cost=6.0)\n"
            "  SpgistScan Prot USING idx_seq (Seq LIKE 'ACG%')"
            "  (rows=2 cost=5.8)\n");
  EXPECT_EQ(Explain(db_, "SELECT PID FROM Prot WHERE Seq = 'ACCTGA'"),
            "Project [PID]  (rows=1 cost=4.1)\n"
            "  SpgistScan Prot USING idx_seq (Seq = 'ACCTGA')"
            "  (rows=1 cost=4.0)\n");
}

TEST_F(IndexPathsFixture, AWhereKeepsIntervalScanOverProbelessCoveringPass) {
  // An AWHERE query with no index probe keeps the sparse
  // annotation-interval scan, which visits only annotated rows.
  EXEC_OK(db_, "CREATE INDEX idx_pid ON Prot (PID)");
  EXPECT_EQ(Explain(db_, "SELECT PID FROM Prot AWHERE VALUE LIKE '%x%'"),
            "Project [PID]  (rows=1 cost=1.8)\n"
            "  AWhere (VALUE LIKE '%x%')  (rows=1 cost=1.6)\n"
            "    AnnIntervalScan Prot "
            "(annotated row intervals + outdated rows)"
            "  (rows=2 cost=1.5)\n");
  // With a probe the index path wins.
  EXPECT_EQ(Explain(db_, "SELECT PID FROM Prot WHERE PID = 3 "
                         "AWHERE VALUE LIKE '%x%'"),
            "Project [PID]  (rows=1 cost=4.2)\n"
            "  AWhere (VALUE LIKE '%x%')  (rows=1 cost=4.1)\n"
            "    IndexScan Prot USING idx_pid (PID = 3)"
            "  (rows=1 cost=4.0)\n");
}

// A probe-less pass over a B+-tree reads every entry and still fetches
// every row, so COUNT(*) and key-only projections scan the heap. Their
// answers must not depend on the index, also while a transaction's
// update leaves the superseded key indexed next to the live one.
TEST(KeyOnlyPasses, PlanSeqScanAndMatchTheAnswersWithoutTheIndex) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (Id INT, k TEXT)");
  EXEC_OK(db,
          "INSERT INTO T VALUES (0, 'k0'), (1, 'k1'), (2, 'k2'), "
          "(3, 'k3'), (4, 'k4'), (5, 'k5')");
  EXEC_OK(db, "CREATE INDEX t_k ON T (k)");
  EXEC_OK(db, "ANALYZE T");
  const std::vector<std::string> queries = {"SELECT COUNT(*) FROM T",
                                            "SELECT k FROM T"};
  auto answers = [&] {
    std::string out;
    for (const std::string& q : queries) {
      auto r = db.Execute(q);
      EXPECT_TRUE(r.ok()) << q << "\n-> " << r.status().ToString();
      if (r.ok()) out += r->ToString(/*show_annotations=*/false);
    }
    return out;
  };
  auto expect_seq_scans = [&] {
    for (const std::string& q : queries) {
      std::string plan = Explain(db, q);
      EXPECT_NE(plan.find("SeqScan T"), std::string::npos) << plan;
      EXPECT_EQ(plan.find("Index"), std::string::npos) << plan;
    }
  };
  expect_seq_scans();
  const std::string committed = answers();

  EXEC_OK(db, "BEGIN");
  EXEC_OK(db, "UPDATE T SET k = 'new' WHERE Id = 1");
  EXEC_OK(db, "DELETE FROM T WHERE Id = 4");
  expect_seq_scans();
  const std::string indexed = answers();
  EXPECT_NE(indexed.find("new"), std::string::npos) << indexed;
  EXPECT_EQ(indexed.find("k1"), std::string::npos) << indexed;
  EXPECT_EQ(indexed.find("k4"), std::string::npos) << indexed;
  EXEC_OK(db, "DROP INDEX t_k ON T");
  EXPECT_EQ(answers(), indexed);
  EXEC_OK(db, "ROLLBACK");

  expect_seq_scans();
  EXPECT_EQ(answers(), committed);
  EXEC_OK(db, "DROP INDEX t_k ON T");
  EXPECT_EQ(answers(), committed);
}

TEST_F(IndexPathsFixture, SequenceIndexDdlValidation) {
  // Sequence indexes demand one string-typed column.
  EXPECT_FALSE(db_.Execute("CREATE SEQUENCE INDEX s ON Prot (PID)").ok());
  EXPECT_FALSE(
      db_.Execute("CREATE SEQUENCE INDEX s ON Prot (Seq, Org)").ok());
  // USING SPGIST is only meaningful on CREATE SEQUENCE INDEX.
  EXPECT_FALSE(
      db_.Execute("CREATE INDEX s ON Prot (Seq) USING SPGIST").ok());
  EXEC_OK(db_, "CREATE SEQUENCE INDEX s ON Prot (Seq)");
  // Name collisions across the two index families are rejected.
  EXPECT_FALSE(db_.Execute("CREATE INDEX s ON Prot (PID)").ok());
  // Composite DDL validation: duplicate columns are rejected.
  EXPECT_FALSE(db_.Execute("CREATE INDEX d ON Prot (PID, PID)").ok());
  // DROP INDEX removes sequence indexes too.
  EXEC_OK(db_, "DROP INDEX s ON Prot");
  EXEC_OK(db_, "CREATE INDEX s ON Prot (PID)");
  // The table holds the new B+-tree over the full column list, and no
  // trace of the dropped trie.
  auto table = db_.GetTable("Prot");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->indexes().size(), 1u);
  EXPECT_TRUE((*table)->sequence_indexes().empty());
  const SecondaryIndex* s = (*table)->FindIndex("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->columns(),
            std::vector<size_t>{*(*table)->schema().ColumnIndex("PID")});
}

// ---------------------------------------------------------------------------
// Differential: every new access path must agree with the SeqScan pipeline
// ---------------------------------------------------------------------------

class NewPathDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    EXEC_OK(db_,
            "CREATE TABLE S (id INT, grp TEXT, val DOUBLE, seq SEQUENCE)");
    static const char* kBases[4] = {"ACGT", "ACCA", "GATT", "TGCA"};
    std::string insert = "INSERT INTO S VALUES ";
    for (int i = 0; i < 240; ++i) {
      int key = (i * 53) % 60;
      if (i > 0) insert += ", ";
      insert += "(";
      insert += std::to_string(key);
      insert += ", 'g";
      insert += std::to_string(key % 9);
      insert += "', ";
      insert += std::to_string((key * 11) % 17);
      insert += ".25, '";
      insert += kBases[i % 4];
      insert += kBases[key % 4];
      insert += "')";
    }
    EXEC_OK(db_, insert);
    // A NULL-bearing row for NULL-ordering coverage.
    EXEC_OK(db_, "INSERT INTO S VALUES (61, NULL, 1.0, 'ACGTACGT')");
    queries_ = {
        // Composite probes: leading equality + trailing range / equality.
        "SELECT id, grp, val FROM S WHERE grp = 'g3' AND id > 20 "
        "ORDER BY id, val",
        "SELECT val FROM S WHERE grp = 'g1' AND id = 19",
        "SELECT id FROM S WHERE grp = 'g0' ORDER BY id",
        // Index-only: every referenced column is a key column.
        "SELECT grp, id FROM S WHERE grp = 'g3' AND id >= 10 "
        "ORDER BY grp, id",
        "SELECT id FROM S WHERE id > 50 ORDER BY id",
        "SELECT COUNT(*) AS n FROM S",
        "SELECT grp, COUNT(*) AS n FROM S GROUP BY grp ORDER BY grp",
        // LIKE-prefix pushdown (pure prefix and inner-wildcard residual).
        "SELECT id, grp FROM S WHERE grp LIKE 'g1%' ORDER BY id",
        "SELECT id FROM S WHERE seq LIKE 'ACG%' ORDER BY id",
        "SELECT id FROM S WHERE seq LIKE 'AC%TT' ORDER BY id",
        "SELECT id FROM S WHERE seq = 'ACGTACCA' ORDER BY id",
        // NULL never matches a probe.
        "SELECT id FROM S WHERE grp = 'g99'",
        "SELECT id, val FROM S WHERE id = 61",
    };
  }

  void ExpectIndexedMatchesSeq() {
    std::vector<std::string> baseline;
    for (const auto& q : queries_) {
      auto r = db_.Execute(q);
      ASSERT_TRUE(r.ok()) << q << "\n-> " << r.status().ToString();
      baseline.push_back(Render(*r));
    }
    EXEC_OK(db_, "CREATE INDEX idx_grp_id ON S (grp, id)");
    EXEC_OK(db_, "CREATE INDEX idx_id ON S (id)");
    EXEC_OK(db_, "CREATE SEQUENCE INDEX idx_seq ON S (seq) USING SPGIST");
    for (size_t i = 0; i < queries_.size(); ++i) {
      auto r = db_.Execute(queries_[i]);
      ASSERT_TRUE(r.ok()) << queries_[i];
      EXPECT_EQ(Render(*r), baseline[i]) << queries_[i];
    }
  }

  Database db_;
  std::vector<std::string> queries_;
};

TEST_F(NewPathDifferential, AllPathsMatchSeqScan) { ExpectIndexedMatchesSeq(); }

TEST_F(NewPathDifferential, MatchesSeqScanAfterAnalyze) {
  EXEC_OK(db_, "ANALYZE");
  ExpectIndexedMatchesSeq();
}

// ---------------------------------------------------------------------------
// Maintenance: DML and approval rollback over composite + sequence indexes
// ---------------------------------------------------------------------------

class MaintenanceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    EXEC_OK(db_, "CREATE TABLE M (id INT, grp TEXT, seq SEQUENCE)");
    EXEC_OK(db_, "CREATE INDEX idx ON M (grp, id)");
    EXEC_OK(db_, "CREATE SEQUENCE INDEX sidx ON M (seq) USING SPGIST");
    EXEC_OK(db_,
            "INSERT INTO M VALUES (1, 'a', 'ACGT'), (2, 'a', 'ACCA'), "
            "(3, 'b', 'GGGG')");
  }

  std::vector<int64_t> Ids(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
    std::vector<int64_t> out;
    if (r.ok()) {
      for (const auto& row : r->rows) out.push_back(row.values[0].as_int());
    }
    return out;
  }

  Database db_;
};

TEST_F(MaintenanceFixture, DmlKeepsCompositeAndSequenceIndexesCurrent) {
  // UPDATE moves a composite key and a trie key.
  EXEC_OK(db_, "UPDATE M SET grp = 'b', seq = 'GGTT' WHERE id = 2");
  EXPECT_EQ(Ids("SELECT id FROM M WHERE grp = 'a' AND id > 0 ORDER BY id"),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(Ids("SELECT id FROM M WHERE grp = 'b' AND id > 0 ORDER BY id"),
            (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(Ids("SELECT id FROM M WHERE seq LIKE 'GG%' ORDER BY id"),
            (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(Ids("SELECT id FROM M WHERE seq LIKE 'ACC%'"),
            (std::vector<int64_t>{}));
  // DELETE drops both index entries.
  EXEC_OK(db_, "DELETE FROM M WHERE id = 3");
  EXPECT_EQ(Ids("SELECT id FROM M WHERE grp = 'b' AND id > 0"),
            (std::vector<int64_t>{2}));
  EXPECT_EQ(Ids("SELECT id FROM M WHERE seq LIKE 'GGGG%'"),
            (std::vector<int64_t>{}));
}

TEST(SequenceIndexNulBytes, RejectedBeforeAnyMutation) {
  // The trie reserves NUL as its end-of-key label, so a value with an
  // embedded NUL must be rejected BEFORE the heap row and the B+-tree
  // entries are written — a partial failure would leave the index
  // families divergent and the row undeletable.
  TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn("id", DataType::kInt).ok());
  ASSERT_TRUE(schema.AddColumn("seq", DataType::kText).ok());
  auto table = Table::CreateInMemory(schema);
  ASSERT_TRUE(table.ok());
  Table* t = table->get();
  ASSERT_TRUE(t->CreateIndex("bt", {"seq"}).ok());
  ASSERT_TRUE(t->CreateIndex("trie", {"seq"}, IndexKind::kSpGist).ok());
  Row bad = {Value::Int(1), Value::Text(std::string("A\0C", 3))};
  EXPECT_FALSE(t->Insert(bad).ok());
  EXPECT_EQ(t->row_count(), 0u);
  EXPECT_EQ(t->FindIndex("bt")->entry_count(), 0u);
  EXPECT_EQ(t->FindSequenceIndex("trie")->entry_count(), 0u);
  // A good row stays updatable/deletable; a bad UPDATE leaves it intact.
  ASSERT_TRUE(t->Insert({Value::Int(1), Value::Text("ACGT")}).ok());
  EXPECT_FALSE(t->Update(0, bad).ok());
  auto got = t->Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[1].as_string(), "ACGT");
  EXPECT_TRUE(t->Delete(0).ok());
  EXPECT_EQ(t->FindSequenceIndex("trie")->entry_count(), 0u);
}

TEST_F(MaintenanceFixture, ApprovalRollbackRestoresIndexEntries) {
  EXEC_OK(db_, "CREATE USER bob");
  EXEC_OK(db_, "GRANT DELETE ON M TO bob");
  EXEC_OK(db_, "GRANT UPDATE ON M TO bob");
  EXEC_OK(db_, "START CONTENT APPROVAL ON M APPROVED BY admin");
  // A pending DELETE removes the row; disapproval re-inserts it through
  // Table::InsertWithRowId, which must restore both index entries.
  EXEC_OK(db_, "DELETE FROM M WHERE id = 1");
  auto pending = db_.Execute("SHOW PENDING ON M");
  ASSERT_TRUE(pending.ok());
  ASSERT_EQ(pending->rows.size(), 1u);
  int64_t op_id = pending->rows[0].values[0].as_int();
  EXEC_OK(db_, "DISAPPROVE OPERATION " + std::to_string(op_id));
  EXPECT_EQ(Ids("SELECT id FROM M WHERE grp = 'a' AND id = 1"),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(Ids("SELECT id FROM M WHERE seq LIKE 'ACGT%'"),
            (std::vector<int64_t>{1}));
}

}  // namespace
}  // namespace bdbms
