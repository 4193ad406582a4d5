// Snapshot-isolation anomaly suite: two sessions driven through exact,
// deterministic interleavings with golden outcomes. Each test pins one
// textbook anomaly — prevented ones (dirty read, non-repeatable read,
// phantom, lost update) must stay prevented, and write skew, which
// snapshot isolation permits by design, is pinned as *permitted* so an
// accidental slide toward serializable (or toward weaker isolation)
// shows up as a test failure either way.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "core/session.h"
#include "exec/query_result.h"

namespace bdbms {
namespace {

#define SESSION_OK(session, sql)                                          \
  do {                                                                    \
    auto _r = (session).Execute(sql);                                     \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> " << _r.status().ToString();   \
  } while (0)

std::string Cell(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.type() == DataType::kInt) return std::to_string(v.as_int());
  if (v.type() == DataType::kDouble) return std::to_string(v.as_double());
  return v.as_string();
}

// Canonical rendering for golden comparisons: "a|b;c|d;" — one row per
// ';', one cell per '|'. Queries in this file ORDER BY to fix row order.
std::string Rows(Session& session, const std::string& sql) {
  auto r = session.Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
  if (!r.ok()) return "<error: " + r.status().ToString() + ">";
  std::string out;
  for (const auto& row : r->rows) {
    for (size_t i = 0; i < row.values.size(); ++i) {
      if (i > 0) out += '|';
      out += Cell(row.values[i]);
    }
    out += ';';
  }
  return out;
}

class IsolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SESSION_OK(s1_, "CREATE TABLE Acct (Owner TEXT, Bal INT)");
    SESSION_OK(s1_, "INSERT INTO Acct VALUES ('alice', 100)");
    SESSION_OK(s1_, "INSERT INTO Acct VALUES ('bob', 100)");
  }

  std::string Balances(Session& s) {
    return Rows(s, "SELECT Owner, Bal FROM Acct ORDER BY Owner");
  }

  Database db_;
  Session s1_{&db_, "admin"};
  Session s2_{&db_, "admin"};
};

// --- prevented anomalies --------------------------------------------------

TEST_F(IsolationTest, DirtyReadNeverVisible) {
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 999 WHERE Owner = 'alice'");
  // s2 must not see s1's uncommitted write — neither in autocommit...
  EXPECT_EQ(Balances(s2_), "alice|100;bob|100;");
  // ...nor from inside its own transaction.
  SESSION_OK(s2_, "BEGIN");
  EXPECT_EQ(Balances(s2_), "alice|100;bob|100;");
  SESSION_OK(s2_, "COMMIT");
  SESSION_OK(s1_, "ROLLBACK");
  EXPECT_EQ(Balances(s2_), "alice|100;bob|100;");
}

TEST_F(IsolationTest, ReadYourOwnWrites) {
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s1_, "INSERT INTO Acct VALUES ('carol', 50)");
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 75 WHERE Owner = 'carol'");
  // The transaction sees its own uncommitted insert and update...
  EXPECT_EQ(Balances(s1_), "alice|100;bob|100;carol|75;");
  // ...while the other session sees neither.
  EXPECT_EQ(Balances(s2_), "alice|100;bob|100;");
  SESSION_OK(s1_, "COMMIT");
  EXPECT_EQ(Balances(s2_), "alice|100;bob|100;carol|75;");
}

TEST_F(IsolationTest, NonRepeatableReadPrevented) {
  SESSION_OK(s1_, "BEGIN");
  EXPECT_EQ(Balances(s1_), "alice|100;bob|100;");
  // A concurrent autocommit update commits between s1's two reads.
  SESSION_OK(s2_, "UPDATE Acct SET Bal = 200 WHERE Owner = 'alice'");
  EXPECT_EQ(Balances(s2_), "alice|200;bob|100;");
  // s1's snapshot predates the commit: the re-read must match read #1.
  EXPECT_EQ(Balances(s1_), "alice|100;bob|100;");
  SESSION_OK(s1_, "COMMIT");
  // Only a new snapshot observes the concurrent commit.
  EXPECT_EQ(Balances(s1_), "alice|200;bob|100;");
}

TEST_F(IsolationTest, PhantomPrevented) {
  SESSION_OK(s1_, "BEGIN");
  EXPECT_EQ(Rows(s1_, "SELECT Owner FROM Acct WHERE Bal = 100 "
                      "ORDER BY Owner"),
            "alice;bob;");
  // A row satisfying s1's predicate commits mid-transaction.
  SESSION_OK(s2_, "INSERT INTO Acct VALUES ('mallory', 100)");
  // Same predicate, same transaction: no phantom row may appear.
  EXPECT_EQ(Rows(s1_, "SELECT Owner FROM Acct WHERE Bal = 100 "
                      "ORDER BY Owner"),
            "alice;bob;");
  SESSION_OK(s1_, "COMMIT");
  EXPECT_EQ(Rows(s1_, "SELECT Owner FROM Acct WHERE Bal = 100 "
                      "ORDER BY Owner"),
            "alice;bob;mallory;");
}

TEST_F(IsolationTest, LostUpdatePreventedFirstUpdaterWins) {
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s2_, "BEGIN");
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 150 WHERE Owner = 'alice'");
  // Second updater of the same row loses immediately — no waiting for
  // the first to commit, no silent overwrite.
  auto r = s2_.Execute("UPDATE Acct SET Bal = 180 WHERE Owner = 'alice'");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsSerializationFailure())
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("serialization failure, retry "
                                       "transaction"),
            std::string::npos)
      << r.status().ToString();
  // The conflict dooms s2's whole transaction, not just the statement.
  auto doomed = s2_.Execute("SELECT Owner FROM Acct");
  ASSERT_FALSE(doomed.ok());
  EXPECT_NE(doomed.status().ToString().find(
                "transaction is aborted, commands ignored"),
            std::string::npos)
      << doomed.status().ToString();
  // COMMIT of a doomed transaction closes it as a rollback.
  auto commit = s2_.Execute("COMMIT");
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->message, "ROLLBACK");
  // The first updater's write survives untouched.
  SESSION_OK(s1_, "COMMIT");
  EXPECT_EQ(Balances(s2_), "alice|150;bob|100;");
}

TEST_F(IsolationTest, AutocommitWriterLosesToOpenTransaction) {
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 150 WHERE Owner = 'alice'");
  // An autocommit statement conflicts the same way a transaction does.
  auto r = s2_.Execute("UPDATE Acct SET Bal = 180 WHERE Owner = 'alice'");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsSerializationFailure())
      << r.status().ToString();
  // An autocommit failure rolls back only itself; retrying after the
  // winner commits succeeds against the new state.
  SESSION_OK(s1_, "COMMIT");
  SESSION_OK(s2_, "UPDATE Acct SET Bal = 180 WHERE Owner = 'alice'");
  EXPECT_EQ(Balances(s2_), "alice|180;bob|100;");
}

TEST_F(IsolationTest, ConflictAfterWinnerCommitsStillFails) {
  SESSION_OK(s2_, "BEGIN");
  // s2's snapshot predates s1's commit; updating a row that changed
  // since the snapshot must fail even though the writer is long gone.
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 150 WHERE Owner = 'alice'");
  auto r = s2_.Execute("UPDATE Acct SET Bal = 180 WHERE Owner = 'alice'");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsSerializationFailure())
      << r.status().ToString();
  EXPECT_EQ(s2_.Execute("COMMIT")->message, "ROLLBACK");
  EXPECT_EQ(Balances(s2_), "alice|150;bob|100;");
}

// --- permitted anomaly (pins the isolation level) -------------------------

TEST_F(IsolationTest, WriteSkewPermitted) {
  // The classic: both transactions read {alice, bob}, check the combined
  // balance covers a 150 withdrawal, then debit *different* rows. Under
  // serializability one of them would fail; snapshot isolation commits
  // both because the write sets are disjoint. This pin documents that
  // the engine provides SI, not serializable — if conflict detection
  // ever tightens to reads, this test flags the behavior change.
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s2_, "BEGIN");
  EXPECT_EQ(Balances(s1_), "alice|100;bob|100;");  // sum 200 >= 150: ok
  EXPECT_EQ(Balances(s2_), "alice|100;bob|100;");  // sum 200 >= 150: ok
  SESSION_OK(s1_, "UPDATE Acct SET Bal = -50 WHERE Owner = 'alice'");
  SESSION_OK(s2_, "UPDATE Acct SET Bal = -50 WHERE Owner = 'bob'");
  SESSION_OK(s1_, "COMMIT");
  SESSION_OK(s2_, "COMMIT");
  // Both withdrawals committed; the combined-balance invariant broke.
  EXPECT_EQ(Balances(s1_), "alice|-50;bob|-50;");
}

// --- long reader vs committing writer (acceptance criterion) --------------

TEST_F(IsolationTest, LongReaderSeesPreCommitStateThroughout) {
  for (int i = 0; i < 48; ++i) {
    SESSION_OK(s1_, "INSERT INTO Acct VALUES ('acct" + std::to_string(i) +
                        "', " + std::to_string(i) + ")");
  }
  SESSION_OK(s1_, "BEGIN");
  const std::string before = Balances(s1_);
  // A writer sweeps the whole table and commits while the reader's
  // transaction stays open — the reader must never block and must keep
  // seeing the pre-commit snapshot, query after query.
  SESSION_OK(s2_, "UPDATE Acct SET Bal = 7777");
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(Balances(s1_), before);
  }
  SESSION_OK(s1_, "COMMIT");
  EXPECT_NE(Balances(s1_), before);
  EXPECT_EQ(Rows(s1_, "SELECT DISTINCT Bal FROM Acct"), "7777;");
}

// --- snapshot release / garbage collection --------------------------------

TEST_F(IsolationTest, AbandonedSessionDoesNotPinGc) {
  // Simulates a dropped connection: the session dies with an open
  // transaction holding a snapshot and an uncommitted row version. Its
  // destructor must roll back *and* release the snapshot, or version
  // garbage collection stalls forever below the dead snapshot.
  auto ghost = std::make_unique<Session>(&db_, "admin");
  {
    auto r = ghost->Execute("BEGIN");
    ASSERT_TRUE(r.ok());
    r = ghost->Execute("UPDATE Acct SET Bal = 1 WHERE Owner = 'alice'");
    ASSERT_TRUE(r.ok());
  }
  EXPECT_GT(db_.version_count(), 2u);  // chain carries the ghost version
  ghost.reset();  // connection dropped: ~Session issues ROLLBACK
  // Subsequent commits must be able to vacuum down to live rows only.
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 300 WHERE Owner = 'bob'");
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 400 WHERE Owner = 'bob'");
  EXPECT_EQ(db_.version_count(), 2u);
  EXPECT_EQ(Balances(s1_), "alice|100;bob|400;");
}

TEST_F(IsolationTest, ConflictAbortReleasesSnapshotBeforeTxnCloses) {
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 150 WHERE Owner = 'alice'");
  SESSION_OK(s2_, "BEGIN");
  EXPECT_EQ(Balances(s2_), "alice|100;bob|100;");  // snapshot captured
  auto r = s2_.Execute("UPDATE Acct SET Bal = 180 WHERE Owner = 'alice'");
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(r.status().IsSerializationFailure());
  // s2 is doomed but still open (no COMMIT/ROLLBACK yet). Its snapshot
  // must already be released: s1's commit plus one more autocommit
  // update must be able to vacuum every superseded version.
  SESSION_OK(s1_, "COMMIT");
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 500 WHERE Owner = 'bob'");
  EXPECT_EQ(db_.version_count(), 2u);
  EXPECT_EQ(s2_.Execute("COMMIT")->message, "ROLLBACK");
  EXPECT_EQ(Balances(s2_), "alice|150;bob|500;");
}

TEST_F(IsolationTest, OpenReaderPinsVersionsUntilItCloses) {
  SESSION_OK(s2_, "BEGIN");
  EXPECT_EQ(Balances(s2_), "alice|100;bob|100;");
  // While s2's snapshot is open, the superseded version must survive
  // vacuum — s2 still reads it.
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 900 WHERE Owner = 'alice'");
  EXPECT_GT(db_.version_count(), 2u);
  EXPECT_EQ(Balances(s2_), "alice|100;bob|100;");
  SESSION_OK(s2_, "COMMIT");
  // Snapshot released: the next commit's vacuum reclaims the chain.
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 901 WHERE Owner = 'alice'");
  EXPECT_EQ(db_.version_count(), 2u);
}

// --- gate mode: one decision per statement ------------------------------

TEST_F(IsolationTest, ConcurrentAutocommitIncrementsNeverConflict) {
  // DML on a table no dependency rule or approval config touches runs
  // versioned under the shared gate; each autocommit statement takes its
  // snapshot inside its writer hold, so hot-row increments serialize
  // instead of failing first-updater-wins.
  SESSION_OK(s1_, "CREATE TABLE T (k INT, v INT)");
  SESSION_OK(s1_, "INSERT INTO T VALUES (0, 0)");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 200;
  std::atomic<int> serialization_failures{0};
  std::atomic<int> other_failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      Session session(&db_, "admin");
      for (int n = 0; n < kIncrements; ++n) {
        auto r = session.Execute("UPDATE T SET v = v + 1 WHERE k = 0");
        if (r.ok()) continue;
        if (r.status().IsSerializationFailure()) {
          ++serialization_failures;
        } else {
          ++other_failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(serialization_failures.load(), 0);
  EXPECT_EQ(other_failures.load(), 0);
  EXPECT_EQ(Rows(s1_, "SELECT v FROM T"),
            std::to_string(kThreads * kIncrements) + ";");
}

TEST_F(IsolationTest, AutocommitEscalationWaitsForOpenTransaction) {
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s1_, "UPDATE Acct SET Bal = 150 WHERE Owner = 'alice'");
  // DDL escalates to the exclusive gate, which an autocommit statement
  // waits for (it never aborts) until the open transaction ends.
  std::atomic<bool> done{false};
  Result<QueryResult> created = Status::FailedPrecondition("not run");
  std::thread ddl([&] {
    created = s2_.Execute("CREATE INDEX acct_owner ON Acct (Owner)");
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load()) << "escalation must wait for the open txn";
  SESSION_OK(s1_, "COMMIT");
  ddl.join();
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(Balances(s2_), "alice|150;bob|100;");
}

TEST_F(IsolationTest, SecondEscalatingTransactionIsDoomed) {
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s2_, "BEGIN");
  // s1 escalates first and drains: it waits for s2 to end.
  Result<QueryResult> first = Status::FailedPrecondition("not run");
  std::thread escalate([&] {
    first = s1_.Execute("CREATE INDEX acct_owner ON Acct (Owner)");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // s2 escalating too would deadlock the pair; the later one aborts.
  auto second = s2_.Execute("CREATE INDEX acct_bal ON Acct (Bal)");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsSerializationFailure())
      << second.status().ToString();
  auto doomed = s2_.Execute("SELECT Owner FROM Acct");
  ASSERT_FALSE(doomed.ok());
  EXPECT_NE(doomed.status().ToString().find(
                "transaction is aborted, commands ignored"),
            std::string::npos)
      << doomed.status().ToString();
  EXPECT_EQ(s2_.Execute("COMMIT")->message, "ROLLBACK");
  escalate.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto commit = s1_.Execute("COMMIT");
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->message.rfind("COMMIT", 0), 0u) << commit->message;
  EXPECT_TRUE(s2_.Execute("DROP INDEX acct_owner ON Acct").ok());
  EXPECT_FALSE(s2_.Execute("DROP INDEX acct_bal ON Acct").ok());
}

// --- reads after escalation -----------------------------------------------
//
// An update made before the transaction escalated leaves the old key in
// the index (its version is retained until commit). After escalation the
// transaction reads the latest state, and an index probe on the old key
// must still not find the updated row.

class EscalatedIsolationTest : public IsolationTest {
 protected:
  // T(Id, K) with 200 rows (i, 'k<i>'), an index on K and fresh
  // statistics; then s1 opens a transaction, updates row 7's key
  // (versioned) and escalates with ANALYZE.
  void EscalateAfterKeyUpdate() {
    SESSION_OK(s1_, "CREATE TABLE T (Id INT, K TEXT)");
    std::string insert = "INSERT INTO T VALUES ";
    for (int i = 0; i < 200; ++i) {
      if (i > 0) insert += ", ";
      const std::string id = std::to_string(i);
      insert.append("(").append(id).append(", 'k").append(id).append("')");
    }
    SESSION_OK(s1_, insert);
    SESSION_OK(s1_, "CREATE INDEX t_k ON T (K)");
    SESSION_OK(s1_, "ANALYZE");
    SESSION_OK(s1_, "BEGIN");
    SESSION_OK(s1_, "UPDATE T SET K = 'new' WHERE Id = 7");
    SESSION_OK(s1_, "ANALYZE T");
  }
};

TEST_F(EscalatedIsolationTest, IndexScanSkipsTheOldKey) {
  EscalateAfterKeyUpdate();
  EXPECT_NE(Rows(s1_, "EXPLAIN SELECT Id, K FROM T WHERE K = 'k7'")
                .find("IndexScan T USING t_k"),
            std::string::npos);
  EXPECT_EQ(Rows(s1_, "SELECT Id, K FROM T WHERE K = 'k7'"), "");
  EXPECT_EQ(Rows(s1_, "SELECT Id, K FROM T WHERE K = 'new'"), "7|new;");
  SESSION_OK(s1_, "COMMIT");
}

TEST_F(EscalatedIsolationTest, UpdateThroughTheOldKeyTouchesNothing) {
  EscalateAfterKeyUpdate();
  auto r = s1_.Execute("UPDATE T SET Id = 999 WHERE K = 'k7'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->affected, 0u);
  SESSION_OK(s1_, "COMMIT");
  EXPECT_EQ(Rows(s2_, "SELECT Id, K FROM T WHERE Id = 999"), "");
  EXPECT_EQ(Rows(s2_, "SELECT Id, K FROM T WHERE Id = 7"), "7|new;");
}

TEST_F(EscalatedIsolationTest, IndexRangeScanSkipsTheOldKey) {
  SESSION_OK(s1_, "CREATE TABLE T (Id INT, K TEXT)");
  std::string insert = "INSERT INTO T VALUES (1, 'old'), (2, 'other')";
  // Keys above the probed range keep it selective enough for the index.
  for (int i = 0; i < 50; ++i) {
    insert += ", (" + std::to_string(100 + i) + ", 'z" +
              std::to_string(i) + "')";
  }
  SESSION_OK(s1_, insert);
  SESSION_OK(s1_, "CREATE INDEX t_k ON T (K)");
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s1_, "UPDATE T SET K = 'new' WHERE Id = 1");
  SESSION_OK(s1_, "ANALYZE T");
  // The range holds row 1's stale 'old' entry and its live 'new' one.
  const std::string range = "SELECT K FROM T WHERE K >= 'a' AND K < 'p'";
  EXPECT_NE(Rows(s1_, "EXPLAIN " + range).find("IndexScan T USING t_k"),
            std::string::npos);
  EXPECT_EQ(Rows(s1_, range), "new;other;");
  SESSION_OK(s1_, "COMMIT");
}

// Each statement of the escalated transaction pushes a new version, and
// every retained version owns an index entry: a row updated outside its
// key is reachable through several equal entries and must surface once.
TEST_F(EscalatedIsolationTest, RowWithRepeatedIndexEntriesSurfacesOnce) {
  EscalateAfterKeyUpdate();
  SESSION_OK(s1_, "UPDATE T SET Id = 80 WHERE Id = 8");
  EXPECT_EQ(Rows(s1_, "SELECT Id, K FROM T WHERE K = 'k8'"), "80|k8;");
  auto update = s1_.Execute("UPDATE T SET Id = 81 WHERE K = 'k8'");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->affected, 1u);
  auto del = s1_.Execute("DELETE FROM T WHERE K = 'k8'");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->affected, 1u);
  SESSION_OK(s1_, "COMMIT");
  EXPECT_EQ(Rows(s2_, "SELECT Id FROM T WHERE K = 'k8' OR Id = 8"), "");}

TEST_F(EscalatedIsolationTest, TopKSkipsRepeatedAndStaleEntries) {
  SESSION_OK(s1_, "CREATE TABLE S (Id INT, Seq SEQUENCE)");
  SESSION_OK(s1_,
             "INSERT INTO S VALUES (1, 'AAAA'), (2, 'CCCC'), (3, 'GGGG')");
  SESSION_OK(s1_, "CREATE SEQUENCE INDEX s_seq ON S (Seq) USING SPGIST");
  SESSION_OK(s1_, "BEGIN");
  SESSION_OK(s1_, "ANALYZE S");
  // Row 1 gets a repeated entry, row 3 a stale one ('GGGG').
  SESSION_OK(s1_, "UPDATE S SET Id = 10 WHERE Id = 1");
  SESSION_OK(s1_, "UPDATE S SET Seq = 'GGGA' WHERE Id = 3");
  const std::string nearest_a =
      "SELECT Id FROM S ORDER BY DISTANCE(Seq, 'AAAA') LIMIT 2";
  EXPECT_NE(Rows(s1_, "EXPLAIN " + nearest_a).find("SpgistTopKScan S"),
            std::string::npos);
  EXPECT_EQ(Rows(s1_, nearest_a), "10;3;");
  EXPECT_EQ(
      Rows(s1_, "SELECT Id FROM S ORDER BY DISTANCE(Seq, 'GGGG') LIMIT 1"),
      "3;");
  SESSION_OK(s1_, "COMMIT");
}

}  // namespace
}  // namespace bdbms
