// Multi-statement transactions and statement atomicity: BEGIN/COMMIT/
// ROLLBACK semantics, the write set's restoration of every subsystem
// (heaps, secondary + sequence indexes, annotations, approval state,
// grants, dependency rules, catalog, the logical clock), mid-statement
// failure atomicity inside and outside explicit transactions, and
// transaction durability across reopen. The oracle is the deep state
// fingerprint from durability_test_util.h: fingerprint equality means no
// observable difference.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/database.h"
#include "core/session.h"
#include "durability_test_util.h"
#include "wal/serializer.h"
#include "wal/wal.h"

namespace bdbms {
namespace {

using testutil::DurableOpts;
using testutil::Fingerprint;
using testutil::FreshDir;
using testutil::RegisterProcedures;
using testutil::RunStandardWorkload;
using testutil::VerifyIndexConsistency;

#define EXEC_OK(db, sql, user)                                          \
  do {                                                                  \
    auto _r = (db).Execute(sql, user);                                  \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> " << _r.status().ToString(); \
  } while (0)

// A mutation storm touching every subsystem the write set must restore.
// Run inside a transaction and rolled back, it must leave no trace.
std::vector<std::pair<std::string, std::string>> MutationStorm() {
  return {
      {"admin", "INSERT INTO Gene VALUES ('JW0099', 'tmp', 'ACGTACGT')"},
      {"alice", "UPDATE Gene SET GName = 'renamed' WHERE GID = 'JW0080'"},
      // Triggers rule1 recomputation into Protein and rule2 outdated
      // marking — dependency propagation effects must roll back too.
      {"alice", "UPDATE Gene SET GSequence = 'ACGACG' WHERE GID = 'JW0080'"},
      {"admin", "APPROVE OPERATION 3"},
      {"admin",
       "ADD ANNOTATION TO Gene.Curation VALUE "
       "'<Annotation>storm</Annotation> ' "
       "ON (SELECT GID FROM Gene WHERE GID = 'JW0080')"},
      {"admin",
       "ARCHIVE ANNOTATION FROM Gene.Curation "
       "ON (SELECT GID FROM Gene WHERE GID = 'JW0080')"},
      {"admin",
       "ADD ANNOTATION TO Gene.Curation VALUE "
       "'<Annotation>deleted by storm</Annotation> ' "
       "ON (DELETE FROM Gene WHERE GID = 'JW0099')"},
      {"admin", "CREATE TABLE Scratch (SID TEXT, Payload TEXT)"},
      {"admin", "INSERT INTO Scratch VALUES ('s1', 'x')"},
      {"admin", "CREATE INDEX scratch_idx ON Scratch (SID)"},
      {"admin", "DROP INDEX gidx ON Gene"},
      {"admin", "CREATE INDEX gidx2 ON Gene (GName)"},
      {"admin", "CREATE ANNOTATION TABLE StormNotes ON Scratch"},
      {"admin",
       "ADD ANNOTATION TO Scratch.StormNotes VALUE "
       "'<Annotation>note</Annotation> ' "
       "ON (SELECT SID FROM Scratch)"},
      {"admin", "DROP ANNOTATION TABLE StormNotes ON Scratch"},
      {"admin", "DROP TABLE Scratch"},
      {"admin", "CREATE USER carol"},
      {"admin", "GRANT SELECT ON Gene TO carol"},
      {"admin", "REVOKE INSERT ON Gene FROM alice"},
      {"admin", "ADD USER bob TO GROUP lab_members"},
      {"admin", "STOP CONTENT APPROVAL ON Gene COLUMNS (GSequence)"},
      {"admin", "ANALYZE Gene"},
      {"admin", "DROP DEPENDENCY rule2"},
      {"admin", "ANALYZE Protein"},
  };
}

// Live rows across all tables: what version_count() must fall back to
// once no transaction holds uncommitted or superseded versions.
uint64_t LiveRows(Database& db) {
  uint64_t rows = 0;
  for (const auto& [name, table] : db.catalog().tables()) {
    rows += table->row_count();
  }
  return rows;
}

// --- explicit transactions ------------------------------------------------

TEST(TxnTest, RollbackRestoresEverySubsystem) {
  Database db;
  ASSERT_TRUE(RegisterProcedures(db).ok());
  RunStandardWorkload(db);
  const std::string before = Fingerprint(db);

  EXEC_OK(db, "BEGIN", "admin");
  for (const auto& [user, sql] : MutationStorm()) {
    EXEC_OK(db, sql, user);
  }
  // The transaction's own view includes its uncommitted effects.
  EXPECT_NE(Fingerprint(db), before);
  EXEC_OK(db, "ROLLBACK", "admin");

  EXPECT_EQ(Fingerprint(db), before);
  EXPECT_EQ(db.version_count(), LiveRows(db))
      << "rollback left discarded versions behind";
  VerifyIndexConsistency(db);
}

TEST(TxnTest, CommitIsEquivalentToAutocommit) {
  Database txn_db;
  ASSERT_TRUE(RegisterProcedures(txn_db).ok());
  RunStandardWorkload(txn_db);
  EXEC_OK(txn_db, "BEGIN TRANSACTION", "admin");
  for (const auto& [user, sql] : MutationStorm()) {
    EXEC_OK(txn_db, sql, user);
  }
  auto commit = txn_db.Execute("COMMIT", "admin");
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->message,
            "COMMIT (" + std::to_string(MutationStorm().size()) +
                " statements)");

  Database auto_db;
  ASSERT_TRUE(RegisterProcedures(auto_db).ok());
  RunStandardWorkload(auto_db);
  for (const auto& [user, sql] : MutationStorm()) {
    EXEC_OK(auto_db, sql, user);
  }

  EXPECT_EQ(Fingerprint(txn_db), Fingerprint(auto_db));
  VerifyIndexConsistency(txn_db);
}

TEST(TxnTest, FailedStatementInsideTxnRollsBackOnlyThatStatement) {
  // Each case runs `before` inside a transaction, then a statement that
  // changes rows and fails part-way. The savepoint must undo exactly that
  // statement — the deep fingerprint (next_row_id and index entry counts
  // included) is back to its pre-statement value — while the transaction
  // and its earlier statements stay alive, and COMMIT keeps them.
  struct Case {
    std::vector<std::string> before;
    std::string failing;
    std::string probe;
    std::string expected;
  };
  const std::vector<Case> cases = {
      // Escalated: fails during dependency propagation (the prediction
      // tool rejects a NULL input) after the heap row already changed.
      {{"INSERT INTO Gene VALUES ('JW0100', 'kept', 'ACGT')"},
       "UPDATE Gene SET GSequence = NULL WHERE GID = 'JW0080'",
       "SELECT GSequence FROM Gene WHERE GID = 'JW0100' OR GID = 'JW0080'",
       "'TTTT';'ACGT';"},
      // Escalated: the first row takes a RowId, an approval op id and a
      // provenance annotation before the second row fails, and all three
      // must be handed back.
      {{},
       "INSERT INTO Gene VALUES ('JW0101', 'a', 'AC'), ('JW0102', 'b', 1 / 0)",
       "SELECT GName FROM Gene WHERE GID = 'JW0101'", ""},
      // Escalated: re-inserting a deleted gene recomputes its protein's
      // outdated PSequence and clears the mark before the second row
      // fails; the old value and the mark must both come back.
      {{"DELETE FROM Gene WHERE GID = 'JW0080'"},
       "INSERT INTO Gene VALUES ('JW0080', 'back', 'ACG'), "
       "('JW0103', 'b', 1 / 0)",
       "SELECT PSequence FROM Protein WHERE PName = 'mraW'", "'E';"},
      // Row updated by an earlier statement, re-updated by the failing
      // one (division by zero on a later row).
      {{"UPDATE T SET v = 11 WHERE k = 1", "INSERT INTO T VALUES (0, 20)"},
       "UPDATE T SET v = 100 / k", "SELECT v FROM T WHERE k = 1", "11;"},
      // Row inserted by an earlier statement, updated by the failing one.
      {{"INSERT INTO T VALUES (2, 30)", "INSERT INTO T VALUES (0, 40)"},
       "UPDATE T SET v = 100 / k", "SELECT v FROM T WHERE k = 2", "30;"},
  };
  auto setup = [](Database& db) {
    ASSERT_TRUE(RegisterProcedures(db).ok());
    RunStandardWorkload(db);
    EXEC_OK(db, "CREATE TABLE T (k INT, v INT)", "admin");
    EXEC_OK(db, "CREATE INDEX t_v ON T (v)", "admin");
    EXEC_OK(db, "INSERT INTO T VALUES (1, 10)", "admin");
  };
  auto probe = [](Database& db, const std::string& sql) {
    auto r = db.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
    std::string out;
    if (r.ok()) {
      for (const auto& row : r->rows) out += row.values[0].ToString() + ";";
    }
    return out;
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.failing);
    Database db;
    setup(db);
    EXEC_OK(db, "BEGIN", "admin");
    for (const std::string& sql : c.before) EXEC_OK(db, sql, "admin");
    const std::string before_failure = Fingerprint(db);

    auto failed = db.Execute(c.failing);
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsInvalidArgument())
        << failed.status().ToString();
    EXPECT_EQ(Fingerprint(db), before_failure)
        << "failed statement left partial effects";
    EXPECT_EQ(probe(db, c.probe), c.expected);
    EXEC_OK(db, "COMMIT", "admin");

    // The same statements in autocommit, without the failed one.
    Database reference;
    setup(reference);
    for (const std::string& sql : c.before) EXEC_OK(reference, sql, "admin");
    EXPECT_EQ(Fingerprint(db), Fingerprint(reference))
        << "commit lost or leaked a statement";
    EXPECT_EQ(probe(db, c.probe), c.expected);
    EXPECT_EQ(db.version_count(), LiveRows(db));
    VerifyIndexConsistency(db);
  }
}

TEST(TxnTest, ControlStatementsOutsideTxnFail) {
  Database db;
  auto commit = db.Execute("COMMIT");
  ASSERT_FALSE(commit.ok());
  EXPECT_TRUE(commit.status().IsFailedPrecondition());
  auto rollback = db.Execute("ROLLBACK");
  ASSERT_FALSE(rollback.ok());
  EXPECT_TRUE(rollback.status().IsFailedPrecondition());

  EXEC_OK(db, "BEGIN", "admin");
  auto again = db.Execute("BEGIN");
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsFailedPrecondition());
  EXEC_OK(db, "ROLLBACK", "admin");
}

TEST(TxnTest, CheckpointRefusedInsideTxn) {
  std::string dir = FreshDir("txn_ckpt_refused");
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok());
  EXEC_OK(**db, "BEGIN", "admin");
  auto ckpt = (*db)->Execute("CHECKPOINT");
  ASSERT_FALSE(ckpt.ok());
  EXPECT_TRUE(ckpt.status().IsFailedPrecondition());
  EXEC_OK(**db, "ROLLBACK", "admin");
  EXPECT_TRUE((*db)->Close().ok());
}

// --- statement atomicity in autocommit ------------------------------------

TEST(TxnTest, AutocommitMidStatementFailureLeavesNoPartialState) {
  Database db;
  ASSERT_TRUE(RegisterProcedures(db).ok());
  RunStandardWorkload(db);
  const std::string before = Fingerprint(db);

  auto failed =
      db.Execute("UPDATE Gene SET GSequence = NULL WHERE GID = 'JW0080'");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsInvalidArgument())
      << failed.status().ToString();

  EXPECT_EQ(Fingerprint(db), before)
      << "failed autocommit statement left partial effects";
  VerifyIndexConsistency(db);
}

TEST(TxnTest, AutocommitMidStatementFailureIsInvisibleAfterReopen) {
  std::string dir = FreshDir("txn_autocommit_atomic");
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    before = Fingerprint(**db);
    auto failed = (*db)->Execute(
        "UPDATE Gene SET GSequence = NULL WHERE GID = 'JW0080'");
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(Fingerprint(**db), before);
    EXPECT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(Fingerprint(**db), before);
}

// --- sessions -------------------------------------------------------------

TEST(TxnTest, SessionDestructorRollsBackOpenTxn) {
  Database db;
  ASSERT_TRUE(RegisterProcedures(db).ok());
  RunStandardWorkload(db);
  const std::string before = Fingerprint(db);
  {
    Session session(&db, "admin");
    ASSERT_TRUE(session.Execute("BEGIN").ok());
    ASSERT_TRUE(
        session.Execute("INSERT INTO Gene VALUES ('JW0200', 'x', 'AC')")
            .ok());
    EXPECT_TRUE(session.InTransaction());
    // Dropped without COMMIT — a vanished client must not leave the
    // engine locked or its writes half-applied.
  }
  EXPECT_FALSE(db.InTransaction());
  EXPECT_EQ(Fingerprint(db), before);
  // The engine is unlocked again: a new transaction can begin.
  EXEC_OK(db, "BEGIN", "admin");
  EXEC_OK(db, "COMMIT", "admin");
}

TEST(TxnTest, TxnOwnershipIsPerSession) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (x INT)", "admin");
  Session a(&db, "admin");
  ASSERT_TRUE(a.Execute("BEGIN").ok());
  EXPECT_TRUE(a.InTransaction());
  EXPECT_FALSE(db.InTransaction());  // the implicit session does not own it
  ASSERT_TRUE(a.Execute("COMMIT").ok());
}

// --- durability -----------------------------------------------------------

TEST(TxnTest, CommittedTxnSurvivesReopen) {
  std::string dir = FreshDir("txn_commit_reopen");
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    EXEC_OK(**db, "BEGIN", "admin");
    for (const auto& [user, sql] : MutationStorm()) {
      EXEC_OK(**db, sql, user);
    }
    EXEC_OK(**db, "COMMIT", "admin");
    before = Fingerprint(**db);
    EXPECT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(Fingerprint(**db), before);
  VerifyIndexConsistency(**db);
}

TEST(TxnTest, UncommittedTxnIsInvisibleAfterReopen) {
  std::string dir = FreshDir("txn_uncommitted_reopen");
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    before = Fingerprint(**db);
    EXEC_OK(**db, "BEGIN", "admin");
    EXEC_OK(**db, "INSERT INTO Gene VALUES ('JW0300', 'gone', 'AC')",
            "admin");
    // No COMMIT: the database object is destroyed with the transaction
    // open, as a crashed process would.
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(Fingerprint(**db), before);
}

TEST(TxnTest, RolledBackTxnWritesNothingToWal) {
  std::string dir = FreshDir("txn_rollback_wal");
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok());
  RunStandardWorkload(**db);
  const uint64_t lsn_before = (*db)->durability_stats().last_lsn;
  const uint64_t bytes_before = (*db)->durability_stats().wal_bytes_appended;
  EXEC_OK(**db, "BEGIN", "admin");
  EXEC_OK(**db, "INSERT INTO Gene VALUES ('JW0400', 'x', 'AC')", "admin");
  EXEC_OK(**db, "ROLLBACK", "admin");
  EXPECT_EQ((*db)->durability_stats().last_lsn, lsn_before);
  EXPECT_EQ((*db)->durability_stats().wal_bytes_appended, bytes_before)
      << "uncommitted work reached the journal";
  EXPECT_TRUE((*db)->Close().ok());
}

// --- WAL framing ----------------------------------------------------------

// An explicit transaction's frame: two statements, the second escalated,
// and the end-of-transaction id bases.
WalFrame TwoStatementFrame() {
  return WalFrame{
      .csn = 7,
      .statements = {{.lsn = 4,
                      .clock = 10,
                      .user = "admin",
                      .sql = "INSERT INTO T VALUES (1)",
                      .snapshot = 6,
                      .bases = {{{"T", 3}}, {{"T.N", 1}}}},
                     {.lsn = 5,
                      .clock = 11,
                      .user = "alice",
                      .sql = "CREATE INDEX i ON T (k)",
                      .snapshot = kLatestCsn,
                      .bases = {{{"T", 4}}, {{"T.N", 1}}}}},
      .end_bases = {{{"T", 5}}, {{"T.N", 2}}}};
}

TEST(TxnWalFormatTest, MultiStatementFrameRoundTrips) {
  WalFrame txn = TwoStatementFrame();
  WalFrame next{.csn = 0,
                .statements = {{.lsn = 6, .clock = 12, .user = "admin",
                                .sql = "CREATE USER bob",
                                .snapshot = kLatestCsn}}};
  std::string log = EncodeWalFrame(txn) + EncodeWalFrame(next);
  auto scan = ScanWal(log);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->frames.size(), 2u);
  EXPECT_EQ(scan->frames[0], txn);
  EXPECT_EQ(scan->frames[1], next);
  EXPECT_EQ(scan->valid_bytes, log.size());
  EXPECT_FALSE(scan->tail_discarded);
}

TEST(TxnWalFormatTest, MalformedFrameIsCorruption) {
  // A CRC-valid frame that does not decode as exactly the frame layout
  // is not a torn tail — it is a file from another format or real
  // corruption, and like a non-monotonic LSN it must fail the scan
  // rather than be silently dropped. Each case re-frames a damaged copy
  // of a valid payload under a fresh CRC.
  const std::string good = EncodeWalFrame(TwoStatementFrame());
  const std::string payload = good.substr(8);
  auto reframed = [](const std::string& body) {
    std::string framed;
    BinaryWriter w(&framed);
    w.U32(0);
    w.U32(static_cast<uint32_t>(body.size()));
    framed += body;
    const uint32_t crc = Crc32(std::string_view(framed).substr(4));
    std::string out;
    BinaryWriter(&out).U32(crc);
    return out + framed.substr(4);
  };
  ASSERT_EQ(reframed(payload), good);

  std::string unknown_format = payload;
  unknown_format[0] = 9;
  // The statement count (after u8 format, u64 csn) claims one more
  // statement than the frame holds.
  std::string short_list = payload;
  short_list[9] = 3;
  std::string trailing = payload + "x";
  std::string no_statements;
  BinaryWriter w(&no_statements);
  w.U8(static_cast<uint8_t>(payload[0]));
  w.U64(0);
  w.U32(0);
  w.U32(0);
  w.U32(0);
  for (const auto& [name, body] :
       std::vector<std::pair<std::string, std::string>>{
           {"unknown format byte", unknown_format},
           {"short statement list", short_list},
           {"trailing bytes", trailing},
           {"no statements", no_statements}}) {
    SCOPED_TRACE(name);
    // Also after an intact frame: the scan must not cut there either.
    const WalFrame intact{
        .statements = {{.lsn = 1, .user = "admin", .sql = "A"}}};
    for (const std::string& log :
         {reframed(body), EncodeWalFrame(intact) + reframed(body)}) {
      auto scan = ScanWal(log);
      ASSERT_FALSE(scan.ok());
      EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
    }
  }
}

}  // namespace
}  // namespace bdbms
