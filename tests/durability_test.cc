// Durability unit + recovery-golden tests: WAL framing, checkpoint file
// atomicity, Database::Open recovery across every subsystem, group
// commit, auto-checkpoint, and the recovery goldens the crash matrix in
// docs/durability.md promises (truncated log, corrupted record CRC,
// corrupted checkpoint, leftover checkpoint temp file, foreign formats).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/database.h"
#include "durability_test_util.h"
#include "fault_fs.h"
#include "storage/pager.h"
#include "wal/checkpoint.h"
#include "wal/serializer.h"
#include "wal/wal.h"

namespace bdbms {
namespace {

using testutil::DurableOpts;
using testutil::Fingerprint;
using testutil::ReferenceFingerprint;
using testutil::RunStandardWorkload;
using testutil::StandardWorkload;
using testutil::FreshDir;
using testutil::VerifyIndexConsistency;

#define EXEC_OK(db, sql, user)                                         \
  do {                                                                 \
    auto _r = (db).Execute(sql, user);                                 \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> " << _r.status().ToString(); \
  } while (0)

// --- WAL framing ----------------------------------------------------------

// An autocommit frame: one statement, no end bases.
WalFrame Autocommit(uint64_t lsn, uint64_t clock, std::string user,
                    std::string sql) {
  return WalFrame{.statements = {WalStatement{.lsn = lsn,
                                              .clock = clock,
                                              .user = std::move(user),
                                              .sql = std::move(sql)}}};
}

TEST(WalFormatTest, RoundTripsRecords) {
  WalFrame a = Autocommit(1, 10, "admin", "CREATE TABLE T (x INT)");
  WalFrame b = Autocommit(2, 11, "alice", "INSERT INTO T VALUES (1)");
  b.csn = 1;
  b.statements[0].snapshot = 5;
  b.statements[0].bases = {{{"T", 0}}, {}};
  std::string log = EncodeWalFrame(a) + EncodeWalFrame(b);
  auto scan = ScanWal(log);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->tail_discarded);
  EXPECT_EQ(scan->valid_bytes, log.size());
  ASSERT_EQ(scan->frames.size(), 2u);
  EXPECT_EQ(scan->frames[0], a);
  EXPECT_EQ(scan->frames[1], b);
}

TEST(WalFormatTest, TornTailIsDiscardedAtEveryCut) {
  WalFrame a = Autocommit(1, 10, "admin", "CREATE TABLE T (x INT)");
  WalFrame b = Autocommit(2, 11, "alice", "INSERT INTO T VALUES (1)");
  std::string log = EncodeWalFrame(a) + EncodeWalFrame(b);
  size_t first = EncodeWalFrame(a).size();
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    auto scan = ScanWal(std::string_view(log).substr(0, cut));
    ASSERT_TRUE(scan.ok()) << cut;
    size_t expect = cut >= log.size() ? 2 : (cut >= first ? 1 : 0);
    EXPECT_EQ(scan->frames.size(), expect) << "cut at " << cut;
    // Frame boundaries (0, first, full) leave nothing to discard.
    EXPECT_EQ(scan->tail_discarded,
              cut != 0 && cut != first && cut != log.size())
        << "cut at " << cut;
  }
}

TEST(WalFormatTest, CorruptedByteCutsLogAtThatRecord) {
  WalFrame a = Autocommit(1, 10, "admin", "CREATE TABLE T (x INT)");
  WalFrame b = Autocommit(2, 11, "alice", "INSERT INTO T VALUES (1)");
  std::string log = EncodeWalFrame(a) + EncodeWalFrame(b);
  size_t first = EncodeWalFrame(a).size();
  std::string corrupt = log;
  corrupt[first + 12] ^= 0x40;  // inside frame b's payload
  auto scan = ScanWal(corrupt);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->frames.size(), 1u);
  EXPECT_EQ(scan->frames[0], a);
  EXPECT_TRUE(scan->tail_discarded);
  EXPECT_EQ(scan->valid_bytes, first);
}

TEST(WalFormatTest, NonMonotonicLsnIsCorruption) {
  // Across frames and inside one.
  std::string log = EncodeWalFrame(Autocommit(2, 10, "admin", "A")) +
                    EncodeWalFrame(Autocommit(2, 11, "admin", "B"));
  auto scan = ScanWal(log);
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsCorruption());

  WalFrame both = Autocommit(3, 10, "admin", "A");
  both.statements.push_back(Autocommit(3, 11, "admin", "B").statements[0]);
  scan = ScanWal(EncodeWalFrame(both));
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsCorruption());
}

// --- Pager fsync accounting ----------------------------------------------

// A paged heap fsyncs only at its checkpoint durability points: base
// extensions and the redo journal in prepare, written-home pages in
// commit. A clean table's checkpoint costs no fsync at all.
TEST(PagerSyncTest, CheckpointCountsPageFsyncs) {
  WalEnv env;
  std::string dir = FreshDir("bdbms_pager_sync_test");
  std::filesystem::create_directories(dir);
  auto pager = Pager::OpenPaged(&env, dir + "/t.heap");
  ASSERT_TRUE(pager.ok());
  Page page;
  page.Zero();
  ASSERT_TRUE((*pager)->AllocatePage().ok());
  ASSERT_TRUE((*pager)->WritePage(0, page).ok());
  // Extension only: one base fsync in prepare, nothing to write home.
  ASSERT_TRUE((*pager)->CheckpointPrepare(1).ok());
  ASSERT_TRUE((*pager)->CheckpointCommit().ok());
  EXPECT_EQ((*pager)->stats().fsyncs, 1u);
  // Clean.
  ASSERT_TRUE((*pager)->CheckpointPrepare(2).ok());
  ASSERT_TRUE((*pager)->CheckpointCommit().ok());
  EXPECT_EQ((*pager)->stats().fsyncs, 1u);
  // Overwrite only: the journal in prepare, the base in commit.
  ASSERT_TRUE((*pager)->WritePage(0, page).ok());
  ASSERT_TRUE((*pager)->CheckpointPrepare(3).ok());
  ASSERT_TRUE((*pager)->CheckpointCommit().ok());
  EXPECT_EQ((*pager)->stats().fsyncs, 3u);
}

// --- Open / replay / reopen equivalence ------------------------------------

TEST(DurabilityTest, OpenCreatesEmptyDurableDatabase) {
  std::string dir = FreshDir("dur_empty");
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->is_durable());
  EXPECT_EQ((*db)->durability_stats().last_lsn, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + kWalFileName));
}

TEST(DurabilityTest, ReopenRestoresFullEngineState) {
  std::string dir = FreshDir("dur_reopen_full");
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RunStandardWorkload(**db);
    before = Fingerprint(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  EXPECT_EQ(before, ReferenceFingerprint())
      << "durable run diverged from the in-memory reference";
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open,
            StandardWorkload().size());
  EXPECT_EQ(Fingerprint(**db), before);
  VerifyIndexConsistency(**db);
}

TEST(DurabilityTest, RecoveredDatabaseKeepsAcceptingStatements) {
  std::string dir = FreshDir("dur_continue");
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db, 19);  // through the Protein insert
  }
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    auto statements = StandardWorkload();
    for (size_t i = 19; i < statements.size(); ++i) {
      EXEC_OK(**db, statements[i].second, statements[i].first);
    }
    EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint());
  }
  // And the spliced history replays whole.
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint());
}

TEST(DurabilityTest, CheckpointTruncatesWalAndRecovers) {
  std::string dir = FreshDir("dur_ckpt");
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    // Revoking a principal's last privilege on a table leaves no empty
    // grant entry behind for the checkpoint to persist.
    EXEC_OK(**db, "GRANT DELETE ON Gene TO bob", "admin");
    EXEC_OK(**db, "REVOKE DELETE ON Gene FROM bob", "admin");
    auto r = (*db)->Execute("CHECKPOINT");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*db)->durability_stats().checkpoints_taken, 1u);
    EXPECT_EQ(std::filesystem::file_size(dir + "/" + kWalFileName), 0u);
    before = Fingerprint(**db);
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open, 0u);
  EXPECT_EQ(Fingerprint(**db), before);
  VerifyIndexConsistency(**db);
}

TEST(DurabilityTest, CheckpointPlusLogTailRecovers) {
  std::string dir = FreshDir("dur_ckpt_tail");
  std::string before;
  size_t total = StandardWorkload().size();
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db, 16);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    auto statements = StandardWorkload();
    for (size_t i = 16; i < total; ++i) {
      EXEC_OK(**db, statements[i].second, statements[i].first);
    }
    before = Fingerprint(**db);
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open, total - 16);
  EXPECT_EQ(Fingerprint(**db), before);
  EXPECT_EQ(before, ReferenceFingerprint());
}

// A refused DROP TABLE leaves the rule's tables in place, so the
// checkpoint restore can re-validate the rule.
TEST(DurabilityTest, RefusedDropTableKeepsCheckpointRestorable) {
  std::string dir = FreshDir("dur_drop_refused");
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    EXEC_OK(**db, "CREATE TABLE G (GID TEXT, S TEXT)", "admin");
    EXEC_OK(**db, "CREATE TABLE Q (GID TEXT, F TEXT)", "admin");
    EXEC_OK(**db,
            "CREATE DEPENDENCY r1 FROM G.S TO Q.F USING lab_experiment "
            "JOIN ON G.GID = Q.GID",
            "admin");
    EXPECT_TRUE(
        (*db)->Execute("DROP TABLE Q").status().IsFailedPrecondition());
    EXEC_OK(**db, "CHECKPOINT", "admin");
    before = Fingerprint(**db);
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Fingerprint(**db), before);
  EXEC_OK(**db, "INSERT INTO Q VALUES ('g1', 'fn')", "admin");
  EXEC_OK(**db, "INSERT INTO G VALUES ('g1', 'AAA')", "admin");
  EXEC_OK(**db, "UPDATE G SET S = 'CCC' WHERE GID = 'g1'", "admin");
  EXPECT_TRUE((*db)->dependencies().IsOutdated("Q", 0, 1));
}

// The planner breaks cost ties between indexes by creation order; the
// checkpoint keeps that order, so a reopen plans the same index.
TEST(DurabilityTest, EqualCostIndexTieSurvivesReopen) {
  std::string dir = FreshDir("dur_index_tie");
  const std::string explain = "EXPLAIN SELECT b FROM T WHERE a = 3";
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    EXEC_OK(**db, "CREATE TABLE T (a INT, b INT)", "admin");
    EXEC_OK(**db,
            "INSERT INTO T VALUES (1, 1), (2, 2), (3, 3), (4, 4), (3, 5)",
            "admin");
    EXEC_OK(**db, "CREATE INDEX zz ON T (a)", "admin");
    EXEC_OK(**db, "CREATE INDEX aa ON T (a)", "admin");
    auto r = (*db)->Execute(explain);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    before = r->message;
    EXPECT_NE(before.find("USING zz"), std::string::npos) << before;
    EXEC_OK(**db, "CHECKPOINT", "admin");
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto r = (*db)->Execute(explain);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->message, before);
}

TEST(DurabilityTest, AutoCheckpointTriggersEveryNStatements) {
  std::string dir = FreshDir("dur_auto_ckpt");
  {
    auto db = Database::Open(dir, DurableOpts(/*checkpoint_interval=*/5));
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    EXPECT_EQ((*db)->durability_stats().checkpoints_taken,
              StandardWorkload().size() / 5);
  }
  auto db = Database::Open(dir, DurableOpts(/*checkpoint_interval=*/5));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Only the tail after the last auto-checkpoint replays.
  EXPECT_EQ((*db)->durability_stats().replayed_on_open,
            StandardWorkload().size() % 5);
  EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint());
}

TEST(DurabilityTest, GroupCommitBatchesFsyncs) {
  std::string dir_batched = FreshDir("dur_group_commit");
  auto db = Database::Open(dir_batched, DurableOpts(0, /*group_commit=*/8));
  ASSERT_TRUE(db.ok());
  RunStandardWorkload(**db);
  uint64_t batched = (*db)->durability_stats().wal_syncs;
  EXPECT_LE(batched, StandardWorkload().size() / 8 + 1);
  // Close drains the unsynced tail, so reopen still sees everything.
  ASSERT_TRUE((*db)->Close().ok());
  auto reopened = Database::Open(dir_batched, DurableOpts());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Fingerprint(**reopened), ReferenceFingerprint());

  std::string dir_per = FreshDir("dur_per_stmt");
  auto per = Database::Open(dir_per, DurableOpts());
  ASSERT_TRUE(per.ok());
  RunStandardWorkload(**per);
  EXPECT_EQ((*per)->durability_stats().wal_syncs, StandardWorkload().size());
}

TEST(DurabilityTest, ReplayRestoresClockExactly) {
  // ARCHIVE ... BETWEEN is timestamp-windowed: replay must reproduce the
  // original logical timestamps or the window selects different rows.
  std::string dir = FreshDir("dur_clock");
  uint64_t clock_before_close = 0;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    clock_before_close = (*db)->clock().Peek();
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->clock().Peek(), clock_before_close);
}

void WriteLog(const std::string& dir, const std::vector<WalFrame>& log) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir + "/" + kWalFileName, std::ios::binary);
  for (const WalFrame& frame : log) out << EncodeWalFrame(frame);
}

// A statement that read at `snapshot` (kLatestCsn: it ran escalated).
WalStatement Stmt(uint64_t lsn, std::string sql, uint64_t snapshot) {
  return WalStatement{
      .lsn = lsn, .user = "admin", .sql = std::move(sql), .snapshot = snapshot};
}

TEST(DurabilityTest, ReplaysEscalatedAndVersionedRecordsAtJournaledSnapshots) {
  // Escalated statements (snapshot kLatestCsn) replay at the latest
  // state; versioned ones at their journaled snapshot, also inside an
  // explicit transaction's frame that escalates after a versioned
  // statement. Every commit that wrote carries the CSN the live engine
  // hands out, so each statement sees exactly the commits its snapshot
  // covers, and readers after the reopen see them all.
  std::string dir = FreshDir("dur_escalated_and_versioned");
  constexpr uint64_t kLatest = kLatestCsn;
  std::vector<WalFrame> log = {
      {0, {Stmt(1, "CREATE TABLE T (k INT)", kLatest)}},
      {1, {Stmt(2, "INSERT INTO T VALUES (1)", kLatest)}},
      {2, {Stmt(3, "INSERT INTO T VALUES (2)", 1)}},
      {3, {Stmt(4, "UPDATE T SET k = 3 WHERE k = 1", 2)}},
      {4,
       {Stmt(5, "INSERT INTO T VALUES (4)", 3),
        Stmt(6, "CREATE ANNOTATION TABLE N ON T", kLatest)},
       {{{"T", 3}}, {{"T.N", 0}}}},
      {5, {Stmt(7, "UPDATE T SET k = 5 WHERE k = 4", 4)}},
      {6,
       {Stmt(8,
             "ADD ANNOTATION TO T.N VALUE '<A>curated</A>' "
             "ON (SELECT k FROM T WHERE k = 5)",
             kLatest)}},
      // Reads the escalated annotation at its journaled snapshot.
      {7,
       {Stmt(9,
             "ADD ANNOTATION TO T.N VALUE '<A>seen</A>' "
             "ON (SELECT k FROM T ANNOTATION(N) AWHERE VALUE LIKE "
             "'%curated%')",
             6)}},
      {8,
       {Stmt(10,
             "ADD ANNOTATION TO T.N VALUE '<A>tail</A>' "
             "ON (SELECT k FROM T WHERE k = 2)",
             kLatest)}},
  };
  WriteLog(dir, log);
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto r = (*db)->Execute("SELECT k FROM T ORDER BY k");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::string keys;
    for (const auto& row : r->rows) keys += row.values[0].ToString() + ";";
    EXPECT_EQ(keys, "2;3;5;");
    EXPECT_EQ((*db)->version_count(), 3u);
    auto notes = (*db)->Execute("SELECT k FROM T ANNOTATION(N) ORDER BY k");
    ASSERT_TRUE(notes.ok()) << notes.status().ToString();
    std::string bodies;
    for (const auto& row : notes->rows) {
      bodies += row.values[0].ToString() + ":";
      for (const auto& a : row.annotations[0]) bodies += a.body;
      bodies += ";";
    }
    EXPECT_EQ(bodies, "2:<A>tail</A>;3:;5:<A>curated</A><A>seen</A>;");
  }

  // A writing commit journaled without its CSN is not a log this engine
  // writes, autocommit or explicit.
  for (size_t frame : {1, 4}) {
    std::string unstamped =
        FreshDir("dur_escalated_unstamped_" + std::to_string(frame));
    std::vector<WalFrame> bad = log;
    bad[frame].csn = 0;
    WriteLog(unstamped, bad);
    SCOPED_TRACE(frame);
    auto db = Database::Open(unstamped, DurableOpts());
    ASSERT_FALSE(db.ok());
    EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
  }
}

TEST(DurabilityTest, CommitAppendsOneFramePerTransaction) {
  // A k-statement COMMIT is one WAL append and one fsync, and advances
  // last_lsn by k: the statements share one CRC-checked frame. A
  // statement that failed inside the transaction is not in it.
  std::string dir = FreshDir("dur_one_frame");
  testutil::FaultEnv env;  // counts appends; injects nothing
  DurabilityOptions opts = DurableOpts();
  opts.env = &env;
  const std::vector<std::string> txn = {
      "INSERT INTO T VALUES (1)", "UPDATE T SET k = 2 WHERE k = 1",
      "CREATE INDEX kidx ON T (k)", "INSERT INTO T VALUES (3)"};
  {
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok());
    EXEC_OK(**db, "CREATE TABLE T (k INT)", "admin");
    EXPECT_EQ(env.appends, 1u);
    EXEC_OK(**db, "BEGIN", "admin");
    EXEC_OK(**db, txn[0], "admin");
    EXEC_OK(**db, txn[1], "admin");
    EXPECT_FALSE((*db)->Execute("INSERT INTO Missing VALUES (1)").ok());
    EXEC_OK(**db, txn[2], "admin");
    EXEC_OK(**db, txn[3], "admin");
    EXPECT_EQ(env.appends, 1u) << "the WAL saw uncommitted work";
    const DurabilityStats before = (*db)->durability_stats();
    EXEC_OK(**db, "COMMIT", "admin");
    const DurabilityStats after = (*db)->durability_stats();
    EXPECT_EQ(env.appends, 2u);
    EXPECT_EQ(after.last_lsn - before.last_lsn, txn.size());
    EXPECT_EQ(after.wal_syncs - before.wal_syncs, 1u);
    EXPECT_EQ(after.statements_since_checkpoint, 1 + txn.size());
  }
  std::ifstream in(dir + "/" + kWalFileName, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto scan = ScanWal(data);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->frames.size(), 2u);
  const WalFrame& frame = scan->frames[1];
  ASSERT_EQ(frame.statements.size(), txn.size());
  for (size_t i = 0; i < txn.size(); ++i) {
    EXPECT_EQ(frame.statements[i].sql, txn[i]);
    EXPECT_EQ(frame.statements[i].lsn, 2 + i);
  }
  EXPECT_NE(frame.csn, 0u);
  EXPECT_EQ(frame.end_bases.rows, (decltype(frame.end_bases.rows){{"T", 2}}));
  // Versioned until CREATE INDEX escalated the transaction.
  EXPECT_NE(frame.statements[1].snapshot, kLatestCsn);
  EXPECT_EQ(frame.statements[2].snapshot, kLatestCsn);
  EXPECT_EQ(frame.statements[3].snapshot, kLatestCsn);

  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open, 1 + txn.size());
  EXPECT_EQ((*db)->durability_stats().last_lsn, 1 + txn.size());
  auto r = (*db)->Execute("SELECT k FROM T ORDER BY k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string keys;
  for (const auto& row : r->rows) keys += row.values[0].ToString() + ";";
  EXPECT_EQ(keys, "2;3;");
}

// --- recovery goldens -------------------------------------------------------

TEST(DurabilityGoldenTest, TruncatedLogRecoversPrefix) {
  std::string dir = FreshDir("dur_truncated");
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
  }
  std::string wal_path = dir + "/" + kWalFileName;
  uint64_t size = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, size - 7);  // torn final record
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open,
            StandardWorkload().size() - 1);
  EXPECT_EQ(Fingerprint(**db),
            ReferenceFingerprint(StandardWorkload().size() - 1));
  // The torn tail was cut: the next reopen replays the same prefix from a
  // clean log end.
  ASSERT_TRUE((*db)->Close().ok());
  auto again = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Fingerprint(**again),
            ReferenceFingerprint(StandardWorkload().size() - 1));
}

TEST(DurabilityGoldenTest, CorruptedRecordCutsReplayThere) {
  std::string dir = FreshDir("dur_crc");
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
  }
  std::string wal_path = dir + "/" + kWalFileName;
  // Flip one byte two records from the end (inside some record's body).
  std::ifstream in(wal_path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data[data.size() / 2] ^= 0x01;
  std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();

  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  uint64_t replayed = (*db)->durability_stats().replayed_on_open;
  EXPECT_LT(replayed, StandardWorkload().size());
  EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint(replayed));
}

TEST(DurabilityGoldenTest, CorruptedCheckpointFailsOpenLoudly) {
  std::string dir = FreshDir("dur_bad_ckpt");
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  std::string ckpt = dir + "/" + kCheckpointFileName;
  std::ifstream in(ckpt, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data[kPageSize + 100] ^= 0x7F;  // inside the payload pages
  std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
}

// Open refuses `dir` with Corruption and leaves wal.log as it found it.
void ExpectOpenFailsWithCorruption(const std::string& dir) {
  const std::string wal = dir + "/" + kWalFileName;
  const uintmax_t size = std::filesystem::file_size(wal);
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
  EXPECT_EQ(std::filesystem::file_size(wal), size);
}

// Checkpoints `statements` in a fresh `dir` and returns the payload.
std::string CheckpointPayload(const std::string& dir,
                              const std::vector<std::string>& statements) {
  {
    auto db = Database::Open(dir, DurableOpts());
    if (!db.ok()) {
      ADD_FAILURE() << db.status().ToString();
      return "";
    }
    for (const std::string& sql : statements) {
      auto r = (*db)->Execute(sql, "admin");
      EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
    }
    EXPECT_TRUE((*db)->Checkpoint().ok());
  }
  auto payload = ReadCheckpointFile(WalEnv::Default(), dir);
  EXPECT_TRUE(payload.ok()) << payload.status().ToString();
  return payload.ok() ? *payload : std::string();
}

// Frames `payload` the way every log of this engine is framed: u32 crc
// of (len, payload), u32 len.
std::string Framed(const std::string& payload) {
  std::string body;
  BinaryWriter(&body).U32(static_cast<uint32_t>(payload.size()));
  body += payload;
  std::string frame;
  BinaryWriter(&frame).U32(Crc32(body));
  return frame + body;
}

// A record in the layout logs had before one frame per transaction:
// u64 lsn, u64 clock, u8 kind (0 statement, 1 begin, 2 commit), str
// user, str sql, u8 versioned, u64 snapshot, u64 csn, row bases, ann
// bases.
std::string RecordBeforeFrames(uint64_t lsn, uint64_t clock, uint8_t kind,
                               const std::string& sql, uint64_t csn) {
  std::string payload;
  BinaryWriter w(&payload);
  w.U64(lsn);
  w.U64(clock);
  w.U8(kind);
  w.Str(kind == 0 ? "admin" : "");
  w.Str(sql);
  w.U8(0);
  w.U64(0);
  w.U64(csn);
  w.U32(0);
  w.U32(0);
  return Framed(payload);
}

TEST(DurabilityGoldenTest, ForeignFormatsFailOpenLoudly) {
  {
    SCOPED_TRACE("WAL record framed without the MVCC fields");
    std::string payload;
    BinaryWriter w(&payload);
    w.U64(1);  // lsn
    w.U64(0);  // clock
    w.U8(0);   // kind: statement
    w.Str("admin");
    w.Str("CREATE TABLE T (k INT)");
    std::string dir = FreshDir("dur_foreign_wal");
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/" + kWalFileName, std::ios::binary)
        << Framed(payload);
    ExpectOpenFailsWithCorruption(dir);
  }
  // Records from before one frame per transaction. Their first payload
  // byte is the low byte of the lsn, so at lsn 1 it equals the frame
  // format byte and the rest of the payload must fail to decode; a clock
  // of 4660 makes the would-be statement count nonzero.
  for (uint64_t lsn : {1, 7}) {
    for (uint64_t clock : {0, 4660}) {
      const std::string at =
          std::to_string(lsn) + "_" + std::to_string(clock);
      {
        SCOPED_TRACE("autocommit record at lsn/clock " + at);
        std::string dir = FreshDir("dur_foreign_record_" + at);
        std::filesystem::create_directories(dir);
        std::ofstream(dir + "/" + kWalFileName, std::ios::binary)
            << RecordBeforeFrames(lsn, clock, 0, "CREATE TABLE T (k INT)",
                                  0);
        ExpectOpenFailsWithCorruption(dir);
      }
      {
        SCOPED_TRACE("begin/statement/commit group at lsn/clock " + at);
        std::string dir = FreshDir("dur_foreign_group_" + at);
        std::filesystem::create_directories(dir);
        std::ofstream(dir + "/" + kWalFileName, std::ios::binary)
            << RecordBeforeFrames(lsn, clock, 1, "", 0) +
                   RecordBeforeFrames(lsn + 1, clock, 0,
                                      "CREATE TABLE T (k INT)", 0) +
                   RecordBeforeFrames(lsn + 2, clock + 1, 2, "", 0);
        ExpectOpenFailsWithCorruption(dir);
      }
    }
  }
  {
    SCOPED_TRACE("snapshot version 1");
    // Without tables, a version-1 payload is the version-2 one minus the
    // checkpoint generation and heap-file counter (u64 each, after the
    // u32 version, u64 lsn and u64 clock).
    std::string dir = FreshDir("dur_foreign_v1");
    std::string payload = CheckpointPayload(dir, {"CREATE USER alice"});
    ASSERT_FALSE(payload.empty());
    payload.erase(4 + 8 + 8, 16);
    payload[0] = 1;
    ASSERT_TRUE(WriteCheckpointFile(WalEnv::Default(), dir, payload).ok());
    ExpectOpenFailsWithCorruption(dir);
  }
  {
    SCOPED_TRACE("table flag 0: an in-memory row dump");
    std::string dir = FreshDir("dur_foreign_flag");
    std::string payload = CheckpointPayload(dir, {"CREATE TABLE T (k INT)"});
    // Walk to table T's flag byte: version, lsn, clock, gen, heap-file
    // counter, table count, name, then each column's name and type.
    BinaryReader r(payload);
    ASSERT_TRUE(r.U32().ok() && r.U64().ok() && r.U64().ok() &&
                r.U64().ok() && r.U64().ok() && r.U32().ok() &&
                r.Str().ok());
    auto n_cols = r.U32();
    ASSERT_TRUE(n_cols.ok());
    for (uint32_t c = 0; c < *n_cols; ++c) {
      ASSERT_TRUE(r.Str().ok() && r.U8().ok());
    }
    const size_t flag_at = r.position();
    // Replace the heap-file reference (flag, name, page count, next row
    // id, row count) with an empty in-memory dump (flag, next row id, row
    // count).
    ASSERT_TRUE(r.U8().ok() && r.Str().ok() && r.U32().ok());
    auto next_row_id = r.U64();
    auto row_count = r.U64();
    ASSERT_TRUE(next_row_id.ok() && row_count.ok());
    ASSERT_EQ(*row_count, 0u);
    std::string dump;
    BinaryWriter d(&dump);
    d.U8(0);
    d.U64(*next_row_id);
    d.U64(0);
    payload.replace(flag_at, r.position() - flag_at, dump);
    ASSERT_TRUE(WriteCheckpointFile(WalEnv::Default(), dir, payload).ok());
    ExpectOpenFailsWithCorruption(dir);
  }
  {
    SCOPED_TRACE("autocommit record that writes rows, journaled with CSN 0");
    std::string dir = FreshDir("dur_foreign_csn0");
    WriteLog(dir, {{0, {Stmt(1, "CREATE TABLE T (k INT)", kLatestCsn)}},
                   {0, {Stmt(2, "INSERT INTO T VALUES (1)", 0)}}});
    ExpectOpenFailsWithCorruption(dir);
  }
}

TEST(DurabilityGoldenTest, FrameStraddlingCheckpointFailsOpenLoudly) {
  std::string dir = FreshDir("dur_straddle");
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    EXEC_OK(**db, "CREATE TABLE T (k INT)", "admin");
    EXEC_OK(**db, "INSERT INTO T VALUES (1)", "admin");
    ASSERT_TRUE((*db)->Checkpoint().ok());  // at lsn 2
  }
  // Frames at or below the checkpoint's lsn (a crash between the
  // checkpoint's rename and the log truncation) are skipped...
  WriteLog(dir, {{0, {Stmt(1, "CREATE TABLE T (k INT)", kLatestCsn)}},
                 {1, {Stmt(2, "INSERT INTO T VALUES (1)", 0)}}});
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->durability_stats().replayed_on_open, 0u);
    EXPECT_EQ((*db)->version_count(), 1u);
  }
  // ...but the checkpoint waits for open transactions, so no frame of
  // this engine straddles it.
  WriteLog(dir, {{0, {Stmt(1, "CREATE TABLE T (k INT)", kLatestCsn)}},
                 {1,
                  {Stmt(2, "INSERT INTO T VALUES (1)", 0),
                   Stmt(3, "INSERT INTO T VALUES (2)", 0)}}});
  ExpectOpenFailsWithCorruption(dir);
}

TEST(DurabilityGoldenTest, LeftoverCheckpointTmpIsIgnored) {
  std::string dir = FreshDir("dur_tmp_ckpt");
  std::string before;
  {
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db, 16);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    auto statements = StandardWorkload();
    for (size_t i = 16; i < statements.size(); ++i) {
      EXEC_OK(**db, statements[i].second, statements[i].first);
    }
    before = Fingerprint(**db);
  }
  // Simulate a crash mid-checkpoint: a half-written tmp next to the good
  // checkpoint + log. The tmp must be ignored and removed.
  std::ofstream tmp(dir + "/" + kCheckpointTmpFileName, std::ios::binary);
  tmp << "half-written garbage";
  tmp.close();
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + kCheckpointTmpFileName));
  EXPECT_EQ(Fingerprint(**db), before);
}

TEST(DurabilityTest, SecondSimultaneousOpenIsRefused) {
  std::string dir = FreshDir("dur_lock");
  auto first = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(first.ok());
  // A concurrent opener would interleave appends into wal.log.
  auto second = Database::Open(dir, DurableOpts());
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsFailedPrecondition())
      << second.status().ToString();
  // Close releases the lock; reopening then works.
  ASSERT_TRUE((*first)->Close().ok());
  auto third = Database::Open(dir, DurableOpts());
  EXPECT_TRUE(third.ok()) << third.status().ToString();
}

TEST(DurabilityTest, ClosedDatabaseRefusesMutations) {
  std::string dir = FreshDir("dur_closed");
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok());
  EXEC_OK(**db, "CREATE TABLE T (x INT)", "admin");
  ASSERT_TRUE((*db)->Close().ok());
  // Mutations after Close must refuse, not silently run memory-only
  // (they would be acked yet never journaled).
  auto r = (*db)->Execute("INSERT INTO T VALUES (1)");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
  // Reads of the intact in-memory state still work.
  EXPECT_TRUE((*db)->Execute("SELECT x FROM T").ok());
}

TEST(DurabilityTest, CheckpointStatementIsNoopInMemory) {
  Database db;
  auto r = db.Execute("CHECKPOINT");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->message.find("no-op"), std::string::npos);
}

}  // namespace
}  // namespace bdbms
