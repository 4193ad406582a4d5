// Durability unit + recovery-golden tests: WAL framing, checkpoint file
// atomicity, Database::Open recovery across every subsystem, group
// commit, auto-checkpoint, and the recovery goldens the crash matrix in
// docs/durability.md promises (truncated log, corrupted record CRC,
// corrupted checkpoint, leftover checkpoint temp file).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "durability_test_util.h"
#include "storage/pager.h"
#include "wal/checkpoint.h"
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

TEST(WalFormatTest, RoundTripsRecords) {
  WalRecord a{1, 10, "admin", "CREATE TABLE T (x INT)"};
  WalRecord b{2, 11, "alice", "INSERT INTO T VALUES (1)"};
  std::string log = EncodeWalRecord(a) + EncodeWalRecord(b);
  auto scan = ScanWal(log);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->tail_discarded);
  EXPECT_EQ(scan->valid_bytes, log.size());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0], a);
  EXPECT_EQ(scan->records[1], b);
}

TEST(WalFormatTest, TornTailIsDiscardedAtEveryCut) {
  WalRecord a{1, 10, "admin", "CREATE TABLE T (x INT)"};
  WalRecord b{2, 11, "alice", "INSERT INTO T VALUES (1)"};
  std::string log = EncodeWalRecord(a) + EncodeWalRecord(b);
  size_t first = EncodeWalRecord(a).size();
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    auto scan = ScanWal(std::string_view(log).substr(0, cut));
    ASSERT_TRUE(scan.ok()) << cut;
    size_t expect = cut >= log.size() ? 2 : (cut >= first ? 1 : 0);
    EXPECT_EQ(scan->records.size(), expect) << "cut at " << cut;
    // Record boundaries (0, first, full) leave nothing to discard.
    EXPECT_EQ(scan->tail_discarded,
              cut != 0 && cut != first && cut != log.size())
        << "cut at " << cut;
  }
}

TEST(WalFormatTest, CorruptedByteCutsLogAtThatRecord) {
  WalRecord a{1, 10, "admin", "CREATE TABLE T (x INT)"};
  WalRecord b{2, 11, "alice", "INSERT INTO T VALUES (1)"};
  std::string log = EncodeWalRecord(a) + EncodeWalRecord(b);
  size_t first = EncodeWalRecord(a).size();
  std::string corrupt = log;
  corrupt[first + 12] ^= 0x40;  // inside record b's payload
  auto scan = ScanWal(corrupt);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0], a);
  EXPECT_TRUE(scan->tail_discarded);
  EXPECT_EQ(scan->valid_bytes, first);
}

TEST(WalFormatTest, NonMonotonicLsnIsCorruption) {
  std::string log = EncodeWalRecord({2, 10, "admin", "A"}) +
                    EncodeWalRecord({2, 11, "admin", "B"});
  auto scan = ScanWal(log);
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

TEST(DurabilityTest, ReplaysEscalatedCommitsJournaledWithoutCsn) {
  // Logs written before escalated statements wrote versions journal their
  // commits (`versioned` = 0) with CSN 0. Their rows and annotations must
  // replay visible to every later record, whatever snapshot it journaled,
  // and to readers after the reopen.
  std::string dir = FreshDir("dur_unstamped_escalated");
  std::filesystem::create_directories(dir);
  auto stmt = [](uint64_t lsn, std::string sql, uint8_t versioned,
                 uint64_t snapshot, uint64_t csn) {
    return WalRecord{.lsn = lsn,
                     .user = "admin",
                     .sql = std::move(sql),
                     .versioned = versioned,
                     .snapshot = snapshot,
                     .csn = csn};
  };
  auto marker = [](uint64_t lsn, WalRecordKind kind) {
    WalRecord rec;
    rec.lsn = lsn;
    rec.kind = kind;
    return rec;
  };
  const std::vector<WalRecord> log = {
      stmt(1, "CREATE TABLE T (k INT)", 0, 0, 0),
      stmt(2, "INSERT INTO T VALUES (1)", 0, 0, 0),
      stmt(3, "INSERT INTO T VALUES (2)", 1, 0, 1),
      stmt(4, "UPDATE T SET k = 3 WHERE k = 1", 1, 1, 2),
      marker(5, WalRecordKind::kTxnBegin),
      stmt(6, "INSERT INTO T VALUES (4)", 0, 0, 0),
      marker(7, WalRecordKind::kTxnCommit),
      stmt(8, "UPDATE T SET k = 5 WHERE k = 4", 1, 2, 3),
      stmt(9, "CREATE ANNOTATION TABLE N ON T", 0, 0, 0),
      stmt(10,
           "ADD ANNOTATION TO T.N VALUE '<A>curated</A>' "
           "ON (SELECT k FROM T WHERE k = 5)",
           0, 0, 0),
      // Reads the escalated annotation at its journaled snapshot.
      stmt(11,
           "ADD ANNOTATION TO T.N VALUE '<A>seen</A>' "
           "ON (SELECT k FROM T ANNOTATION(N) AWHERE VALUE LIKE '%curated%')",
           1, 3, 4),
      stmt(12,
           "ADD ANNOTATION TO T.N VALUE '<A>tail</A>' "
           "ON (SELECT k FROM T WHERE k = 2)",
           0, 0, 0),
  };
  {
    std::ofstream out(dir + "/" + kWalFileName, std::ios::binary);
    for (const WalRecord& rec : log) out << EncodeWalRecord(rec);
  }
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
  EXPECT_EQ(bodies,
            "2:<A>tail</A>;3:;5:<A>curated</A><A>seen</A>;");
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
