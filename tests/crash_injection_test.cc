// Crash-injection harness (the acceptance gate of the durability work):
// sweeps a simulated crash across EVERY byte offset of a multi-statement
// workload's WAL — with and without a mid-workload checkpoint — and
// asserts each recovery yields a prefix-consistent database: exactly the
// transactions whose frames are complete at the cut are visible, nothing
// half-applied, indexes consistent with heaps. A fault-wrapping file
// layer additionally injects short writes, fsync failures and loss of
// unsynced (page-cache) data at the write path.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/session.h"
#include "durability_test_util.h"
#include "fault_fs.h"
#include "wal/checkpoint.h"
#include "wal/wal.h"

namespace bdbms {
namespace {

using testutil::DurableOpts;
using testutil::FaultEnv;
using testutil::Fingerprint;
using testutil::RegisterProcedures;
using testutil::FreshDir;
using testutil::ReferenceFingerprint;
using testutil::RunStandardWorkload;
using testutil::StandardWorkload;
using testutil::VerifyIndexConsistency;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// End offset of every complete frame in `log`, in order. boundaries[i]
// is where frame i+1 ends — a crash at that exact offset commits i+1
// transactions (statements, for an autocommit workload).
std::vector<size_t> FrameBoundaries(const std::string& log) {
  auto scan = ScanWal(log);
  EXPECT_TRUE(scan.ok());
  EXPECT_FALSE(scan->tail_discarded) << "source log must be intact";
  std::vector<size_t> boundaries;
  size_t pos = 0;
  for (const WalFrame& frame : scan->frames) {
    pos += EncodeWalFrame(frame).size();
    boundaries.push_back(pos);
  }
  EXPECT_EQ(pos, log.size());
  return boundaries;
}

size_t CompleteFramesAt(const std::vector<size_t>& boundaries, size_t cut) {
  size_t n = 0;
  while (n < boundaries.size() && boundaries[n] <= cut) ++n;
  return n;
}

// Copies the paged heap bases (and only them) from `src` into `dir`:
// spill overlays and journals are crash flotsam the copy deliberately
// leaves behind, exactly like a checkpoint+WAL backup would.
void CopyHeapDir(const std::string& src, const std::string& dir) {
  const std::string heap_src = src + "/heap";
  if (!std::filesystem::exists(heap_src)) return;
  std::filesystem::create_directories(dir + "/heap");
  for (const auto& entry : std::filesystem::directory_iterator(heap_src)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= 5 && name.substr(name.size() - 5) == ".heap") {
      std::filesystem::copy(entry.path(), dir + "/heap/" + name);
    }
  }
}

// The sweep core: for every cut in [0, len(log)] build a crashed copy of
// the database directory (checkpoint file, if any, plus the paged heap
// bases it references, plus the log truncated at the cut), recover, and
// diff against the in-memory reference run of the same statement prefix.
// `base_statements` is how many statements the checkpoint already covers.
void SweepEveryOffset(const std::string& src, const std::string& ckpt_bytes,
                      const std::string& log, size_t base_statements,
                      const std::string& work_name) {
  std::vector<size_t> boundaries = FrameBoundaries(log);
  // One reference fingerprint per possible surviving prefix.
  std::vector<std::string> refs(boundaries.size() + 1);
  for (size_t n = 0; n <= boundaries.size(); ++n) {
    refs[n] = ReferenceFingerprint(base_statements + n);
  }

  // Per-test scratch dir: ctest may run the sweep tests concurrently.
  std::string dir = FreshDir(work_name);
  size_t prev_expected = SIZE_MAX;
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    if (!ckpt_bytes.empty()) {
      WriteFile(dir + "/" + kCheckpointFileName, ckpt_bytes);
      CopyHeapDir(src, dir);
    }
    WriteFile(dir + "/" + kWalFileName, std::string_view(log).substr(0, cut));

    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << "crash at offset " << cut << ": "
                         << db.status().ToString();
    size_t expected = CompleteFramesAt(boundaries, cut);
    ASSERT_EQ((*db)->durability_stats().replayed_on_open, expected)
        << "crash at offset " << cut;
    ASSERT_EQ(Fingerprint(**db), refs[expected])
        << "crash at offset " << cut << " is not prefix-consistent";
    // Index/heap cross-checks once per distinct recovered state (they are
    // identical for every cut inside the same frame).
    if (expected != prev_expected) {
      VerifyIndexConsistency(**db);
      prev_expected = expected;
    }
  }
}

TEST(CrashInjectionTest, EveryWalByteOffsetRecoversAPrefix) {
  std::string src = FreshDir("crash_sweep_src");
  {
    auto db = Database::Open(src, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::string log = ReadFile(src + "/" + kWalFileName);
  ASSERT_GT(log.size(), 0u);
  SweepEveryOffset(src, /*ckpt_bytes=*/"", log, /*base_statements=*/0,
                   "crash_sweep_work");
}

TEST(CrashInjectionTest, EveryOffsetAfterCheckpointRecoversAPrefix) {
  constexpr size_t kCheckpointAfter = 16;
  std::string src = FreshDir("crash_sweep_ckpt_src");
  {
    auto db = Database::Open(src, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db, kCheckpointAfter);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    auto statements = StandardWorkload();
    for (size_t i = kCheckpointAfter; i < statements.size(); ++i) {
      auto r = (*db)->Execute(statements[i].second, statements[i].first);
      ASSERT_TRUE(r.ok()) << statements[i].second;
    }
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::string ckpt = ReadFile(src + "/" + kCheckpointFileName);
  std::string log = ReadFile(src + "/" + kWalFileName);
  ASSERT_GT(ckpt.size(), 0u);
  ASSERT_GT(log.size(), 0u);
  SweepEveryOffset(src, ckpt, log, kCheckpointAfter, "crash_sweep_ckpt_work");
}

TEST(CrashInjectionTest, EveryOffsetAfterRowFullCheckpointRecoversAPrefix) {
  // Same sweep, but the checkpoint lands after the DML statements, so the
  // manifest references paged heap bases with real rows — recovery must
  // rebuild table state from the frozen base files plus the WAL tail, not
  // from the snapshot row dump (which a paged table no longer carries).
  constexpr size_t kCheckpointAfter = 23;  // covers inserts + approvals
  std::string src = FreshDir("crash_sweep_rows_src");
  {
    auto db = Database::Open(src, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db, kCheckpointAfter);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    auto statements = StandardWorkload();
    for (size_t i = kCheckpointAfter; i < statements.size(); ++i) {
      auto r = (*db)->Execute(statements[i].second, statements[i].first);
      ASSERT_TRUE(r.ok()) << statements[i].second;
    }
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::string ckpt = ReadFile(src + "/" + kCheckpointFileName);
  std::string log = ReadFile(src + "/" + kWalFileName);
  ASSERT_GT(ckpt.size(), 0u);
  ASSERT_GT(log.size(), 0u);
  SweepEveryOffset(src, ckpt, log, kCheckpointAfter,
                   "crash_sweep_rows_work");
}

TEST(CrashInjectionTest, CorruptedByteAnywhereStillRecoversAPrefix) {
  // Bit flips (as opposed to truncation) at a sample of offsets: recovery
  // must keep exactly the frames before the damaged one.
  std::string src = FreshDir("crash_flip_src");
  {
    auto db = Database::Open(src, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::string log = ReadFile(src + "/" + kWalFileName);
  std::vector<size_t> boundaries = FrameBoundaries(log);

  std::string dir = FreshDir("crash_flip_work");
  for (size_t off = 0; off < log.size(); off += 97) {  // prime stride
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string damaged = log;
    damaged[off] ^= 0x20;
    WriteFile(dir + "/" + kWalFileName, damaged);

    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << "flip at " << off;
    // The frame containing `off` and everything after it are cut.
    size_t expected = CompleteFramesAt(boundaries, off);
    ASSERT_EQ((*db)->durability_stats().replayed_on_open, expected)
        << "flip at " << off;
    ASSERT_EQ(Fingerprint(**db), ReferenceFingerprint(expected))
        << "flip at " << off;
  }
}

// --- transactions under crash ----------------------------------------------

// Statement index ranges of the transactional crash workload: statements
// [kTxnFrom, kTxnTo) of the standard workload run inside one BEGIN/COMMIT,
// the rest autocommit.
constexpr size_t kTxnFrom = 10;
constexpr size_t kTxnTo = 18;

// The transactional sweep's statements in log order: a side table, then
// the standard workload, whose statements [kTxnFrom, kTxnTo) run inside
// one transaction after two writes to the side table. Those two run
// versioned (the side table drives no rule or approval); the
// transaction escalates at its first standard statement, a GRANT.
std::vector<std::pair<std::string, std::string>> TxnWorkload() {
  auto statements = StandardWorkload();
  statements.insert(statements.begin() + kTxnFrom,
                    {{"admin", "INSERT INTO Side VALUES (1)"},
                     {"admin", "UPDATE Side SET k = 2 WHERE k = 1"}});
  statements.insert(statements.begin(), {"admin", "CREATE TABLE Side (k INT)"});
  return statements;
}
// TxnWorkload() indexes of the transaction's statements: [kSweepTxnFrom,
// kSweepTxnTo).
constexpr size_t kSweepTxnFrom = kTxnFrom + 1;
constexpr size_t kSweepTxnTo = kTxnTo + 3;
// Runs inside the transaction after the side-table writes, fails, and
// must leave no trace in the transaction's frame.
constexpr const char* kFailingStatement = "INSERT INTO Missing VALUES (1)";

void RunWorkloadWithTxn(Database& db) {
  auto statements = TxnWorkload();
  auto exec = [&](size_t i) {
    auto r = db.Execute(statements[i].second, statements[i].first);
    ASSERT_TRUE(r.ok()) << statements[i].second << "\n-> "
                        << r.status().ToString();
  };
  for (size_t i = 0; i < kSweepTxnFrom; ++i) exec(i);
  ASSERT_TRUE(db.Execute("BEGIN").ok());
  exec(kSweepTxnFrom);
  exec(kSweepTxnFrom + 1);
  ASSERT_FALSE(db.Execute(kFailingStatement).ok());
  for (size_t i = kSweepTxnFrom + 2; i < kSweepTxnTo; ++i) exec(i);
  ASSERT_TRUE(db.Execute("COMMIT").ok());
  for (size_t i = kSweepTxnTo; i < statements.size(); ++i) exec(i);
}

// In-memory autocommit run of the first `n` TxnWorkload() statements.
std::string TxnReferenceFingerprint(size_t n) {
  Database ref;
  EXPECT_TRUE(RegisterProcedures(ref).ok());
  auto statements = TxnWorkload();
  for (size_t i = 0; i < n; ++i) {
    auto r = ref.Execute(statements[i].second, statements[i].first);
    EXPECT_TRUE(r.ok()) << statements[i].second;
  }
  return Fingerprint(ref);
}

// How many statements survive recovery when the first `n` frames of the
// log are intact.
size_t VisibleStatements(const std::vector<WalFrame>& frames, size_t n) {
  size_t visible = 0;
  for (size_t i = 0; i < n; ++i) visible += frames[i].statements.size();
  return visible;
}

TEST(CrashInjectionTest, EveryOffsetAcrossTxnGroupIsAllOrNothing) {
  std::string src = FreshDir("crash_txn_src");
  {
    auto db = Database::Open(src, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunWorkloadWithTxn(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::string log = ReadFile(src + "/" + kWalFileName);
  auto scan = ScanWal(log);
  ASSERT_TRUE(scan.ok());
  ASSERT_FALSE(scan->tail_discarded);
  // One frame per autocommit statement, one for the whole transaction.
  const size_t txn_size = kSweepTxnTo - kSweepTxnFrom;
  ASSERT_EQ(scan->frames.size(), TxnWorkload().size() - txn_size + 1);
  // The transaction's frame holds exactly its successful statements,
  // versioned until the escalation.
  const WalFrame& txn = scan->frames[kSweepTxnFrom];
  ASSERT_EQ(txn.statements.size(), txn_size);
  for (size_t i = 0; i < txn_size; ++i) {
    EXPECT_EQ(txn.statements[i].sql, TxnWorkload()[kSweepTxnFrom + i].second);
    EXPECT_EQ(txn.statements[i].snapshot == kLatestCsn, i >= 2) << i;
  }
  EXPECT_NE(txn.csn, 0u);
  std::vector<size_t> boundaries = FrameBoundaries(log);

  std::vector<std::string> refs(TxnWorkload().size() + 1);
  for (size_t n = 0; n < refs.size(); ++n) refs[n] = TxnReferenceFingerprint(n);

  std::string dir = FreshDir("crash_txn_work");
  size_t prev_visible = SIZE_MAX;
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    WriteFile(dir + "/" + kWalFileName, std::string_view(log).substr(0, cut));

    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << "crash at offset " << cut << ": "
                         << db.status().ToString();
    size_t complete = CompleteFramesAt(boundaries, cut);
    size_t visible = VisibleStatements(scan->frames, complete);
    ASSERT_EQ((*db)->durability_stats().replayed_on_open, visible)
        << "crash at offset " << cut;
    ASSERT_EQ(Fingerprint(**db), refs[visible])
        << "crash at offset " << cut
        << " leaked or lost transaction statements";
    if (visible != prev_visible) {
      VerifyIndexConsistency(**db);
      prev_visible = visible;
    }
    // A crash inside the transaction's frame leaves it torn; recovery cut
    // it away. Prove the log is appendable again: commit a statement,
    // reopen, and expect it on top of the prefix — torn bytes left in
    // place would hide every later frame from the scan.
    const bool torn = complete == kSweepTxnFrom &&
                      cut > boundaries[kSweepTxnFrom - 1];
    if (torn && cut % 50 == 0) {
      ASSERT_TRUE((*db)->Execute("CREATE USER survivor").ok())
          << "crash at offset " << cut;
      ASSERT_TRUE((*db)->Close().ok());
      auto reopened = Database::Open(dir, DurableOpts());
      ASSERT_TRUE(reopened.ok())
          << "append after a torn frame broke recovery at " << cut << ": "
          << reopened.status().ToString();
      ASSERT_EQ((*reopened)->durability_stats().replayed_on_open,
                visible + 1);
    }
  }
}

TEST(CrashInjectionTest, OpenTxnAtCrashIsInvisibleAfterRecovery) {
  std::string dir = FreshDir("crash_open_txn");
  FaultEnv fault;
  fault.hold_unsynced = true;
  DurabilityOptions opts = DurableOpts();
  opts.env = &fault;
  {
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db, kTxnFrom);
    ASSERT_TRUE((*db)->Execute("BEGIN").ok());
    auto statements = StandardWorkload();
    for (size_t i = kTxnFrom; i < kTxnTo; ++i) {
      auto r = (*db)->Execute(statements[i].second, statements[i].first);
      ASSERT_TRUE(r.ok()) << statements[i].second;
    }
    // Crash with the transaction open: its statements were never
    // journaled (the WAL sees a transaction only at COMMIT).
    fault.Crash();
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open, kTxnFrom);
  EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint(kTxnFrom));
  VerifyIndexConsistency(**db);
}

TEST(CrashInjectionTest, TornCommitRollsBackMemoryAndRecoveryDropsGroup) {
  // Let the commit-time append tear inside the transaction's frame. COMMIT
  // must report the failure and roll back in memory; recovery must cut
  // the torn frame and stay appendable.
  std::string dir = FreshDir("crash_torn_commit");
  FaultEnv fault;
  DurabilityOptions opts = DurableOpts();
  opts.env = &fault;
  {
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db, kTxnFrom);
    ASSERT_TRUE((*db)->Execute("BEGIN").ok());
    auto statements = StandardWorkload();
    for (size_t i = kTxnFrom; i < kTxnTo; ++i) {
      auto r = (*db)->Execute(statements[i].second, statements[i].first);
      ASSERT_TRUE(r.ok()) << statements[i].second;
    }
    // Past the frame header, well short of the frame's end.
    fault.append_budget = 100;
    auto commit = (*db)->Execute("COMMIT");
    ASSERT_FALSE(commit.ok());
    EXPECT_TRUE(commit.status().IsIoError()) << commit.status().ToString();
    EXPECT_EQ(fault.append_budget, 0) << "the frame fit the budget";
    // The failed commit rolled the transaction back in memory.
    EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint(kTxnFrom));
    EXPECT_FALSE((*db)->InTransaction());
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open, kTxnFrom);
  EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint(kTxnFrom));
  // The torn frame was truncated away: the log accepts new commits.
  ASSERT_TRUE((*db)->Execute("CREATE USER survivor").ok());
  ASSERT_TRUE((*db)->Close().ok());
  auto reopened = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->durability_stats().replayed_on_open, kTxnFrom + 1);
}

// --- MVCC transaction frames under crash -----------------------------------

// A concurrent workload whose WAL carries the full MVCC extension: two
// transactions whose statements interleave (so each frame's journaled
// snapshot CSNs and id bases were captured while the other was still
// uncommitted) plus a long-lived reader snapshot open across both
// commits, keeping version chains alive at crash time.
std::vector<std::string> MvccSetupStatements() {
  return {
      "CREATE TABLE Acct (Owner TEXT, Bal INT)",
      "INSERT INTO Acct VALUES ('a', 10)",
      "INSERT INTO Acct VALUES ('b', 20)",
      "INSERT INTO Acct VALUES ('c', 30)",
      "INSERT INTO Acct VALUES ('d', 40)",
  };
}
std::vector<std::string> MvccTxn1Statements() {
  return {
      "UPDATE Acct SET Bal = 11 WHERE Owner = 'a'",
      "UPDATE Acct SET Bal = 12 WHERE Owner = 'a'",
      "DELETE FROM Acct WHERE Owner = 'b'",
  };
}
std::vector<std::string> MvccTxn2Statements() {
  return {
      "UPDATE Acct SET Bal = 33 WHERE Owner = 'c'",
      "INSERT INTO Acct VALUES ('e', 50)",
      "UPDATE Acct SET Bal = 44 WHERE Owner = 'd'",
  };
}
std::vector<std::string> MvccTrailingStatements() {
  return {"UPDATE Acct SET Bal = 99 WHERE Owner = 'd'"};
}

// The statements a recovery can surface, in WAL order: autocommit setup,
// then each transaction's block atomically (T1 committed first), then
// the trailing autocommit. Index = flat statement count.
std::vector<std::string> MvccFlatStatements() {
  std::vector<std::string> flat = MvccSetupStatements();
  for (const auto& s : MvccTxn1Statements()) flat.push_back(s);
  for (const auto& s : MvccTxn2Statements()) flat.push_back(s);
  for (const auto& s : MvccTrailingStatements()) flat.push_back(s);
  return flat;
}

// In-memory serial run of the first `n` flat statements: the oracle for
// both state (fingerprint) and version accounting (a serial run with no
// open snapshots vacuums down to live rows only, which is exactly what
// recovery's final GC pass must also reach).
void MvccReference(size_t n, std::string* fingerprint,
                   uint64_t* version_count) {
  Database ref;
  auto flat = MvccFlatStatements();
  for (size_t i = 0; i < n; ++i) {
    auto r = ref.Execute(flat[i], "admin");
    ASSERT_TRUE(r.ok()) << flat[i] << "\n-> " << r.status().ToString();
  }
  *fingerprint = Fingerprint(ref);
  *version_count = ref.version_count();
}

TEST(CrashInjectionTest, EveryOffsetAcrossMvccCommitGroupsIsAllOrNothing) {
  std::string src = FreshDir("crash_mvcc_src");
  {
    auto db = Database::Open(src, DurableOpts());
    ASSERT_TRUE(db.ok());
    for (const auto& sql : MvccSetupStatements()) {
      ASSERT_TRUE((*db)->Execute(sql, "admin").ok()) << sql;
    }
    // Reader snapshot open across both commits: at every crash point
    // inside the frames, superseded versions are still pinned in memory.
    Session reader(db->get(), "admin");
    ASSERT_TRUE(reader.Execute("BEGIN").ok());
    auto before = reader.Execute("SELECT Owner, Bal FROM Acct");
    ASSERT_TRUE(before.ok());
    Session t1(db->get(), "admin");
    Session t2(db->get(), "admin");
    ASSERT_TRUE(t1.Execute("BEGIN").ok());
    ASSERT_TRUE(t2.Execute("BEGIN").ok());
    auto s1 = MvccTxn1Statements();
    auto s2 = MvccTxn2Statements();
    for (size_t i = 0; i < s1.size(); ++i) {  // interleave the two writers
      ASSERT_TRUE(t1.Execute(s1[i]).ok()) << s1[i];
      ASSERT_TRUE(t2.Execute(s2[i]).ok()) << s2[i];
    }
    ASSERT_TRUE(t1.Execute("COMMIT").ok());
    ASSERT_TRUE(t2.Execute("COMMIT").ok());
    // The reader's snapshot still sees the pre-transaction state.
    auto after = reader.Execute("SELECT Owner, Bal FROM Acct");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->ToString(), before->ToString());
    ASSERT_TRUE(reader.Execute("COMMIT").ok());
    for (const auto& sql : MvccTrailingStatements()) {
      ASSERT_TRUE((*db)->Execute(sql, "admin").ok()) << sql;
    }
    ASSERT_TRUE((*db)->Close().ok());
  }

  std::string log = ReadFile(src + "/" + kWalFileName);
  auto scan = ScanWal(log);
  ASSERT_TRUE(scan.ok());
  ASSERT_FALSE(scan->tail_discarded);
  // One frame per autocommit statement and per transaction.
  ASSERT_EQ(scan->frames.size(), MvccSetupStatements().size() + 2 +
                                     MvccTrailingStatements().size());
  std::vector<size_t> boundaries = FrameBoundaries(log);

  std::vector<std::string> ref_fp(MvccFlatStatements().size() + 1);
  std::vector<uint64_t> ref_versions(ref_fp.size());
  for (size_t n = 0; n < ref_fp.size(); ++n) {
    MvccReference(n, &ref_fp[n], &ref_versions[n]);
  }
  // Id allocation is not transactional (PostgreSQL sequence semantics):
  // T2's uncommitted INSERT had already advanced Acct's row-id counter
  // when T1 committed, and T1's frame journals that counter in its end
  // bases as its commit-time high-water mark. A crash that keeps T1 but
  // loses T2 therefore recovers with the id burned — one higher than the
  // serial oracle, which never ran T2. Patch the oracle for exactly that
  // window; every other line must still match.
  {
    const size_t t1_visible =
        MvccSetupStatements().size() + MvccTxn1Statements().size();
    const std::string serial = "next_row_id=4";
    size_t pos = ref_fp[t1_visible].find(serial);
    ASSERT_NE(pos, std::string::npos);
    ref_fp[t1_visible].replace(pos, serial.size(), "next_row_id=5");
  }

  std::string dir = FreshDir("crash_mvcc_work");
  size_t prev_visible = SIZE_MAX;
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    WriteFile(dir + "/" + kWalFileName, std::string_view(log).substr(0, cut));

    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << "crash at offset " << cut << ": "
                         << db.status().ToString();
    size_t complete = CompleteFramesAt(boundaries, cut);
    size_t visible = VisibleStatements(scan->frames, complete);
    ASSERT_EQ((*db)->durability_stats().replayed_on_open, visible)
        << "crash at offset " << cut;
    ASSERT_EQ(Fingerprint(**db), ref_fp[visible])
        << "crash at offset " << cut
        << " leaked or lost MVCC transaction statements";
    // Version accounting: recovery's final GC pass must land on exactly
    // the live rows — a dead version surviving (leak) or a live one
    // vacuumed (resurrected delete / lost row) both diverge here.
    ASSERT_EQ((*db)->version_count(), ref_versions[visible])
        << "crash at offset " << cut << " leaked or lost row versions";
    if (visible != prev_visible) {
      VerifyIndexConsistency(**db);
      prev_visible = visible;
      // A snapshot opened on the recovered database must see the
      // recovered prefix and keep seeing it across new commits.
      Session post(db->get(), "admin");
      ASSERT_TRUE(post.Execute("BEGIN").ok());
      auto snap = post.Execute("SELECT Owner, Bal FROM Acct");
      if (visible >= MvccSetupStatements().size()) {
        ASSERT_TRUE(snap.ok()) << "crash at offset " << cut;
        ASSERT_TRUE(
            (*db)->Execute("UPDATE Acct SET Bal = 1234", "admin").ok());
        auto again = post.Execute("SELECT Owner, Bal FROM Acct");
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(again->ToString(), snap->ToString())
            << "crash at offset " << cut
            << ": post-recovery snapshot unstable";
      }
      ASSERT_TRUE(post.Execute("COMMIT").ok());
    }
  }
}

// --- fault-wrapping file layer (short writes, fsync failures) --------------

TEST(CrashInjectionTest, ShortWriteSurfacesErrorAndRecoveryDropsTornRecord) {
  // Learn the frame sizes from a clean run, then allow the faulty run
  // exactly 11 statements plus 5 bytes of the 12th frame.
  std::string clean = FreshDir("crash_short_clean");
  {
    auto db = Database::Open(clean, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::vector<size_t> boundaries =
      FrameBoundaries(ReadFile(clean + "/" + kWalFileName));
  constexpr size_t kSurvivors = 11;

  std::string dir = FreshDir("crash_short");
  FaultEnv fault;
  fault.append_budget = static_cast<int64_t>(boundaries[kSurvivors - 1] + 5);
  DurabilityOptions opts = DurableOpts();
  opts.env = &fault;
  {
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok());
    auto statements = StandardWorkload();
    for (size_t i = 0; i < kSurvivors; ++i) {
      auto r = (*db)->Execute(statements[i].second, statements[i].first);
      ASSERT_TRUE(r.ok()) << statements[i].second;
    }
    // The next statement's append tears mid-frame; the error surfaces.
    auto r = (*db)->Execute(statements[kSurvivors].second,
                            statements[kSurvivors].first);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsIoError()) << r.status().ToString();
    EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint(kSurvivors))
        << "a statement the journal rejected must not stay visible";
    // The writer is latched dead: committing AFTER torn bytes would be
    // fsync-acked yet silently discarded by recovery's tail cut. The
    // refusal happens BEFORE execution — retries must not stack up
    // unjournaled in-memory effects.
    auto after = (*db)->Execute(statements[kSurvivors + 1].second,
                                statements[kSurvivors + 1].first);
    ASSERT_FALSE(after.ok());
    EXPECT_TRUE(after.status().IsFailedPrecondition())
        << after.status().ToString();
    EXPECT_EQ((*db)->dependencies().rules().count("rule1"), 0u)
        << "latched statement must not execute in memory";
    // Reads still work on the latched (but intact) in-memory state.
    EXPECT_TRUE((*db)->Execute("SELECT GID FROM Gene").ok());
  }
  // Recovery (real filesystem) sees 11 intact frames + 5 torn bytes.
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open, kSurvivors);
  EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint(kSurvivors));
}

TEST(CrashInjectionTest, FsyncFailureSurfacesAsCommitError) {
  std::string dir = FreshDir("crash_fsync");
  FaultEnv fault;
  fault.sync_budget = 3;
  DurabilityOptions opts = DurableOpts();  // per-statement fsync
  opts.env = &fault;
  auto db = Database::Open(dir, opts);
  ASSERT_TRUE(db.ok());
  auto statements = StandardWorkload();
  for (size_t i = 0; i < 3; ++i) {
    auto r = (*db)->Execute(statements[i].second, statements[i].first);
    ASSERT_TRUE(r.ok()) << statements[i].second;
  }
  auto r = (*db)->Execute(statements[3].second, statements[3].first);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIoError()) << r.status().ToString();
  // A failed fsync poisons the log (the kernel may have dropped the
  // dirty pages); later commits must refuse rather than pretend.
  auto after = (*db)->Execute(statements[4].second, statements[4].first);
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsFailedPrecondition())
      << after.status().ToString();
}

// --- incremental checkpoint (paged heaps) under faults ----------------------

// A single-table workload sized to span several heap pages, split into a
// pre-checkpoint phase and a post-checkpoint phase whose UPDATEs dirty
// base pages (redo-journal traffic) and whose INSERTs extend the heap
// (direct base extension traffic).
std::vector<std::string> PagedPhase1Statements() {
  std::vector<std::string> out;
  out.push_back("CREATE TABLE Seq (SID TEXT, Body TEXT)");
  for (int i = 0; i < 30; ++i) {
    out.push_back("INSERT INTO Seq VALUES ('s" + std::to_string(i) + "', '" +
                  std::string(400, static_cast<char>('a' + i % 26)) + "')");
  }
  return out;
}
std::vector<std::string> PagedPhase2Statements() {
  std::vector<std::string> out;
  for (int i = 0; i < 30; i += 3) {
    out.push_back("UPDATE Seq SET Body = '" +
                  std::string(400, static_cast<char>('A' + i % 26)) +
                  "' WHERE SID = 's" + std::to_string(i) + "'");
  }
  for (int i = 30; i < 40; ++i) {
    out.push_back("INSERT INTO Seq VALUES ('s" + std::to_string(i) + "', '" +
                  std::string(400, static_cast<char>('a' + i % 26)) + "')");
  }
  return out;
}

void RunPagedStatements(Database& db, const std::vector<std::string>& sql) {
  for (const std::string& s : sql) {
    auto r = db.Execute(s, "admin");
    ASSERT_TRUE(r.ok()) << s << "\n-> " << r.status().ToString();
  }
}

// In-memory oracle for the two-phase paged workload.
std::string PagedReferenceFingerprint(bool with_phase2) {
  Database ref;
  EXPECT_TRUE(RegisterProcedures(ref).ok());
  RunPagedStatements(ref, PagedPhase1Statements());
  if (with_phase2) RunPagedStatements(ref, PagedPhase2Statements());
  return Fingerprint(ref);
}

TEST(CrashInjectionTest, CheckpointPreparePageFsyncFailureIsRetryable) {
  std::string dir = FreshDir("crash_ckpt_prepare");
  FaultEnv fault;
  DurabilityOptions opts = DurableOpts();
  opts.env = &fault;
  {
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok());
    RunPagedStatements(**db, PagedPhase1Statements());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    RunPagedStatements(**db, PagedPhase2Statements());
    // The prepare phase's base fsync fails: the checkpoint must surface
    // the error without touching the spill overlay or latching the WAL.
    fault.page_sync_budget = 0;
    auto st = (*db)->Checkpoint();
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsIoError()) << st.ToString();
    EXPECT_EQ(Fingerprint(**db), PagedReferenceFingerprint(true))
        << "failed prepare must not disturb live state";
    // Still writable — a failed prepare is not a torn WAL.
    ASSERT_TRUE(
        (*db)->Execute("INSERT INTO Seq VALUES ('x', 'y')", "admin").ok());
    // Retry with the fault lifted: the checkpoint completes.
    fault.page_sync_budget = -1;
    ASSERT_TRUE((*db)->Checkpoint().ok());
    fault.Crash();
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Everything up to the successful checkpoint survives the crash: the
  // WAL was truncated at the checkpoint, so recovery rests on the base
  // files + journal alone.
  Database ref;
  ASSERT_TRUE(RegisterProcedures(ref).ok());
  RunPagedStatements(ref, PagedPhase1Statements());
  RunPagedStatements(ref, PagedPhase2Statements());
  ASSERT_TRUE(ref.Execute("INSERT INTO Seq VALUES ('x', 'y')", "admin").ok());
  EXPECT_EQ(Fingerprint(**db), Fingerprint(ref));
  VerifyIndexConsistency(**db);
}

// The checkpoint file is written through the WalEnv like every other
// durable file, so its faults surface. Past a checkpoint, a GRANT dirties
// no heap page: the next CHECKPOINT's only page I/O is the checkpoint file
// itself. A failed write or fsync of it must fail the CHECKPOINT, leave
// the prior checkpoint and the log authoritative, and lose no
// acknowledged commit.
TEST(CrashInjectionTest, CheckpointFileFaultKeepsPriorState) {
  for (bool fail_sync : {true, false}) {
    SCOPED_TRACE(fail_sync ? "page fsync fault" : "page write fault");
    std::string dir = FreshDir("crash_ckpt_file");
    FaultEnv fault;
    DurabilityOptions opts = DurableOpts();
    opts.env = &fault;
    const std::vector<std::string> grant = {"CREATE USER alice",
                                            "GRANT SELECT ON Seq TO alice"};
    const std::string insert = "INSERT INTO Seq VALUES ('x', 'y')";
    {
      auto db = Database::Open(dir, opts);
      ASSERT_TRUE(db.ok());
      RunPagedStatements(**db, PagedPhase1Statements());
      ASSERT_TRUE((*db)->Checkpoint().ok());
      RunPagedStatements(**db, grant);
      (fail_sync ? fault.page_sync_budget : fault.page_write_budget) = 0;
      auto r = (*db)->Execute("CHECKPOINT", "admin");
      ASSERT_FALSE(r.ok());
      EXPECT_TRUE(r.status().IsIoError()) << r.status().ToString();
      fault.page_sync_budget = -1;
      fault.page_write_budget = -1;
      // A failed checkpoint is not a torn WAL: commits still go through.
      RunPagedStatements(**db, {insert});
      fault.Crash();
    }
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Database ref;
    ASSERT_TRUE(RegisterProcedures(ref).ok());
    RunPagedStatements(ref, PagedPhase1Statements());
    RunPagedStatements(ref, grant);
    RunPagedStatements(ref, {insert});
    EXPECT_EQ(Fingerprint(**db), Fingerprint(ref));
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + kCheckpointTmpFileName));
    VerifyIndexConsistency(**db);
  }
}

TEST(CrashInjectionTest, CrashBetweenManifestRenameAndCommitReappliesJournal) {
  std::string dir = FreshDir("crash_ckpt_commit");
  FaultEnv fault;
  DurabilityOptions opts = DurableOpts();
  opts.env = &fault;
  {
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok());
    RunPagedStatements(**db, PagedPhase1Statements());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    RunPagedStatements(**db, PagedPhase2Statements());
    // One paged table: the prepare phase consumes exactly one base fsync
    // and the checkpoint file one more; the third — CheckpointCommit
    // writing journal pages home — dies. At that point the manifest rename
    // already named the new generation.
    fault.page_sync_budget = 2;
    auto st = (*db)->Checkpoint();
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsIoError()) << st.ToString();
    // A failed commit latches the database: the manifest promises page
    // images the base does not yet hold, so further commits must refuse.
    auto after = (*db)->Execute("INSERT INTO Seq VALUES ('x', 'y')", "admin");
    ASSERT_FALSE(after.ok());
    EXPECT_TRUE(after.status().IsFailedPrecondition())
        << after.status().ToString();
    fault.Crash();
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/heap/Seq.0.heap.journal"));
  // Recovery finds a journal whose generation the manifest names and
  // re-applies it; the full pre-crash state comes back.
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Fingerprint(**db), PagedReferenceFingerprint(true));
  VerifyIndexConsistency(**db);
  EXPECT_FALSE(std::filesystem::exists(dir + "/heap/Seq.0.heap.journal"));
}

TEST(CrashInjectionTest, TornJournalAppendDiscardedOnRecovery) {
  // Build a clean pre-second-checkpoint image once, then sweep a torn
  // journal append across byte budgets: each crash leaves a journal whose
  // generation the (old) manifest never names, so recovery discards it
  // and rebuilds phase 2 from the WAL tail.
  std::string src = FreshDir("crash_jl_tear_src");
  {
    auto db = Database::Open(src, DurableOpts());
    ASSERT_TRUE(db.ok());
    RunPagedStatements(**db, PagedPhase1Statements());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    RunPagedStatements(**db, PagedPhase2Statements());
    ASSERT_TRUE((*db)->Close().ok());
  }
  const std::string full_ref = PagedReferenceFingerprint(true);
  std::string dir = FreshDir("crash_jl_tear_work");
  bool checkpoint_succeeded = false;
  for (int64_t budget = 0; !checkpoint_succeeded; budget += 499) {
    std::filesystem::remove_all(dir);
    std::filesystem::copy(src, dir,
                          std::filesystem::copy_options::recursive);
    FaultEnv fault;
    DurabilityOptions opts = DurableOpts();
    opts.env = &fault;
    {
      auto db = Database::Open(dir, opts);
      ASSERT_TRUE(db.ok()) << "budget " << budget << ": "
                           << db.status().ToString();
      fault.append_budget = budget;
      checkpoint_succeeded = (*db)->Checkpoint().ok();
      fault.Crash();
    }
    auto db = Database::Open(dir, DurableOpts());
    ASSERT_TRUE(db.ok()) << "budget " << budget << ": "
                         << db.status().ToString();
    ASSERT_EQ(Fingerprint(**db), full_ref) << "budget " << budget;
    if (checkpoint_succeeded) {
      ASSERT_GT(budget, 0) << "budget 0 must tear the journal append";
    }
  }
}

TEST(CrashInjectionTest, CrashLosesOnlyTheUnsyncedGroupCommitTail) {
  constexpr size_t kStatements = 10;
  constexpr size_t kGroup = 4;  // syncs after statements 4 and 8
  std::string dir = FreshDir("crash_group");
  FaultEnv fault;
  fault.hold_unsynced = true;
  DurabilityOptions opts = DurableOpts(0, kGroup);
  opts.env = &fault;
  {
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok());
    RunStandardWorkload(**db, kStatements);
    fault.Crash();  // statements 9 and 10 were never fsynced
  }
  auto db = Database::Open(dir, DurableOpts());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->durability_stats().replayed_on_open,
            (kStatements / kGroup) * kGroup);
  EXPECT_EQ(Fingerprint(**db),
            ReferenceFingerprint((kStatements / kGroup) * kGroup));
  VerifyIndexConsistency(**db);
}

}  // namespace
}  // namespace bdbms
