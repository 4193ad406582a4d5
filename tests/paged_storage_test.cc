// Differential paged-storage suite (the acceptance gate of the
// larger-than-RAM work): the same workloads run against a durable
// database whose table heaps live on file-backed pages behind the buffer
// pool — at pool budgets from pathological (2 pages) to unbounded — and
// against the never-closed in-memory engine, diffing the deep state
// fingerprint and query results after every statement. Pool size must be
// invisible to every observable outcome; only the buffer counters may
// differ. A scaled large-table test proves a heap far bigger than the
// pool stays bit-identical through eviction, checkpoint, and reopen.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/database.h"
#include "durability_test_util.h"

namespace bdbms {
namespace {

using testutil::DurableOpts;
using testutil::Fingerprint;
using testutil::FreshDir;
using testutil::ReferenceFingerprint;
using testutil::RegisterProcedures;
using testutil::RunStandardWorkload;
using testutil::StandardWorkload;
using testutil::VerifyIndexConsistency;

// Pool budgets under test: thrashing, tiny, comfortable, unbounded.
class PagedDifferentialTest : public ::testing::TestWithParam<size_t> {
 protected:
  DurabilityOptions OptsWithPool(uint64_t checkpoint_interval = 0) {
    DurabilityOptions opts = DurableOpts(checkpoint_interval);
    opts.buffer_pool_pages = GetParam();
    return opts;
  }
  std::string ScratchName(const std::string& prefix) {
    return prefix + "_pool" + std::to_string(GetParam());
  }
};

TEST_P(PagedDifferentialTest, StandardWorkloadMatchesReferenceEveryStatement) {
  std::string dir = FreshDir(ScratchName("paged_diff_std"));
  auto db = Database::Open(dir, OptsWithPool());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database ref;
  ASSERT_TRUE(RegisterProcedures(ref).ok());

  auto statements = StandardWorkload();
  for (size_t i = 0; i < statements.size(); ++i) {
    auto r = (*db)->Execute(statements[i].second, statements[i].first);
    auto rr = ref.Execute(statements[i].second, statements[i].first);
    ASSERT_TRUE(r.ok()) << statements[i].second << "\n-> "
                        << r.status().ToString();
    ASSERT_TRUE(rr.ok()) << statements[i].second;
    // Statement-level differential check: every piece of engine state a
    // query can observe must match the in-memory reference, no matter how
    // few pages of heap are resident.
    ASSERT_EQ(Fingerprint(**db), Fingerprint(ref))
        << "diverged after statement " << i << ": " << statements[i].second;
  }
  VerifyIndexConsistency(**db);
  ASSERT_TRUE((*db)->Close().ok());

  // The recovered database must land on the same state again.
  auto reopened = Database::Open(dir, OptsWithPool());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Fingerprint(**reopened), Fingerprint(ref));
  VerifyIndexConsistency(**reopened);
}

TEST_P(PagedDifferentialTest, CheckpointEveryThreeStatementsStillMatches) {
  // Automatic checkpoints every 3 statements drive the incremental
  // checkpoint protocol (spill -> journal -> base) dozens of times while
  // the pool is thrashing; state must stay pinned to the reference.
  std::string dir = FreshDir(ScratchName("paged_diff_ckpt"));
  auto db = Database::Open(dir, OptsWithPool(/*checkpoint_interval=*/3));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  RunStandardWorkload(**db);
  EXPECT_EQ(Fingerprint(**db), ReferenceFingerprint());
  VerifyIndexConsistency(**db);
  ASSERT_TRUE((*db)->Close().ok());

  auto reopened = Database::Open(dir, OptsWithPool());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Fingerprint(**reopened), ReferenceFingerprint());
  VerifyIndexConsistency(**reopened);
}

TEST_P(PagedDifferentialTest, TransactionsCommitAndRollbackMatchReference) {
  std::string dir = FreshDir(ScratchName("paged_diff_txn"));
  auto db = Database::Open(dir, OptsWithPool());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Database ref;
  ASSERT_TRUE(RegisterProcedures(ref).ok());

  auto statements = StandardWorkload();
  constexpr size_t kTxnFrom = 10, kTxnTo = 18;
  auto exec_both = [&](size_t i) {
    auto r = (*db)->Execute(statements[i].second, statements[i].first);
    auto rr = ref.Execute(statements[i].second, statements[i].first);
    ASSERT_TRUE(r.ok() && rr.ok()) << statements[i].second;
  };
  for (size_t i = 0; i < kTxnFrom; ++i) exec_both(i);
  // A transaction that rolls back: its statements must leave no trace in
  // the paged heap, even if eviction already spilled its dirty pages.
  ASSERT_TRUE((*db)->Execute("BEGIN").ok());
  ASSERT_TRUE(
      (*db)->Execute("INSERT INTO Gene VALUES ('zz', 'tmp', 'AAAA')", "admin")
          .ok());
  ASSERT_TRUE((*db)->Execute("ROLLBACK").ok());
  ASSERT_EQ(Fingerprint(**db), Fingerprint(ref)) << "rollback left residue";
  // A committed transaction groups the middle of the workload.
  ASSERT_TRUE((*db)->Execute("BEGIN").ok());
  ASSERT_TRUE(ref.Execute("BEGIN").ok());
  for (size_t i = kTxnFrom; i < kTxnTo; ++i) exec_both(i);
  ASSERT_TRUE((*db)->Execute("COMMIT").ok());
  ASSERT_TRUE(ref.Execute("COMMIT").ok());
  for (size_t i = kTxnTo; i < statements.size(); ++i) exec_both(i);

  ASSERT_EQ(Fingerprint(**db), Fingerprint(ref));
  VerifyIndexConsistency(**db);
  ASSERT_TRUE((*db)->Close().ok());
  auto reopened = Database::Open(dir, OptsWithPool());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Fingerprint(**reopened), Fingerprint(ref));
}

INSTANTIATE_TEST_SUITE_P(PoolBudgets, PagedDifferentialTest,
                         ::testing::Values(2u, 8u, 64u, 0u),
                         [](const ::testing::TestParamInfo<size_t>& p) {
                           return p.param == 0
                                      ? std::string("unbounded")
                                      : std::to_string(p.param) + "pages";
                         });

// --- EXPLAIN surfaces the buffer pool ---------------------------------------

TEST(PagedExplainTest, SeqScanReportsBufferCounters) {
  std::string dir = FreshDir("paged_explain");
  DurabilityOptions opts = DurableOpts();
  opts.buffer_pool_pages = 8;  // several pages of rows, tiny pool
  auto db = Database::Open(dir, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      (*db)->Execute("CREATE TABLE Big (K TEXT, V TEXT)", "admin").ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE((*db)
                    ->Execute("INSERT INTO Big VALUES ('k" +
                                  std::to_string(i) + "', '" +
                                  std::string(200, 'v') + "')",
                              "admin")
                    .ok());
  }
  auto table = (*db)->GetTable("Big");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->paged());
  EXPECT_GT((*table)->heap_page_count(), opts.buffer_pool_pages)
      << "heap must exceed the pool for this test to mean anything";

  // A full scan through the tiny pool faults pages in on demand and
  // evicts others to make room.
  BufferPoolStats before = (*table)->buffer_stats();
  ASSERT_TRUE((*db)->Execute("SELECT K FROM Big WHERE V = 'none'").ok());
  BufferPoolStats after = (*table)->buffer_stats();
  EXPECT_GT(after.misses - before.misses, 0u);
  EXPECT_GT(after.evictions - before.evictions, 0u);

  auto explain = (*db)->Execute("EXPLAIN SELECT K FROM Big WHERE V = 'none'");
  ASSERT_TRUE(explain.ok());
  std::string plan = explain->ToString();
  EXPECT_NE(plan.find("buffers(hit="), std::string::npos) << plan;
}

// --- larger-than-RAM table ---------------------------------------------------

// Inserts `rows` rows in transaction batches, checkpoints midway, then
// proves counts, point reads, and the reopened database all agree while
// the pool holds only a small fraction of the heap.
void RunLargeTableWorkload(const std::string& dir, size_t rows,
                           size_t pool_pages) {
  DurabilityOptions opts = DurableOpts(/*checkpoint_interval=*/0,
                                       /*group_commit=*/64);
  opts.buffer_pool_pages = pool_pages;
  size_t heap_pages = 0;
  {
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(
        (*db)->Execute("CREATE TABLE Big (Id TEXT, Payload TEXT)", "admin")
            .ok());
    constexpr size_t kBatch = 500;
    for (size_t at = 0; at < rows;) {
      ASSERT_TRUE((*db)->Execute("BEGIN").ok());
      for (size_t j = 0; j < kBatch && at < rows; ++j, ++at) {
        auto r = (*db)->Execute(
            "INSERT INTO Big VALUES ('id" + std::to_string(at) + "', 'p" +
                std::to_string(at * 7919) + "')",
            "admin");
        ASSERT_TRUE(r.ok()) << "row " << at << ": " << r.status().ToString();
      }
      ASSERT_TRUE((*db)->Execute("COMMIT").ok());
      if (at == rows / 2) {
        ASSERT_TRUE((*db)->Checkpoint().ok());  // incremental, mid-build
      }
    }
    auto table = (*db)->GetTable("Big");
    ASSERT_TRUE(table.ok());
    ASSERT_EQ((*table)->row_count(), rows);
    heap_pages = (*table)->heap_page_count();
    ASSERT_GT(heap_pages, pool_pages * 2)
        << "table must dwarf the pool for this test to mean anything";
    // Eviction must actually have happened.
    EXPECT_GT((*table)->buffer_stats().evictions, 0u);
    // Spot reads across the whole key space, far apart in page terms.
    for (size_t probe = 0; probe < rows; probe += rows / 7 + 1) {
      auto r = (*db)->Execute(
          "SELECT Payload FROM Big WHERE Id = 'id" + std::to_string(probe) +
              "'",
          "admin");
      ASSERT_TRUE(r.ok());
      EXPECT_NE(r->ToString().find("p" + std::to_string(probe * 7919)),
                std::string::npos)
          << "row " << probe << " corrupted";
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  // Restart and recount on the same tiny pool.
  auto db = Database::Open(dir, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto table = (*db)->GetTable("Big");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), rows);
  EXPECT_EQ((*table)->heap_page_count(), heap_pages);
  size_t scanned = 0;
  ASSERT_TRUE((*table)
                  ->Scan([&](RowId, const Row& row) {
                    EXPECT_EQ(row.size(), 2u);
                    ++scanned;
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(scanned, rows);
}

TEST(LargeTableTest, FiveThousandRowsOnEightPages) {
  // ~5k rows over ~90 heap pages against an 8-page pool: >90% of the heap
  // is cold at any moment.
  RunLargeTableWorkload(FreshDir("paged_large"), 5000, 8);
}

TEST(LargeTableTest, SoakRowsFromEnvOnTinyPool) {
  // Nightly soak: BDBMS_SOAK_ROWS=10000000 runs a 10M-row build on a
  // 512-page (4 MiB) pool — under 1% of the heap — with a mid-build
  // incremental checkpoint and a restart-and-recount.
  const char* rows_env = std::getenv("BDBMS_SOAK_ROWS");
  if (rows_env == nullptr) {
    GTEST_SKIP() << "set BDBMS_SOAK_ROWS to run the large-table soak";
  }
  size_t rows = static_cast<size_t>(std::strtoull(rows_env, nullptr, 10));
  ASSERT_GT(rows, 0u);
  RunLargeTableWorkload(FreshDir("paged_soak"), rows, 512);
}

}  // namespace
}  // namespace bdbms
