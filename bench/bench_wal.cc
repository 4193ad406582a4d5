// WAL durability microbenchmarks (ISSUE 5): what one durably committed
// statement costs under per-statement fsync vs batched group commit, and
// how recovery time scales with log length with and without a bounding
// checkpoint. The fsync cadence is the whole trade: group commit risks
// the last interval-1 commits on a crash and buys back roughly that
// factor in throughput.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "core/database.h"

namespace bdbms {
namespace {

std::string BenchDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("bdbms_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string InsertStatement(int i) {
  std::string sql = "INSERT INTO T VALUES (";
  sql += std::to_string(i);
  sql += ", 'ATGCATGCATGCATGCATGCATGCATGCATGC')";
  return sql;
}

// One durably committed INSERT per iteration; arg = group commit
// interval (1 = fsync every statement).
void BM_WalCommit(benchmark::State& state) {
  std::string dir = BenchDir("bench_wal_commit");
  DurabilityOptions opts;
  opts.group_commit_interval = static_cast<uint64_t>(state.range(0));
  opts.checkpoint_interval = 0;
  auto db = Database::Open(dir, opts);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  (void)(*db)->Execute("CREATE TABLE T (id INT, payload TEXT)");
  int i = 0;
  for (auto _ : state) {
    auto r = (*db)->Execute(InsertStatement(i++));
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["fsyncs"] =
      static_cast<double>((*db)->durability_stats().wal_syncs);
}
BENCHMARK(BM_WalCommit)->Arg(1)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

// The no-durability floor: the same INSERTs into a memory-only engine.
void BM_CommitInMemory(benchmark::State& state) {
  Database db;
  (void)db.Execute("CREATE TABLE T (id INT, payload TEXT)");
  int i = 0;
  for (auto _ : state) {
    auto r = db.Execute(InsertStatement(i++));
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitInMemory)->Unit(benchmark::kMicrosecond);

// Database::Open cost against a log of range(0) committed statements;
// range(1) selects whether a checkpoint bounds the replay to zero
// statements (the log itself is empty after a checkpoint).
void BM_Recovery(benchmark::State& state) {
  int statements = static_cast<int>(state.range(0));
  bool checkpointed = state.range(1) != 0;
  std::string dir = BenchDir("bench_wal_recovery");
  {
    DurabilityOptions opts;
    opts.group_commit_interval = 64;  // build the log quickly
    opts.checkpoint_interval = 0;
    auto db = Database::Open(dir, opts);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    (void)(*db)->Execute("CREATE TABLE T (id INT, payload TEXT)");
    for (int i = 0; i < statements; ++i) {
      (void)(*db)->Execute(InsertStatement(i));
    }
    if (checkpointed) {
      auto s = (*db)->Checkpoint();
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return;
      }
    }
    (void)(*db)->Close();
  }
  for (auto _ : state) {
    auto db = Database::Open(dir);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize((*db)->durability_stats().last_lsn);
  }
  state.SetItemsProcessed(state.iterations() * statements);
}
BENCHMARK(BM_Recovery)
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({4000, 0})
    ->Args({100, 1})
    ->Args({1000, 1})
    ->Args({4000, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bdbms

BENCHMARK_MAIN();
