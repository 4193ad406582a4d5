// Paged-storage residency benchmarks: what sequential scans
// and index point reads cost when the buffer pool holds 100%, 50%, or
// 10% of a file-backed heap. At 100% every page is a hit after warmup;
// at 10% a scan churns the whole pool and point reads fault most probes
// from disk — the counters reported with each result show exactly how
// much of the work was cache hits vs page reads.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include "core/database.h"

namespace bdbms {
namespace {

constexpr size_t kRows = 4000;

std::string BenchDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("bdbms_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string RowKey(size_t i) {
  std::string key = "k";
  key += std::to_string(i);
  return key;
}

// Builds a checkpointed table of kRows rows (plus a key index) under an
// unbounded pool, so the timed phase can reopen it at any residency and
// replay nothing. Returns the heap page count, 0 on failure.
size_t BuildTable(const std::string& dir, benchmark::State& state) {
  DurabilityOptions opts;
  opts.checkpoint_interval = 0;
  opts.group_commit_interval = 64;
  opts.buffer_pool_pages = 0;  // unbounded while building
  auto db = Database::Open(dir, opts);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return 0;
  }
  (void)(*db)->Execute("CREATE TABLE T (K TEXT, V TEXT)", "admin");
  (void)(*db)->Execute("CREATE INDEX tk ON T (K)", "admin");
  const std::string payload(200, 'v');
  for (size_t at = 0; at < kRows;) {
    (void)(*db)->Execute("BEGIN");
    for (size_t j = 0; j < 500 && at < kRows; ++j, ++at) {
      std::string sql = "INSERT INTO T VALUES ('";
      sql += RowKey(at);
      sql += "', '";
      sql += payload;
      sql += "')";
      auto r = (*db)->Execute(sql, "admin");
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return 0;
      }
    }
    (void)(*db)->Execute("COMMIT");
  }
  auto table = (*db)->GetTable("T");
  if (!table.ok()) {
    state.SkipWithError(table.status().ToString().c_str());
    return 0;
  }
  size_t heap_pages = (*table)->heap_page_count();
  auto s = (*db)->Checkpoint();
  if (!s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return 0;
  }
  (void)(*db)->Close();
  return heap_pages;
}

size_t PoolForResidency(size_t heap_pages, int pct) {
  return std::max<size_t>(2, heap_pages * static_cast<size_t>(pct) / 100);
}

void ReportBufferCounters(benchmark::State& state, const Table& table,
                          size_t heap_pages, size_t pool_pages) {
  BufferPoolStats stats = table.buffer_stats();
  state.counters["heap_pages"] = static_cast<double>(heap_pages);
  state.counters["pool_pages"] = static_cast<double>(pool_pages);
  state.counters["hits"] = static_cast<double>(stats.hits);
  state.counters["misses"] = static_cast<double>(stats.misses);
  state.counters["evictions"] = static_cast<double>(stats.evictions);
}

// One full sequential scan per iteration; arg = percent of the heap the
// buffer pool may hold. The WHERE clause matches nothing, so the cost is
// pure page traversal.
void BM_PagedSeqScan(benchmark::State& state) {
  int pct = state.range(0);
  std::string dir = BenchDir("bench_storage_scan_" + std::to_string(pct));
  size_t heap_pages = BuildTable(dir, state);
  if (heap_pages == 0) return;
  DurabilityOptions opts;
  opts.checkpoint_interval = 0;
  opts.buffer_pool_pages = PoolForResidency(heap_pages, pct);
  auto db = Database::Open(dir, opts);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = (*db)->Execute("SELECT K FROM T WHERE V = 'none'");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->rows.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows));
  auto table = (*db)->GetTable("T");
  if (table.ok()) {
    ReportBufferCounters(state, **table, heap_pages, opts.buffer_pool_pages);
  }
}
BENCHMARK(BM_PagedSeqScan)
    ->Arg(100)
    ->Arg(50)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

// One indexed point read per iteration, striding across the key space so
// consecutive probes land on different heap pages; arg = residency pct.
void BM_PagedPointRead(benchmark::State& state) {
  int pct = state.range(0);
  std::string dir = BenchDir("bench_storage_point_" + std::to_string(pct));
  size_t heap_pages = BuildTable(dir, state);
  if (heap_pages == 0) return;
  DurabilityOptions opts;
  opts.checkpoint_interval = 0;
  opts.buffer_pool_pages = PoolForResidency(heap_pages, pct);
  auto db = Database::Open(dir, opts);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    std::string sql = "SELECT V FROM T WHERE K = '";
    sql += RowKey((i * 7919) % kRows);
    sql += "'";
    ++i;
    auto r = (*db)->Execute(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->rows.size());
  }
  state.SetItemsProcessed(state.iterations());
  auto table = (*db)->GetTable("T");
  if (table.ok()) {
    ReportBufferCounters(state, **table, heap_pages, opts.buffer_pool_pages);
  }
}
BENCHMARK(BM_PagedPointRead)
    ->Arg(100)
    ->Arg(50)
    ->Arg(10)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bdbms

BENCHMARK_MAIN();
