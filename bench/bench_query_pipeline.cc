// The planner/operator pipeline win (ISSUE 2): point and range SELECTs,
// UPDATE targeting and the A-SQL AWHERE path over a >=10k-row table, each
// through the full-scan access path and the index-backed one. The index
// side must beat the SeqScan side by a wide margin — that gap is the whole
// point of wiring src/index/ into the query engine.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "core/database.h"
#include "table/table.h"

namespace bdbms {
namespace {

constexpr int kRows = 10000;

// A 10k-row gene table; `indexed` adds B+-tree indexes on the probe
// columns. Values are deterministic so both variants see identical data.
std::unique_ptr<Database> BuildDatabase(bool indexed, bool annotated = false) {
  auto db = std::make_unique<Database>();
  (void)db->Execute("CREATE TABLE Gene (GID INT, GName TEXT, Score DOUBLE)");
  for (int base = 0; base < kRows; base += 500) {
    std::string insert = "INSERT INTO Gene VALUES ";
    for (int i = base; i < base + 500; ++i) {
      if (i > base) insert += ", ";
      insert += "(";
      insert += std::to_string(i);
      insert += ", 'gene_";
      insert += std::to_string((i * 7919) % kRows);
      insert += "', ";
      insert += std::to_string(i % 97);
      insert += ".25)";
    }
    (void)db->Execute(insert);
  }
  if (annotated) {
    (void)db->Execute("CREATE ANNOTATION TABLE Curation ON Gene");
    // A sparse annotation band: ~1% of rows carry a curation note.
    (void)db->Execute(
        "ADD ANNOTATION TO Gene.Curation VALUE '<C>verified</C>' "
        "ON (SELECT GID FROM Gene WHERE GID >= 4000 AND GID < 4100)");
  }
  if (indexed) {
    (void)db->Execute("CREATE INDEX idx_gid ON Gene (GID)");
    (void)db->Execute("CREATE INDEX idx_name ON Gene (GName)");
  }
  return db;
}

std::unique_ptr<Database> BuildDenselyAnnotatedDatabase() {
  auto db = BuildDatabase(false, /*annotated=*/true);
  // A whole-column annotation: every row is covered, so the AWHERE
  // interval pushdown degenerates to a full scan.
  (void)db->Execute(
      "ADD ANNOTATION TO Gene.Curation VALUE '<C>lineage</C>' "
      "ON (SELECT GName FROM Gene)");
  return db;
}

void RunQuery(benchmark::State& state, bool indexed, const char* sql,
              bool annotated = false) {
  auto db = BuildDatabase(indexed, annotated);
  uint64_t rows = 0;
  for (auto _ : state) {
    auto r = db->Execute(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    rows += r->rows.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["result_rows"] =
      benchmark::Counter(static_cast<double>(rows) /
                         static_cast<double>(std::max<uint64_t>(
                             1, static_cast<uint64_t>(state.iterations()))));
}

void BM_PointSelect_SeqScan(benchmark::State& state) {
  RunQuery(state, false, "SELECT GName FROM Gene WHERE GID = 7321");
}
BENCHMARK(BM_PointSelect_SeqScan);

void BM_PointSelect_IndexScan(benchmark::State& state) {
  RunQuery(state, true, "SELECT GName FROM Gene WHERE GID = 7321");
}
BENCHMARK(BM_PointSelect_IndexScan);

void BM_TextEquality_SeqScan(benchmark::State& state) {
  RunQuery(state, false, "SELECT GID FROM Gene WHERE GName = 'gene_42'");
}
BENCHMARK(BM_TextEquality_SeqScan);

void BM_TextEquality_IndexScan(benchmark::State& state) {
  RunQuery(state, true, "SELECT GID FROM Gene WHERE GName = 'gene_42'");
}
BENCHMARK(BM_TextEquality_IndexScan);

void BM_RangeSelect_SeqScan(benchmark::State& state) {
  RunQuery(state, false,
           "SELECT GID, Score FROM Gene WHERE GID >= 5000 AND GID < 5050");
}
BENCHMARK(BM_RangeSelect_SeqScan);

void BM_RangeSelect_IndexScan(benchmark::State& state) {
  RunQuery(state, true,
           "SELECT GID, Score FROM Gene WHERE GID >= 5000 AND GID < 5050");
}
BENCHMARK(BM_RangeSelect_IndexScan);

// AWHERE over a sparsely annotated table: the AnnIntervalScan fetches only
// the ~100 annotated rows instead of all 10k.
void BM_AWhere_SparseIntervalPushdown(benchmark::State& state) {
  RunQuery(state, false,
           "SELECT GID FROM Gene ANNOTATION(Curation) "
           "AWHERE VALUE LIKE '%verified%'",
           /*annotated=*/true);
}
BENCHMARK(BM_AWhere_SparseIntervalPushdown);

// The degenerate case: a whole-column annotation covers every row, so the
// interval pushdown buys nothing — this is the full-scan cost of AWHERE.
void BM_AWhere_DenseFullScan(benchmark::State& state) {
  auto db = BuildDenselyAnnotatedDatabase();
  for (auto _ : state) {
    auto r = db->Execute(
        "SELECT GID FROM Gene ANNOTATION(Curation) "
        "AWHERE VALUE LIKE '%verified%'");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AWhere_DenseFullScan);

void BM_UpdatePoint_SeqScan(benchmark::State& state) {
  auto db = BuildDatabase(false);
  for (auto _ : state) {
    auto r = db->Execute("UPDATE Gene SET Score = 1.5 WHERE GID = 4242");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_UpdatePoint_SeqScan);

void BM_UpdatePoint_IndexScan(benchmark::State& state) {
  auto db = BuildDatabase(true);
  for (auto _ : state) {
    auto r = db->Execute("UPDATE Gene SET Score = 1.5 WHERE GID = 4242");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_UpdatePoint_IndexScan);

// Index maintenance tax on the write path: one INSERT into the 10k-row
// table, without and with two secondary indexes.
void BM_Insert_NoIndexes(benchmark::State& state) {
  auto db = BuildDatabase(false);
  int next = kRows;
  for (auto _ : state) {
    std::string sql = "INSERT INTO Gene VALUES (";
    sql += std::to_string(next++);
    sql += ", 'fresh', 0.5)";
    auto r = db->Execute(sql);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
}
BENCHMARK(BM_Insert_NoIndexes);

void BM_Insert_TwoIndexes(benchmark::State& state) {
  auto db = BuildDatabase(true);
  int next = kRows;
  for (auto _ : state) {
    std::string sql = "INSERT INTO Gene VALUES (";
    sql += std::to_string(next++);
    sql += ", 'fresh', 0.5)";
    auto r = db->Execute(sql);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
}
BENCHMARK(BM_Insert_TwoIndexes);

}  // namespace
}  // namespace bdbms

BENCHMARK_MAIN();
