// Equi-join microbenchmark: HashJoin vs NestedLoopJoin at 1k and 10k
// probe rows, over indexed and unindexed tables. `l.k = r.k` plans a
// HashJoin; the semantically identical `l.k <= r.k AND l.k >= r.k` is
// not an equi conjunct, so it runs the NestedLoopJoin + Filter pipeline —
// the gap between the two is the point of the operator. The indexed
// HashJoin shape (large probe side, 100-row build side) must stay a
// HashJoin. BM_IndexNestedLoopJoin joins a 50-key outer range to a 10k-row
// inner table: with the inner key indexed it plans an
// IndexNestedLoopJoin (Arg 1); with that index dropped, a HashJoin over a
// full scan of the inner table (Arg 0).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "core/database.h"

namespace bdbms {
namespace {

constexpr int kRightRows = 100;  // build side: 100 rows, keys 0..99

// L(id, k) with `rows` rows, k = id % 100; R(k, name) with 100 rows.
// Every L row matches exactly one R row.
std::unique_ptr<Database> BuildDatabase(int rows, bool indexed) {
  auto db = std::make_unique<Database>();
  (void)db->Execute("CREATE TABLE L (id INT, k INT)");
  (void)db->Execute("CREATE TABLE R (k INT, name TEXT)");
  for (int base = 0; base < rows; base += 500) {
    std::string insert = "INSERT INTO L VALUES ";
    for (int i = base; i < base + 500 && i < rows; ++i) {
      if (i > base) insert += ", ";
      insert += "(";
      insert += std::to_string(i);
      insert += ", ";
      insert += std::to_string(i % kRightRows);
      insert += ")";
    }
    (void)db->Execute(insert);
  }
  std::string insert = "INSERT INTO R VALUES ";
  for (int i = 0; i < kRightRows; ++i) {
    if (i > 0) insert += ", ";
    insert += "(";
    insert += std::to_string(i);
    insert += ", 'r";
    insert += std::to_string(i);
    insert += "')";
  }
  (void)db->Execute(insert);
  if (indexed) {
    (void)db->Execute("CREATE INDEX idx_lk ON L (k)");
    (void)db->Execute("CREATE INDEX idx_rk ON R (k)");
  }
  (void)db->Execute("ANALYZE");
  return db;
}

void RunJoin(benchmark::State& state, const std::string& where,
             bool indexed, const char* join) {
  auto db = BuildDatabase(static_cast<int>(state.range(0)), indexed);
  const std::string sql = "SELECT id, name FROM L, R " + where;
  auto plan = db->Execute("EXPLAIN " + sql);
  if (!plan.ok() || plan->message.find(join) == std::string::npos) {
    state.SkipWithError("unexpected join plan");
    return;
  }
  for (auto _ : state) {
    auto r = db->Execute(sql);
    if (!r.ok() || r->rows.size() != static_cast<size_t>(state.range(0))) {
      state.SkipWithError("join returned the wrong row count");
      return;
    }
    benchmark::DoNotOptimize(r->rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_HashJoin(benchmark::State& state) {
  RunJoin(state, "WHERE L.k = R.k", /*indexed=*/false, "HashJoin");
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_HashJoin_Indexed(benchmark::State& state) {
  RunJoin(state, "WHERE L.k = R.k", /*indexed=*/true, "HashJoin");
}
BENCHMARK(BM_HashJoin_Indexed)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_NestedLoopJoin(benchmark::State& state) {
  RunJoin(state, "WHERE L.k <= R.k AND L.k >= R.k", /*indexed=*/false,
          "NestedLoopJoin");
}
BENCHMARK(BM_NestedLoopJoin)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_NestedLoopJoin_Indexed(benchmark::State& state) {
  RunJoin(state, "WHERE L.k <= R.k AND L.k >= R.k", /*indexed=*/true,
          "NestedLoopJoin");
}
BENCHMARK(BM_NestedLoopJoin_Indexed)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

constexpr int kInnerRows = 10000;  // two inner rows per outer key
constexpr int kOuterKeys = 50;

// O(k, name) with 5,000 keys and an index on k; I(k, v) with two rows per
// key and, when `inner_indexed`, an index on k.
std::unique_ptr<Database> BuildRangeJoinDatabase(bool inner_indexed) {
  auto db = std::make_unique<Database>();
  (void)db->Execute("CREATE TABLE O (k INT, name TEXT)");
  (void)db->Execute("CREATE TABLE I (k INT, v INT)");
  // 500-row INSERTs of rows 0..rows-1, each rendered by `row`.
  auto load = [&](const std::string& table, int rows, auto row) {
    for (int base = 0; base < rows; base += 500) {
      std::string insert = "INSERT INTO " + table + " VALUES ";
      for (int i = base; i < base + 500 && i < rows; ++i) {
        if (i > base) insert += ", ";
        insert += row(i);
      }
      (void)db->Execute(insert);
    }
  };
  load("O", kInnerRows / 2, [](int i) {
    return "(" + std::to_string(i) + ", 'o" + std::to_string(i) + "')";
  });
  load("I", kInnerRows, [](int i) {
    return "(" + std::to_string(i / 2) + ", " + std::to_string(i) + ")";
  });
  (void)db->Execute("CREATE INDEX idx_ok ON O (k)");
  if (inner_indexed) (void)db->Execute("CREATE INDEX idx_ik ON I (k)");
  (void)db->Execute("ANALYZE");
  return db;
}

void BM_IndexNestedLoopJoin(benchmark::State& state) {
  const bool inner_indexed = state.range(0) != 0;
  auto db = BuildRangeJoinDatabase(inner_indexed);
  int lo = 0;
  const std::string join = "SELECT name, v FROM O, I WHERE O.k = I.k AND ";
  auto sql = [&](int from) {
    return join + "O.k >= " + std::to_string(from) + " AND O.k < " +
           std::to_string(from + kOuterKeys);
  };
  auto plan = db->Execute("EXPLAIN " + sql(0));
  const char* expected =
      inner_indexed ? "IndexNestedLoopJoin" : "HashJoin";
  if (!plan.ok() || plan->message.find(expected) == std::string::npos) {
    state.SkipWithError("unexpected join plan");
    return;
  }
  for (auto _ : state) {
    auto r = db->Execute(sql(lo));
    if (!r.ok() || r->rows.size() != 2 * kOuterKeys) {
      state.SkipWithError("join returned the wrong row count");
      return;
    }
    benchmark::DoNotOptimize(r->rows);
    lo = (lo + 97) % (kInnerRows / 2 - kOuterKeys);
  }
  state.SetItemsProcessed(state.iterations() * 2 * kOuterKeys);
}
BENCHMARK(BM_IndexNestedLoopJoin)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bdbms

BENCHMARK_MAIN();
