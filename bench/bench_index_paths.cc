// Access paths over a 10k-row sequence table: a composite probe vs a
// single-column probe + residual filter, and the SP-GiST trie prefix
// descent vs the SeqScan + LIKE pipeline. Each pair shares one dataset,
// so the gap is the access path, not the data.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/database.h"

namespace bdbms {
namespace {

constexpr int kRows = 10000;

// Deterministic 10k-row protein table. `mode` picks the index layout:
//   0 — none (SeqScan baseline)
//   1 — single-column B+-tree on Org (composite baseline) + on PID
//   2 — composite B+-tree on (Org, PID)
//   3 — SP-GiST sequence index on Seq
std::unique_ptr<Database> BuildDatabase(int mode) {
  static const char* kBases[4] = {"ACGT", "TGCA", "GGCC", "ATAT"};
  auto db = std::make_unique<Database>();
  (void)db->Execute(
      "CREATE TABLE Prot (PID INT, Org TEXT, Score DOUBLE, Seq SEQUENCE)");
  for (int base = 0; base < kRows; base += 500) {
    std::string insert = "INSERT INTO Prot VALUES ";
    for (int i = base; i < base + 500; ++i) {
      if (i > base) insert += ", ";
      insert += "(";
      insert += std::to_string(i);
      insert += ", 'org_";
      insert += std::to_string(i % 50);
      insert += "', ";
      insert += std::to_string(i % 89);
      insert += ".5, '";
      // 16-char sequences; ~1/16 of the table shares each 4-char prefix.
      insert += kBases[i % 16 / 4];
      insert += kBases[i % 4];
      insert += kBases[(i / 16) % 4];
      insert += kBases[(i / 64) % 4];
      insert += "')";
    }
    (void)db->Execute(insert);
  }
  if (mode == 1) {
    (void)db->Execute("CREATE INDEX idx_org ON Prot (Org)");
    (void)db->Execute("CREATE INDEX idx_pid ON Prot (PID)");
  } else if (mode == 2) {
    (void)db->Execute("CREATE INDEX idx_org_pid ON Prot (Org, PID)");
  } else if (mode == 3) {
    (void)db->Execute("CREATE SEQUENCE INDEX idx_seq ON Prot (Seq)");
  }
  (void)db->Execute("ANALYZE");
  return db;
}

void RunQuery(benchmark::State& state, int mode, const char* sql) {
  auto db = BuildDatabase(mode);
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

// --- composite probe vs single-column probe + filter ------------------------
// org equality matches 200 rows; the composite key narrows to 2 inside
// the tree, the single-column index filters the other 198 above the scan.

void BM_TwoColumnPredicate_SingleColumnIndex(benchmark::State& state) {
  RunQuery(state, 1,
           "SELECT Score FROM Prot "
           "WHERE Org = 'org_17' AND PID >= 4000 AND PID < 4100");
}
BENCHMARK(BM_TwoColumnPredicate_SingleColumnIndex);

void BM_TwoColumnPredicate_CompositeIndex(benchmark::State& state) {
  RunQuery(state, 2,
           "SELECT Score FROM Prot "
           "WHERE Org = 'org_17' AND PID >= 4000 AND PID < 4100");
}
BENCHMARK(BM_TwoColumnPredicate_CompositeIndex);

// --- SP-GiST prefix descent vs SeqScan + LIKE -------------------------------

void BM_SequencePrefix_SeqScan(benchmark::State& state) {
  RunQuery(state, 0, "SELECT PID FROM Prot WHERE Seq LIKE 'ACGTACGT%'");
}
BENCHMARK(BM_SequencePrefix_SeqScan);

void BM_SequencePrefix_SpgistScan(benchmark::State& state) {
  RunQuery(state, 3, "SELECT PID FROM Prot WHERE Seq LIKE 'ACGTACGT%'");
}
BENCHMARK(BM_SequencePrefix_SpgistScan);

}  // namespace
}  // namespace bdbms

BENCHMARK_MAIN();
