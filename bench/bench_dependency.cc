// Experiment E3 (paper Figure 10, §5): local dependency tracking —
// invalidation throughput, cross-table propagation with and without an
// index on the join key, procedure-closure reasoning, and the RLE
// compression of the outdated bitmaps.
#include <benchmark/benchmark.h>

#include <memory>

#include "bio/alignment.h"
#include "bio/sequence_generator.h"
#include "core/database.h"
#include "dep/chain_rules.h"
#include "dep/outdated_bitmap_rle.h"

namespace bdbms {
namespace {

// Gene -> Protein (executable P) -> PFunction (lab, non-executable),
// `fan` proteins per gene.
struct Pipeline {
  std::unique_ptr<Database> db;
  size_t genes;
};

Pipeline BuildPipeline(size_t genes, size_t fan) {
  Pipeline p;
  p.db = std::make_unique<Database>();
  p.genes = genes;
  Database& db = *p.db;
  (void)db.procedures().Register(MakePredictionToolProcedure("P"));
  ProcedureInfo lab;
  lab.name = "lab_experiment";
  lab.executable = false;
  (void)db.procedures().Register(lab);

  (void)db.Execute("CREATE TABLE Gene (GID TEXT, GSequence SEQUENCE)");
  (void)db.Execute(
      "CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence SEQUENCE, "
      "PFunction TEXT)");
  (void)db.Execute(
      "CREATE DEPENDENCY rule1 FROM Gene.GSequence TO Protein.PSequence "
      "USING P JOIN ON Gene.GID = Protein.GID");
  (void)db.Execute(
      "CREATE DEPENDENCY rule2 FROM Protein.PSequence TO Protein.PFunction "
      "USING lab_experiment");

  SequenceGenerator gen(99);
  for (size_t g = 0; g < genes; ++g) {
    std::string gid = SequenceGenerator::GeneId(g);
    (void)db.Execute("INSERT INTO Gene VALUES ('" + gid + "', '" +
                     gen.Dna(30) + "')");
    for (size_t f = 0; f < fan; ++f) {
      (void)db.Execute("INSERT INTO Protein VALUES ('p" + std::to_string(f) +
                       "_" + gid + "', '" + gid + "', 'M', 'function')");
    }
  }
  return p;
}

void BM_InvalidationPropagation(benchmark::State& state) {
  size_t genes = static_cast<size_t>(state.range(0));
  size_t fan = static_cast<size_t>(state.range(1));
  Pipeline p = BuildPipeline(genes, fan);
  SequenceGenerator gen(7);
  size_t g = 0;
  uint64_t recomputed = 0, outdated = 0;
  for (auto _ : state) {
    std::string gid = SequenceGenerator::GeneId(g % genes);
    auto table = p.db->GetTable("Gene");
    (void)(*table)->UpdateCell(g % genes, 1,
                               Value::Sequence(gen.Dna(30)));
    auto report = p.db->NotifyCellUpdated("Gene", g % genes, 1);
    benchmark::DoNotOptimize(report);
    if (report.ok()) {
      recomputed = report->recomputed.size();
      outdated = report->outdated.size();
    }
    ++g;
  }
  state.counters["recomputed_per_update"] = static_cast<double>(recomputed);
  state.counters["outdated_per_update"] = static_cast<double>(outdated);
}
BENCHMARK(BM_InvalidationPropagation)
    ->ArgsProduct({{100, 400}, {1, 4, 16}});

// Gene -> Protein over `rows` rows each, one protein per gene, joined on
// GID, with (`indexed`) or without a B+-tree on both join keys. The rows
// are loaded straight into the tables, so set-up runs no propagation.
std::unique_ptr<Database> BuildJoinedTables(size_t rows, bool indexed) {
  auto db = std::make_unique<Database>();
  (void)db->procedures().Register(MakePredictionToolProcedure("P"));
  ProcedureInfo lab;
  lab.name = "lab_experiment";
  lab.executable = false;
  (void)db->procedures().Register(lab);
  (void)db->Execute("CREATE TABLE Gene (GID TEXT, GSequence SEQUENCE)");
  (void)db->Execute(
      "CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence SEQUENCE, "
      "PFunction TEXT)");
  (void)db->Execute(
      "CREATE DEPENDENCY rule1 FROM Gene.GSequence TO Protein.PSequence "
      "USING P JOIN ON Gene.GID = Protein.GID");
  (void)db->Execute(
      "CREATE DEPENDENCY rule2 FROM Protein.PSequence TO Protein.PFunction "
      "USING lab_experiment");
  if (indexed) {
    (void)db->Execute("CREATE INDEX gene_gid ON Gene (GID)");
    (void)db->Execute("CREATE INDEX protein_gid ON Protein (GID)");
  }
  Table* gene = *db->GetTable("Gene");
  Table* protein = *db->GetTable("Protein");
  SequenceGenerator gen(99);
  for (size_t g = 0; g < rows; ++g) {
    std::string gid = SequenceGenerator::GeneId(g);
    (void)gene->Insert({Value::Text(gid), Value::Sequence(gen.Dna(30))});
    (void)protein->Insert({Value::Text("p_" + gid), Value::Text(gid),
                           Value::Sequence("M"), Value::Text("function")});
  }
  return db;
}

// One gene-sequence change: find the joined protein, recompute it from
// its source row, outdate its function.
void BM_CrossTablePropagation(benchmark::State& state, bool indexed) {
  constexpr size_t kRows = 10000;
  std::unique_ptr<Database> db = BuildJoinedTables(kRows, indexed);
  Table* gene = *db->GetTable("Gene");
  SequenceGenerator gen(7);
  size_t g = 0;
  for (auto _ : state) {
    RowId row = (g++ * 7919) % kRows;
    (void)gene->UpdateCell(row, 1, Value::Sequence(gen.Dna(30)));
    auto report = db->NotifyCellUpdated("Gene", row, 1);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK_CAPTURE(BM_CrossTablePropagation, indexed, true);
BENCHMARK_CAPTURE(BM_CrossTablePropagation, scan, false);

// A procedure upgrade: every protein is recomputed from its joined gene,
// one source lookup per target row.
void BM_ProcedureChangePropagation(benchmark::State& state, bool indexed) {
  constexpr size_t kRows = 10000;
  std::unique_ptr<Database> db = BuildJoinedTables(kRows, indexed);
  size_t recomputed = 0;
  for (auto _ : state) {
    auto report = db->dependencies().OnProcedureChanged("P");
    benchmark::DoNotOptimize(report);
    if (report.ok()) recomputed = report->recomputed.size();
  }
  state.counters["recomputed"] = static_cast<double>(recomputed);
}
BENCHMARK_CAPTURE(BM_ProcedureChangePropagation, indexed, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ProcedureChangePropagation, scan, false)
    ->Unit(benchmark::kMillisecond);

void BM_ProcedureClosure(benchmark::State& state) {
  // A chain of `depth` tables each depending on the previous one.
  size_t depth = static_cast<size_t>(state.range(0));
  Database db;
  (void)db.procedures().Register(MakePredictionToolProcedure("P"));
  for (size_t i = 0; i <= depth; ++i) {
    (void)db.Execute("CREATE TABLE T" + std::to_string(i) +
                     " (K TEXT, V SEQUENCE)");
  }
  for (size_t i = 0; i < depth; ++i) {
    (void)db.Execute("CREATE DEPENDENCY r" + std::to_string(i) + " FROM T" +
                     std::to_string(i) + ".V TO T" + std::to_string(i + 1) +
                     ".V USING P JOIN ON T" + std::to_string(i) + ".K = T" +
                     std::to_string(i + 1) + ".K");
  }
  size_t closure_size = 0;
  for (auto _ : state) {
    auto closure = ProcedureClosure(db.dependencies().rules(), "P");
    benchmark::DoNotOptimize(closure);
    closure_size = closure.size();
  }
  state.counters["closure_columns"] = static_cast<double>(closure_size);
  auto derived = DeriveChainRules(db.dependencies().rules(), db.procedures());
  state.counters["derived_chain_rules"] = static_cast<double>(derived.size());
}
BENCHMARK(BM_ProcedureClosure)->Arg(4)->Arg(16)->Arg(48);

void BM_BitmapRleCompression(benchmark::State& state) {
  // Figure 10 storage claim: RLE-compress the outdated bitmap.
  size_t rows = static_cast<size_t>(state.range(0));
  size_t outdated_pct = static_cast<size_t>(state.range(1));
  OutdatedBitmap bm(8);
  Rng rng(5);
  // Clustered invalidation: contiguous row blocks, as dependency fan-out
  // produces in practice.
  size_t marked = rows * outdated_pct / 100;
  size_t start = rng.Uniform(rows - marked + 1);
  for (size_t r = start; r < start + marked; ++r) bm.Mark(r, 3);
  std::string rle;
  for (auto _ : state) {
    rle = SerializeOutdatedRle(bm, rows);
    benchmark::DoNotOptimize(rle);
  }
  state.counters["raw_bytes"] = static_cast<double>(bm.RawSizeBytes(rows));
  state.counters["rle_bytes"] = static_cast<double>(rle.size());
  state.counters["compression_x"] =
      static_cast<double>(bm.RawSizeBytes(rows)) /
      static_cast<double>(rle.size());
}
BENCHMARK(BM_BitmapRleCompression)
    ->ArgsProduct({{100000, 1000000}, {1, 10}});

}  // namespace
}  // namespace bdbms

BENCHMARK_MAIN();
