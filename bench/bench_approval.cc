// Experiment E4 (paper §6): content-based approval — update throughput
// with the feature OFF vs ON, and the cost of settling operations
// (approve = log update; disapprove = execute the inverse statement).
#include <benchmark/benchmark.h>

#include <memory>

#include "bio/sequence_generator.h"
#include "core/database.h"

namespace bdbms {
namespace {

// Rows of the approval log, settled ones included (0 without one).
double LogEntries(Database& db) {
  auto log = db.GetTable(kApprovalLogTable);
  return log.ok() ? static_cast<double>((*log)->row_count()) : 0.0;
}

std::unique_ptr<Database> FreshDb(bool approval_on) {
  auto db = std::make_unique<Database>();
  (void)db->Execute("CREATE TABLE Gene (GID TEXT, GSequence SEQUENCE)");
  (void)db->Execute("CREATE USER member");
  (void)db->Execute("GRANT INSERT ON Gene TO member");
  (void)db->Execute("GRANT UPDATE ON Gene TO member");
  if (approval_on) {
    (void)db->Execute("START CONTENT APPROVAL ON Gene APPROVED BY admin");
  }
  return db;
}

void BM_InsertThroughput(benchmark::State& state) {
  bool approval_on = state.range(0) != 0;
  auto db = FreshDb(approval_on);
  SequenceGenerator gen(3);
  size_t i = 0;
  for (auto _ : state) {
    auto r = db->Execute("INSERT INTO Gene VALUES ('" +
                             SequenceGenerator::GeneId(i++) + "', '" +
                             gen.Dna(40) + "')",
                         "member");
    benchmark::DoNotOptimize(r);
  }
  state.counters["log_entries"] = LogEntries(*db);
  state.SetLabel(approval_on ? "approval_on" : "approval_off");
}
BENCHMARK(BM_InsertThroughput)->Arg(0)->Arg(1);

void BM_UpdateThroughput(benchmark::State& state) {
  bool approval_on = state.range(0) != 0;
  auto db = FreshDb(approval_on);
  SequenceGenerator gen(5);
  for (size_t i = 0; i < 256; ++i) {
    (void)db->Execute("INSERT INTO Gene VALUES ('" +
                      SequenceGenerator::GeneId(i) + "', '" + gen.Dna(40) +
                      "')");
  }
  size_t i = 0;
  for (auto _ : state) {
    auto r = db->Execute("UPDATE Gene SET GSequence = '" + gen.Dna(40) +
                             "' WHERE GID = '" +
                             SequenceGenerator::GeneId(i++ % 256) + "'",
                         "member");
    benchmark::DoNotOptimize(r);
  }
  state.counters["log_entries"] = LogEntries(*db);
  state.SetLabel(approval_on ? "approval_on" : "approval_off");
}
BENCHMARK(BM_UpdateThroughput)->Arg(0)->Arg(1);

void BM_SettleOperations(benchmark::State& state) {
  bool disapprove = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto db = FreshDb(true);
    SequenceGenerator gen(9);
    std::vector<uint64_t> ops;
    for (size_t i = 0; i < 64; ++i) {
      (void)db->Execute("INSERT INTO Gene VALUES ('" +
                            SequenceGenerator::GeneId(i) + "', '" +
                            gen.Dna(40) + "')",
                        "member");
    }
    for (const LoggedOperation& op : db->approvals().Pending("Gene")) {
      ops.push_back(op.op_id);
    }
    state.ResumeTiming();
    for (uint64_t op : ops) {
      auto r = db->Execute((disapprove ? "DISAPPROVE OPERATION "
                                       : "APPROVE OPERATION ") +
                               std::to_string(op),
                           "admin");
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(disapprove ? "disapprove_rollback" : "approve");
}
BENCHMARK(BM_SettleOperations)->Arg(0)->Arg(1);

}  // namespace
}  // namespace bdbms

BENCHMARK_MAIN();
