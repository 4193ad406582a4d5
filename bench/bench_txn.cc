// Transaction benchmarks (ISSUE 6): what explicit BEGIN..COMMIT framing
// costs (and saves) versus autocommit, and how the socket front end
// scales with concurrent clients.
//
// The durable comparison is the headline: a transaction of N statements
// pays ONE fsync at COMMIT, while N autocommit statements with
// group_commit_interval=1 pay N — so txn framing is also the engine's
// batching knob. The write-set overhead shows up in the in-memory pair,
// where no fsync masks it. The MVCC headline is
// BM_ReaderThroughputHotWriter: reader query rate with a hot writer
// transaction in flight, snapshot reads versus the old exclusive lock.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/session.h"
#include "net/client.h"
#include "net/server.h"

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

// One batch of range(0) INSERTs per iteration, either autocommit
// (range(1) == 0) or wrapped in BEGIN..COMMIT (range(1) == 1), against an
// in-memory engine. Measures pure write-set + lock bookkeeping overhead.
void BM_TxnBatchInMemory(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const bool txn = state.range(1) != 0;
  Database db;
  (void)db.Execute("CREATE TABLE T (id INT, payload TEXT)");
  int i = 0;
  for (auto _ : state) {
    if (txn && !db.Execute("BEGIN").ok()) {
      state.SkipWithError("BEGIN failed");
      return;
    }
    for (int n = 0; n < batch; ++n) {
      auto r = db.Execute(InsertStatement(i++));
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    if (txn && !db.Execute("COMMIT").ok()) {
      state.SkipWithError("COMMIT failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TxnBatchInMemory)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Unit(benchmark::kMicrosecond);

// The same batches durably, with per-statement fsync for autocommit. The
// transaction variant journals the whole batch at COMMIT as one WAL frame
// under a single fsync, so the gap here is the fsync amortization a
// transaction buys.
void BM_TxnBatchDurable(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const bool txn = state.range(1) != 0;
  std::string dir = BenchDir("bench_txn_durable");
  DurabilityOptions opts;
  opts.group_commit_interval = 1;
  opts.checkpoint_interval = 0;
  auto db = Database::Open(dir, opts);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  (void)(*db)->Execute("CREATE TABLE T (id INT, payload TEXT)");
  int i = 0;
  for (auto _ : state) {
    if (txn && !(*db)->Execute("BEGIN").ok()) {
      state.SkipWithError("BEGIN failed");
      return;
    }
    for (int n = 0; n < batch; ++n) {
      auto r = (*db)->Execute(InsertStatement(i++));
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    if (txn && !(*db)->Execute("COMMIT").ok()) {
      state.SkipWithError("COMMIT failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["fsyncs"] =
      static_cast<double>((*db)->durability_stats().wal_syncs);
}
BENCHMARK(BM_TxnBatchDurable)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Unit(benchmark::kMicrosecond);

// Emulates the pre-MVCC engine lock for the baseline below. The engine's
// gate was writer-preferring (a BEGIN waiting for exclusive blocks new
// shared acquisitions, so writers cannot be starved); std::shared_mutex
// on glibc prefers readers, which would let the baseline's readers
// sneak past the writer and flatten the comparison.
class WriterPreferringGate {
 public:
  void LockExclusive() {
    std::unique_lock<std::mutex> lk(mu_);
    ++writers_waiting_;
    cv_.wait(lk, [&] { return readers_ == 0 && !writer_; });
    --writers_waiting_;
    writer_ = true;
  }
  void UnlockExclusive() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      writer_ = false;
    }
    cv_.notify_all();
  }
  void LockShared() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }
  void UnlockShared() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      --readers_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

// The MVCC acceptance number: reader queries completed during a fixed
// wall-clock window in which ONE writer transaction is in flight the
// whole time — BEGIN, a batch of UPDATEs, then dwell (the wall-clock
// time a real transaction spends in fsyncs and client round trips)
// until the window closes, then COMMIT. range(0) reader sessions run
// single-row SELECTs against the same table for the window's duration;
// items processed counts the reader queries that actually completed.
//
// range(1) picks the concurrency control. 1 ("mvcc") is the engine as
// it is: readers run against their statement snapshot and never block,
// so the in-flight writer costs them nothing. 0 ("exclusive") recreates
// the pre-MVCC engine contract with a bench-local reader/writer gate —
// BEGIN took the engine lock exclusive and HELD it until COMMIT, so
// every reader stalls for as long as the transaction is open. The ratio
// of the two rates is the "readers never block writers" payoff
// (acceptance: mvcc >= 5x exclusive).
void BM_ReaderThroughputHotWriter(benchmark::State& state) {
  const int readers = static_cast<int>(state.range(0));
  const bool mvcc = state.range(1) != 0;
  const int kUpdatesPerWriterTxn = 8;
  const auto kWindow = std::chrono::milliseconds(20);
  Database db;
  (void)db.Execute("CREATE TABLE T (id INT, payload TEXT)");
  for (int i = 0; i < 64; ++i) (void)db.Execute(InsertStatement(i));
  WriterPreferringGate gate;  // the emulated pre-MVCC engine lock
  long total_queries = 0;
  for (auto _ : state) {
    const auto deadline = std::chrono::steady_clock::now() + kWindow;
    std::atomic<long> window_queries{0};
    std::atomic<int> failures{0};
    std::thread writer([&] {
      Session session(&db, "admin");
      if (!mvcc) gate.LockExclusive();
      bool ok = session.Execute("BEGIN").ok();
      for (int i = 0; ok && i < kUpdatesPerWriterTxn; ++i) {
        ok = session
                 .Execute("UPDATE T SET payload = 'hot' WHERE id = " +
                          std::to_string(i))
                 .ok();
      }
      std::this_thread::sleep_until(deadline);
      ok = ok && session.Execute("COMMIT").ok();
      if (!mvcc) gate.UnlockExclusive();
      if (!ok) ++failures;
    });
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(readers));
    for (int c = 0; c < readers; ++c) {
      threads.emplace_back([&db, &gate, &window_queries, &failures, deadline,
                            mvcc, c] {
        Session session(&db, "admin");
        const std::string sql =
            "SELECT payload FROM T WHERE id = " + std::to_string(c % 64);
        while (std::chrono::steady_clock::now() < deadline) {
          if (!mvcc) gate.LockShared();
          auto r = session.Execute(sql);
          if (!mvcc) gate.UnlockShared();
          if (!r.ok()) {
            ++failures;
            return;
          }
          ++window_queries;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    writer.join();
    if (failures.load() != 0) {
      state.SkipWithError("reader or writer statements failed");
      return;
    }
    total_queries += window_queries.load();
  }
  state.SetItemsProcessed(total_queries);
}
BENCHMARK(BM_ReaderThroughputHotWriter)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// End-to-end server throughput: range(0) clients hammer single-row
// SELECTs through the wire protocol against a small pre-loaded table.
// Read-only statements share the engine lock, so this measures how much
// of the per-request cost is the network/session layer.
void BM_ServerSelectThroughput(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int kRequestsPerClient = 50;
  Database db;
  (void)db.Execute("CREATE TABLE T (id INT, payload TEXT)");
  for (int i = 0; i < 64; ++i) (void)db.Execute(InsertStatement(i));
  Server server(&db);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  for (auto _ : state) {
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&server, &failures, c] {
        auto client =
            Client::Connect("127.0.0.1", server.port(), "admin");
        if (!client.ok()) {
          ++failures;
          return;
        }
        const std::string sql =
            "SELECT payload FROM T WHERE id = " + std::to_string(c % 64);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          auto r = (*client)->Execute(sql);
          if (!r.ok() || !r->ok) {
            ++failures;
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (failures.load() != 0) {
      state.SkipWithError("client requests failed");
      return;
    }
  }
  server.Stop();
  state.SetItemsProcessed(state.iterations() * clients * kRequestsPerClient);
}
BENCHMARK(BM_ServerSelectThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Mixed read/write load: half the clients run 4-row INSERT transactions,
// half run point SELECTs. Readers run on snapshots and never wait for
// writers; the writers' statements and commits still take turns on the
// engine's single writer mutex, and the number shows what that critical
// section costs under contention.
void BM_ServerMixedTxnThroughput(benchmark::State& state) {
  const int kWriters = static_cast<int>(state.range(0));
  const int kReaders = kWriters;
  const int kTxnsPerWriter = 5;
  Database db;
  (void)db.Execute("CREATE TABLE T (id INT, payload TEXT)");
  Server server(&db);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  int base = 0;
  for (auto _ : state) {
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(kWriters + kReaders));
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&server, &failures, base, w] {
        auto client =
            Client::Connect("127.0.0.1", server.port(), "admin");
        if (!client.ok()) {
          ++failures;
          return;
        }
        for (int t = 0; t < kTxnsPerWriter; ++t) {
          int row = base + (w * kTxnsPerWriter + t) * 4;
          bool ok = true;
          ok = ok && (*client)->Execute("BEGIN").ok();
          for (int i = 0; ok && i < 4; ++i) {
            ok = (*client)->Execute(InsertStatement(row + i)).ok();
          }
          ok = ok && (*client)->Execute("COMMIT").ok();
          if (!ok) {
            ++failures;
            return;
          }
        }
      });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&server, &failures] {
        auto client =
            Client::Connect("127.0.0.1", server.port(), "admin");
        if (!client.ok()) {
          ++failures;
          return;
        }
        for (int i = 0; i < 10; ++i) {
          auto resp = (*client)->Execute("SELECT id FROM T WHERE id = 0");
          if (!resp.ok() || !resp->ok) {
            ++failures;
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    base += kWriters * kTxnsPerWriter * 4;
    if (failures.load() != 0) {
      state.SkipWithError("client requests failed");
      return;
    }
  }
  server.Stop();
  state.SetItemsProcessed(state.iterations() * kWriters * kTxnsPerWriter);
}
BENCHMARK(BM_ServerMixedTxnThroughput)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bdbms

BENCHMARK_MAIN();
