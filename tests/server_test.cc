// The concurrent socket front end: wire protocol framing, the worker pool
// sharing one one-shot epoll set, transaction ownership across
// connections, rollback on disconnect, and the engine's reader/writer
// latch under genuinely parallel clients. These tests are the core of the
// CI ThreadSanitizer job: every cross-thread path (engine latch, HeapFile
// buffer pools, connection hand-off between workers, session bookkeeping,
// server shutdown) runs here under load.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/session.h"
#include "durability_test_util.h"
#include "net/client.h"
#include "net/server.h"

namespace bdbms {
namespace {

using testutil::FreshDir;

std::unique_ptr<Client> MustConnect(const Server& server,
                                    const std::string& user = "admin") {
  auto client = Client::Connect("127.0.0.1", server.port(), user);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return client.ok() ? std::move(*client) : nullptr;
}

Client::Response MustExecute(Client& client, const std::string& sql) {
  auto response = client.Execute(sql);
  EXPECT_TRUE(response.ok()) << sql << "\n-> " << response.status().ToString();
  return response.ok() ? *response : Client::Response{};
}

TEST(ServerTest, StatementsAndErrorsRoundTrip) {
  Database db;
  Server server(&db);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  auto created = MustExecute(*client, "CREATE TABLE T (x INT, y TEXT)");
  EXPECT_TRUE(created.ok) << created.text;
  EXPECT_TRUE(MustExecute(*client, "INSERT INTO T VALUES (1, 'one')").ok);
  auto rows = MustExecute(*client, "SELECT y FROM T WHERE x = 1");
  EXPECT_TRUE(rows.ok);
  EXPECT_NE(rows.text.find("one"), std::string::npos) << rows.text;

  // A statement error is a response, not a dropped connection.
  auto bad = MustExecute(*client, "SELECT FROM NOWHERE !!");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.text.empty());
  EXPECT_TRUE(MustExecute(*client, "SELECT y FROM T WHERE x = 1").ok);

  server.Stop();
}

TEST(ServerTest, DisconnectMidTxnRollsBackAndReleasesEngine) {
  Database db;
  Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  {
    auto dropped = MustConnect(server);
    ASSERT_NE(dropped, nullptr);
    EXPECT_TRUE(MustExecute(*dropped, "CREATE TABLE T (x INT)").ok);
    EXPECT_TRUE(MustExecute(*dropped, "BEGIN").ok);
    EXPECT_TRUE(MustExecute(*dropped, "INSERT INTO T VALUES (42)").ok);
    // Connection dies here with the transaction open.
  }

  // A fresh connection's BEGIN blocks until the server has processed the
  // disconnect and rolled back — if rollback-on-disconnect were broken,
  // this would hang (and the ctest timeout would flag it) rather than
  // pass by luck.
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(MustExecute(*client, "BEGIN").ok);
  auto rows = MustExecute(*client, "SELECT x FROM T");
  EXPECT_TRUE(rows.ok);
  EXPECT_EQ(rows.text.find("42"), std::string::npos)
      << "uncommitted insert survived the disconnect: " << rows.text;
  EXPECT_TRUE(MustExecute(*client, "COMMIT").ok);

  server.Stop();
}

TEST(ServerTest, TxnOwnershipScopesToConnection) {
  Database db;
  Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  auto a = MustConnect(server);
  auto b = MustConnect(server);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(MustExecute(*a, "CREATE TABLE T (x INT)").ok);
  EXPECT_TRUE(MustExecute(*a, "BEGIN").ok);
  // b never began a transaction, so its COMMIT must fail even while a's
  // transaction is open.
  auto commit = MustExecute(*b, "COMMIT");
  EXPECT_FALSE(commit.ok);
  EXPECT_TRUE(MustExecute(*a, "ROLLBACK").ok);

  server.Stop();
}

// Four writer clients each commit transactions and roll others back
// while four reader clients hammer SELECTs — the acceptance workload for
// the TSAN job. Deterministic outcome: only committed rows remain.
TEST(ServerTest, ConcurrentClientsTsanWorkload) {
  Database db;
  Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  {
    auto admin = MustConnect(server);
    ASSERT_NE(admin, nullptr);
    EXPECT_TRUE(MustExecute(*admin, "CREATE TABLE Shared (w INT, i INT)").ok);
  }

  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kTxnsPerWriter = 5;
  constexpr int kRowsPerTxn = 4;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto client = Client::Connect("127.0.0.1", server.port(), "admin");
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int t = 0; t < kTxnsPerWriter; ++t) {
        // Every other transaction is rolled back on purpose.
        const bool commit = t % 2 == 0;
        std::vector<std::string> batch = {"BEGIN"};
        for (int i = 0; i < kRowsPerTxn; ++i) {
          batch.push_back("INSERT INTO Shared VALUES (" + std::to_string(w) +
                          ", " + std::to_string(t * kRowsPerTxn + i) + ")");
        }
        batch.push_back(commit ? "COMMIT" : "ROLLBACK");
        for (const std::string& sql : batch) {
          auto r = (*client)->Execute(sql);
          if (!r.ok() || !r->ok) {
            ++failures;
            return;
          }
        }
        // One autocommit statement between transactions.
        auto r = (*client)->Execute("SELECT i FROM Shared WHERE w = " +
                                    std::to_string(w));
        if (!r.ok() || !r->ok) ++failures;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server.port(), "admin");
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 25; ++i) {
        auto response = (*client)->Execute("SELECT w, i FROM Shared");
        if (!response.ok() || !response->ok) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // ceil(kTxnsPerWriter / 2) committed transactions per writer.
  const uint64_t committed_txns = (kTxnsPerWriter + 1) / 2;
  auto table = db.GetTable("Shared");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), kWriters * committed_txns * kRowsPerTxn);
  EXPECT_FALSE(db.InTransaction());

  server.Stop();
  EXPECT_GE(server.connections_accepted(), uint64_t{kWriters + kReaders + 1});
}

TEST(ServerTest, ServesDurableDatabaseAcrossRestart) {
  std::string dir = FreshDir("server_durable");
  uint64_t committed = 0;
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok());
    Server server(db->get());
    ASSERT_TRUE(server.Start().ok());
    auto client = MustConnect(server);
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(MustExecute(*client, "CREATE TABLE T (x INT)").ok);
    EXPECT_TRUE(MustExecute(*client, "BEGIN").ok);
    EXPECT_TRUE(MustExecute(*client, "INSERT INTO T VALUES (1)").ok);
    EXPECT_TRUE(MustExecute(*client, "INSERT INTO T VALUES (2)").ok);
    EXPECT_TRUE(MustExecute(*client, "COMMIT").ok);
    EXPECT_TRUE(MustExecute(*client, "BEGIN").ok);
    EXPECT_TRUE(MustExecute(*client, "INSERT INTO T VALUES (3)").ok);
    EXPECT_TRUE(MustExecute(*client, "ROLLBACK").ok);
    committed = 2;
    server.Stop();
    EXPECT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  auto table = (*db)->GetTable("T");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), committed);
}

// Idle connections sit armed in the epoll set: no worker is tied up by
// them and no per-request cost scales with their number, so one active
// client runs at full speed beside them.
TEST(ServerTest, IdleConnectionsDoNotStallActiveOnes) {
  Database db;
  Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kIdle = 256;
  std::vector<std::unique_ptr<Client>> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    idle.push_back(MustConnect(server));
    ASSERT_NE(idle.back(), nullptr);
  }

  auto active = MustConnect(server);
  ASSERT_NE(active, nullptr);
  EXPECT_TRUE(MustExecute(*active, "CREATE TABLE T (x INT)").ok);
  for (int i = 0; i < 200; ++i) {
    std::string sql = "SELECT x FROM T WHERE x = " + std::to_string(i - 1);
    if (i % 2 == 0) sql = "INSERT INTO T VALUES (" + std::to_string(i) + ")";
    auto r = MustExecute(*active, sql);
    ASSERT_TRUE(r.ok) << sql << "\n-> " << r.text;
  }
  auto table = db.GetTable("T");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), 100u);

  // The idle connections are still served once they speak.
  EXPECT_TRUE(MustExecute(*idle.front(), "SELECT x FROM T").ok);
  EXPECT_TRUE(MustExecute(*idle.back(), "SELECT x FROM T").ok);

  server.Stop();
  EXPECT_EQ(server.connections_accepted(), uint64_t{kIdle + 1});
}

// A burst of simultaneous connects arrives while the one-shot listener is
// disarmed; the accepting worker drains it to EAGAIN and re-arms, so no
// connection is left in the backlog.
TEST(ServerTest, AcceptBurstRearmsListener) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (x INT)").ok());
  Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 64;
  std::latch go(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      go.arrive_and_wait();
      auto client = Client::Connect("127.0.0.1", server.port(), "admin");
      if (!client.ok()) {
        ++failures;
        return;
      }
      auto r = (*client)->Execute("INSERT INTO T VALUES (" +
                                  std::to_string(i) + ")");
      if (!r.ok() || !r->ok) ++failures;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto table = db.GetTable("T");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), uint64_t{kClients});

  server.Stop();
  EXPECT_EQ(server.connections_accepted(), uint64_t{kClients});
}

// Stop() wakes every worker even though no connection is active, and the
// connections it retires take their sessions with them: the open
// transaction rolls back and the engine is left with none.
TEST(ServerTest, StopRetiresIdleAndMidTxnConnections) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (x INT)").ok());
  Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::unique_ptr<Client>> idle;
  for (int i = 0; i < 8; ++i) {
    idle.push_back(MustConnect(server));
    ASSERT_NE(idle.back(), nullptr);
  }
  auto mid_txn = MustConnect(server);
  ASSERT_NE(mid_txn, nullptr);
  EXPECT_TRUE(MustExecute(*mid_txn, "BEGIN").ok);
  EXPECT_TRUE(MustExecute(*mid_txn, "INSERT INTO T VALUES (42)").ok);

  server.Stop();
  EXPECT_FALSE(db.InTransaction());
  // DDL escalates and waits for every open transaction to finish: it
  // would hang here if the retired session's transaction were still open.
  EXPECT_TRUE(db.Execute("CREATE TABLE U (y INT)").ok());
  auto table = db.GetTable("T");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), 0u);
  auto rows = db.Execute("SELECT x FROM T");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->ToString().find("42"), std::string::npos)
      << rows->ToString();
  // The server side of every connection is gone.
  EXPECT_FALSE(mid_txn->Execute("SELECT x FROM T").ok());
}

// Engine-level concurrency without sockets: Sessions on raw threads.
// Exercises the same lock paths with less machinery, so TSAN reports
// point at the engine rather than the network layer.
TEST(EngineConcurrencyTest, ParallelSessionsSharedAndExclusive) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (x INT)").ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      Session session(&db, "admin");
      for (int t = 0; t < 5; ++t) {
        bool ok = session.Execute("BEGIN").ok() &&
                  session
                      .Execute("INSERT INTO T VALUES (" +
                               std::to_string(w * 100 + t) + ")")
                      .ok() &&
                  session.Execute(t % 2 == 0 ? "COMMIT" : "ROLLBACK").ok();
        if (!ok) ++failures;
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        if (!db.Execute("SELECT x FROM T").ok()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto table = db.GetTable("T");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), 3u * 3u);  // 3 writers x 3 commits
}

}  // namespace
}  // namespace bdbms
