#ifndef BDBMS_NET_SERVER_H_
#define BDBMS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "core/session.h"

namespace bdbms {

// Session-pool TCP front end over one Database. Every worker thread waits
// on one shared epoll set holding the listener and every idle connection,
// each registered EPOLLONESHOT: a readiness event disarms its fd, so the
// one worker that receives it owns the connection — reads the frame,
// executes it, writes the response — until it re-arms the fd. A request
// therefore crosses no thread boundary after the kernel wakes a worker,
// and thousands of mostly-idle connections cost one fd each, not one
// thread each. Under MVCC the engine does not need a connection's
// BEGIN..COMMIT span to stay on one thread, only for its statements to be
// processed one at a time, which the one-shot arming guarantees.
//
// Protocol: see net/wire.h. Dropping a connection rolls back its open
// transaction and releases its MVCC snapshot (the Session destructor runs
// when a worker or Stop() retires the connection), so a crashed client
// never wedges writers or pins version garbage collection.
class Server {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral; read the bound port from port()
    // Worker threads executing statements. 0 = min(8, max(2, hardware
    // threads)).
    unsigned workers = 0;
  };

  explicit Server(Database* db) : Server(db, Options()) {}
  Server(Database* db, Options options);
  ~Server();  // implies Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the worker threads. After an OK return,
  // port() is the bound port.
  Status Start();

  // Wakes every worker, shuts down every live connection (rolling back
  // their open transactions), joins the workers, and closes the listener.
  // Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

  // Connections accepted over the server's lifetime (tests).
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  // Worker threads actually running (tests).
  unsigned worker_count() const { return worker_count_; }

 private:
  // One client connection. `session` is null until the hello frame names
  // the user. Ownership lives in conns_ until retirement.
  struct Conn {
    explicit Conn(int fd_in) : fd(fd_in) {}
    // Held by the owning worker across ServeOne and the re-arm, and by
    // the accepting worker across the first arm. The one-shot event
    // already hands the connection from worker to worker one at a time,
    // but ThreadSanitizer cannot see that hand-off through the kernel;
    // the mutex makes it visible.
    std::mutex mu;
    int fd;
    std::unique_ptr<Session> session;
  };

  void WorkerLoop();
  // Accepts until EAGAIN and registers each connection one-shot.
  void AcceptAll();
  // Serves one request on `conn` (or the hello frame). Returns false when
  // the connection is done (EOF, error, protocol violation) and must be
  // retired.
  bool ServeOne(Conn* conn);
  void Retire(Conn* conn);
  // Arms `fd` for one EPOLLIN event (op: EPOLL_CTL_ADD or _MOD); `data`
  // identifies it in that event.
  bool Arm(int op, int fd, void* data);

  Database* db_;
  Options options_;
  unsigned worker_count_ = 0;
  // Created by Start() and closed by Stop() only after the workers are
  // joined, so workers read them without synchronisation. -1 = stopped.
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int stop_fd_ = -1;  // eventfd, level-triggered: wakes every worker
  uint16_t port_ = 0;
  std::atomic<uint64_t> connections_accepted_{0};

  std::mutex mu_;
  std::map<int, std::unique_ptr<Conn>> conns_;  // all live connections
  bool stopping_ = false;  // set by Stop(); new connections are refused

  std::vector<std::thread> worker_threads_;
};

}  // namespace bdbms

#endif  // BDBMS_NET_SERVER_H_
