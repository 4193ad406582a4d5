#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/wire.h"

namespace bdbms {

namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Server::Server(Database* db, Options options)
    : db_(db), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (epoll_fd_ >= 0) {
    return Status::FailedPrecondition("server already started");
  }
  // Non-blocking listener: a worker accepts until EAGAIN on each listener
  // event, so one wakeup drains an accept burst.
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  // Closes everything opened so far; `s` is built before errno changes.
  auto fail = [&](Status s) {
    for (int* p : {&epoll_fd_, &stop_fd_}) {
      if (*p >= 0) ::close(*p);
      *p = -1;
    }
    ::close(fd);
    return s;
  };
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return fail(Status::InvalidArgument("bad listen address " +
                                        options_.host));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail(Errno("bind"));
  }
  if (::listen(fd, 256) < 0) return fail(Errno("listen"));
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    return fail(Errno("getsockname"));
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail(Errno("epoll_create1"));
  stop_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (stop_fd_ < 0) return fail(Errno("eventfd"));
  // The stop event stays level-triggered and is never consumed, so once
  // signalled every worker's epoll_wait returns it.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &stop_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev) < 0 ||
      !Arm(EPOLL_CTL_ADD, fd, &listen_fd_)) {
    return fail(Errno("epoll_ctl"));
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);

  worker_count_ = options_.workers;
  if (worker_count_ == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    worker_count_ = std::min(8u, std::max(2u, hw));
  }
  stopping_ = false;  // no worker runs yet
  worker_threads_.reserve(worker_count_);
  for (unsigned i = 0; i < worker_count_; ++i) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void Server::Stop() {
  if (epoll_fd_ < 0) return;
  (void)::eventfd_write(stop_fd_, 1);
  {
    // Unblock any worker mid-ReadFrame/WriteFrame on a live connection.
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (auto& [fd, conn] : conns_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();
  // Retire survivors: destroying the Session rolls back any open
  // transaction and releases its snapshot.
  std::map<int, std::unique_ptr<Conn>> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(conns_);
  }
  for (auto& [fd, conn] : leftovers) {
    conn.reset();
    ::close(fd);
  }
  // Closed last: while any worker runs, a closed fd number could be
  // reused by a connection it accepts.
  for (int* p : {&listen_fd_, &epoll_fd_, &stop_fd_}) {
    ::close(*p);
    *p = -1;
  }
}

bool Server::Arm(int op, int fd, void* data) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.ptr = data;
  return ::epoll_ctl(epoll_fd_, op, fd, &ev) == 0;
}

void Server::WorkerLoop() {
  // One event per wait: a worker never holds readiness that belongs to a
  // connection another worker could be serving.
  epoll_event ev{};
  for (;;) {
    int n = ::epoll_wait(epoll_fd_, &ev, 1, -1);
    if (n < 0 && errno != EINTR) return;
    if (n <= 0) continue;
    if (ev.data.ptr == &stop_fd_) return;
    if (ev.data.ptr == &listen_fd_) {
      AcceptAll();
      continue;
    }
    // A hung-up connection is readable too: ServeOne discovers EOF, so a
    // dropped client is retired — and its transaction rolled back — on
    // this same wakeup.
    auto* conn = static_cast<Conn*>(ev.data.ptr);
    std::unique_lock<std::mutex> lock(conn->mu);
    if (ServeOne(conn) && Arm(EPOLL_CTL_MOD, conn->fd, conn)) continue;
    lock.unlock();
    Retire(conn);
  }
}

void Server::AcceptAll() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN drains the burst; fatal stops too
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // Request/response traffic is latency-bound small frames; without
    // TCP_NODELAY every response can stall ~40ms behind a delayed ACK.
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn* conn = nullptr;
    {
      // Stop() either sees this connection in its shutdown pass or this
      // sees stopping_.
      std::lock_guard<std::mutex> lock(mu_);
      if (!stopping_) {
        conn = conns_.emplace(fd, std::make_unique<Conn>(fd))
                   .first->second.get();
      }
    }
    if (conn == nullptr) {
      ::close(fd);
      return;  // stopping: leave the listener disarmed
    }
    // In conns_ before it is armed, since its first event may reach
    // another worker at once, which may retire it. Holding conn->mu across
    // the arm publishes the new Conn to that worker.
    std::unique_lock<std::mutex> conn_lock(conn->mu);
    if (Arm(EPOLL_CTL_ADD, fd, conn)) continue;
    conn_lock.unlock();
    Retire(conn);
  }
  (void)Arm(EPOLL_CTL_MOD, listen_fd_, &listen_fd_);
}

bool Server::ServeOne(Conn* conn) {
  // Hello frame carries the user; everything after is one statement per
  // frame, answered in order. epoll only guarantees the first byte is
  // ready — the blocking ReadFrame absorbs the rest of the frame, which
  // bounds a worker's stall at one in-flight frame.
  if (!conn->session) {
    auto hello = ReadFrame(conn->fd);
    if (!hello.ok()) return false;
    conn->session = std::make_unique<Session>(db_, *hello);
    return true;
  }
  auto request = ReadFrame(conn->fd);
  if (!request.ok()) return false;  // disconnect rolls back via ~Session
  std::string response;
  auto result = conn->session->Execute(*request);
  if (result.ok()) {
    response.push_back(static_cast<char>(kWireOk));
    response += result->ToString();
  } else {
    response.push_back(static_cast<char>(kWireError));
    response += result.status().ToString();
  }
  return WriteFrame(conn->fd, response).ok();
}

void Server::Retire(Conn* conn) {
  int fd = conn->fd;
  std::unique_ptr<Conn> owned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(fd);
    if (it != conns_.end()) {
      owned = std::move(it->second);
      conns_.erase(it);
    }
  }
  owned.reset();  // ~Session rolls back an open transaction
  ::close(fd);
}

}  // namespace bdbms
