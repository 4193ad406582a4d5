#ifndef BDBMS_COMMON_RW_LATCH_H_
#define BDBMS_COMMON_RW_LATCH_H_

#include <condition_variable>
#include <mutex>

namespace bdbms {

// A reader/writer latch that prefers writers: once a writer waits, new
// readers queue behind it, so a stream of overlapping readers cannot
// starve it (glibc's std::shared_mutex prefers readers). It is not
// thread-affine — a hold may be released by another thread than the one
// that took it, which std::shared_mutex forbids. It meets the standard
// Lockable and SharedLockable requirements, so std::unique_lock and
// std::shared_lock work over it.
class RwLatch {
 public:
  void lock_shared() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !exclusive_ && waiting_exclusive_ == 0; });
    ++shared_;
  }

  void unlock_shared() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--shared_ == 0) cv_.notify_all();
  }

  void lock() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_exclusive_;
    cv_.wait(lock, [&] { return !exclusive_ && shared_ == 0; });
    --waiting_exclusive_;
    exclusive_ = true;
  }

  void unlock() {
    std::lock_guard<std::mutex> lock(mu_);
    exclusive_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int shared_ = 0;
  int waiting_exclusive_ = 0;
  bool exclusive_ = false;
};

}  // namespace bdbms

#endif  // BDBMS_COMMON_RW_LATCH_H_
