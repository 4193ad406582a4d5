#ifndef BDBMS_TESTS_FAULT_FS_H_
#define BDBMS_TESTS_FAULT_FS_H_

// Fault-injecting WalEnv for the crash tests: short writes that tear a
// record mid-append, fsync calls that start failing, and a
// hold-unsynced mode that models the OS page cache — appended bytes stay
// in memory until Sync() and are destroyed by Crash(), which is how a
// power failure treats data that was written but never fsynced.

#include <memory>
#include <string>
#include <vector>

#include "wal/wal_env.h"

namespace bdbms {
namespace testutil {

class FaultAppendFile;
class FaultPageFile;

class FaultEnv : public WalEnv {
 public:
  // -1 = unlimited. When a single Append would exceed the remaining
  // budget, only the in-budget prefix reaches storage and the call
  // returns IoError — a torn record, exactly what a crash mid-write
  // leaves behind.
  int64_t append_budget = -1;

  // -1 = never fail. Otherwise the number of Sync() calls that still
  // succeed; once spent, every Sync returns IoError (dying disk /
  // full filesystem).
  int64_t sync_budget = -1;

  // Model the page cache: Append buffers in memory, Sync flushes the
  // buffer to the real file and fsyncs it. Without this, appends reach
  // the file immediately (only Crash()-truncation tests need realism
  // beyond that).
  bool hold_unsynced = false;

  // Paged-heap faults (the eviction write-back / checkpoint page path).
  // -1 = unlimited bytes. When a single page Write would exceed the
  // remaining budget only the in-budget prefix lands — a torn page — and
  // the call returns IoError.
  int64_t page_write_budget = -1;

  // -1 = never fail. Otherwise the number of PageFile::Sync calls that
  // still succeed; once spent, every page fsync returns IoError.
  int64_t page_sync_budget = -1;

  // Append calls across every file this environment opened.
  uint64_t appends = 0;

  // Simulated power failure: every buffered-but-unsynced byte is gone and
  // all handles go dead (subsequent Append/Sync fail, which the Database
  // destructor ignores — a crashed process does not get to flush).
  void Crash();

  bool crashed() const { return crashed_; }

  Result<std::unique_ptr<AppendFile>> OpenAppend(
      const std::string& path) override;

  Result<std::unique_ptr<PageFile>> OpenPageFile(
      const std::string& path) override;

 private:
  friend class FaultAppendFile;
  friend class FaultPageFile;
  std::vector<FaultAppendFile*> open_files_;
  bool crashed_ = false;
};

class FaultAppendFile : public AppendFile {
 public:
  FaultAppendFile(FaultEnv* env, std::unique_ptr<AppendFile> real);
  ~FaultAppendFile() override;

  Status Append(std::string_view data) override;
  Status Sync() override;

 private:
  friend class FaultEnv;
  FaultEnv* env_;
  std::unique_ptr<AppendFile> real_;
  std::string buffer_;  // unsynced bytes in hold_unsynced mode
};

class FaultPageFile : public PageFile {
 public:
  FaultPageFile(FaultEnv* env, std::unique_ptr<PageFile> real)
      : env_(env), real_(std::move(real)) {}

  Status Read(uint64_t offset, size_t n, uint8_t* out) override;
  Status Write(uint64_t offset, const uint8_t* data, size_t n) override;
  Status Sync() override;
  Status Truncate(uint64_t size) override;
  Result<uint64_t> Size() override;

 private:
  FaultEnv* env_;
  std::unique_ptr<PageFile> real_;
};

}  // namespace testutil
}  // namespace bdbms

#endif  // BDBMS_TESTS_FAULT_FS_H_
