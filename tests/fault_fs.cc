#include "fault_fs.h"

#include <algorithm>

namespace bdbms {
namespace testutil {

FaultAppendFile::FaultAppendFile(FaultEnv* env,
                                 std::unique_ptr<AppendFile> real)
    : env_(env), real_(std::move(real)) {
  env_->open_files_.push_back(this);
}

FaultAppendFile::~FaultAppendFile() {
  auto& files = env_->open_files_;
  files.erase(std::remove(files.begin(), files.end(), this), files.end());
}

Status FaultAppendFile::Append(std::string_view data) {
  if (env_->crashed_) return Status::IoError("simulated crash");
  ++env_->appends;
  if (env_->append_budget >= 0) {
    if (static_cast<int64_t>(data.size()) > env_->append_budget) {
      // Short write: the in-budget prefix lands, the rest is torn off.
      std::string_view prefix = data.substr(
          0, static_cast<size_t>(env_->append_budget));
      env_->append_budget = 0;
      if (!prefix.empty()) {
        if (env_->hold_unsynced) {
          buffer_.append(prefix);
        } else {
          (void)real_->Append(prefix);
        }
      }
      return Status::IoError("injected short write");
    }
    env_->append_budget -= static_cast<int64_t>(data.size());
  }
  if (env_->hold_unsynced) {
    buffer_.append(data);
    return Status::Ok();
  }
  return real_->Append(data);
}

Status FaultAppendFile::Sync() {
  if (env_->crashed_) return Status::IoError("simulated crash");
  if (env_->sync_budget == 0) return Status::IoError("injected fsync failure");
  if (env_->sync_budget > 0) --env_->sync_budget;
  if (!buffer_.empty()) {
    BDBMS_RETURN_IF_ERROR(real_->Append(buffer_));
    buffer_.clear();
  }
  return real_->Sync();
}

void FaultEnv::Crash() {
  crashed_ = true;
  for (FaultAppendFile* f : open_files_) {
    f->buffer_.clear();  // the page cache dies with the machine
  }
}

Result<std::unique_ptr<AppendFile>> FaultEnv::OpenAppend(
    const std::string& path) {
  if (crashed_) return Status::IoError("simulated crash");
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<AppendFile> real,
                         WalEnv::OpenAppend(path));
  return std::unique_ptr<AppendFile>(
      new FaultAppendFile(this, std::move(real)));
}

Status FaultPageFile::Read(uint64_t offset, size_t n, uint8_t* out) {
  if (env_->crashed_) return Status::IoError("simulated crash");
  return real_->Read(offset, n, out);
}

Status FaultPageFile::Write(uint64_t offset, const uint8_t* data, size_t n) {
  if (env_->crashed_) return Status::IoError("simulated crash");
  if (env_->page_write_budget >= 0) {
    if (static_cast<int64_t>(n) > env_->page_write_budget) {
      // Torn page: the in-budget prefix lands, the rest never does.
      size_t prefix = static_cast<size_t>(env_->page_write_budget);
      env_->page_write_budget = 0;
      if (prefix > 0) (void)real_->Write(offset, data, prefix);
      return Status::IoError("injected torn page write");
    }
    env_->page_write_budget -= static_cast<int64_t>(n);
  }
  return real_->Write(offset, data, n);
}

Status FaultPageFile::Sync() {
  if (env_->crashed_) return Status::IoError("simulated crash");
  if (env_->page_sync_budget == 0) {
    return Status::IoError("injected page fsync failure");
  }
  if (env_->page_sync_budget > 0) --env_->page_sync_budget;
  return real_->Sync();
}

Status FaultPageFile::Truncate(uint64_t size) {
  if (env_->crashed_) return Status::IoError("simulated crash");
  return real_->Truncate(size);
}

Result<uint64_t> FaultPageFile::Size() {
  if (env_->crashed_) return Status::IoError("simulated crash");
  return real_->Size();
}

Result<std::unique_ptr<PageFile>> FaultEnv::OpenPageFile(
    const std::string& path) {
  if (crashed_) return Status::IoError("simulated crash");
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> real,
                         WalEnv::OpenPageFile(path));
  return std::unique_ptr<PageFile>(new FaultPageFile(this, std::move(real)));
}

}  // namespace testutil
}  // namespace bdbms
