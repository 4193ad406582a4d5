#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>

namespace e2e {

namespace {

struct ThreadTrace {
  std::vector<Span>* buffer = nullptr;
  uint64_t trace = 0;
  uint32_t next_id = 0;
  uint32_t current = 0;  // innermost open span
};
thread_local ThreadTrace tls;

class TimingAppendFile : public bdbms::AppendFile {
 public:
  explicit TimingAppendFile(std::unique_ptr<bdbms::AppendFile> real)
      : real_(std::move(real)) {}

  bdbms::Status Append(std::string_view data) override {
    ScopedSpan span(SpanKind::kWalAppend);
    return real_->Append(data);
  }
  bdbms::Status Sync() override {
    ScopedSpan span(SpanKind::kWalSync);
    return real_->Sync();
  }

 private:
  std::unique_ptr<bdbms::AppendFile> real_;
};

class TimingPageFile : public bdbms::PageFile {
 public:
  explicit TimingPageFile(std::unique_ptr<bdbms::PageFile> real)
      : real_(std::move(real)) {}

  bdbms::Status Read(uint64_t offset, size_t n, uint8_t* out) override {
    ScopedSpan span(SpanKind::kPageRead);
    return real_->Read(offset, n, out);
  }
  bdbms::Status Write(uint64_t offset, const uint8_t* data,
                      size_t n) override {
    ScopedSpan span(SpanKind::kPageWrite);
    return real_->Write(offset, data, n);
  }
  bdbms::Status Sync() override {
    ScopedSpan span(SpanKind::kPageSync);
    return real_->Sync();
  }
  bdbms::Status Truncate(uint64_t size) override {
    return real_->Truncate(size);
  }
  bdbms::Result<uint64_t> Size() override { return real_->Size(); }

 private:
  std::unique_ptr<bdbms::PageFile> real_;
};

}  // namespace

const char* SpanKindName(SpanKind kind) {
  static constexpr const char* kNames[kNumSpanKinds] = {
      "op",         "sql.parse",     "core.execute", "plan.explain",
      "plan.explain_parse", "wal.append", "wal.fsync", "storage.page_read",
      "storage.page_write", "storage.page_sync", "wal.rename",
      "dep.procedure"};
  return kNames[static_cast<size_t>(kind)];
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RecordSpansInto(std::vector<Span>* buffer) { tls.buffer = buffer; }

void StartTrace(uint64_t id) {
  tls.trace = id;
  tls.next_id = 0;
  tls.current = 0;
}

ScopedSpan::ScopedSpan(SpanKind kind)
    : active_(tls.buffer != nullptr), kind_(kind) {
  if (!active_) return;
  id_ = ++tls.next_id;
  parent_ = tls.current;
  tls.current = id_;
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const int64_t end = NowNs();
  tls.current = parent_;
  if (tls.buffer != nullptr) {
    tls.buffer->push_back({tls.trace, id_, parent_, kind_, start_ns_, end});
  }
}

std::string CheckNesting(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.trace != b.trace ? a.trace < b.trace : a.id < b.id;
  });
  std::map<uint32_t, const Span*> by_id;
  std::map<uint32_t, int64_t> child_sum;
  auto verify = [&]() -> std::string {
    for (const auto& [id, sum] : child_sum) {
      const Span* parent = by_id.at(id);
      if (sum > parent->end_ns - parent->start_ns) {
        return "trace " + std::to_string(parent->trace) + ": children of " +
               SpanKindName(parent->kind) + " sum past their parent";
      }
    }
    return "";
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0 && s.trace != spans[i - 1].trace) {
      if (std::string err = verify(); !err.empty()) return err;
      by_id.clear();
      child_sum.clear();
    }
    by_id[s.id] = &s;
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);  // parents open before their children
    if (it == by_id.end() || s.start_ns < it->second->start_ns ||
        s.end_ns > it->second->end_ns) {
      return "trace " + std::to_string(s.trace) + ": " + SpanKindName(s.kind) +
             " outside its parent";
    }
    child_sum[s.parent] += s.end_ns - s.start_ns;
  }
  return verify();
}

bool WriteTrace(const std::string& path, const std::string& header,
                const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"trace\":%llu,\"span\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.trace), s.id, s.parent,
                 SpanKindName(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

bdbms::Result<std::unique_ptr<bdbms::AppendFile>> TimingWalEnv::OpenAppend(
    const std::string& path) {
  auto file = WalEnv::OpenAppend(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<bdbms::AppendFile>(
      new TimingAppendFile(std::move(*file)));
}

bdbms::Result<std::unique_ptr<bdbms::PageFile>> TimingWalEnv::OpenPageFile(
    const std::string& path) {
  auto file = WalEnv::OpenPageFile(path);
  if (!file.ok()) return file.status();
  // Only the paged table heaps are storage; the checkpoint image written
  // through the same interface is counted as checkpoint work by the WAL
  // counters instead.
  if (path.find("/heap/") == std::string::npos) return file;
  return std::unique_ptr<bdbms::PageFile>(new TimingPageFile(std::move(*file)));
}

bdbms::Status TimingWalEnv::RenameFile(const std::string& from,
                                       const std::string& to) {
  ScopedSpan span(SpanKind::kRename);
  return WalEnv::RenameFile(from, to);
}

}  // namespace e2e
