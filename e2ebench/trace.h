#ifndef BDBMS_E2EBENCH_TRACE_H_
#define BDBMS_E2EBENCH_TRACE_H_

// Spans recorded by the benchmark around its calls into the engine's
// layers. A load thread points its spans at a buffer, starts one trace per
// operation, and every ScopedSpan opened on that thread while the
// operation runs becomes a child of the innermost open span — including
// the spans TimingWalEnv and the wrapped dependency procedure open from
// inside Session::Execute, which runs on the calling thread. Threads with
// no buffer record nothing, so the same code runs untraced.

#include <cstdint>
#include <string>
#include <vector>

#include "wal/wal_env.h"

namespace e2e {

enum class SpanKind : uint8_t {
  kOp,            // one benchmark operation (the trace root)
  kParse,         // sql: ParseStatement on the statement text
  kExecute,       // core: Session::Execute
  kExplain,       // plan: Session::Execute("EXPLAIN <stmt>")
  kExplainParse,  // plan: ParseStatement("EXPLAIN <stmt>")
  kWalAppend,     // wal: AppendFile::Append
  kWalSync,       // wal: AppendFile::Sync
  kPageRead,      // storage: heap PageFile::Read
  kPageWrite,     // storage: heap PageFile::Write
  kPageSync,      // storage: heap PageFile::Sync
  kRename,        // wal: WalEnv::RenameFile (checkpoint commit point)
  kProcedure,     // dep: the dependency procedure P
};
inline constexpr size_t kNumSpanKinds = 12;

const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t trace = 0;   // operation id
  uint32_t id = 0;      // 1-based within the trace
  uint32_t parent = 0;  // 0 for the trace root
  SpanKind kind = SpanKind::kOp;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// steady_clock nanoseconds.
int64_t NowNs();

// Directs the calling thread's spans into `buffer` (null stops recording).
void RecordSpansInto(std::vector<Span>* buffer);

// Starts trace `id` on the calling thread; span ids restart at 1.
void StartTrace(uint64_t id);

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  SpanKind kind_;
  uint32_t id_ = 0;
  uint32_t parent_ = 0;
  int64_t start_ns_ = 0;
};

// "" when every span lies inside its parent and the durations of each
// span's direct children sum to no more than its own; else the first
// violation.
std::string CheckNesting(std::vector<Span> spans);

// Writes `header` (one JSON object) and then one JSON object per span,
// one per line. Returns false on an I/O error.
bool WriteTrace(const std::string& path, const std::string& header,
                const std::vector<Span>& spans);

// The default POSIX environment with spans around WAL appends and fsyncs,
// heap page reads, writes and fsyncs, and renames.
class TimingWalEnv : public bdbms::WalEnv {
 public:
  bdbms::Result<std::unique_ptr<bdbms::AppendFile>> OpenAppend(
      const std::string& path) override;
  bdbms::Result<std::unique_ptr<bdbms::PageFile>> OpenPageFile(
      const std::string& path) override;
  bdbms::Status RenameFile(const std::string& from,
                           const std::string& to) override;
};

}  // namespace e2e

#endif  // BDBMS_E2EBENCH_TRACE_H_
