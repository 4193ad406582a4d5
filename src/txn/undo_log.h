#ifndef BDBMS_TXN_UNDO_LOG_H_
#define BDBMS_TXN_UNDO_LOG_H_

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace bdbms {

// Transaction-local undo log of logical compensation records for the
// state that has no MVCC versions: catalog entries, table/index/
// annotation-table storage objects (create/drop), annotation archive
// flags, grants and principals, the approval log, dependency rules and
// outdated bits, and the deletion log. Row and annotation writes are not
// here — they roll back by discarding the transaction's uncommitted
// versions (MvccWriter).
//
// While recording, each of those mutation paths pushes a closure that
// undoes exactly one primitive effect. Rollback applies the closures
// newest-first.
//
// MarkPoint()/RollbackTo() give statement-level savepoints inside a
// transaction: a failed statement unwinds to its own mark and the
// transaction stays alive. Recording is suppressed while a rollback is in
// flight so compensations do not record compensations of themselves.
class UndoLog {
 public:
  using Action = std::function<void()>;
  using Mark = size_t;

  // Starts capturing compensation records. Idempotent.
  void Begin() { recording_ = true; }

  // Stops capturing and discards everything recorded. Called on commit
  // (effects are now journaled) and after a completed rollback.
  void Stop() {
    recording_ = false;
    actions_.clear();
  }

  // True when mutation paths should push compensation records.
  bool recording() const { return recording_ && !rolling_back_; }

  // Savepoint for the statement about to run.
  Mark MarkPoint() const { return actions_.size(); }

  // Pushes one compensation record. `what` names the forward effect for
  // diagnostics. No-op unless recording.
  void Record(std::string what, Action action) {
    if (!recording()) return;
    actions_.push_back({std::move(what), std::move(action)});
  }

  // Applies and pops every record newer than `mark`, newest first.
  void RollbackTo(Mark mark) {
    rolling_back_ = true;
    while (actions_.size() > mark) {
      actions_.back().undo();
      actions_.pop_back();
    }
    rolling_back_ = false;
  }

  // Applies every record and stops recording.
  void RollbackAll() {
    RollbackTo(0);
    Stop();
  }

  size_t size() const { return actions_.size(); }

 private:
  struct Entry {
    std::string what;
    Action undo;
  };

  std::vector<Entry> actions_;
  bool recording_ = false;
  bool rolling_back_ = false;
};

}  // namespace bdbms

#endif  // BDBMS_TXN_UNDO_LOG_H_
