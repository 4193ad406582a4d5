#ifndef BDBMS_AUTH_APPROVAL_H_
#define BDBMS_AUTH_APPROVAL_H_

#include <map>
#include <string>
#include <vector>

#include "auth/access_control.h"
#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/result.h"
#include "table/table.h"

namespace bdbms {

// Content-based approval (paper §6, Figure 11). When switched on for a
// table (optionally a column subset), every INSERT/UPDATE/DELETE is
// executed immediately — "users may be allowed to view the data pending
// its approval" — but also logged together with an automatically generated
// inverse statement. The designated approver later approves (log entry
// settles) or disapproves (the inverse runs, erasing the operation's
// effect; dependency tracking then invalidates downstream data).

// START/STOP CONTENT APPROVAL state for one table.
struct ApprovalConfig {
  bool enabled = false;
  ColumnMask columns = 0;  // monitored columns (UPDATEs only)
  std::string approver;    // user or group allowed to approve/disapprove
};

enum class OpType : uint8_t { kInsert = 0, kUpdate = 1, kDelete = 2 };
std::string_view OpTypeName(OpType t);

enum class OpState : uint8_t { kPending = 0, kApproved = 1, kDisapproved = 2 };

// One logged update operation with everything needed to undo it.
struct LoggedOperation {
  uint64_t op_id = 0;
  OpType type = OpType::kInsert;
  OpState state = OpState::kPending;
  std::string table;
  RowId row = 0;
  std::string issuer;
  uint64_t timestamp = 0;
  Row old_row;  // pre-image (UPDATE, DELETE)
  Row new_row;  // post-image (INSERT, UPDATE)
  // Human-readable auto-generated inverse statement, e.g.
  // "DELETE FROM Gene WHERE _rowid = 7".
  std::string inverse_sql;
};

struct MvccState;

// The approval log + configuration store.
class ApprovalManager {
 public:
  ApprovalManager(Catalog* catalog, AccessControl* access, LogicalClock* clock)
      : catalog_(catalog), access_(access), clock_(clock) {}

  ApprovalManager(const ApprovalManager&) = delete;
  ApprovalManager& operator=(const ApprovalManager&) = delete;

  // Transactions: while a writer is installed, config changes, log
  // appends and settle-state flips push compensations restoring the prior
  // state.
  void set_mvcc(MvccState* mvcc) { mvcc_ = mvcc; }

  // START CONTENT APPROVAL ON t [COLUMNS c...] APPROVED BY who.
  // Empty `columns` monitors the whole table.
  Status StartContentApproval(const std::string& table,
                              const std::vector<std::string>& columns,
                              const std::string& approver);

  // STOP CONTENT APPROVAL ON t [COLUMNS c...]. With columns, only those
  // columns stop being monitored; without, monitoring is switched off.
  Status StopContentApproval(const std::string& table,
                             const std::vector<std::string>& columns);

  // Should this operation be logged? INSERT/DELETE are monitored whenever
  // approval is on; UPDATE only when it touches a monitored column.
  bool ShouldLog(const std::string& table, OpType type,
                 ColumnMask touched) const;

  // Appends a pending entry (the operation itself has already executed).
  Result<uint64_t> LogOperation(OpType type, const std::string& table,
                                RowId row, const std::string& issuer,
                                Row old_row, Row new_row);

  // Pending entries, oldest first; filtered by table when given.
  std::vector<const LoggedOperation*> Pending(
      const std::string& table = "") const;

  // Marks the operation approved. `principal` must match the table's
  // APPROVED BY user/group (superusers always may).
  Status Approve(uint64_t op_id, const std::string& principal);

  // Disapproves: executes the inverse statement on the catalog's table,
  // removing the operation's effect, and marks the entry. Returns the
  // settled entry so the caller can run dependency invalidation on the
  // touched cells.
  Result<LoggedOperation> Disapprove(uint64_t op_id,
                                     const std::string& principal);

  uint64_t log_size() const { return log_.size(); }

  // --- checkpoint serialization -------------------------------------------
  // Full state enumeration: configs (including switched-off ones, which
  // keep their column/approver fields) and the complete operation log,
  // settled entries included — after recovery, log() still lists them and
  // settling one again fails "already settled", not NotFound.
  const std::map<std::string, ApprovalConfig>& configs() const {
    return configs_;
  }
  const std::map<uint64_t, LoggedOperation>& log() const { return log_; }
  uint64_t next_op_id() const { return next_op_id_; }

  // Recovery inverses. RestoreOperation keeps next_op_id_ past every
  // restored id; RestoreConfig overwrites whatever is there.
  void RestoreConfig(const std::string& table, ApprovalConfig config) {
    configs_[table] = std::move(config);
  }
  Status RestoreOperation(LoggedOperation op);
  void RestoreNextOpId(uint64_t next) {
    if (next > next_op_id_) next_op_id_ = next;
  }

 private:
  Status CheckApprover(const LoggedOperation& op,
                       const std::string& principal) const;

  // Renders the inverse statement string for the log.
  Result<std::string> BuildInverseSql(OpType type, const std::string& table,
                                      RowId row, const Row& old_row) const;

  // Records a compensation restoring `table`'s config entry (or its
  // absence) as of the call.
  void RecordConfigUndo(const std::string& table);

  Catalog* catalog_;
  AccessControl* access_;
  LogicalClock* clock_;
  std::map<std::string, ApprovalConfig> configs_;
  std::map<uint64_t, LoggedOperation> log_;
  uint64_t next_op_id_ = 1;
  MvccState* mvcc_ = nullptr;
};

}  // namespace bdbms

#endif  // BDBMS_AUTH_APPROVAL_H_
