#ifndef BDBMS_WAL_WAL_H_
#define BDBMS_WAL_WAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "wal/wal_env.h"

namespace bdbms {

// Id counters captured for replay: every user table's next_row_id and
// every annotation table's next_id, by name. Aborted concurrent
// transactions burn ids without leaving log entries, so replay must
// restore the counters explicitly to reproduce ids bit for bit.
struct WalIdBases {
  std::vector<std::pair<std::string, uint64_t>> rows = {};
  std::vector<std::pair<std::string, uint64_t>> annotations = {};

  bool operator==(const WalIdBases&) const = default;
};

// One committed mutating A-SQL statement, as journaled. Replaying
// statements in lsn order with the recorded user and logical-clock value
// rebuilds the entire engine state deterministically: every timestamp,
// annotation id and approval op-id the engine hands out comes from
// sequential counters seeded by the clock and the statement order.
struct WalStatement {
  uint64_t lsn = 0;    // strictly increasing, 1-based
  uint64_t clock = 0;  // LogicalClock::Peek() before the statement ran
  std::string user;    // issuing principal
  std::string sql;     // original statement text, re-parsed on replay
  // The CSN the statement read at; kLatestCsn when it ran escalated and
  // read the latest state.
  uint64_t snapshot = 0;
  WalIdBases bases = {};  // captured before the statement ran

  bool operator==(const WalStatement&) const = default;
};

// One committed transaction, autocommit or explicit: the unit the log
// appends, checksums and recovers all or nothing. The WAL never sees
// uncommitted work; a transaction's frame is appended at its commit.
struct WalFrame {
  // Commit CSN, 0 exactly when the transaction wrote no versions.
  // Journaling the CSN (instead of re-deriving it at replay) keeps
  // visibility decisions bit-identical even when aborted transactions
  // burned CSN-free txn ids in between.
  uint64_t csn = 0;
  std::vector<WalStatement> statements = {};  // never empty
  // Explicit transactions only: the id counters as of COMMIT, which
  // replay applies as a max-advance after the statements.
  WalIdBases end_bases = {};

  bool operator==(const WalFrame&) const = default;
};

// On-disk framing of one frame:
//
//   u32 crc     CRC-32 of the len field + payload
//   u32 len     payload length in bytes
//   payload     u8 format, u64 csn, u32 n, n x statement, end bases
//   statement   u64 lsn, u64 clock, str user, str sql, u64 snapshot, bases
//   bases       u32 n, n x (str table, u64 next row id),
//               u32 n, n x (str annotation table, u64 next id)
//
// (serializer.h). The crc covers len, so a torn length prefix is
// indistinguishable from a torn payload: both fail the checksum and
// recovery cuts the log there.
std::string EncodeWalFrame(const WalFrame& frame);

// What a log scan found. `frames` is the longest prefix of intact
// frames; `valid_bytes` is where that prefix ends in the file. Anything
// after it (a torn append, a corrupted frame) is reported via
// `tail_discarded` and must be truncated away before appending again.
struct WalScan {
  std::vector<WalFrame> frames;
  uint64_t valid_bytes = 0;
  bool tail_discarded = false;
};

// Decodes `data` (a whole WAL file) into the longest valid frame prefix.
// Never fails on torn/corrupt tails — that is the expected crash shape —
// but does fail with Corruption on a CRC-valid frame that does not
// decode as exactly the layout above, and on non-monotonic LSNs: both
// indicate a foreign or mixed-up file rather than a crash.
Result<WalScan> ScanWal(std::string_view data);

// Appends CRC-framed transaction frames to the log file. Append() hands
// the bytes to the OS; Sync() is the commit point. The Database layer
// decides the fsync cadence (every commit, or batched group commit).
class WalWriter {
 public:
  static Result<std::unique_ptr<WalWriter>> Open(WalEnv* env,
                                                 const std::string& path);

  Status Append(const WalFrame& frame);
  Status Sync();

  // Frames appended since the last successful Sync().
  uint64_t unsynced() const { return unsynced_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t syncs() const { return syncs_; }

 private:
  explicit WalWriter(std::unique_ptr<AppendFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<AppendFile> file_;
  uint64_t unsynced_ = 0;
  uint64_t bytes_appended_ = 0;
  uint64_t syncs_ = 0;
};

}  // namespace bdbms

#endif  // BDBMS_WAL_WAL_H_
