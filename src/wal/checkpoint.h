#ifndef BDBMS_WAL_CHECKPOINT_H_
#define BDBMS_WAL_CHECKPOINT_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "wal/wal_env.h"

namespace bdbms {

// Durable-directory layout (Database::Open rooted at some dir):
//   dir/wal.log             CRC-framed statement log (wal.h)
//   dir/checkpoint.bdb      newest committed snapshot, page-formatted
//   dir/checkpoint.bdb.tmp  in-flight snapshot; ignored + removed on open
inline constexpr const char* kWalFileName = "wal.log";
inline constexpr const char* kCheckpointFileName = "checkpoint.bdb";
inline constexpr const char* kCheckpointTmpFileName = "checkpoint.bdb.tmp";

// Checkpoint file layout, written and read through the WalEnv:
//   page 0:   magic "BDBMSCP1", u32 format version, u64 payload length,
//             u32 CRC-32 of the payload
//   page 1..: payload bytes, kPageSize per page
// Commit protocol: write + fsync checkpoint.bdb.tmp, rename over
// checkpoint.bdb, fsync the directory. A crash before the rename leaves
// the previous checkpoint intact (the .tmp is garbage-collected on open);
// the rename itself is the atomic commit point.
Status WriteCheckpointFile(WalEnv* env, const std::string& dir,
                           std::string_view payload);

// Reads and validates dir/checkpoint.bdb. Corruption (bad magic, impossible
// length, CRC mismatch, torn file) is an error: a checkpoint that was
// acknowledged must not be silently dropped, unlike a torn WAL tail.
Result<std::string> ReadCheckpointFile(WalEnv* env, const std::string& dir);

}  // namespace bdbms

#endif  // BDBMS_WAL_CHECKPOINT_H_
