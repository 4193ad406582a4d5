#ifndef BDBMS_STORAGE_PAGER_H_
#define BDBMS_STORAGE_PAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/page.h"
#include "wal/wal_env.h"

namespace bdbms {

// Logical I/O counters. The paper's quantitative claims (SBC-tree insertion
// I/Os, annotation retrieval cost) are about page I/Os, which are
// deterministic and machine-independent; benchmarks report these alongside
// wall time.
struct IoStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pages_allocated = 0;
  uint64_t fsyncs = 0;

  void Reset() { *this = IoStats(); }
};

// Page-granular storage manager. Two backends:
//  * in-memory (OpenInMemory): pages live in a vector; used by tests and
//    benchmarks, which care about the logical I/O counts, and
//  * paged (OpenPaged): a durable table heap split across a base file —
//    frozen at the last committed checkpoint — and a spill overlay file
//    that absorbs every post-checkpoint write (eviction write-back,
//    flushes). The spill is never fsynced: its contents are
//    reconstructible by WAL replay, and recovery discards it, so the
//    base stays exactly checkpoint-consistent — the precondition for
//    replaying the logical statement log on top of it.
//
// Checkpointing a paged pager is a two-phase protocol driven by the
// database's checkpoint sequence:
//  1. CheckpointPrepare(gen): spill pages that EXTEND the base (id >=
//     base frozen count) are written directly to the base and fsynced —
//     safe, because a crash truncates the base back to the count the
//     committed manifest records. Spill pages that OVERWRITE base pages
//     are appended to a redo journal (<base>.journal) carrying `gen`,
//     then fsynced. The spill map is untouched; reads keep resolving
//     through the overlay, so a failed prepare is retryable.
//  2. The database commits the manifest (checkpoint.bdb rename) naming
//     `gen` and the page count, then calls CheckpointCommit(): journal
//     pages are written home to the base in ascending page-id order (the
//     group-flush ordering), the base fsynced, the spill truncated, and
//     the journal deleted.
// A crash between rename and commit leaves a journal whose gen matches
// the manifest; RecoverPagedHeap re-applies it idempotently. A journal
// from a failed prepare has a gen the manifest never names and is
// discarded.
//
// Not thread-safe; callers (HeapFile) serialize access.
class Pager {
 public:
  // In-memory pager.
  Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  // Creates a fresh in-memory pager.
  static std::unique_ptr<Pager> OpenInMemory();

  // Opens (creating if needed) a paged base file + fresh spill overlay at
  // `path` / `path`.spill. An existing spill is truncated: its contents
  // belong to a previous incarnation and are rebuilt by WAL replay.
  // Callers recovering after a crash run RecoverPagedHeap first.
  static Result<std::unique_ptr<Pager>> OpenPaged(WalEnv* env,
                                                  const std::string& path);

  // Repairs `path` to the state of the committed checkpoint that recorded
  // generation `gen` and `page_count` pages: applies a leftover journal
  // whose generation matches (a crash between manifest rename and
  // CheckpointCommit), discards one that does not (a failed prepare),
  // truncates provisional base extensions, and removes the spill overlay.
  static Status RecoverPagedHeap(WalEnv* env, const std::string& path,
                                 uint64_t gen, uint32_t page_count);

  static std::string SpillPath(const std::string& base_path) {
    return base_path + ".spill";
  }
  static std::string JournalPath(const std::string& base_path) {
    return base_path + ".journal";
  }

  // --- paged-mode checkpoint protocol (see class comment) ---------------
  Status CheckpointPrepare(uint64_t gen);
  Status CheckpointCommit();

  bool paged() const { return base_ != nullptr; }

  // Pages readable from the base file alone (frozen at the last committed
  // checkpoint; everything at or past this id lives in the spill).
  uint32_t base_page_count() const { return base_pages_; }

  // Spill pages that would overwrite base pages — the incremental
  // checkpoint's dirty-page set.
  uint32_t dirty_page_count() const;

  // Appends a zeroed page, returning its id.
  Result<PageId> AllocatePage();

  // Reads page `id` into `out`.
  Status ReadPage(PageId id, Page* out);

  // Writes `page` at `id`.
  Status WritePage(PageId id, const Page& page);

  uint32_t page_count() const { return page_count_; }

  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

  // Total bytes occupied (page_count * kPageSize).
  uint64_t SizeBytes() const {
    return static_cast<uint64_t>(page_count_) * kPageSize;
  }

 private:
  Pager(WalEnv* env, std::string path, std::unique_ptr<PageFile> base,
        std::unique_ptr<PageFile> spill, uint32_t base_pages);

  // Routes a page image to the spill overlay, reusing the page's slot if
  // it already has one.
  Status SpillWrite(PageId id, const Page& page);

  uint32_t page_count_ = 0;
  std::vector<std::unique_ptr<Page>> mem_pages_;
  IoStats stats_;

  // Paged backend.
  WalEnv* env_ = nullptr;
  std::string path_;
  std::unique_ptr<PageFile> base_;
  std::unique_ptr<PageFile> spill_;
  uint32_t base_pages_ = 0;
  std::map<PageId, uint32_t> spill_map_;  // page id -> spill slot
  uint32_t spill_slots_ = 0;
};

}  // namespace bdbms

#endif  // BDBMS_STORAGE_PAGER_H_
