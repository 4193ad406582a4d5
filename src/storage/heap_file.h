#ifndef BDBMS_STORAGE_HEAP_FILE_H_
#define BDBMS_STORAGE_HEAP_FILE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace bdbms {

// Record store over slotted pages. Records are arbitrary byte strings;
// payloads larger than a page spill into a chain of overflow pages (long
// gene/protein sequences routinely exceed one page). Each HeapFile owns its
// own pager + buffer pool: the engine maps every table, annotation table
// and index to its own storage object, like one file per relation.
//
// Record ids are stable until the record is deleted; updates are performed
// by the table layer as delete + insert.
class HeapFile {
 public:
  // Fresh in-memory heap (tests, benchmarks).
  static Result<std::unique_ptr<HeapFile>> CreateInMemory(
      size_t pool_pages = 64);

  // Durable paged heap (base + spill overlay, see Pager::OpenPaged): pages
  // fault in through the buffer pool and evict under the `pool_pages`
  // budget (0 = unbounded). Callers needing crash recovery must run
  // Pager::RecoverPagedHeap on `path` before opening.
  static Result<std::unique_ptr<HeapFile>> OpenPaged(WalEnv* env,
                                                     const std::string& path,
                                                     size_t pool_pages);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  // Stores `payload`, returning its record id.
  Result<RecordId> Insert(std::string_view payload);

  // Fetches the payload at `rid`.
  Result<std::string> Read(RecordId rid) const;

  // Removes the record; overflow chains are recycled.
  Status Delete(RecordId rid);

  // Invokes `fn(rid, payload)` for every live record, in page order.
  // Stops early and propagates if `fn` returns a non-OK status.
  Status ForEach(
      const std::function<Status(RecordId, std::string_view)>& fn) const;

  // Paged-heap checkpoint protocol (see Pager): Prepare flushes the pool
  // and stages dirty pages durably; Commit writes them home after the
  // checkpoint manifest has renamed into place.
  Status CheckpointPrepare(uint64_t gen);
  Status CheckpointCommit();

  bool paged() const { return pager_->paged(); }
  uint32_t page_count() const { return pager_->page_count(); }

  uint64_t record_count() const { return record_count_; }

  // Storage footprint in bytes (all pages, including overflow).
  uint64_t SizeBytes() const { return pager_->SizeBytes(); }

  const IoStats& io_stats() const { return pager_->stats(); }
  IoStats& io_stats() { return pager_->stats(); }
  BufferPool* buffer_pool() { return pool_.get(); }

  // Copy of the buffer-pool counters, taken under the heap latch.
  BufferPoolStats buffer_stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pool_->stats();
  }

 private:
  HeapFile(std::unique_ptr<Pager> pager, size_t pool_pages);

  // Rebuilds free-space map, record count and overflow free list by
  // scanning all pages.
  Status Bootstrap();

  Result<PageId> FindPageWithSpace(uint32_t needed);
  Result<PageId> AllocateOverflowPage();

  // Read() body without taking mu_ (for callers already holding it).
  Result<std::string> ReadInternal(RecordId rid) const;

  // Writes `payload` into an overflow chain, returning the first page id.
  Result<PageId> WriteOverflowChain(std::string_view payload);
  Result<std::string> ReadOverflowChain(PageId first, uint64_t total_len) const;
  Status FreeOverflowChain(PageId first);

  std::unique_ptr<Pager> pager_;
  mutable std::unique_ptr<BufferPool> pool_;
  std::map<PageId, uint32_t> free_space_;  // heap pages -> free bytes
  std::vector<PageId> overflow_free_;      // recycled overflow pages
  uint64_t record_count_ = 0;
  // Serializes access to the buffer pool's replacement state, which
  // mutates even on reads. Lets the engine's reader/writer lock admit
  // concurrent read-only statements over one table safely.
  mutable std::mutex mu_;
};

}  // namespace bdbms

#endif  // BDBMS_STORAGE_HEAP_FILE_H_
