#ifndef BDBMS_STORAGE_BUFFER_POOL_H_
#define BDBMS_STORAGE_BUFFER_POOL_H_

#include <deque>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace bdbms {

class BufferPool;

// RAII pin on a buffered page. While alive the frame cannot be evicted.
// Obtain via BufferPool::Fetch / BufferPool::New; mark dirty after writes.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, size_t frame, PageId id)
      : pool_(pool), frame_(frame), id_(id) {}
  ~PageHandle();

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  PageHandle(PageHandle&& other) noexcept { MoveFrom(std::move(other)); }
  PageHandle& operator=(PageHandle&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }

  Page* page();

  // Flags the frame so the buffer pool writes it back before eviction.
  void MarkDirty();

  // Explicitly unpins; the handle becomes invalid.
  void Release();

 private:
  void MoveFrom(PageHandle&& other) {
    pool_ = other.pool_;
    frame_ = other.frame_;
    id_ = other.id_;
    other.pool_ = nullptr;
  }

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId id_ = kInvalidPageId;
};

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t readahead = 0;  // always 0; kept for e2ebench's readahead metric

  void Reset() { *this = BufferPoolStats(); }
};

// LRU buffer pool over a Pager. Frames are allocated lazily up to
// `capacity` (0 = unbounded); once full, unpinned least-recently-used
// frames are evicted, writing dirty pages back first. Single-threaded.
class BufferPool {
 public:
  // `capacity` = max number of page frames kept in memory; 0 = unbounded.
  BufferPool(Pager* pager, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Pins page `id`, reading it from the pager on a miss.
  Result<PageHandle> Fetch(PageId id);

  // Allocates a fresh zeroed page and pins it (already marked dirty).
  Result<PageHandle> New();

  // Writes back all dirty frames.
  Status FlushAll();

  size_t capacity() const { return capacity_; }

  // Frames currently allocated (resident pages + free-listed frames).
  size_t frame_count() const { return frames_.size(); }
  const BufferPoolStats& stats() const { return stats_; }
  BufferPoolStats& stats() { return stats_; }
  Pager* pager() { return pager_; }

 private:
  friend class PageHandle;

  struct Frame {
    Page page;
    PageId id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    // Valid iff pin_count == 0 and resident.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  // Finds a frame to host a new page: free-listed, lazily grown while
  // under capacity, else an unpinned LRU victim (dirty pages write back
  // first). Fails if every frame is pinned.
  Result<size_t> GetFreeFrame();

  void Unpin(size_t frame);
  void MarkDirty(size_t frame) { frames_[frame].dirty = true; }

  Pager* pager_;
  size_t capacity_;  // 0 = unbounded
  // deque: HeapFile holds raw Page* across nested pool calls (overflow
  // chains), so lazy growth must not move existing frames.
  std::deque<Frame> frames_;
  std::unordered_map<PageId, size_t> page_to_frame_;
  std::list<size_t> lru_;          // front = most recent
  std::vector<size_t> free_list_;  // allocated frames holding no page
  BufferPoolStats stats_;
};

}  // namespace bdbms

#endif  // BDBMS_STORAGE_BUFFER_POOL_H_
