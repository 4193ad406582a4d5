#include "storage/buffer_pool.h"

namespace bdbms {

PageHandle::~PageHandle() { Release(); }

Page* PageHandle::page() { return &pool_->frames_[frame_].page; }

void PageHandle::MarkDirty() {
  if (pool_ != nullptr) pool_->MarkDirty(frame_);
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(Pager* pager, size_t capacity)
    : pager_(pager), capacity_(capacity) {}

Result<PageHandle> BufferPool::Fetch(PageId id) {
  auto it = page_to_frame_.find(id);
  if (it != page_to_frame_.end()) {
    ++stats_.hits;
    size_t f = it->second;
    Frame& frame = frames_[f];
    if (frame.in_lru) {
      lru_.erase(frame.lru_pos);
      frame.in_lru = false;
    }
    ++frame.pin_count;
    return PageHandle(this, f, id);
  }

  ++stats_.misses;
  BDBMS_ASSIGN_OR_RETURN(size_t f, GetFreeFrame());
  Frame& frame = frames_[f];
  BDBMS_RETURN_IF_ERROR(pager_->ReadPage(id, &frame.page));
  frame.id = id;
  frame.pin_count = 1;
  frame.dirty = false;
  frame.in_lru = false;
  page_to_frame_[id] = f;
  return PageHandle(this, f, id);
}

Result<PageHandle> BufferPool::New() {
  BDBMS_ASSIGN_OR_RETURN(PageId id, pager_->AllocatePage());
  BDBMS_ASSIGN_OR_RETURN(size_t f, GetFreeFrame());
  Frame& frame = frames_[f];
  frame.page.Zero();
  frame.id = id;
  frame.pin_count = 1;
  frame.dirty = true;
  frame.in_lru = false;
  page_to_frame_[id] = f;
  return PageHandle(this, f, id);
}

Status BufferPool::FlushAll() {
  for (Frame& frame : frames_) {
    if (frame.id != kInvalidPageId && frame.dirty) {
      BDBMS_RETURN_IF_ERROR(pager_->WritePage(frame.id, frame.page));
      frame.dirty = false;
    }
  }
  return Status::Ok();
}

Result<size_t> BufferPool::GetFreeFrame() {
  if (!free_list_.empty()) {
    size_t f = free_list_.back();
    free_list_.pop_back();
    return f;
  }
  // Grow lazily while under budget (capacity 0 = unbounded).
  if (capacity_ == 0 || frames_.size() < capacity_) {
    frames_.emplace_back();
    return frames_.size() - 1;
  }
  // Evict the least recently used unpinned frame.
  if (lru_.empty()) {
    return Status::Internal("buffer pool exhausted: all frames pinned");
  }
  size_t victim = lru_.back();
  Frame& frame = frames_[victim];
  if (frame.dirty) {
    // On failure the victim stays resident and dirty in the LRU list, so a
    // later flush or retry still sees its data.
    BDBMS_RETURN_IF_ERROR(pager_->WritePage(frame.id, frame.page));
    frame.dirty = false;
  }
  lru_.pop_back();
  frame.in_lru = false;
  page_to_frame_.erase(frame.id);
  frame.id = kInvalidPageId;
  ++stats_.evictions;
  return victim;
}

void BufferPool::Unpin(size_t f) {
  Frame& frame = frames_[f];
  if (frame.pin_count > 0) --frame.pin_count;
  if (frame.pin_count == 0 && !frame.in_lru && frame.id != kInvalidPageId) {
    lru_.push_front(f);
    frame.lru_pos = lru_.begin();
    frame.in_lru = true;
  }
}

}  // namespace bdbms
