#include "storage/heap_file.h"

#include <cstring>

namespace bdbms {

// Heap page layout:
//   [0]  uint8  page type (kHeapPage)
//   [2]  uint16 slot_count
//   [4]  uint16 free_end   (cells occupy [free_end, kPageSize))
//   [6]  uint16 frag_bytes (reclaimable by compaction)
//   [8]  slot array, 4 bytes per slot: uint16 offset, uint16 len
// Slot offset 0xFFFF marks a tombstone. Len bit 0x8000 marks an overflow
// stub whose 12-byte cell is {uint32 first_overflow_page, uint64 total_len}.
//
// Overflow page layout:
//   [0]  uint8  page type (kOverflowPage)
//   [4]  uint32 next page id (kInvalidPageId terminates the chain)
//   [8]  uint32 chunk length
//   [12] chunk bytes
namespace {

constexpr uint8_t kHeapPage = 1;
constexpr uint8_t kOverflowPage = 2;
constexpr uint8_t kFreePage = 3;

constexpr uint32_t kHeapHeaderSize = 8;
constexpr uint32_t kSlotSize = 4;
constexpr uint16_t kTombstoneOffset = 0xFFFF;
constexpr uint16_t kOverflowLenBit = 0x8000;

constexpr uint32_t kOverflowHeaderSize = 12;
constexpr uint32_t kOverflowChunkCapacity = kPageSize - kOverflowHeaderSize;

constexpr uint32_t kOverflowStubSize = 12;  // u32 first page + u64 length
constexpr uint32_t kMaxInlinePayload = 1024;  // larger payloads use overflow

uint16_t SlotCount(const Page& p) { return p.ReadAt<uint16_t>(2); }
void SetSlotCount(Page* p, uint16_t v) { p->WriteAt<uint16_t>(2, v); }
uint16_t FreeEnd(const Page& p) { return p.ReadAt<uint16_t>(4); }
void SetFreeEnd(Page* p, uint16_t v) { p->WriteAt<uint16_t>(4, v); }
uint16_t FragBytes(const Page& p) { return p.ReadAt<uint16_t>(6); }
void SetFragBytes(Page* p, uint16_t v) { p->WriteAt<uint16_t>(6, v); }

struct Slot {
  uint16_t offset;
  uint16_t len;
};

Slot GetSlot(const Page& p, uint16_t i) {
  return {p.ReadAt<uint16_t>(kHeapHeaderSize + kSlotSize * i),
          p.ReadAt<uint16_t>(kHeapHeaderSize + kSlotSize * i + 2)};
}

void SetSlot(Page* p, uint16_t i, Slot s) {
  p->WriteAt<uint16_t>(kHeapHeaderSize + kSlotSize * i, s.offset);
  p->WriteAt<uint16_t>(kHeapHeaderSize + kSlotSize * i + 2, s.len);
}

void InitHeapPage(Page* p) {
  p->Zero();
  p->WriteAt<uint8_t>(0, kHeapPage);
  SetSlotCount(p, 0);
  SetFreeEnd(p, static_cast<uint16_t>(kPageSize));
  SetFragBytes(p, 0);
}

// Free bytes available on the page after an (optional) compaction.
uint32_t ComputeFreeBytes(const Page& p) {
  uint32_t slots_end = kHeapHeaderSize + kSlotSize * SlotCount(p);
  uint32_t contiguous = FreeEnd(p) - slots_end;
  return contiguous + FragBytes(p);
}

// Rewrites the cell area so all free space is contiguous.
void CompactPage(Page* p) {
  uint16_t n = SlotCount(*p);
  // Collect live cells (slot, offset, len), sorted by offset descending so
  // we can repack from the page end.
  std::vector<std::pair<uint16_t, Slot>> live;
  for (uint16_t i = 0; i < n; ++i) {
    Slot s = GetSlot(*p, i);
    if (s.offset != kTombstoneOffset) live.push_back({i, s});
  }
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    return a.second.offset > b.second.offset;
  });
  uint16_t free_end = static_cast<uint16_t>(kPageSize);
  Page scratch = *p;
  for (auto& [slot_idx, s] : live) {
    uint16_t raw_len = s.len & ~kOverflowLenBit;
    free_end = static_cast<uint16_t>(free_end - raw_len);
    std::memcpy(p->bytes() + free_end, scratch.bytes() + s.offset, raw_len);
    SetSlot(p, slot_idx, {free_end, s.len});
  }
  SetFreeEnd(p, free_end);
  SetFragBytes(p, 0);
}

}  // namespace

HeapFile::HeapFile(std::unique_ptr<Pager> pager, size_t pool_pages)
    : pager_(std::move(pager)),
      pool_(std::make_unique<BufferPool>(pager_.get(), pool_pages)) {}

Result<std::unique_ptr<HeapFile>> HeapFile::CreateInMemory(size_t pool_pages) {
  auto hf = std::unique_ptr<HeapFile>(
      new HeapFile(Pager::OpenInMemory(), pool_pages));
  BDBMS_RETURN_IF_ERROR(hf->Bootstrap());
  return hf;
}

Result<std::unique_ptr<HeapFile>> HeapFile::OpenPaged(WalEnv* env,
                                                      const std::string& path,
                                                      size_t pool_pages) {
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                         Pager::OpenPaged(env, path));
  auto hf =
      std::unique_ptr<HeapFile>(new HeapFile(std::move(pager), pool_pages));
  BDBMS_RETURN_IF_ERROR(hf->Bootstrap());
  return hf;
}

Status HeapFile::CheckpointPrepare(uint64_t gen) {
  std::lock_guard<std::mutex> lock(mu_);
  // Every dirty frame must reach the spill before the pager snapshots it.
  BDBMS_RETURN_IF_ERROR(pool_->FlushAll());
  return pager_->CheckpointPrepare(gen);
}

Status HeapFile::CheckpointCommit() {
  std::lock_guard<std::mutex> lock(mu_);
  return pager_->CheckpointCommit();
}

Status HeapFile::Bootstrap() {
  for (PageId id = 0; id < pager_->page_count(); ++id) {
    BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
    const Page& p = *h.page();
    uint8_t type = p.ReadAt<uint8_t>(0);
    if (type == kHeapPage) {
      free_space_[id] = ComputeFreeBytes(p);
      uint16_t n = SlotCount(p);
      for (uint16_t i = 0; i < n; ++i) {
        if (GetSlot(p, i).offset != kTombstoneOffset) ++record_count_;
      }
    } else if (type == kFreePage) {
      overflow_free_.push_back(id);
    }
  }
  return Status::Ok();
}

Result<PageId> HeapFile::FindPageWithSpace(uint32_t needed) {
  for (auto& [id, free] : free_space_) {
    if (free >= needed) return id;
  }
  BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
  InitHeapPage(h.page());
  h.MarkDirty();
  PageId id = h.id();
  free_space_[id] = kPageSize - kHeapHeaderSize;
  return id;
}

Result<PageId> HeapFile::AllocateOverflowPage() {
  if (!overflow_free_.empty()) {
    PageId id = overflow_free_.back();
    overflow_free_.pop_back();
    return id;
  }
  BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
  h.MarkDirty();
  return h.id();
}

Result<PageId> HeapFile::WriteOverflowChain(std::string_view payload) {
  PageId first = kInvalidPageId;
  PageId prev = kInvalidPageId;
  size_t pos = 0;
  do {
    uint32_t chunk = static_cast<uint32_t>(
        std::min<size_t>(kOverflowChunkCapacity, payload.size() - pos));
    BDBMS_ASSIGN_OR_RETURN(PageId id, AllocateOverflowPage());
    {
      BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
      Page* p = h.page();
      p->Zero();
      p->WriteAt<uint8_t>(0, kOverflowPage);
      p->WriteAt<uint32_t>(4, kInvalidPageId);
      p->WriteAt<uint32_t>(8, chunk);
      std::memcpy(p->bytes() + kOverflowHeaderSize, payload.data() + pos,
                  chunk);
      h.MarkDirty();
    }
    if (prev != kInvalidPageId) {
      BDBMS_ASSIGN_OR_RETURN(PageHandle hp, pool_->Fetch(prev));
      hp.page()->WriteAt<uint32_t>(4, id);
      hp.MarkDirty();
    } else {
      first = id;
    }
    prev = id;
    pos += chunk;
  } while (pos < payload.size());
  return first;
}

Result<std::string> HeapFile::ReadOverflowChain(PageId first,
                                                uint64_t total_len) const {
  std::string out;
  out.reserve(total_len);
  PageId id = first;
  while (id != kInvalidPageId) {
    BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
    const Page& p = *h.page();
    if (p.ReadAt<uint8_t>(0) != kOverflowPage) {
      return Status::Corruption("overflow chain hits non-overflow page");
    }
    uint32_t chunk = p.ReadAt<uint32_t>(8);
    out.append(reinterpret_cast<const char*>(p.bytes() + kOverflowHeaderSize),
               chunk);
    id = p.ReadAt<uint32_t>(4);
  }
  if (out.size() != total_len) {
    return Status::Corruption("overflow chain length mismatch");
  }
  return out;
}

Status HeapFile::FreeOverflowChain(PageId first) {
  PageId id = first;
  while (id != kInvalidPageId) {
    BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
    Page* p = h.page();
    PageId next = p->ReadAt<uint32_t>(4);
    p->WriteAt<uint8_t>(0, kFreePage);
    h.MarkDirty();
    overflow_free_.push_back(id);
    id = next;
  }
  return Status::Ok();
}

Result<RecordId> HeapFile::Insert(std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  bool overflow = payload.size() > kMaxInlinePayload;
  uint32_t cell_len =
      overflow ? kOverflowStubSize : static_cast<uint32_t>(payload.size());

  BDBMS_ASSIGN_OR_RETURN(PageId pid, FindPageWithSpace(cell_len + kSlotSize));

  PageId overflow_first = kInvalidPageId;
  if (overflow) {
    BDBMS_ASSIGN_OR_RETURN(overflow_first, WriteOverflowChain(payload));
  }

  BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pid));
  Page* p = h.page();

  uint16_t n = SlotCount(*p);
  // Reuse a tombstone slot when available.
  uint16_t slot_idx = n;
  for (uint16_t i = 0; i < n; ++i) {
    if (GetSlot(*p, i).offset == kTombstoneOffset) {
      slot_idx = i;
      break;
    }
  }
  uint32_t slot_cost = (slot_idx == n) ? kSlotSize : 0;
  uint32_t slots_end = kHeapHeaderSize + kSlotSize * n;
  uint32_t contiguous = FreeEnd(*p) - slots_end;
  if (contiguous < cell_len + slot_cost) {
    CompactPage(p);
    contiguous = FreeEnd(*p) - slots_end;
    if (contiguous < cell_len + slot_cost) {
      return Status::Internal("free-space map out of sync with page");
    }
  }

  uint16_t cell_off = static_cast<uint16_t>(FreeEnd(*p) - cell_len);
  if (overflow) {
    p->WriteAt<uint32_t>(cell_off, overflow_first);
    p->WriteAt<uint64_t>(cell_off + 4, payload.size());
  } else if (!payload.empty()) {
    std::memcpy(p->bytes() + cell_off, payload.data(), payload.size());
  }
  SetFreeEnd(p, cell_off);
  uint16_t stored_len = static_cast<uint16_t>(cell_len);
  if (overflow) stored_len |= kOverflowLenBit;
  SetSlot(p, slot_idx, {cell_off, stored_len});
  if (slot_idx == n) SetSlotCount(p, static_cast<uint16_t>(n + 1));
  h.MarkDirty();

  free_space_[pid] = ComputeFreeBytes(*p);
  ++record_count_;
  return RecordId{pid, slot_idx};
}

Result<std::string> HeapFile::Read(RecordId rid) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadInternal(rid);
}

Result<std::string> HeapFile::ReadInternal(RecordId rid) const {
  BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(rid.page_id));
  const Page& p = *h.page();
  if (p.ReadAt<uint8_t>(0) != kHeapPage) {
    return Status::Corruption("record id points at non-heap page");
  }
  if (rid.slot >= SlotCount(p)) {
    return Status::NotFound("record slot out of range");
  }
  Slot s = GetSlot(p, rid.slot);
  if (s.offset == kTombstoneOffset) {
    return Status::NotFound("record deleted");
  }
  if (s.len & kOverflowLenBit) {
    PageId first = p.ReadAt<uint32_t>(s.offset);
    uint64_t total = p.ReadAt<uint64_t>(s.offset + 4);
    return ReadOverflowChain(first, total);
  }
  return std::string(reinterpret_cast<const char*>(p.bytes() + s.offset),
                     s.len);
}

Status HeapFile::Delete(RecordId rid) {
  std::lock_guard<std::mutex> lock(mu_);
  BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(rid.page_id));
  Page* p = h.page();
  if (p->ReadAt<uint8_t>(0) != kHeapPage) {
    return Status::Corruption("record id points at non-heap page");
  }
  if (rid.slot >= SlotCount(*p)) {
    return Status::NotFound("record slot out of range");
  }
  Slot s = GetSlot(*p, rid.slot);
  if (s.offset == kTombstoneOffset) {
    return Status::NotFound("record already deleted");
  }
  if (s.len & kOverflowLenBit) {
    PageId first = p->ReadAt<uint32_t>(s.offset);
    BDBMS_RETURN_IF_ERROR(FreeOverflowChain(first));
  }
  uint16_t raw_len = s.len & ~kOverflowLenBit;
  SetFragBytes(p, static_cast<uint16_t>(FragBytes(*p) + raw_len));
  SetSlot(p, rid.slot, {kTombstoneOffset, 0});
  h.MarkDirty();
  free_space_[rid.page_id] = ComputeFreeBytes(*p);
  --record_count_;
  return Status::Ok();
}

Status HeapFile::ForEach(
    const std::function<Status(RecordId, std::string_view)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (PageId id = 0; id < pager_->page_count(); ++id) {
    uint16_t n;
    {
      BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
      const Page& p = *h.page();
      if (p.ReadAt<uint8_t>(0) != kHeapPage) continue;
      n = SlotCount(p);
    }
    for (uint16_t i = 0; i < n; ++i) {
      RecordId rid{id, i};
      auto payload = ReadInternal(rid);
      if (!payload.ok()) {
        if (payload.status().IsNotFound()) continue;  // tombstone
        return payload.status();
      }
      BDBMS_RETURN_IF_ERROR(fn(rid, *payload));
    }
  }
  return Status::Ok();
}

}  // namespace bdbms
