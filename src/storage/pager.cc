#include "storage/pager.h"

#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "wal/serializer.h"

namespace bdbms {

namespace {

// Redo-journal header: magic[8], u64 checkpoint generation, u32 total page
// count at prepare time, u32 entry count. Entries: u32 page id, u32 page
// CRC-32, then the 8 KiB page image.
constexpr char kJournalMagic[8] = {'B', 'D', 'B', 'M', 'S', 'J', 'L', '1'};
constexpr size_t kJournalHeaderBytes = 8 + 8 + 4 + 4;
constexpr size_t kJournalEntryBytes = 4 + 4 + kPageSize;

std::string_view PageView(const Page& page) {
  return std::string_view(reinterpret_cast<const char*>(page.bytes()),
                          kPageSize);
}

}  // namespace

Pager::Pager() = default;

Pager::Pager(WalEnv* env, std::string path, std::unique_ptr<PageFile> base,
             std::unique_ptr<PageFile> spill, uint32_t base_pages)
    : page_count_(base_pages),
      env_(env),
      path_(std::move(path)),
      base_(std::move(base)),
      spill_(std::move(spill)),
      base_pages_(base_pages) {}

std::unique_ptr<Pager> Pager::OpenInMemory() {
  return std::unique_ptr<Pager>(new Pager());
}

Result<std::unique_ptr<Pager>> Pager::OpenPaged(WalEnv* env,
                                                const std::string& path) {
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> base,
                         env->OpenPageFile(path));
  BDBMS_ASSIGN_OR_RETURN(uint64_t size, base->Size());
  if (size % kPageSize != 0) {
    return Status::Corruption(path + ": size is not a multiple of page size");
  }
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> spill,
                         env->OpenPageFile(SpillPath(path)));
  // A leftover spill belongs to a previous incarnation whose effects are
  // rebuilt by WAL replay; start the overlay empty.
  BDBMS_RETURN_IF_ERROR(spill->Truncate(0));
  auto pages = static_cast<uint32_t>(size / kPageSize);
  return std::unique_ptr<Pager>(
      new Pager(env, path, std::move(base), std::move(spill), pages));
}

Status Pager::SpillWrite(PageId id, const Page& page) {
  auto it = spill_map_.find(id);
  uint32_t slot = (it != spill_map_.end()) ? it->second : spill_slots_;
  BDBMS_RETURN_IF_ERROR(spill_->Write(static_cast<uint64_t>(slot) * kPageSize,
                                      page.bytes(), kPageSize));
  if (it == spill_map_.end()) {
    spill_map_.emplace(id, slot);
    ++spill_slots_;
  }
  return Status::Ok();
}

uint32_t Pager::dirty_page_count() const {
  // std::map iterates in ascending id order; overwrite entries are the
  // prefix below the frozen base count.
  uint32_t n = 0;
  for (const auto& [id, slot] : spill_map_) {
    (void)slot;
    if (id >= base_pages_) break;
    ++n;
  }
  return n;
}

Result<PageId> Pager::AllocatePage() {
  PageId id = page_count_;
  if (base_ != nullptr) {
    Page zero;
    zero.Zero();
    BDBMS_RETURN_IF_ERROR(SpillWrite(id, zero));
    ++stats_.page_writes;
  } else {
    auto page = std::make_unique<Page>();
    page->Zero();
    mem_pages_.push_back(std::move(page));
  }
  ++page_count_;
  ++stats_.pages_allocated;
  return id;
}

Status Pager::ReadPage(PageId id, Page* out) {
  if (id >= page_count_) {
    return Status::OutOfRange("read of unallocated page " + std::to_string(id));
  }
  ++stats_.page_reads;
  if (base_ != nullptr) {
    auto it = spill_map_.find(id);
    if (it != spill_map_.end()) {
      return spill_->Read(static_cast<uint64_t>(it->second) * kPageSize,
                          kPageSize, out->bytes());
    }
    if (id >= base_pages_) {
      // Every page past the frozen base count must have a spill slot.
      return Status::Internal("paged heap: page " + std::to_string(id) +
                              " missing from spill overlay");
    }
    return base_->Read(static_cast<uint64_t>(id) * kPageSize, kPageSize,
                       out->bytes());
  }
  *out = *mem_pages_[id];
  return Status::Ok();
}

Status Pager::WritePage(PageId id, const Page& page) {
  if (id >= page_count_) {
    return Status::OutOfRange("write of unallocated page " +
                              std::to_string(id));
  }
  ++stats_.page_writes;
  if (base_ != nullptr) {
    return SpillWrite(id, page);
  }
  *mem_pages_[id] = page;
  return Status::Ok();
}

Status Pager::CheckpointPrepare(uint64_t gen) {
  Page page;
  // Extension pages (id >= frozen base count) go straight home: if the
  // manifest rename never happens, recovery truncates the base back to the
  // committed page count, so these provisional writes are invisible.
  // Overwrite pages are staged in the redo journal instead — overwriting a
  // base page in place would destroy the state the committed checkpoint
  // (and the statement log replayed on top of it) depends on.
  std::vector<std::pair<PageId, uint32_t>> overwrite;
  bool extended = false;
  for (const auto& [id, slot] : spill_map_) {
    if (id < base_pages_) {
      overwrite.emplace_back(id, slot);
      continue;
    }
    BDBMS_RETURN_IF_ERROR(spill_->Read(static_cast<uint64_t>(slot) * kPageSize,
                                       kPageSize, page.bytes()));
    BDBMS_RETURN_IF_ERROR(base_->Write(static_cast<uint64_t>(id) * kPageSize,
                                       page.bytes(), kPageSize));
    ++stats_.page_reads;
    ++stats_.page_writes;
    extended = true;
  }
  // A clean table costs no fsync: a failed earlier prepare left its
  // extensions in the spill map, so they are rewritten and synced here.
  if (extended) {
    BDBMS_RETURN_IF_ERROR(base_->Sync());
    ++stats_.fsyncs;
  }

  const std::string jpath = JournalPath(path_);
  if (env_->FileExists(jpath)) {
    // A journal from an earlier failed prepare; its generation was never
    // committed.
    BDBMS_RETURN_IF_ERROR(env_->RemoveFile(jpath));
  }
  if (overwrite.empty()) return Status::Ok();

  std::string buf;
  buf.append(kJournalMagic, sizeof(kJournalMagic));
  BinaryWriter w(&buf);
  w.U64(gen);
  w.U32(page_count_);
  w.U32(static_cast<uint32_t>(overwrite.size()));
  for (const auto& [id, slot] : overwrite) {
    BDBMS_RETURN_IF_ERROR(spill_->Read(static_cast<uint64_t>(slot) * kPageSize,
                                       kPageSize, page.bytes()));
    ++stats_.page_reads;
    w.U32(id);
    w.U32(Crc32(PageView(page)));
    buf.append(PageView(page));
  }
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<AppendFile> jf,
                         env_->OpenAppend(jpath));
  BDBMS_RETURN_IF_ERROR(jf->Append(buf));
  // The journal must be stable before the manifest rename names its
  // generation; otherwise a crash could commit a checkpoint whose dirty
  // pages exist nowhere durable.
  BDBMS_RETURN_IF_ERROR(jf->Sync());
  ++stats_.fsyncs;
  return Status::Ok();
}

Status Pager::CheckpointCommit() {
  Page page;
  bool wrote_home = false;
  for (const auto& [id, slot] : spill_map_) {
    if (id >= base_pages_) break;  // extensions went home during prepare
    BDBMS_RETURN_IF_ERROR(spill_->Read(static_cast<uint64_t>(slot) * kPageSize,
                                       kPageSize, page.bytes()));
    BDBMS_RETURN_IF_ERROR(base_->Write(static_cast<uint64_t>(id) * kPageSize,
                                       page.bytes(), kPageSize));
    ++stats_.page_reads;
    ++stats_.page_writes;
    wrote_home = true;
  }
  // The journal may only go once the pages it protects are stable.
  if (wrote_home) {
    BDBMS_RETURN_IF_ERROR(base_->Sync());
    ++stats_.fsyncs;
  }
  base_pages_ = page_count_;
  spill_map_.clear();
  spill_slots_ = 0;
  BDBMS_RETURN_IF_ERROR(spill_->Truncate(0));
  const std::string jpath = JournalPath(path_);
  if (env_->FileExists(jpath)) {
    BDBMS_RETURN_IF_ERROR(env_->RemoveFile(jpath));
  }
  return Status::Ok();
}

Status Pager::RecoverPagedHeap(WalEnv* env, const std::string& path,
                               uint64_t gen, uint32_t page_count) {
  const std::string jpath = JournalPath(path);
  if (env->FileExists(jpath)) {
    BDBMS_ASSIGN_OR_RETURN(std::string j, env->ReadFileToString(jpath));
    // A journal with an unreadable header or a foreign generation comes
    // from a prepare whose checkpoint never committed — discard it. A
    // journal whose generation the manifest names was fully fsynced before
    // the rename, so damage inside it is real corruption.
    bool apply = false;
    uint64_t jgen = 0;
    uint32_t entries = 0;
    if (j.size() >= kJournalHeaderBytes &&
        std::memcmp(j.data(), kJournalMagic, sizeof(kJournalMagic)) == 0) {
      BinaryReader r(std::string_view(j).substr(sizeof(kJournalMagic)));
      auto g = r.U64();
      auto pages = r.U32();
      auto n = r.U32();
      if (g.ok() && pages.ok() && n.ok() && *g == gen) {
        apply = true;
        jgen = *g;
        entries = *n;
      }
    }
    if (apply) {
      (void)jgen;
      if (j.size() != kJournalHeaderBytes +
                          static_cast<size_t>(entries) * kJournalEntryBytes) {
        return Status::Corruption(jpath + ": truncated committed journal");
      }
      BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> base,
                             env->OpenPageFile(path));
      const char* p = j.data() + kJournalHeaderBytes;
      for (uint32_t i = 0; i < entries; ++i, p += kJournalEntryBytes) {
        BinaryReader er(std::string_view(p, 8));
        uint32_t id = *er.U32();
        uint32_t crc = *er.U32();
        std::string_view image(p + 8, kPageSize);
        if (Crc32(image) != crc) {
          return Status::Corruption(jpath + ": bad page CRC for page " +
                                    std::to_string(id));
        }
        if (id >= page_count) {
          return Status::Corruption(jpath + ": journal page " +
                                    std::to_string(id) +
                                    " beyond checkpoint page count");
        }
        BDBMS_RETURN_IF_ERROR(
            base->Write(static_cast<uint64_t>(id) * kPageSize,
                        reinterpret_cast<const uint8_t*>(image.data()),
                        kPageSize));
      }
      BDBMS_RETURN_IF_ERROR(base->Sync());
    }
    BDBMS_RETURN_IF_ERROR(env->RemoveFile(jpath));
  }

  {
    BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> base,
                           env->OpenPageFile(path));
    BDBMS_ASSIGN_OR_RETURN(uint64_t size, base->Size());
    const uint64_t need = static_cast<uint64_t>(page_count) * kPageSize;
    if (size < need) {
      return Status::Corruption(path + ": base holds " +
                                std::to_string(size / kPageSize) +
                                " pages, checkpoint records " +
                                std::to_string(page_count));
    }
    if (size > need) {
      // Provisional extensions from a prepare that never committed.
      BDBMS_RETURN_IF_ERROR(base->Truncate(need));
      BDBMS_RETURN_IF_ERROR(base->Sync());
    }
  }
  const std::string spill = SpillPath(path);
  if (env->FileExists(spill)) {
    BDBMS_RETURN_IF_ERROR(env->RemoveFile(spill));
  }
  return Status::Ok();
}

}  // namespace bdbms
