// Unit tests for src/storage: Pager, BufferPool, HeapFile — including the
// paged (base + spill overlay) backend, its checkpoint journal recovery,
// and a randomized buffer-pool stress test against a model LRU.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "fault_fs.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "wal/wal_env.h"

namespace bdbms {
namespace {

TEST(PagerTest, InMemoryAllocateReadWrite) {
  auto pager = Pager::OpenInMemory();
  auto id = pager->AllocatePage();
  ASSERT_TRUE(id.ok());
  Page p;
  p.Zero();
  p.WriteAt<uint64_t>(16, 0xDEADBEEFull);
  ASSERT_TRUE(pager->WritePage(*id, p).ok());
  Page q;
  ASSERT_TRUE(pager->ReadPage(*id, &q).ok());
  EXPECT_EQ(q.ReadAt<uint64_t>(16), 0xDEADBEEFull);
}

TEST(PagerTest, ReadUnallocatedFails) {
  auto pager = Pager::OpenInMemory();
  Page p;
  EXPECT_FALSE(pager->ReadPage(3, &p).ok());
}

TEST(PagerTest, CountsIo) {
  auto pager = Pager::OpenInMemory();
  auto id = pager->AllocatePage();
  ASSERT_TRUE(id.ok());
  Page p;
  p.Zero();
  ASSERT_TRUE(pager->WritePage(*id, p).ok());
  ASSERT_TRUE(pager->ReadPage(*id, &p).ok());
  EXPECT_EQ(pager->stats().pages_allocated, 1u);
  EXPECT_EQ(pager->stats().page_writes, 1u);
  EXPECT_EQ(pager->stats().page_reads, 1u);
}

TEST(PagerTest, FileBackedPersists) {
  WalEnv env;
  std::string dir = testing::TempDir() + "/bdbms_pager_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string path = dir + "/t.heap";
  {
    auto pager = Pager::OpenPaged(&env, path);
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->AllocatePage();
    ASSERT_TRUE(id.ok());
    Page p;
    p.Zero();
    p.WriteAt<uint32_t>(0, 123456u);
    ASSERT_TRUE((*pager)->WritePage(*id, p).ok());
    // A paged heap persists what a checkpoint made home in its base file.
    ASSERT_TRUE((*pager)->CheckpointPrepare(1).ok());
    ASSERT_TRUE((*pager)->CheckpointCommit().ok());
  }
  {
    auto pager = Pager::OpenPaged(&env, path);
    ASSERT_TRUE(pager.ok());
    EXPECT_EQ((*pager)->page_count(), 1u);
    Page p;
    ASSERT_TRUE((*pager)->ReadPage(0, &p).ok());
    EXPECT_EQ(p.ReadAt<uint32_t>(0), 123456u);
  }
  std::filesystem::remove_all(dir);
}

TEST(BufferPoolTest, HitAfterMiss) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 4);
  auto h = pool.New();
  ASSERT_TRUE(h.ok());
  PageId id = h->id();
  h->Release();
  {
    auto f1 = pool.Fetch(id);
    ASSERT_TRUE(f1.ok());
  }
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictsLruAndWritesBackDirty) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 2);
  PageId ids[3];
  for (int i = 0; i < 3; ++i) {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    ids[i] = h->id();
    h->page()->WriteAt<uint32_t>(0, 1000u + i);
    h->MarkDirty();
  }
  // Pool of 2 held 3 pages: at least one eviction happened, dirty data must
  // have reached the pager.
  EXPECT_GE(pool.stats().evictions, 1u);
  for (int i = 0; i < 3; ++i) {
    auto h = pool.Fetch(ids[i]);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->page()->ReadAt<uint32_t>(0), 1000u + i);
  }
}

TEST(BufferPoolTest, AllPinnedFails) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 2);
  auto h1 = pool.New();
  auto h2 = pool.New();
  ASSERT_TRUE(h1.ok() && h2.ok());
  auto h3 = pool.New();  // page allocated but no frame available
  EXPECT_FALSE(h3.ok());
}

TEST(HeapFileTest, InsertReadDelete) {
  auto hf = HeapFile::CreateInMemory();
  ASSERT_TRUE(hf.ok());
  auto rid = (*hf)->Insert("hello bdbms");
  ASSERT_TRUE(rid.ok());
  auto payload = (*hf)->Read(*rid);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "hello bdbms");
  EXPECT_EQ((*hf)->record_count(), 1u);

  ASSERT_TRUE((*hf)->Delete(*rid).ok());
  EXPECT_EQ((*hf)->record_count(), 0u);
  EXPECT_TRUE((*hf)->Read(*rid).status().IsNotFound());
  EXPECT_TRUE((*hf)->Delete(*rid).IsNotFound());
}

TEST(HeapFileTest, EmptyPayload) {
  auto hf = HeapFile::CreateInMemory();
  ASSERT_TRUE(hf.ok());
  auto rid = (*hf)->Insert("");
  ASSERT_TRUE(rid.ok());
  auto payload = (*hf)->Read(*rid);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "");
}

TEST(HeapFileTest, ManySmallRecords) {
  auto hf = HeapFile::CreateInMemory();
  ASSERT_TRUE(hf.ok());
  std::vector<RecordId> rids;
  for (int i = 0; i < 2000; ++i) {
    auto rid = (*hf)->Insert("record-" + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  EXPECT_EQ((*hf)->record_count(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    auto payload = (*hf)->Read(rids[i]);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(*payload, "record-" + std::to_string(i));
  }
}

TEST(HeapFileTest, LargeRecordUsesOverflowChain) {
  auto hf = HeapFile::CreateInMemory();
  ASSERT_TRUE(hf.ok());
  Rng rng(11);
  std::string big = rng.NextString(3 * kPageSize + 777, "ACGT");
  auto rid = (*hf)->Insert(big);
  ASSERT_TRUE(rid.ok());
  auto payload = (*hf)->Read(*rid);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, big);
}

TEST(HeapFileTest, OverflowPagesRecycledAfterDelete) {
  auto hf = HeapFile::CreateInMemory();
  ASSERT_TRUE(hf.ok());
  Rng rng(13);
  std::string big = rng.NextString(4 * kPageSize, "HEL");
  auto rid1 = (*hf)->Insert(big);
  ASSERT_TRUE(rid1.ok());
  ASSERT_TRUE((*hf)->Delete(*rid1).ok());
  uint64_t pages_after_delete = (*hf)->SizeBytes() / kPageSize;
  auto rid2 = (*hf)->Insert(big);
  ASSERT_TRUE(rid2.ok());
  // Chain reuses freed pages: no growth.
  EXPECT_EQ((*hf)->SizeBytes() / kPageSize, pages_after_delete);
  auto payload = (*hf)->Read(*rid2);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, big);
}

TEST(HeapFileTest, SlotReuseAfterDelete) {
  auto hf = HeapFile::CreateInMemory();
  ASSERT_TRUE(hf.ok());
  auto rid1 = (*hf)->Insert("first");
  ASSERT_TRUE(rid1.ok());
  ASSERT_TRUE((*hf)->Delete(*rid1).ok());
  auto rid2 = (*hf)->Insert("second");
  ASSERT_TRUE(rid2.ok());
  EXPECT_EQ(rid1->page_id, rid2->page_id);
  EXPECT_EQ(rid1->slot, rid2->slot);
}

TEST(HeapFileTest, CompactionReclaimsFragmentation) {
  auto hf = HeapFile::CreateInMemory();
  ASSERT_TRUE(hf.ok());
  // Fill a page with records, delete every other one, then insert records
  // that only fit if the fragmented space is compacted.
  std::vector<RecordId> rids;
  std::string payload(100, 'x');
  for (int i = 0; i < 70; ++i) {
    auto rid = (*hf)->Insert(payload);
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  for (size_t i = 0; i < rids.size(); i += 2) {
    ASSERT_TRUE((*hf)->Delete(rids[i]).ok());
  }
  for (int i = 0; i < 30; ++i) {
    auto rid = (*hf)->Insert(payload);
    ASSERT_TRUE(rid.ok());
  }
  // All survivors still readable.
  for (size_t i = 1; i < rids.size(); i += 2) {
    auto p = (*hf)->Read(rids[i]);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(*p, payload);
  }
}

TEST(HeapFileTest, ForEachVisitsLiveRecordsOnly) {
  auto hf = HeapFile::CreateInMemory();
  ASSERT_TRUE(hf.ok());
  auto r1 = (*hf)->Insert("keep-1");
  auto r2 = (*hf)->Insert("drop");
  auto r3 = (*hf)->Insert("keep-2");
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  ASSERT_TRUE((*hf)->Delete(*r2).ok());
  std::vector<std::string> seen;
  auto st = (*hf)->ForEach([&](RecordId, std::string_view payload) {
    seen.emplace_back(payload);
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"keep-1", "keep-2"}));
}

TEST(HeapFileTest, FileBackedReopenPreservesRecords) {
  WalEnv env;
  std::string path = testing::TempDir() + "/bdbms_heap_test.heap";
  const std::string files[] = {path, Pager::SpillPath(path),
                               Pager::JournalPath(path)};
  for (const std::string& f : files) std::remove(f.c_str());
  RecordId rid;
  {
    auto hf = HeapFile::OpenPaged(&env, path, 64);
    ASSERT_TRUE(hf.ok());
    auto r = (*hf)->Insert("persistent record");
    ASSERT_TRUE(r.ok());
    rid = *r;
    // OpenPaged truncates the spill overlay, so records survive a reopen
    // only once a checkpoint has written them into the base file.
    ASSERT_TRUE((*hf)->CheckpointPrepare(1).ok());
    ASSERT_TRUE((*hf)->CheckpointCommit().ok());
  }
  {
    auto hf = HeapFile::OpenPaged(&env, path, 64);
    ASSERT_TRUE(hf.ok());
    EXPECT_EQ((*hf)->record_count(), 1u);
    auto payload = (*hf)->Read(rid);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(*payload, "persistent record");
  }
  for (const std::string& f : files) std::remove(f.c_str());
}

// Property-style sweep: random workload of inserts/deletes/reads mirrors a
// std::map reference model.
class HeapFileFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeapFileFuzzTest, MatchesReferenceModel) {
  auto hf = HeapFile::CreateInMemory();
  ASSERT_TRUE(hf.ok());
  Rng rng(GetParam());
  std::map<std::string, RecordId> model;  // payload -> rid (payloads unique)
  int next_id = 0;
  for (int step = 0; step < 1500; ++step) {
    double dice = rng.UniformDouble();
    if (dice < 0.55 || model.empty()) {
      size_t len = rng.Uniform(3000);  // exercises inline + overflow paths
      std::string payload =
          std::to_string(next_id++) + ":" + rng.NextString(len, "ACGTHEL");
      auto rid = (*hf)->Insert(payload);
      ASSERT_TRUE(rid.ok());
      model[payload] = *rid;
    } else if (dice < 0.8) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE((*hf)->Delete(it->second).ok());
      model.erase(it);
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      auto payload = (*hf)->Read(it->second);
      ASSERT_TRUE(payload.ok());
      EXPECT_EQ(*payload, it->first);
    }
  }
  EXPECT_EQ((*hf)->record_count(), model.size());
  size_t visited = 0;
  auto st = (*hf)->ForEach([&](RecordId, std::string_view payload) {
    EXPECT_TRUE(model.count(std::string(payload)));
    ++visited;
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(visited, model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapFileFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 42u));

// --- buffer pool edge cases -------------------------------------------------

TEST(BufferPoolTest, FetchMissWithAllFramesPinnedFailsCleanly) {
  auto pager = Pager::OpenInMemory();
  // Allocate three pages up front so there is something to miss on.
  PageId ids[3];
  for (int i = 0; i < 3; ++i) {
    auto id = pager->AllocatePage();
    ASSERT_TRUE(id.ok());
    ids[i] = *id;
  }
  BufferPool pool(pager.get(), 2);
  auto h1 = pool.Fetch(ids[0]);
  auto h2 = pool.Fetch(ids[1]);
  ASSERT_TRUE(h1.ok() && h2.ok());
  auto h3 = pool.Fetch(ids[2]);
  ASSERT_FALSE(h3.ok());
  EXPECT_EQ(h3.status().code(), StatusCode::kInternal)
      << h3.status().ToString();
  // The failure left the pool coherent: releasing a pin makes the same
  // fetch succeed.
  h1->Release();
  auto retry = pool.Fetch(ids[2]);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(BufferPoolTest, DoubleReleaseIsIdempotent) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 2);
  auto h = pool.New();
  ASSERT_TRUE(h.ok());
  PageId id = h->id();
  h->Release();
  EXPECT_FALSE(h->valid());
  h->Release();  // second release must not underflow the pin count
  // If the double release had unpinned twice, a hit-then-release cycle
  // would leave accounting broken; prove the page is still fetchable and
  // evictable exactly once.
  {
    auto again = pool.Fetch(id);
    ASSERT_TRUE(again.ok());
  }
  EXPECT_EQ(pool.stats().hits, 1u);
  // Fill the pool: the released page must be evictable (pin count 0).
  auto a = pool.New();
  auto b = pool.New();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GE(pool.stats().evictions, 1u);
}

TEST(BufferPoolTest, MoveAssignOverValidHandleReleasesOldPin) {
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), 2);
  auto h1 = pool.New();
  auto h2 = pool.New();
  ASSERT_TRUE(h1.ok() && h2.ok());
  PageId id2 = h2->id();
  // Overwrites h1's pin: its page becomes unpinned, h1 now owns h2's page.
  *h1 = std::move(*h2);
  EXPECT_TRUE(h1->valid());
  EXPECT_EQ(h1->id(), id2);
  EXPECT_FALSE(h2->valid());
  // Exactly one frame is unpinned now; a third page must evict it rather
  // than fail (which would mean the move leaked the old pin).
  auto h3 = pool.New();
  ASSERT_TRUE(h3.ok()) << h3.status().ToString();
  // And the moved-to page is still pinned: a fourth must fail.
  auto h4 = pool.New();
  EXPECT_FALSE(h4.ok());
}

// --- randomized stress against a model LRU ----------------------------------

// Mirrors BufferPool against a hand-rolled LRU model: every Fetch/New/
// Release/MarkDirty is applied to both, predicting hit/miss/eviction
// outcomes exactly. Pinned pages must never be evicted, dirty pages must
// survive eviction (write-back), and the stats must reconcile with the
// model at every step.
TEST(BufferPoolModelTest, RandomizedOpsMatchModelLru) {
  constexpr size_t kCapacity = 8;
  constexpr int kSteps = 5000;
  auto pager = Pager::OpenInMemory();
  BufferPool pool(pager.get(), kCapacity);
  Rng rng(20260808);

  struct Pinned {
    PageHandle handle;
    PageId id;
  };
  std::vector<Pinned> held;
  std::list<PageId> lru;                        // front = MRU, unpinned only
  std::unordered_map<PageId, int> pin_count;    // resident pinned pages
  std::unordered_map<PageId, uint32_t> content; // logical content oracle
  std::vector<PageId> all_ids;
  uint64_t hits = 0, misses = 0, evictions = 0;

  auto resident = [&](PageId id) {
    if (pin_count.count(id)) return true;
    return std::find(lru.begin(), lru.end(), id) != lru.end();
  };
  size_t model_frames = 0;  // frames the model believes are allocated
  // Model of GetFreeFrame for a miss/new: grows while under capacity,
  // else evicts the LRU tail. Returns false when every frame is pinned.
  auto model_acquire = [&]() {
    if (model_frames < kCapacity) {
      ++model_frames;
      return true;
    }
    if (lru.empty()) return false;
    lru.pop_back();  // dirty write-back is invisible to the model: the
    ++evictions;     // content oracle is checked through the pool below
    return true;
  };

  for (int step = 0; step < kSteps; ++step) {
    double dice = rng.UniformDouble();
    if (dice < 0.30 || all_ids.empty()) {
      // New page.
      bool expect_ok = model_frames < kCapacity || !lru.empty();
      auto h = pool.New();
      ASSERT_EQ(h.ok(), expect_ok) << "step " << step;
      if (!h.ok()) continue;
      ASSERT_TRUE(model_acquire());
      PageId id = h->id();
      uint32_t v = static_cast<uint32_t>(rng.Uniform(1u << 30));
      h->page()->WriteAt<uint32_t>(64, v);
      h->MarkDirty();
      content[id] = v;
      pin_count[id] = 1;
      all_ids.push_back(id);
      held.push_back({std::move(*h), id});
    } else if (dice < 0.60) {
      // Fetch a random known page (may or may not be resident).
      PageId id = all_ids[rng.Uniform(all_ids.size())];
      bool is_resident = resident(id);
      bool expect_ok = is_resident || model_frames < kCapacity || !lru.empty();
      // The pool counts the miss before it knows whether a frame is even
      // available, so the model must too.
      if (is_resident) {
        ++hits;
      } else {
        ++misses;
      }
      auto h = pool.Fetch(id);
      ASSERT_EQ(h.ok(), expect_ok) << "step " << step;
      if (!h.ok()) continue;
      if (is_resident) {
        lru.remove(id);  // a hit pins the page out of the LRU list
      } else {
        ASSERT_TRUE(model_acquire());
      }
      ++pin_count[id];
      // A fetched page must carry exactly the content last written to it
      // — whether it was served from a frame or faulted back in after an
      // eviction wrote it out.
      EXPECT_EQ(h->page()->ReadAt<uint32_t>(64), content[id])
          << "step " << step << " page " << id;
      held.push_back({std::move(*h), id});
    } else if (dice < 0.85 && !held.empty()) {
      // Release a random pin.
      size_t at = rng.Uniform(held.size());
      PageId id = held[at].id;
      held[at].handle.Release();
      held.erase(held.begin() + static_cast<ptrdiff_t>(at));
      auto it = pin_count.find(id);
      ASSERT_NE(it, pin_count.end());
      if (--it->second == 0) {
        pin_count.erase(it);
        lru.push_front(id);  // unpinned at the hot end
      }
    } else if (!held.empty()) {
      // Rewrite a pinned page.
      size_t at = rng.Uniform(held.size());
      Pinned& p = held[at];
      uint32_t v = static_cast<uint32_t>(rng.Uniform(1u << 30));
      p.handle.page()->WriteAt<uint32_t>(64, v);
      p.handle.MarkDirty();
      content[p.id] = v;
    }
    ASSERT_EQ(pool.stats().hits, hits) << "step " << step;
    ASSERT_EQ(pool.stats().misses, misses) << "step " << step;
    ASSERT_EQ(pool.stats().evictions, evictions) << "step " << step;
    ASSERT_LE(pool.frame_count(), kCapacity) << "step " << step;
  }

  // Drain all pins, flush, and audit every page straight from the pager:
  // nothing the model wrote may have been lost to an eviction.
  held.clear();
  ASSERT_TRUE(pool.FlushAll().ok());
  for (PageId id : all_ids) {
    Page p;
    ASSERT_TRUE(pager->ReadPage(id, &p).ok());
    EXPECT_EQ(p.ReadAt<uint32_t>(64), content[id]) << "page " << id;
  }
  // The run must actually have exercised eviction to mean anything.
  EXPECT_GT(evictions, 100u);
}

// --- paged backend: spill overlay + checkpoint journal ----------------------

std::string PagedScratch(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir + "/t.heap";
}

Page MakePage(uint32_t tag) {
  Page p;
  p.Zero();
  p.WriteAt<uint32_t>(0, tag);
  p.WriteAt<uint32_t>(kPageSize - 4, tag ^ 0xFFFFFFFFu);
  return p;
}

uint32_t PageTag(const Page& p) { return p.ReadAt<uint32_t>(0); }

// Allocates the next page and writes `page` into it.
Result<PageId> AppendPage(Pager& pager, const Page& page) {
  BDBMS_ASSIGN_OR_RETURN(PageId id, pager.AllocatePage());
  BDBMS_RETURN_IF_ERROR(pager.WritePage(id, page));
  return id;
}

TEST(PagedPagerTest, SpillOverlayMasksFrozenBase) {
  WalEnv env;
  std::string path = PagedScratch("paged_overlay");
  auto pager = Pager::OpenPaged(&env, path);
  ASSERT_TRUE(pager.ok());
  auto id = AppendPage(**pager, MakePage(100));
  ASSERT_TRUE(id.ok());
  // Freeze the base at one page.
  ASSERT_TRUE((*pager)->CheckpointPrepare(1).ok());
  ASSERT_TRUE((*pager)->CheckpointCommit().ok());
  EXPECT_EQ((*pager)->base_page_count(), 1u);
  EXPECT_EQ((*pager)->dirty_page_count(), 0u);

  // Overwrite page 0 and extend with page 1: both land in the spill.
  ASSERT_TRUE((*pager)->WritePage(*id, MakePage(200)).ok());
  auto id2 = AppendPage(**pager, MakePage(300));
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ((*pager)->dirty_page_count(), 1u);  // only the overwrite

  Page got;
  ASSERT_TRUE((*pager)->ReadPage(*id, &got).ok());
  EXPECT_EQ(PageTag(got), 200u);
  ASSERT_TRUE((*pager)->ReadPage(*id2, &got).ok());
  EXPECT_EQ(PageTag(got), 300u);

  // The base file on disk still holds the frozen image of page 0.
  auto base = env.OpenPageFile(path);
  ASSERT_TRUE(base.ok());
  Page raw;
  ASSERT_TRUE((*base)->Read(0, kPageSize, raw.bytes()).ok());
  EXPECT_EQ(PageTag(raw), 100u);
}

TEST(PagedPagerTest, ReadBeyondBaseWithoutSpillSlotFails) {
  WalEnv env;
  std::string path = PagedScratch("paged_oob");
  auto pager = Pager::OpenPaged(&env, path);
  ASSERT_TRUE(pager.ok());
  Page p;
  EXPECT_FALSE((*pager)->ReadPage(7, &p).ok());
}

TEST(PagedPagerTest, ForeignGenerationJournalIsDiscarded) {
  WalEnv env;
  std::string path = PagedScratch("paged_foreign_jl");
  {
    auto pager = Pager::OpenPaged(&env, path);
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE(AppendPage(**pager, MakePage(1)).ok());
    ASSERT_TRUE((*pager)->CheckpointPrepare(1).ok());
    ASSERT_TRUE((*pager)->CheckpointCommit().ok());
    // Stage an overwrite under a generation that never commits: the
    // journal survives on disk, the manifest never names gen 2.
    ASSERT_TRUE((*pager)->WritePage(0, MakePage(2)).ok());
    ASSERT_TRUE((*pager)->CheckpointPrepare(2).ok());
  }
  ASSERT_TRUE(std::filesystem::exists(Pager::JournalPath(path)));
  // Recovery to the committed gen 1 discards the foreign journal and the
  // spill; the base keeps its frozen image.
  ASSERT_TRUE(Pager::RecoverPagedHeap(&env, path, 1, 1).ok());
  EXPECT_FALSE(std::filesystem::exists(Pager::JournalPath(path)));
  EXPECT_FALSE(std::filesystem::exists(Pager::SpillPath(path)));
  auto pager = Pager::OpenPaged(&env, path);
  ASSERT_TRUE(pager.ok());
  Page got;
  ASSERT_TRUE((*pager)->ReadPage(0, &got).ok());
  EXPECT_EQ(PageTag(got), 1u);
}

TEST(PagedPagerTest, MatchingGenerationJournalIsReapplied) {
  WalEnv env;
  std::string path = PagedScratch("paged_apply_jl");
  {
    auto pager = Pager::OpenPaged(&env, path);
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE(AppendPage(**pager, MakePage(1)).ok());
    ASSERT_TRUE((*pager)->CheckpointPrepare(1).ok());
    ASSERT_TRUE((*pager)->CheckpointCommit().ok());
    ASSERT_TRUE((*pager)->WritePage(0, MakePage(2)).ok());
    // Crash window: prepare done, manifest renamed (gen 2 committed), but
    // CheckpointCommit never ran.
    ASSERT_TRUE((*pager)->CheckpointPrepare(2).ok());
  }
  ASSERT_TRUE(Pager::RecoverPagedHeap(&env, path, 2, 1).ok());
  EXPECT_FALSE(std::filesystem::exists(Pager::JournalPath(path)));
  auto pager = Pager::OpenPaged(&env, path);
  ASSERT_TRUE(pager.ok());
  Page got;
  ASSERT_TRUE((*pager)->ReadPage(0, &got).ok());
  EXPECT_EQ(PageTag(got), 2u);
  // Idempotent: recovering again (no journal left) changes nothing.
  ASSERT_TRUE(Pager::RecoverPagedHeap(&env, path, 2, 1).ok());
}

TEST(PagedPagerTest, TruncatedCommittedJournalIsCorruption) {
  WalEnv env;
  std::string path = PagedScratch("paged_torn_jl");
  {
    auto pager = Pager::OpenPaged(&env, path);
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE(AppendPage(**pager, MakePage(1)).ok());
    ASSERT_TRUE((*pager)->CheckpointPrepare(1).ok());
    ASSERT_TRUE((*pager)->CheckpointCommit().ok());
    ASSERT_TRUE((*pager)->WritePage(0, MakePage(2)).ok());
    ASSERT_TRUE((*pager)->CheckpointPrepare(2).ok());
  }
  // A journal whose generation the manifest names was fsynced before the
  // rename; a short one means the disk lost acknowledged bytes.
  auto size = std::filesystem::file_size(Pager::JournalPath(path));
  std::filesystem::resize_file(Pager::JournalPath(path), size - 100);
  auto st = Pager::RecoverPagedHeap(&env, path, 2, 1);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(PagedPagerTest, JournalPageCrcMismatchIsCorruption) {
  WalEnv env;
  std::string path = PagedScratch("paged_crc_jl");
  {
    auto pager = Pager::OpenPaged(&env, path);
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE(AppendPage(**pager, MakePage(1)).ok());
    ASSERT_TRUE((*pager)->CheckpointPrepare(1).ok());
    ASSERT_TRUE((*pager)->CheckpointCommit().ok());
    ASSERT_TRUE((*pager)->WritePage(0, MakePage(2)).ok());
    ASSERT_TRUE((*pager)->CheckpointPrepare(2).ok());
  }
  // Flip a byte inside the journaled page image.
  std::string jpath = Pager::JournalPath(path);
  std::fstream f(jpath, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(24 + 8 + 1000);  // header + entry id/crc + offset into the image
  char b = 0;
  f.read(&b, 1);
  f.seekp(24 + 8 + 1000);
  b = static_cast<char>(b ^ 0x40);
  f.write(&b, 1);
  f.close();
  auto st = Pager::RecoverPagedHeap(&env, path, 2, 1);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(PagedPagerTest, BaseSmallerThanManifestIsCorruption) {
  WalEnv env;
  std::string path = PagedScratch("paged_short_base");
  {
    auto pager = Pager::OpenPaged(&env, path);
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE(AppendPage(**pager, MakePage(1)).ok());
    ASSERT_TRUE((*pager)->CheckpointPrepare(1).ok());
    ASSERT_TRUE((*pager)->CheckpointCommit().ok());
  }
  auto st = Pager::RecoverPagedHeap(&env, path, 1, 5);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(PagedPagerTest, RecoveryTruncatesProvisionalExtensions) {
  WalEnv env;
  std::string path = PagedScratch("paged_trunc_ext");
  {
    auto pager = Pager::OpenPaged(&env, path);
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE(AppendPage(**pager, MakePage(1)).ok());
    ASSERT_TRUE((*pager)->CheckpointPrepare(1).ok());
    ASSERT_TRUE((*pager)->CheckpointCommit().ok());
    // A prepare that extends the base but whose manifest never renamed.
    ASSERT_TRUE(AppendPage(**pager, MakePage(7)).ok());
    ASSERT_TRUE(AppendPage(**pager, MakePage(8)).ok());
    ASSERT_TRUE((*pager)->CheckpointPrepare(2).ok());
  }
  ASSERT_EQ(std::filesystem::file_size(path), 3u * kPageSize);
  ASSERT_TRUE(Pager::RecoverPagedHeap(&env, path, 1, 1).ok());
  EXPECT_EQ(std::filesystem::file_size(path), 1u * kPageSize);
}

// --- fault injection on the page path ---------------------------------------

TEST(PagedPagerTest, EvictionWriteBackFailureSurfacesAndKeepsVictim) {
  testutil::FaultEnv fault;
  std::string path = PagedScratch("paged_evict_fault");
  auto pager = Pager::OpenPaged(&fault, path);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 2);
  PageId ids[2];
  for (int i = 0; i < 2; ++i) {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    ids[i] = h->id();
    h->page()->WriteAt<uint32_t>(0, 4000u + static_cast<uint32_t>(i));
    h->MarkDirty();
  }
  // Both frames are unpinned and dirty. Evicting now requires a spill
  // write, which the fault layer refuses.
  fault.page_write_budget = 0;
  auto h = pool.New();
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsIoError()) << h.status().ToString();
  // The victim stayed resident, dirty, and in the LRU: with the fault
  // lifted both pages are still hits carrying their data, and the retry
  // succeeds.
  fault.page_write_budget = -1;
  for (int i = 0; i < 2; ++i) {
    auto again = pool.Fetch(ids[i]);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->page()->ReadAt<uint32_t>(0),
              4000u + static_cast<uint32_t>(i));
  }
  EXPECT_EQ(pool.stats().hits, 2u);
  auto retry = pool.New();
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(PagedPagerTest, TornSpillWriteSurfacesAndRetrySucceeds) {
  testutil::FaultEnv fault;
  std::string path = PagedScratch("paged_torn_spill");
  auto pager = Pager::OpenPaged(&fault, path);
  ASSERT_TRUE(pager.ok());
  auto idr = AppendPage(**pager, MakePage(1));
  ASSERT_TRUE(idr.ok());
  PageId id = *idr;
  ASSERT_TRUE((*pager)->CheckpointPrepare(1).ok());
  ASSERT_TRUE((*pager)->CheckpointCommit().ok());
  // The overwrite tears half way into the spill page.
  fault.page_write_budget = kPageSize / 2;
  auto st = (*pager)->WritePage(id, MakePage(2));
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  // The torn write never registered a spill slot: reads still resolve to
  // the base image, and a retry lands cleanly.
  Page got;
  ASSERT_TRUE((*pager)->ReadPage(id, &got).ok());
  EXPECT_EQ(PageTag(got), 1u);
  fault.page_write_budget = -1;
  ASSERT_TRUE((*pager)->WritePage(id, MakePage(3)).ok());
  ASSERT_TRUE((*pager)->ReadPage(id, &got).ok());
  EXPECT_EQ(PageTag(got), 3u);
}

}  // namespace
}  // namespace bdbms
