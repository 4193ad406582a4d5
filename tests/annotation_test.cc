// Unit tests for src/annot: regions, interval index, annotation tables
// (rectangle scheme), the Figure-3 cell-scheme baseline, and the manager.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "annot/annotation.h"
#include "annot/annotation_manager.h"
#include "annot/annotation_table.h"
#include "annot/cell_scheme.h"
#include "annot/interval_index.h"
#include "common/clock.h"
#include "core/database.h"
#include "core/session.h"

namespace bdbms {
namespace {

TEST(RegionTest, CellContainment) {
  Region r{ColumnBit(1) | ColumnBit(2), 10, 20};
  EXPECT_TRUE(r.ContainsCell(10, 1));
  EXPECT_TRUE(r.ContainsCell(20, 2));
  EXPECT_FALSE(r.ContainsCell(9, 1));
  EXPECT_FALSE(r.ContainsCell(21, 1));
  EXPECT_FALSE(r.ContainsCell(15, 0));
  EXPECT_EQ(r.CellCount(), 22u);
}

TEST(RegionTest, Overlap) {
  Region a{ColumnBit(0), 0, 5};
  Region b{ColumnBit(0), 5, 9};
  Region c{ColumnBit(1), 0, 9};
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_FALSE(a.Overlaps(c));  // disjoint columns
  EXPECT_FALSE(a.Overlaps({ColumnBit(0), 6, 9}));
}

TEST(ComputeRegionsTest, CollapsesContiguousRuns) {
  // Rows 0..4 annotated on the same column mask -> single rectangle.
  std::vector<std::pair<RowId, ColumnMask>> targets;
  for (RowId r = 0; r < 5; ++r) targets.push_back({r, ColumnBit(2)});
  auto regions = ComputeRegions(targets);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], (Region{ColumnBit(2), 0, 4}));
}

TEST(ComputeRegionsTest, SplitsOnGapsAndMaskChanges) {
  std::vector<std::pair<RowId, ColumnMask>> targets = {
      {0, ColumnBit(0)}, {1, ColumnBit(0)},
      {3, ColumnBit(0)},                    // gap at row 2
      {4, ColumnBit(1)},                    // mask change
  };
  auto regions = ComputeRegions(targets);
  ASSERT_EQ(regions.size(), 3u);
  EXPECT_EQ(regions[0], (Region{ColumnBit(0), 0, 1}));
  EXPECT_EQ(regions[1], (Region{ColumnBit(0), 3, 3}));
  EXPECT_EQ(regions[2], (Region{ColumnBit(1), 4, 4}));
}

TEST(ComputeRegionsTest, MergesDuplicateRows) {
  auto regions = ComputeRegions({{7, ColumnBit(0)}, {7, ColumnBit(1)}});
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], (Region{ColumnBit(0) | ColumnBit(1), 7, 7}));
}

TEST(ComputeRegionsTest, EmptyInput) {
  EXPECT_TRUE(ComputeRegions({}).empty());
}

TEST(IntervalIndexTest, PointAndRangeQueries) {
  IntervalIndex idx;
  idx.Insert(0, 9, 1);
  idx.Insert(5, 5, 2);
  idx.Insert(8, 20, 3);

  std::vector<uint64_t> hits;
  idx.QueryPoint(5, [&](RowId, RowId, uint64_t p) { hits.push_back(p); });
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint64_t>{1, 2}));

  hits.clear();
  idx.QueryRange(9, 10, [&](RowId, RowId, uint64_t p) { hits.push_back(p); });
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint64_t>{1, 3}));

  hits.clear();
  idx.QueryPoint(100, [&](RowId, RowId, uint64_t p) { hits.push_back(p); });
  EXPECT_TRUE(hits.empty());
}

TEST(IntervalIndexTest, EraseAndRequery) {
  IntervalIndex idx;
  idx.Insert(0, 10, 1);
  idx.Insert(0, 10, 2);
  idx.Erase(1);
  std::vector<uint64_t> hits;
  idx.QueryPoint(5, [&](RowId, RowId, uint64_t p) { hits.push_back(p); });
  EXPECT_EQ(hits, (std::vector<uint64_t>{2}));
}

TEST(IntervalIndexTest, ManyIntervalsStress) {
  IntervalIndex idx;
  // 1000 intervals [i, i+9].
  for (uint64_t i = 0; i < 1000; ++i) idx.Insert(i, i + 9, i);
  size_t count = 0;
  idx.QueryPoint(500, [&](RowId b, RowId e, uint64_t) {
    EXPECT_LE(b, 500u);
    EXPECT_GE(e, 500u);
    ++count;
  });
  EXPECT_EQ(count, 10u);  // intervals 491..500
}

class AnnotationTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto at = AnnotationTable::CreateInMemory("GAnnotation", &clock_);
    ASSERT_TRUE(at.ok());
    table_ = std::move(*at);
  }

  LogicalClock clock_;
  std::unique_ptr<AnnotationTable> table_;
};

TEST_F(AnnotationTableTest, AddAndLookupByCell) {
  // Paper Figure 2: B3 "obtained from GenoBase" over the whole GSequence
  // column (column 2, rows 0..4).
  auto id = table_->Add("<Annotation>obtained from GenoBase</Annotation>",
                        {{ColumnBit(2), 0, 4}}, "admin");
  ASSERT_TRUE(id.ok());

  EXPECT_EQ(table_->IdsForCell(0, 2), std::vector<AnnotationId>{*id});
  EXPECT_EQ(table_->IdsForCell(4, 2), std::vector<AnnotationId>{*id});
  EXPECT_TRUE(table_->IdsForCell(5, 2).empty());
  EXPECT_TRUE(table_->IdsForCell(0, 1).empty());

  auto body = table_->Body(*id);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "<Annotation>obtained from GenoBase</Annotation>");
}

TEST_F(AnnotationTableTest, RejectsInvalidXmlAndEmptyRegions) {
  EXPECT_FALSE(table_->Add("not xml", {{ColumnBit(0), 0, 0}}, "u").ok());
  EXPECT_FALSE(table_->Add("<A/>", {}, "u").ok());
}

TEST_F(AnnotationTableTest, MultiRegionAnnotation) {
  // One annotation over two disjoint rectangles (e.g. B1 in Figure 2).
  auto id = table_->Add("<Annotation>Curated by user admin</Annotation>",
                        {{ColumnBit(0) | ColumnBit(1), 0, 0},
                         {ColumnBit(0) | ColumnBit(1), 3, 4}},
                        "admin");
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(table_->IdsForCell(1, 0).size());
  EXPECT_EQ(table_->IdsForCell(3, 1).size(), 1u);
  auto meta = table_->Meta(*id);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->regions.size(), 2u);
}

TEST_F(AnnotationTableTest, ArchiveHidesRestoreReveals) {
  auto id = table_->Add("<Annotation>unknown function</Annotation>",
                        {{ColumnBit(0), 0, 0}}, "u");
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(table_->IdsForCell(0, 0).size(), 1u);

  auto archived = table_->ArchiveMatching({{ColumnBit(0), 0, 0}});
  ASSERT_TRUE(archived.ok());
  EXPECT_EQ(*archived, 1u);
  EXPECT_TRUE(table_->IdsForCell(0, 0).empty());
  auto meta = table_->Meta(*id);
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->archived);
  EXPECT_EQ(table_->count(), 1u);  // archived, not deleted

  auto restored = table_->RestoreMatching({{ColumnBit(0), 0, 0}});
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, 1u);
  EXPECT_EQ(table_->IdsForCell(0, 0).size(), 1u);
}

TEST_F(AnnotationTableTest, ArchiveRespectsTimeWindow) {
  auto id1 = table_->Add("<A>old</A>", {{ColumnBit(0), 0, 0}}, "u");
  ASSERT_TRUE(id1.ok());
  uint64_t cutoff = clock_.Peek();
  auto id2 = table_->Add("<A>new</A>", {{ColumnBit(0), 0, 0}}, "u");
  ASSERT_TRUE(id2.ok());

  // Archive only annotations created before `cutoff`.
  auto archived =
      table_->ArchiveMatching({{ColumnBit(0), 0, 0}}, 0, cutoff - 1);
  ASSERT_TRUE(archived.ok());
  EXPECT_EQ(*archived, 1u);
  auto live = table_->IdsForCell(0, 0);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0], *id2);
}

TEST_F(AnnotationTableTest, ArchiveOnlyMatchingRegion) {
  auto id1 = table_->Add("<A>col0</A>", {{ColumnBit(0), 0, 10}}, "u");
  auto id2 = table_->Add("<A>col1</A>", {{ColumnBit(1), 0, 10}}, "u");
  ASSERT_TRUE(id1.ok() && id2.ok());
  auto archived = table_->ArchiveMatching({{ColumnBit(0), 0, 10}});
  ASSERT_TRUE(archived.ok());
  EXPECT_EQ(*archived, 1u);
  EXPECT_TRUE(table_->IdsForCell(5, 0).empty());
  EXPECT_EQ(table_->IdsForCell(5, 1).size(), 1u);
}

TEST_F(AnnotationTableTest, IdsForRegionsDeduplicates) {
  auto id = table_->Add("<A>wide</A>", {{ColumnBit(0), 0, 100}}, "u");
  ASSERT_TRUE(id.ok());
  auto ids = table_->IdsForRegions(
      {{ColumnBit(0), 0, 10}, {ColumnBit(0), 50, 60}});
  EXPECT_EQ(ids.size(), 1u);
}

TEST(CellSchemeTest, ReplicatesPerCell) {
  auto store = CellSchemeStore::CreateInMemory();
  ASSERT_TRUE(store.ok());
  // Annotation over 5 rows x 2 columns = 10 cells.
  ASSERT_TRUE(
      (*store)
          ->Add("<A>rep</A>", {{ColumnBit(0) | ColumnBit(1), 0, 4}})
          .ok());
  EXPECT_EQ((*store)->annotated_cell_count(), 10u);
  auto bodies = (*store)->BodiesForCell(3, 1);
  ASSERT_TRUE(bodies.ok());
  ASSERT_EQ(bodies->size(), 1u);
  EXPECT_EQ((*bodies)[0], "<A>rep</A>");
  EXPECT_TRUE((*store)->BodiesForCell(3, 2)->empty());
}

TEST(CellSchemeTest, AppendsToExistingCell) {
  auto store = CellSchemeStore::CreateInMemory();
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Add("<A>one</A>", {{ColumnBit(0), 0, 0}}).ok());
  ASSERT_TRUE((*store)->Add("<A>two</A>", {{ColumnBit(0), 0, 0}}).ok());
  auto bodies = (*store)->BodiesForCell(0, 0);
  ASSERT_TRUE(bodies.ok());
  EXPECT_EQ(bodies->size(), 2u);
}

TEST(CellSchemeTest, ColumnRangeGathersAllCopies) {
  auto store = CellSchemeStore::CreateInMemory();
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Add("<A>col</A>", {{ColumnBit(1), 0, 9}}).ok());
  auto bodies = (*store)->BodiesForColumnRange(1, 0, 9);
  ASSERT_TRUE(bodies.ok());
  EXPECT_EQ(bodies->size(), 10u);  // one copy per cell — the redundancy
}

TEST(AnnotationManagerTest, CreateDropAndLookup) {
  LogicalClock clock;
  AnnotationManager mgr(&clock);
  ASSERT_TRUE(mgr.CreateAnnotationTable("Gene", "GAnnotation").ok());
  ASSERT_TRUE(mgr.CreateAnnotationTable("Gene", "GProvenance").ok());
  EXPECT_TRUE(
      mgr.CreateAnnotationTable("Gene", "GAnnotation").IsAlreadyExists());
  EXPECT_EQ(mgr.ListFor("Gene").size(), 2u);
  EXPECT_TRUE(mgr.Get("Gene", "GAnnotation").ok());
  EXPECT_FALSE(mgr.Get("Gene", "Nope").ok());
  ASSERT_TRUE(mgr.DropAnnotationTable("Gene", "GProvenance").ok());
  EXPECT_EQ(mgr.ListFor("Gene").size(), 1u);
  mgr.DropAllFor("Gene");
  EXPECT_TRUE(mgr.ListFor("Gene").empty());
}

// A row carries the annotations of every category the query names, and
// only those.
TEST(AnnotationManagerTest, IdsForRowAcrossCategories) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE Gene (GID TEXT, GName TEXT)").ok());
  ASSERT_TRUE(db.Execute("CREATE ANNOTATION TABLE Comments ON Gene").ok());
  ASSERT_TRUE(db.Execute("CREATE ANNOTATION TABLE Lineage ON Gene").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO Gene VALUES ('g1', 'a'), ('g2', 'b')").ok());
  ASSERT_TRUE(db.Execute("ADD ANNOTATION TO Gene.Comments VALUE '<A>c</A>' "
                         "ON (SELECT GID FROM Gene)")
                  .ok());
  ASSERT_TRUE(db.Execute("ADD ANNOTATION TO Gene.Lineage VALUE '<A>l</A>' "
                         "ON (SELECT GID FROM Gene WHERE GID = 'g2')")
                  .ok());

  // Both categories.
  auto all = db.Execute(
      "SELECT GID FROM Gene ANNOTATION(Comments, Lineage) WHERE GID = 'g2'");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->rows.size(), 1u);
  EXPECT_EQ(all->rows[0].AllAnnotations().size(), 2u);

  // Only the Lineage category (the paper's "propagate a certain type").
  auto only =
      db.Execute("SELECT GID FROM Gene ANNOTATION(Lineage) WHERE GID = 'g2'");
  ASSERT_TRUE(only.ok()) << only.status().ToString();
  ASSERT_EQ(only->rows.size(), 1u);
  auto anns = only->rows[0].AllAnnotations();
  ASSERT_EQ(anns.size(), 1u);
  EXPECT_EQ(anns[0]->category, "Lineage");
}

// Every annotation write leaves the table's interval index dirty; the
// readers that arrive next rebuild it lazily while holding only the
// annotation table's shared latch. Several sessions must be able to hit
// that first rebuild at once.
TEST(EngineConcurrencyTest, ParallelAnnotationReadsAfterWrite) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE Gene (GID TEXT, GName TEXT)").ok());
  ASSERT_TRUE(db.Execute("CREATE ANNOTATION TABLE Notes ON Gene").ok());
  for (int i = 0; i < 32; ++i) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(
        db.Execute("INSERT INTO Gene VALUES ('g" + n + "', 'n" + n + "')")
            .ok());
  }
  constexpr int kReaders = 4;
  constexpr int kRounds = 20;
  std::atomic<int> failures{0};
  for (int round = 0; round < kRounds; ++round) {
    const std::string n = std::to_string(round);
    auto added = db.Execute("ADD ANNOTATION TO Gene.Notes VALUE '<A>round " +
                            n + "</A>' ON (SELECT GName FROM Gene " +
                            "WHERE GID = 'g" + n + "')");
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    std::atomic<int> ready{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        Session session(&db, "admin");
        ++ready;
        while (ready.load() < kReaders) {
        }
        auto annotated =
            session.Execute("SELECT GID, GName FROM Gene ANNOTATION(Notes)");
        auto filtered = session.Execute(
            "SELECT GID FROM Gene ANNOTATION(Notes) AWHERE VALUE LIKE "
            "'%round%'");
        if (!annotated.ok() || annotated->rows.size() != 32u ||
            !filtered.ok() ||
            filtered->rows.size() != static_cast<size_t>(round + 1)) {
          ++failures;
        }
      });
    }
    for (std::thread& t : readers) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace bdbms
