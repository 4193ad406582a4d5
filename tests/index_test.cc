// Unit + property tests for the access methods: B+-tree, R-tree.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "index/btree/bplus_tree.h"
#include "index/rtree/rtree.h"

namespace bdbms {
namespace {

// Payloads stored under exactly `key`: the range [key, key + '\0') holds
// only `key` itself.
std::vector<uint64_t> Exact(const BPlusTree& tree, const std::string& key) {
  std::vector<uint64_t> out;
  auto collect = [&](std::string_view, uint64_t payload) {
    out.push_back(payload);
    return true;
  };
  EXPECT_TRUE(tree.ScanRange(key, key + '\0', collect).ok());
  return out;
}

TEST(BPlusTreeTest, InsertAndExactSearch) {
  auto tree = BPlusTree::CreateInMemory();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Insert("mraW", 1).ok());
  ASSERT_TRUE((*tree)->Insert("ftsI", 2).ok());
  ASSERT_TRUE((*tree)->Insert("mraW", 3).ok());  // duplicate key
  std::vector<uint64_t> hits = Exact(**tree, "mraW");
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint64_t>{1, 3}));
  EXPECT_TRUE(Exact(**tree, "nope").empty());
}

TEST(BPlusTreeTest, RangeAndPrefixScan) {
  auto tree = BPlusTree::CreateInMemory();
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 100; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    ASSERT_TRUE((*tree)->Insert(buf, i).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE((*tree)
                  ->ScanRange("k010", "k020",
                              [&](std::string_view, uint64_t v) {
                                seen.push_back(v);
                                return true;
                              })
                  .ok());
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), 10u);
  EXPECT_EQ(seen.back(), 19u);

  seen.clear();
  ASSERT_TRUE((*tree)
                  ->ScanPrefix("k09", [&](std::string_view, uint64_t v) {
                    seen.push_back(v);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen.size(), 10u);  // k090..k099
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  auto tree = BPlusTree::CreateInMemory();
  ASSERT_TRUE(tree.ok());
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE((*tree)->Insert(rng.NextString(24, "ACGT"), i).ok());
  }
  // A single-page tree is one leaf; more pages mean the root split.
  EXPECT_GT((*tree)->SizeBytes(), kPageSize);
  EXPECT_EQ((*tree)->size(), 5000u);
}

TEST(BPlusTreeTest, DeleteRemovesSingleEntry) {
  auto tree = BPlusTree::CreateInMemory();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Insert("key", 1).ok());
  ASSERT_TRUE((*tree)->Insert("key", 2).ok());
  ASSERT_TRUE((*tree)->Delete("key", 1).ok());
  EXPECT_EQ(Exact(**tree, "key"), (std::vector<uint64_t>{2}));
  EXPECT_TRUE((*tree)->Delete("key", 1).IsNotFound());
}

TEST(BPlusTreeTest, RejectsOversizedKey) {
  auto tree = BPlusTree::CreateInMemory();
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE((*tree)->Insert(std::string(2000, 'x'), 1).ok());
}

class BPlusTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeFuzzTest, MatchesReferenceMultimap) {
  auto tree = BPlusTree::CreateInMemory();
  ASSERT_TRUE(tree.ok());
  Rng rng(GetParam());
  std::multimap<std::string, uint64_t> model;
  for (int step = 0; step < 4000; ++step) {
    std::string key = rng.NextString(1 + rng.Uniform(20), "ACGTHEL");
    uint64_t payload = rng.Next();
    ASSERT_TRUE((*tree)->Insert(key, payload).ok());
    model.emplace(key, payload);
  }
  EXPECT_EQ((*tree)->size(), model.size());
  // Ordered full scan must equal the model.
  std::vector<std::pair<std::string, uint64_t>> scanned;
  ASSERT_TRUE((*tree)
                  ->ScanPrefix("", [&](std::string_view k, uint64_t v) {
                    scanned.emplace_back(std::string(k), v);
                    return true;
                  })
                  .ok());
  ASSERT_EQ(scanned.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(scanned[i].first, k);
    ++i;
  }
  // Random range queries agree with the model.
  for (int q = 0; q < 50; ++q) {
    std::string lo = rng.NextString(2, "ACGTHEL");
    std::string hi = lo + rng.NextString(2, "ACGTHEL");
    size_t expected = 0;
    for (auto it = model.lower_bound(lo); it != model.end() && it->first < hi;
         ++it) {
      ++expected;
    }
    size_t got = 0;
    ASSERT_TRUE((*tree)
                    ->ScanRange(lo, hi,
                                [&](std::string_view, uint64_t) {
                                  ++got;
                                  return true;
                                })
                    .ok());
    EXPECT_EQ(got, expected) << "range [" << lo << ", " << hi << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeFuzzTest,
                         ::testing::Values(1u, 7u, 99u));

TEST(RTreeTest, WindowSearch) {
  auto tree = RTree::CreateInMemory();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Insert(Rect::Point(1, 1), 1).ok());
  ASSERT_TRUE((*tree)->Insert(Rect::Point(5, 5), 2).ok());
  ASSERT_TRUE((*tree)->Insert(Rect{2, 2, 3, 3}, 3).ok());
  std::vector<uint64_t> hits;
  ASSERT_TRUE((*tree)
                  ->SearchWindow(Rect{0, 0, 2.5, 2.5},
                                 [&](const Rect&, uint64_t p) {
                                   hits.push_back(p);
                                   return true;
                                 })
                  .ok());
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint64_t>{1, 3}));
}

TEST(RTreeTest, KnnOrdersByDistance) {
  auto tree = RTree::CreateInMemory();
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        (*tree)->Insert(Rect::Point(i, 0), static_cast<uint64_t>(i)).ok());
  }
  auto knn = (*tree)->SearchKnn(3.2, 0, 3);
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn->size(), 3u);
  EXPECT_EQ((*knn)[0].first, 3u);
  EXPECT_EQ((*knn)[1].first, 4u);
  EXPECT_EQ((*knn)[2].first, 2u);
  EXPECT_LE((*knn)[0].second, (*knn)[1].second);
}

class RTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RTreeFuzzTest, WindowMatchesLinearScan) {
  auto tree = RTree::CreateInMemory();
  ASSERT_TRUE(tree.ok());
  Rng rng(GetParam());
  std::vector<std::pair<Rect, uint64_t>> model;
  for (uint64_t i = 0; i < 3000; ++i) {
    double x = rng.UniformDouble() * 1000;
    double y = rng.UniformDouble() * 1000;
    Rect r = Rect::Point(x, y);
    ASSERT_TRUE((*tree)->Insert(r, i).ok());
    model.emplace_back(r, i);
  }
  for (int q = 0; q < 25; ++q) {
    double x = rng.UniformDouble() * 900;
    double y = rng.UniformDouble() * 900;
    Rect window{x, y, x + 100, y + 100};
    std::set<uint64_t> expected;
    for (const auto& [r, id] : model) {
      if (r.Intersects(window)) expected.insert(id);
    }
    std::set<uint64_t> got;
    ASSERT_TRUE((*tree)
                    ->SearchWindow(window,
                                   [&](const Rect&, uint64_t p) {
                                     got.insert(p);
                                     return true;
                                   })
                    .ok());
    EXPECT_EQ(got, expected);
  }
  // kNN agrees with a brute-force ranking.
  for (int q = 0; q < 10; ++q) {
    double x = rng.UniformDouble() * 1000;
    double y = rng.UniformDouble() * 1000;
    auto knn = (*tree)->SearchKnn(x, y, 5);
    ASSERT_TRUE(knn.ok());
    std::vector<std::pair<double, uint64_t>> brute;
    for (const auto& [r, id] : model) {
      brute.emplace_back(r.MinDist2(x, y), id);
    }
    std::sort(brute.begin(), brute.end());
    ASSERT_EQ(knn->size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_NEAR((*knn)[i].second, std::sqrt(brute[i].first), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeFuzzTest, ::testing::Values(11u, 23u));

}  // namespace
}  // namespace bdbms
