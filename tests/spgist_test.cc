// Tests for the SP-GiST framework and its trie / kd-tree / quadtree
// operator classes, plus the regex engine backing regex-match search.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"
#include "index/spgist/kd_ops.h"
#include "index/spgist/quad_ops.h"
#include "index/spgist/regex.h"
#include "index/spgist/trie_ops.h"

namespace bdbms {
namespace {

TEST(RegexTest, FullMatchBasics) {
  auto re = RegexProgram::Compile("AC*G");
  ASSERT_TRUE(re.ok());
  EXPECT_TRUE(re->FullMatch("AG"));
  EXPECT_TRUE(re->FullMatch("ACG"));
  EXPECT_TRUE(re->FullMatch("ACCCG"));
  EXPECT_FALSE(re->FullMatch("AC"));
  EXPECT_FALSE(re->FullMatch("AGG"));
}

TEST(RegexTest, DotClassPlusOptional) {
  auto re = RegexProgram::Compile("A.[CG]+T?");
  ASSERT_TRUE(re.ok());
  EXPECT_TRUE(re->FullMatch("AXC"));
  EXPECT_TRUE(re->FullMatch("AXCGC"));
  EXPECT_TRUE(re->FullMatch("AXGT"));
  EXPECT_FALSE(re->FullMatch("AX"));     // needs one of [CG]
  EXPECT_FALSE(re->FullMatch("AXCTT"));  // only one optional T
}

TEST(RegexTest, CompileErrors) {
  EXPECT_FALSE(RegexProgram::Compile("*A").ok());
  EXPECT_FALSE(RegexProgram::Compile("A[BC").ok());
  EXPECT_FALSE(RegexProgram::Compile("A[]").ok());
  EXPECT_FALSE(RegexProgram::Compile("A\\").ok());
}

TEST(RegexTest, StateAdvanceExposesDeadStates) {
  auto re = RegexProgram::Compile("ACGT");
  ASSERT_TRUE(re.ok());
  std::vector<uint64_t> states(re->Start().begin(), re->Start().end());
  EXPECT_TRUE(re->Advance(states, 'A', states));
  EXPECT_FALSE(re->Accepting(states));
  EXPECT_FALSE(re->Advance(states, 'X', states));  // subtree prunable
}

TEST(SpGistTrieTest, ExactMatch) {
  auto trie = SpGistTrie::Create({});
  ASSERT_TRUE(trie.ok());
  ASSERT_TRUE((*trie)->Insert("mraW", 1).ok());
  ASSERT_TRUE((*trie)->Insert("mraX", 2).ok());
  ASSERT_TRUE((*trie)->Insert("mra", 3).ok());  // prefix of another key
  std::vector<uint64_t> hits;
  ASSERT_TRUE((*trie)
                  ->Search(TrieOps::Exact("mraW"),
                           [&](const std::string&, uint64_t p) {
                             hits.push_back(p);
                             return true;
                           })
                  .ok());
  EXPECT_EQ(hits, (std::vector<uint64_t>{1}));
  hits.clear();
  ASSERT_TRUE((*trie)
                  ->Search(TrieOps::Exact("mra"),
                           [&](const std::string&, uint64_t p) {
                             hits.push_back(p);
                             return true;
                           })
                  .ok());
  EXPECT_EQ(hits, (std::vector<uint64_t>{3}));
}

class SpGistTrieFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpGistTrieFuzzTest, MatchesReferenceSet) {
  auto trie = SpGistTrie::Create({});
  ASSERT_TRUE(trie.ok());
  Rng rng(GetParam());
  std::multimap<std::string, uint64_t> model;
  for (uint64_t i = 0; i < 3000; ++i) {
    std::string key = rng.NextString(1 + rng.Uniform(16), "ACGT");
    ASSERT_TRUE((*trie)->Insert(key, i).ok());
    model.emplace(key, i);
  }
  // Exact.
  for (int q = 0; q < 40; ++q) {
    std::string key = rng.NextString(1 + rng.Uniform(16), "ACGT");
    std::set<uint64_t> expected;
    auto [lo, hi] = model.equal_range(key);
    for (auto it = lo; it != hi; ++it) expected.insert(it->second);
    std::set<uint64_t> got;
    ASSERT_TRUE((*trie)
                    ->Search(TrieOps::Exact(key),
                             [&](const std::string&, uint64_t p) {
                               got.insert(p);
                               return true;
                             })
                    .ok());
    EXPECT_EQ(got, expected);
  }
  // Prefix.
  for (int q = 0; q < 40; ++q) {
    std::string prefix = rng.NextString(1 + rng.Uniform(4), "ACGT");
    std::set<uint64_t> expected;
    for (const auto& [k, v] : model) {
      if (k.compare(0, prefix.size(), prefix) == 0) expected.insert(v);
    }
    std::set<uint64_t> got;
    ASSERT_TRUE((*trie)
                    ->Search(TrieOps::Prefix(prefix),
                             [&](const std::string&, uint64_t p) {
                               got.insert(p);
                               return true;
                             })
                    .ok());
    EXPECT_EQ(got, expected);
  }
  // Regex.
  auto re = RegexProgram::Compile("AC*G[AT].*");
  ASSERT_TRUE(re.ok());
  std::set<uint64_t> expected;
  for (const auto& [k, v] : model) {
    if (re->FullMatch(k)) expected.insert(v);
  }
  std::set<uint64_t> got;
  ASSERT_TRUE((*trie)
                  ->Search(TrieOps::Regex(&*re),
                           [&](const std::string&, uint64_t p) {
                             got.insert(p);
                             return true;
                           })
                  .ok());
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpGistTrieFuzzTest,
                         ::testing::Values(5u, 17u, 31u));

template <typename IndexT>
void RunSpatialFuzz(IndexT* index, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<SpPoint, uint64_t>> model;
  for (uint64_t i = 0; i < 3000; ++i) {
    SpPoint p{rng.UniformDouble() * 1000, rng.UniformDouble() * 1000};
    ASSERT_TRUE(index->Insert(p, i).ok());
    model.emplace_back(p, i);
  }
  // Point lookup.
  for (int q = 0; q < 25; ++q) {
    const auto& [p, id] = model[rng.Uniform(model.size())];
    std::set<uint64_t> got;
    ASSERT_TRUE(index
                    ->Search(SpatialQuery::Eq(p.x, p.y),
                             [&](const SpPoint&, uint64_t v) {
                               got.insert(v);
                               return true;
                             })
                    .ok());
    EXPECT_TRUE(got.count(id));
  }
  // Window queries vs linear scan.
  for (int q = 0; q < 25; ++q) {
    double x = rng.UniformDouble() * 900, y = rng.UniformDouble() * 900;
    Rect w{x, y, x + 80, y + 80};
    std::set<uint64_t> expected;
    for (const auto& [p, id] : model) {
      if (p.x >= w.x1 && p.x <= w.x2 && p.y >= w.y1 && p.y <= w.y2) {
        expected.insert(id);
      }
    }
    std::set<uint64_t> got;
    ASSERT_TRUE(index
                    ->Search(SpatialQuery::Window(w),
                             [&](const SpPoint&, uint64_t v) {
                               got.insert(v);
                               return true;
                             })
                    .ok());
    EXPECT_EQ(got, expected);
  }
  // kNN vs brute force.
  for (int q = 0; q < 10; ++q) {
    double x = rng.UniformDouble() * 1000, y = rng.UniformDouble() * 1000;
    auto knn = SearchKnn(*index, x, y, 7);
    ASSERT_TRUE(knn.ok());
    std::vector<double> brute;
    for (const auto& [p, id] : model) brute.push_back(p.Dist2(x, y));
    std::sort(brute.begin(), brute.end());
    ASSERT_EQ(knn->size(), 7u);
    for (size_t i = 0; i < 7; ++i) {
      EXPECT_NEAR((*knn)[i].second, std::sqrt(brute[i]), 1e-9);
    }
  }
}

TEST(SpGistKdTreeTest, SpatialFuzz) {
  KdOps::Config config;
  config.bounds = {0, 0, 1000, 1000};
  auto index = SpGistKdTree::Create(config);
  ASSERT_TRUE(index.ok());
  RunSpatialFuzz(index->get(), 41);
}

TEST(SpGistQuadTreeTest, SpatialFuzz) {
  QuadOps::Config config;
  config.bounds = {0, 0, 1000, 1000};
  auto index = SpGistQuadTree::Create(config);
  ASSERT_TRUE(index.ok());
  RunSpatialFuzz(index->get(), 43);
}

TEST(SpGistFrameworkTest, HandlesDuplicateKeysWithoutSplitting) {
  auto trie = SpGistTrie::Create({});
  ASSERT_TRUE(trie.ok());
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE((*trie)->Insert("SAMEKEY", i).ok());
  }
  size_t count = 0;
  ASSERT_TRUE((*trie)
                  ->Search(TrieOps::Exact("SAMEKEY"),
                           [&](const std::string&, uint64_t) {
                             ++count;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(count, 200u);
}

TEST(SpGistFrameworkTest, CountsIo) {
  // A tiny buffer pool forces pool misses to reach the pager, so logical
  // I/O counters move.
  auto trie = SpGistTrie::Create({}, /*pool_pages=*/2);
  ASSERT_TRUE(trie.ok());
  Rng rng(2);
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE((*trie)->Insert(rng.NextString(24, "ACGT"), i).ok());
  }
  EXPECT_GT((*trie)->io_stats().pages_allocated, 0u);
  EXPECT_GT((*trie)->io_stats().page_reads, 0u);
  EXPECT_GT((*trie)->node_count(), 1u);
  EXPECT_GT((*trie)->SizeBytes(), 0u);
}

}  // namespace
}  // namespace bdbms
