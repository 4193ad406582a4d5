// Experiment E5 (paper §7.1, claims of [16]): SP-GiST indexes against the
// classical baselines — trie vs B+-tree for exact / prefix / regex match
// on gene-name style strings; kd-tree & PR quadtree vs R-tree for point /
// window / k-NN on protein-structure points.
#include <benchmark/benchmark.h>

#include <memory>

#include "bio/sequence_generator.h"
#include "index/btree/bplus_tree.h"
#include "index/rtree/rtree.h"
#include "index/spgist/kd_ops.h"
#include "index/spgist/quad_ops.h"
#include "index/spgist/trie_ops.h"

namespace bdbms {
namespace {

constexpr size_t kStrings = 20000;
constexpr size_t kPoints = 20000;
constexpr size_t kPoolPages = 64;  // small pool so logical I/O shows up

std::vector<std::string> MakeStrings() {
  SequenceGenerator gen(21);
  std::vector<std::string> keys;
  keys.reserve(kStrings);
  for (size_t i = 0; i < kStrings; ++i) {
    keys.push_back(gen.Dna(8 + gen.rng().Uniform(16)));
  }
  return keys;
}

void BM_TrieExactMatch(benchmark::State& state) {
  auto keys = MakeStrings();
  auto trie = SpGistTrie::Create({}, kPoolPages);
  for (size_t i = 0; i < keys.size(); ++i) (void)(*trie)->Insert(keys[i], i);
  (*trie)->io_stats().Reset();
  size_t q = 0, hits = 0;
  for (auto _ : state) {
    hits = 0;
    auto st = (*trie)->Search(TrieOps::Exact(keys[q++ % keys.size()]),
                              [&](const std::string&, uint64_t) {
                                ++hits;
                                return true;
                              });
    benchmark::DoNotOptimize(st);
  }
  state.counters["page_reads_per_query"] =
      static_cast<double>((*trie)->io_stats().page_reads) /
      static_cast<double>(state.iterations());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_TrieExactMatch);

void BM_BTreeExactMatch(benchmark::State& state) {
  auto keys = MakeStrings();
  auto tree = BPlusTree::CreateInMemory(kPoolPages);
  for (size_t i = 0; i < keys.size(); ++i) (void)(*tree)->Insert(keys[i], i);
  (*tree)->io_stats().Reset();
  size_t q = 0, hits = 0;
  for (auto _ : state) {
    const std::string& key = keys[q++ % keys.size()];
    hits = 0;
    auto count = [&](std::string_view, uint64_t) {
      ++hits;
      return true;
    };
    benchmark::DoNotOptimize((*tree)->ScanRange(key, key + '\0', count));
  }
  state.counters["page_reads_per_query"] =
      static_cast<double>((*tree)->io_stats().page_reads) /
      static_cast<double>(state.iterations());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_BTreeExactMatch);

void BM_TriePrefixMatch(benchmark::State& state) {
  auto keys = MakeStrings();
  auto trie = SpGistTrie::Create({}, kPoolPages);
  for (size_t i = 0; i < keys.size(); ++i) (void)(*trie)->Insert(keys[i], i);
  (*trie)->io_stats().Reset();
  size_t q = 0, hits = 0;
  for (auto _ : state) {
    hits = 0;
    std::string prefix = keys[q++ % keys.size()].substr(0, 6);
    auto st = (*trie)->Search(TrieOps::Prefix(prefix),
                              [&](const std::string&, uint64_t) {
                                ++hits;
                                return true;
                              });
    benchmark::DoNotOptimize(st);
  }
  state.counters["page_reads_per_query"] =
      static_cast<double>((*trie)->io_stats().page_reads) /
      static_cast<double>(state.iterations());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_TriePrefixMatch);

void BM_BTreePrefixMatch(benchmark::State& state) {
  auto keys = MakeStrings();
  auto tree = BPlusTree::CreateInMemory(kPoolPages);
  for (size_t i = 0; i < keys.size(); ++i) (void)(*tree)->Insert(keys[i], i);
  (*tree)->io_stats().Reset();
  size_t q = 0, hits = 0;
  for (auto _ : state) {
    hits = 0;
    std::string prefix = keys[q++ % keys.size()].substr(0, 6);
    auto st = (*tree)->ScanPrefix(prefix, [&](std::string_view, uint64_t) {
      ++hits;
      return true;
    });
    benchmark::DoNotOptimize(st);
  }
  state.counters["page_reads_per_query"] =
      static_cast<double>((*tree)->io_stats().page_reads) /
      static_cast<double>(state.iterations());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_BTreePrefixMatch);

void BM_TrieRegexMatch(benchmark::State& state) {
  auto keys = MakeStrings();
  auto trie = SpGistTrie::Create({}, kPoolPages);
  for (size_t i = 0; i < keys.size(); ++i) (void)(*trie)->Insert(keys[i], i);
  auto re = RegexProgram::Compile("ACG[AT].*T");
  (*trie)->io_stats().Reset();
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    auto st = (*trie)->Search(TrieOps::Regex(&*re),
                              [&](const std::string&, uint64_t) {
                                ++hits;
                                return true;
                              });
    benchmark::DoNotOptimize(st);
  }
  state.counters["page_reads_per_query"] =
      static_cast<double>((*trie)->io_stats().page_reads) /
      static_cast<double>(state.iterations());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_TrieRegexMatch);

void BM_BTreeRegexMatch(benchmark::State& state) {
  // The B+-tree cannot prune by NFA state: full scan + FullMatch.
  auto keys = MakeStrings();
  auto tree = BPlusTree::CreateInMemory(kPoolPages);
  for (size_t i = 0; i < keys.size(); ++i) (void)(*tree)->Insert(keys[i], i);
  auto re = RegexProgram::Compile("ACG[AT].*T");
  (*tree)->io_stats().Reset();
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    auto st = (*tree)->ScanPrefix("", [&](std::string_view k, uint64_t) {
      if (re->FullMatch(k)) ++hits;
      return true;
    });
    benchmark::DoNotOptimize(st);
  }
  state.counters["page_reads_per_query"] =
      static_cast<double>((*tree)->io_stats().page_reads) /
      static_cast<double>(state.iterations());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_BTreeRegexMatch);

// ---- spatial: kd-tree / quadtree vs R-tree --------------------------------

std::vector<SpPoint> MakePoints() {
  SequenceGenerator gen(33);
  return gen.StructurePoints(kPoints, {0, 0, 1000, 1000});
}

template <typename IndexT>
void RunWindowQueries(benchmark::State& state, IndexT* index) {
  Rng rng(77);
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    double x = rng.UniformDouble() * 950, y = rng.UniformDouble() * 950;
    auto st = index->Search(SpatialQuery::Window({x, y, x + 50, y + 50}),
                            [&](const SpPoint&, uint64_t) {
                              ++hits;
                              return true;
                            });
    benchmark::DoNotOptimize(st);
  }
  state.counters["page_reads_per_query"] =
      static_cast<double>(index->io_stats().page_reads) /
      static_cast<double>(state.iterations());
  state.counters["hits"] = static_cast<double>(hits);
}

void BM_KdTreeWindow(benchmark::State& state) {
  auto points = MakePoints();
  KdOps::Config config;
  config.bounds = {0, 0, 1000, 1000};
  auto index = SpGistKdTree::Create(config, kPoolPages);
  for (size_t i = 0; i < points.size(); ++i)
    (void)(*index)->Insert(points[i], i);
  (*index)->io_stats().Reset();
  RunWindowQueries(state, index->get());
}
BENCHMARK(BM_KdTreeWindow);

void BM_QuadTreeWindow(benchmark::State& state) {
  auto points = MakePoints();
  QuadOps::Config config;
  config.bounds = {0, 0, 1000, 1000};
  auto index = SpGistQuadTree::Create(config, kPoolPages);
  for (size_t i = 0; i < points.size(); ++i)
    (void)(*index)->Insert(points[i], i);
  (*index)->io_stats().Reset();
  RunWindowQueries(state, index->get());
}
BENCHMARK(BM_QuadTreeWindow);

void BM_RTreeWindow(benchmark::State& state) {
  auto points = MakePoints();
  auto index = RTree::CreateInMemory(kPoolPages);
  for (size_t i = 0; i < points.size(); ++i) {
    (void)(*index)->Insert(Rect::Point(points[i].x, points[i].y), i);
  }
  (*index)->io_stats().Reset();
  Rng rng(77);
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    double x = rng.UniformDouble() * 950, y = rng.UniformDouble() * 950;
    auto st = (*index)->SearchWindow({x, y, x + 50, y + 50},
                                     [&](const Rect&, uint64_t) {
                                       ++hits;
                                       return true;
                                     });
    benchmark::DoNotOptimize(st);
  }
  state.counters["page_reads_per_query"] =
      static_cast<double>((*index)->io_stats().page_reads) /
      static_cast<double>(state.iterations());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_RTreeWindow);

void BM_KdTreeKnn(benchmark::State& state) {
  auto points = MakePoints();
  KdOps::Config config;
  config.bounds = {0, 0, 1000, 1000};
  auto index = SpGistKdTree::Create(config, kPoolPages);
  for (size_t i = 0; i < points.size(); ++i)
    (void)(*index)->Insert(points[i], i);
  (*index)->io_stats().Reset();
  Rng rng(78);
  for (auto _ : state) {
    auto r = SearchKnn(**index, rng.UniformDouble() * 1000,
                       rng.UniformDouble() * 1000, 10);
    benchmark::DoNotOptimize(r);
  }
  state.counters["page_reads_per_query"] =
      static_cast<double>((*index)->io_stats().page_reads) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_KdTreeKnn);

void BM_RTreeKnn(benchmark::State& state) {
  auto points = MakePoints();
  auto index = RTree::CreateInMemory(kPoolPages);
  for (size_t i = 0; i < points.size(); ++i) {
    (void)(*index)->Insert(Rect::Point(points[i].x, points[i].y), i);
  }
  (*index)->io_stats().Reset();
  Rng rng(78);
  for (auto _ : state) {
    auto r = (*index)->SearchKnn(rng.UniformDouble() * 1000,
                                 rng.UniformDouble() * 1000, 10);
    benchmark::DoNotOptimize(r);
  }
  state.counters["page_reads_per_query"] =
      static_cast<double>((*index)->io_stats().page_reads) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_RTreeKnn);

}  // namespace
}  // namespace bdbms

BENCHMARK_MAIN();
