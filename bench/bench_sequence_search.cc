// Genome-scale sequence search over a 10k-row sequence
// table: the NFA-guided trie regex descent vs the SeqScan + FullMatch
// residual pipeline, the best-first ranked top-k traversal vs
// sort-the-world (also over a 5k-read corpus), and ALIGN threshold
// search with and without the shared-prefix trie walk. Each pair shares
// one dataset, so the gap is the access path, not the data. A last bench
// runs all four probes from one and from four threads at once.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/database.h"

namespace bdbms {
namespace {

constexpr int kRows = 10000;

// Deterministic 10k-row DNA table; with_index adds the SP-GiST trie.
// 24-char sequences built from six 4-char blocks (4096 distinct keys):
// a regex pinning the first two blocks confines the trie walk to
// ~1/16 of the key space at depth 8.
std::unique_ptr<Database> BuildDatabase(bool with_index) {
  static const char* kBases[4] = {"ACGT", "TGCA", "GGCC", "ATAT"};
  auto db = std::make_unique<Database>();
  (void)db->Execute("CREATE TABLE Prot (PID INT, Seq SEQUENCE)");
  for (int base = 0; base < kRows; base += 500) {
    std::string insert = "INSERT INTO Prot VALUES ";
    for (int i = base; i < base + 500; ++i) {
      if (i > base) insert += ", ";
      insert += "(";
      insert += std::to_string(i);
      insert += ", '";
      insert += kBases[i % 16 / 4];
      insert += kBases[i % 4];
      insert += kBases[(i / 16) % 4];
      insert += kBases[(i / 64) % 4];
      insert += kBases[(i / 256) % 4];
      insert += kBases[(i / 1024) % 4];
      insert += "')";
    }
    (void)db->Execute(insert);
  }
  if (with_index) {
    (void)db->Execute("CREATE SEQUENCE INDEX idx_seq ON Prot (Seq)");
  }
  (void)db->Execute("ANALYZE");
  return db;
}

void RunQuery(benchmark::State& state, bool with_index, const char* sql) {
  auto db = BuildDatabase(with_index);
  uint64_t rows = 0;
  for (auto _ : state) {
    auto r = db->Execute(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    rows += r->rows.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["result_rows"] =
      benchmark::Counter(static_cast<double>(rows) /
                         static_cast<double>(std::max<uint64_t>(
                             1, static_cast<uint64_t>(state.iterations()))));
}

// --- regex: NFA-guided trie descent vs SeqScan + FullMatch ------------------
// The pattern pins the first eight characters, so the trie walk dies in
// 15 of the 16 two-block subtrees while the SeqScan runs the NFA over
// all 10k sequences.

void BM_Regex_SeqScanFullMatch(benchmark::State& state) {
  RunQuery(state, false,
           "SELECT PID FROM Prot WHERE Seq MATCHES 'ACGTTGCA.*GGCC.*'");
}
BENCHMARK(BM_Regex_SeqScanFullMatch);

void BM_Regex_SpgistRegexScan(benchmark::State& state) {
  RunQuery(state, true,
           "SELECT PID FROM Prot WHERE Seq MATCHES 'ACGTTGCA.*GGCC.*'");
}
BENCHMARK(BM_Regex_SpgistRegexScan);

// A leading-wildcard LIKE takes the same regex machinery. Unlike the
// anchored pattern above, '.*suffix' keeps NFA state 0 alive on every
// path, so no subtree is ever pruned: the trie's advantage reduces to
// running the NFA once per distinct key prefix instead of once per
// row, which on this mostly-distinct corpus roughly cancels against
// per-node traversal overhead. The pair is a coverage point for the
// no-pruning worst case, not a win to advertise.

void BM_LeadingWildcardLike_SeqScan(benchmark::State& state) {
  RunQuery(state, false, "SELECT PID FROM Prot WHERE Seq LIKE '%GGCCATAT'");
}
BENCHMARK(BM_LeadingWildcardLike_SeqScan);

void BM_LeadingWildcardLike_SpgistRegexScan(benchmark::State& state) {
  RunQuery(state, true, "SELECT PID FROM Prot WHERE Seq LIKE '%GGCCATAT'");
}
BENCHMARK(BM_LeadingWildcardLike_SpgistRegexScan);

// --- top-k: ranked best-first traversal vs sort-the-world -------------------
// The ranked scan pops ~k leaves off the bound-ordered heap; the
// fallback computes 10k edit distances and sorts them all for 10 rows.

void BM_TopK_SortAll(benchmark::State& state) {
  RunQuery(state, false,
           "SELECT PID, Seq FROM Prot "
           "ORDER BY DISTANCE(Seq, 'ACGTACGTACGTACGT') LIMIT 10");
}
BENCHMARK(BM_TopK_SortAll);

void BM_TopK_SpgistTopKScan(benchmark::State& state) {
  RunQuery(state, true,
           "SELECT PID, Seq FROM Prot "
           "ORDER BY DISTANCE(Seq, 'ACGTACGTACGTACGT') LIMIT 10");
}
BENCHMARK(BM_TopK_SpgistTopKScan);

// The same pair on a corpus shaped like e2ebench's sequence_analytics:
// 5k random 24-63 bp reads, probed by reads with 3 substitutions. Here
// the k-th distance (~20) sits far above every subtree's bound, so the
// ranked scan scores every entry; what it saves over sort-all is the
// per-entry cost of the bit-vector column against a full DP per row.

constexpr int kReads = 5000;

struct ReadsCorpus {
  std::unique_ptr<Database> db;
  std::vector<std::string> probes;  // LIMIT 10 queries, cycled
};

ReadsCorpus BuildReadsCorpus(bool with_index) {
  std::mt19937_64 rng(2007);
  ReadsCorpus corpus{std::make_unique<Database>(), {}};
  (void)corpus.db->Execute("CREATE TABLE Reads (RID INT, Seq SEQUENCE)");
  std::vector<std::string> reads;
  std::string insert;
  for (int i = 0; i < kReads; ++i) {
    std::string read;
    for (size_t len = 24 + rng() % 40; read.size() < len;) {
      read.push_back("ACGT"[rng() % 4]);
    }
    insert += insert.empty() ? "INSERT INTO Reads VALUES (" : ", (";
    insert += std::to_string(i) + ", '" + read + "')";
    if ((i + 1) % 500 == 0) {
      (void)corpus.db->Execute(insert);
      insert.clear();
    }
    reads.push_back(std::move(read));
  }
  if (with_index) {
    (void)corpus.db->Execute("CREATE SEQUENCE INDEX idx_seq ON Reads (Seq)");
  }
  (void)corpus.db->Execute("ANALYZE");
  for (int p = 0; p < 64; ++p) {
    std::string probe = reads[rng() % reads.size()];
    for (int edit = 0; edit < 3; ++edit) {
      probe[rng() % probe.size()] = "ACGT"[rng() % 4];
    }
    corpus.probes.push_back(
        "SELECT RID, Seq FROM Reads ORDER BY DISTANCE(Seq, '" + probe +
        "') LIMIT 10");
  }
  return corpus;
}

void RunReadsTopK(benchmark::State& state, bool with_index) {
  ReadsCorpus corpus = BuildReadsCorpus(with_index);
  size_t next = 0;
  for (auto _ : state) {
    auto r = corpus.db->Execute(corpus.probes[next++ % corpus.probes.size()]);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
}

void BM_TopK_SortAll_Reads(benchmark::State& state) {
  RunReadsTopK(state, false);
}
BENCHMARK(BM_TopK_SortAll_Reads);

void BM_TopK_SpgistTopKScan_Reads(benchmark::State& state) {
  RunReadsTopK(state, true);
}
BENCHMARK(BM_TopK_SpgistTopKScan_Reads);

// --- ALIGN threshold: shared-prefix trie DP vs per-row Smith–Waterman -------
// No subtree is pruned (local alignment scores only grow with length),
// but the trie walk pays each shared prefix's DP rows once instead of
// once per row.

void BM_AlignThreshold_SeqScan(benchmark::State& state) {
  RunQuery(state, false,
           "SELECT PID FROM Prot WHERE ALIGN(Seq, 'ACGTACGTACGT') >= 20");
}
BENCHMARK(BM_AlignThreshold_SeqScan);

void BM_AlignThreshold_SpgistAlignScan(benchmark::State& state) {
  RunQuery(state, true,
           "SELECT PID FROM Prot WHERE ALIGN(Seq, 'ACGTACGTACGT') >= 20");
}
BENCHMARK(BM_AlignThreshold_SpgistAlignScan);

// --- concurrent probes: walks share the trie latch --------------------------
// Each thread cycles through the four trie probes (prefix, MATCHES,
// top-k DISTANCE, ALIGN) against one shared database. Probes take the
// sequence index's latch shared, so at four threads the walks overlap
// instead of queueing; real time per iteration is wall time over all
// threads' probes, the inverse of throughput.

void BM_ConcurrentTrieProbes(benchmark::State& state) {
  static std::unique_ptr<Database> db;
  static const char* kProbes[4] = {
      "SELECT PID FROM Prot WHERE Seq LIKE 'ACGTTGCA%'",
      "SELECT PID FROM Prot WHERE Seq MATCHES '.*GGCCATAT.*'",
      "SELECT PID, Seq FROM Prot "
      "ORDER BY DISTANCE(Seq, 'ACGTACGTACGTACGT') LIMIT 10",
      "SELECT PID FROM Prot WHERE ALIGN(Seq, 'ACGTACGTACGT') >= 20",
  };
  // Thread 0 builds before, and drops after, the loop; the loop's start
  // and end are barriers across the benchmark's threads.
  if (state.thread_index() == 0) db = BuildDatabase(true);
  size_t next = static_cast<size_t>(state.thread_index());
  for (auto _ : state) {
    auto r = db->Execute(kProbes[next++ % 4]);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  if (state.thread_index() == 0) db.reset();
}
BENCHMARK(BM_ConcurrentTrieProbes)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace bdbms

BENCHMARK_MAIN();
