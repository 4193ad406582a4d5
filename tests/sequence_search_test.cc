// Genome-scale sequence search (paper §7): SQL regex predicates
// (MATCHES, leading-wildcard LIKE), ranked nearest-sequence traversal
// (ORDER BY DISTANCE(col, 'seq') LIMIT k) and ALIGN() similarity.
// Golden EXPLAIN output pins the trie-backed access paths; differential
// oracle suites diff every indexed result against the dropped-index
// SeqScan pipeline and a naive C++ oracle, over seeded random corpora,
// shape extremes (empty / singleton / duplicate-heavy) and under DML +
// rollback index maintenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bio/alignment.h"
#include "core/database.h"
#include "index/spgist/regex.h"

namespace bdbms {
namespace {

#define EXEC_OK(db, sql)                                          \
  do {                                                            \
    auto _r = (db).Execute(sql);                                  \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> "                      \
                         << _r.status().ToString();               \
  } while (0)

std::string Render(const QueryResult& r) {
  return r.ToString(/*show_annotations=*/true);
}

std::string Explain(Database& db, const std::string& sql) {
  auto r = db.Execute("EXPLAIN " + sql);
  EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
  return r.ok() ? r->message : "";
}

// ---------------------------------------------------------------------------
// RegexProgram::Compile hardening: malformed patterns are clean errors
// ---------------------------------------------------------------------------

TEST(SequenceSearchRegexCompile, RejectsMalformedPatterns) {
  auto error_of = [](std::string_view pattern) {
    auto r = RegexProgram::Compile(pattern);
    EXPECT_FALSE(r.ok()) << pattern;
    return r.ok() ? std::string("OK") : r.status().ToString();
  };
  EXPECT_EQ(error_of(""), "InvalidArgument: regex: empty pattern");
  EXPECT_EQ(error_of("*A"), "InvalidArgument: regex: dangling quantifier");
  EXPECT_EQ(error_of("+A"), "InvalidArgument: regex: dangling quantifier");
  EXPECT_EQ(error_of("?A"), "InvalidArgument: regex: dangling quantifier");
  EXPECT_EQ(error_of("[AC"),
            "InvalidArgument: regex: unterminated character class");
  EXPECT_EQ(error_of("A[CG"),
            "InvalidArgument: regex: unterminated character class");
  EXPECT_EQ(error_of("[]A"),
            "InvalidArgument: regex: empty character class");
  EXPECT_EQ(error_of("AC\\"), "InvalidArgument: regex: trailing backslash");
}

TEST(SequenceSearchRegexCompile, AcceptsSupportedSyntax) {
  for (const char* pattern :
       {"ACGT", "A.GT", "A[CG]T", "AC*GT", "A+C?", ".*", "\\*A\\[",
        "[ACGT]+"}) {
    EXPECT_TRUE(RegexProgram::Compile(pattern).ok()) << pattern;
  }
  auto prog = RegexProgram::Compile("A[CG]+T.*");
  ASSERT_TRUE(prog.ok());
  EXPECT_TRUE(prog->FullMatch("ACGT"));
  EXPECT_TRUE(prog->FullMatch("ACCCGGTAAA"));
  EXPECT_FALSE(prog->FullMatch("AT"));
  EXPECT_FALSE(prog->FullMatch("TACGT"));
}

// ---------------------------------------------------------------------------
// Malformed patterns through SQL: same clean error, index or not
// ---------------------------------------------------------------------------

TEST(SequenceSearchSqlErrors, MalformedRegexSurfacesAsSqlError) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (id INT, seq SEQUENCE)");
  EXEC_OK(db, "INSERT INTO T VALUES (1, 'ACGT')");
  auto expect_error = [&](const std::string& sql, const std::string& want) {
    auto r = db.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().ToString(), want) << sql;
  };
  expect_error("SELECT id FROM T WHERE seq MATCHES ''",
               "InvalidArgument: regex: empty pattern");
  expect_error("SELECT id FROM T WHERE seq MATCHES '[AC'",
               "InvalidArgument: regex: unterminated character class");
  expect_error("SELECT id FROM T WHERE seq MATCHES '*A'",
               "InvalidArgument: regex: dangling quantifier");
  // An index never swallows the error into an empty result: the malformed
  // pattern is no candidate descent, so the conjunct stays a residual
  // filter whose evaluation reports the identical message.
  EXEC_OK(db, "CREATE SEQUENCE INDEX sx ON T (seq) USING SPGIST");
  expect_error("SELECT id FROM T WHERE seq MATCHES '[AC'",
               "InvalidArgument: regex: unterminated character class");
  expect_error("SELECT id FROM T WHERE seq MATCHES ''",
               "InvalidArgument: regex: empty pattern");
  // Type errors keep their own message.
  expect_error("SELECT id FROM T WHERE id MATCHES 'ACGT'",
               "InvalidArgument: MATCHES requires string operands");
}

// ---------------------------------------------------------------------------
// Golden EXPLAIN: the trie-backed sequence-search access paths
// ---------------------------------------------------------------------------

// Mirrors the docs/indexing.md worked example: 6 proteins, one sequence
// index on Seq.
class SequenceSearchPlans : public ::testing::Test {
 protected:
  void SetUp() override {
    EXEC_OK(db_,
            "CREATE TABLE Prot (PID INT, Org TEXT, Score DOUBLE, "
            "Seq SEQUENCE)");
    EXEC_OK(db_,
            "INSERT INTO Prot VALUES "
            "(1, 'ecoli', 1.5, 'ACGTAC'), "
            "(2, 'ecoli', 2.5, 'ACCTGA'), "
            "(3, 'yeast', 3.5, 'GGTACA'), "
            "(4, 'yeast', 0.5, 'ACGTTT'), "
            "(5, 'human', 4.5, 'TTGACA'), "
            "(6, 'ecoli', 5.5, 'ACGAAA')");
    EXEC_OK(db_, "CREATE SEQUENCE INDEX idx_seq ON Prot (Seq) USING SPGIST");
  }
  Database db_;
};

TEST_F(SequenceSearchPlans, MatchesPlansRegexScan) {
  EXPECT_EQ(Explain(db_, "SELECT PID FROM Prot WHERE Seq MATCHES 'AC.*'"),
            "Project [PID]  (rows=2 cost=6.6)\n"
            "  SpgistRegexScan Prot USING idx_seq (Seq MATCHES 'AC.*')"
            "  (rows=2 cost=6.4)\n");
}

TEST_F(SequenceSearchPlans, LeadingWildcardLikeRewritesToRegexScan) {
  EXPECT_EQ(Explain(db_, "SELECT PID FROM Prot WHERE Seq LIKE '%GTA%'"),
            "Project [PID]  (rows=2 cost=6.6)\n"
            "  SpgistRegexScan Prot USING idx_seq (Seq LIKE '%GTA%')"
            "  (rows=2 cost=6.4)\n");
}

TEST_F(SequenceSearchPlans, AlignThresholdPlansAlignScan) {
  EXPECT_EQ(Explain(db_,
                    "SELECT PID FROM Prot WHERE ALIGN(Seq, 'ACGT') >= 8"),
            "Project [PID]  (rows=1 cost=5.3)\n"
            "  SpgistAlignScan Prot USING idx_seq (ALIGN(Seq, 'ACGT') >= 8)"
            "  (rows=1 cost=5.2)\n");
}

TEST_F(SequenceSearchPlans, TopKPlansRankedScanWithLimitPushdown) {
  EXPECT_EQ(Explain(db_,
                    "SELECT PID, Seq FROM Prot "
                    "ORDER BY DISTANCE(Seq, 'ACGTAC') LIMIT 3"),
            "Limit 3  (rows=3 cost=9.1)\n"
            "  Project [PID, Seq]  (rows=3 cost=9.1)\n"
            "    SpgistTopKScan Prot USING idx_seq "
            "(DISTANCE(Seq, 'ACGTAC') k=3)  (rows=3 cost=8.8)\n");
}

TEST_F(SequenceSearchPlans, NoIndexFallsBackToSeqScanResidual) {
  EXEC_OK(db_, "DROP INDEX idx_seq ON Prot");
  EXPECT_EQ(Explain(db_, "SELECT PID FROM Prot WHERE Seq MATCHES 'AC.*'"),
            "Project [PID]  (rows=2 cost=6.8)\n"
            "  Filter (Seq MATCHES 'AC.*')  (rows=2 cost=6.6)\n"
            "    SeqScan Prot  (rows=6 cost=6.0)\n");
  EXPECT_EQ(Explain(db_,
                    "SELECT PID, Seq FROM Prot "
                    "ORDER BY DISTANCE(Seq, 'ACGTAC') LIMIT 3"),
            "Limit 3  (rows=3 cost=14.4)\n"
            "  Sort [DISTANCE(Seq, 'ACGTAC') ASC]  (rows=6 cost=14.4)\n"
            "    Project [PID, Seq]  (rows=6 cost=6.6)\n"
            "      SeqScan Prot  (rows=6 cost=6.0)\n");
}

TEST_F(SequenceSearchPlans, FilteringClausesKeepGenericSort) {
  // Any clause that filters rows after the scan would make "the k nearest
  // index entries" the wrong k — the ranked pushdown must stand down.
  EXPECT_EQ(Explain(db_,
                    "SELECT PID, Seq FROM Prot WHERE Score > 1.0 "
                    "ORDER BY DISTANCE(Seq, 'ACGTAC') LIMIT 3"),
            "Limit 3  (rows=2 cost=7.8)\n"
            "  Sort [DISTANCE(Seq, 'ACGTAC') ASC]  (rows=2 cost=7.8)\n"
            "    Project [PID, Seq]  (rows=2 cost=6.8)\n"
            "      Filter (Score > 1)  (rows=2 cost=6.6)\n"
            "        SeqScan Prot  (rows=6 cost=6.0)\n");
  // Without a LIMIT there is no k to push either.
  EXPECT_EQ(Explain(db_,
                    "SELECT PID, Seq FROM Prot "
                    "ORDER BY DISTANCE(Seq, 'ACGTAC')"),
            "Sort [DISTANCE(Seq, 'ACGTAC') ASC]  (rows=6 cost=14.4)\n"
            "  Project [PID, Seq]  (rows=6 cost=6.6)\n"
            "    SeqScan Prot  (rows=6 cost=6.0)\n");
}

// ---------------------------------------------------------------------------
// Deterministic result shapes on the small fixture
// ---------------------------------------------------------------------------

TEST_F(SequenceSearchPlans, MatchesReturnsExactlyTheMatchingRows) {
  auto r = db_.Execute(
      "SELECT PID FROM Prot WHERE Seq MATCHES 'ACG.*' ORDER BY PID");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0].values[0].as_int(), 1);
  EXPECT_EQ(r->rows[1].values[0].as_int(), 4);
  EXPECT_EQ(r->rows[2].values[0].as_int(), 6);
}

TEST_F(SequenceSearchPlans, DistanceRanksByEditDistance) {
  auto r = db_.Execute(
      "SELECT PID, Seq FROM Prot ORDER BY DISTANCE(Seq, 'ACGTAC') LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  // Exact match first, then the distance-2 tie broken by row order.
  EXPECT_EQ(r->rows[0].values[0].as_int(), 1);  // ACGTAC, d=0
  EXPECT_EQ(r->rows[1].values[0].as_int(), 4);  // ACGTTT, d=2
  EXPECT_EQ(r->rows[2].values[0].as_int(), 6);  // ACGAAA, d=2
}

TEST_F(SequenceSearchPlans, ScalarFunctionsEvaluateAnywhere) {
  auto r = db_.Execute(
      "SELECT PID, DISTANCE(Seq, 'ACGTAC') AS d, ALIGN(Seq, 'ACGTAC') AS a "
      "FROM Prot WHERE PID = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].values[1].as_int(), 0);
  EXPECT_EQ(r->rows[0].values[2].as_int(), 12);  // 6 matches * +2
  // Bad operand types are clean errors.
  auto bad = db_.Execute("SELECT ALIGN(PID, 'ACGT') FROM Prot");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().ToString(),
            "InvalidArgument: ALIGN requires string operands");
  auto bad2 = db_.Execute("SELECT DISTANCE(PID, 'ACGT') FROM Prot");
  ASSERT_FALSE(bad2.ok());
  EXPECT_EQ(bad2.status().ToString(),
            "InvalidArgument: DISTANCE requires string operands");
}

// ---------------------------------------------------------------------------
// Differential oracle suite over seeded random corpora
// ---------------------------------------------------------------------------

// Inserts `rows` random sequences over `alphabet` into table C and keeps
// the (id, seq) oracle copy. Lengths vary so trie leaves hold both
// prefixes of other keys and deep suffixes.
void BuildCorpus(Database& db, std::mt19937_64& rng, int rows,
                 const std::string& alphabet,
                 std::vector<std::pair<int64_t, std::string>>* oracle) {
  std::uniform_int_distribution<int> len_dist(0, 12);
  std::uniform_int_distribution<size_t> chr(0, alphabet.size() - 1);
  std::string insert;
  for (int i = 0; i < rows; ++i) {
    int len = len_dist(rng);
    std::string seq;
    for (int j = 0; j < len; ++j) seq.push_back(alphabet[chr(rng)]);
    oracle->emplace_back(i, seq);
    if (insert.empty()) {
      insert = "INSERT INTO C VALUES ";
    } else {
      insert += ", ";
    }
    insert += "(";  // stepwise: GCC 12 -Wrestrict false positive
    insert += std::to_string(i) + ", '" + seq + "')";
    if ((i + 1) % 100 == 0 || i + 1 == rows) {
      ASSERT_TRUE(db.Execute(insert).ok()) << insert.substr(0, 120);
      insert.clear();
    }
  }
}

// Regex / LIKE patterns exercised against every corpus. The LIKE entries
// deliberately lead with a wildcard so they take the regex rewrite.
const char* const kRegexQueries[] = {
    "A.*",       ".*T",      ".*GA.*",   "[AC][AC]*",  "A.G.*",
    ".*",        "ACGT",     "A?C?G?T?", ".*A[CG]+T.*", "G+",
};
const char* const kLikeQueries[] = {"%T", "%GA%", "%A_G%", "%%", "_"};

std::vector<int64_t> SqlIds(Database& db, const std::string& sql) {
  auto r = db.Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
  std::vector<int64_t> out;
  if (r.ok()) {
    for (const auto& row : r->rows) out.push_back(row.values[0].as_int());
  }
  return out;
}

// Recomputes the expected ids by scanning the table through SQL (so the
// oracle sees exactly the committed/visible state, DML included) and
// matching in C++.
template <typename Pred>
std::vector<int64_t> OracleIds(Database& db, const Pred& pred) {
  auto r = db.Execute("SELECT id, seq FROM C ORDER BY id");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> out;
  if (r.ok()) {
    for (const auto& row : r->rows) {
      if (pred(row.values[1].as_string())) {
        out.push_back(row.values[0].as_int());
      }
    }
  }
  return out;
}

// Diffs every regex/LIKE query three ways: trie-indexed plan vs the C++
// FullMatch/LikeMatch oracle, then (caller) vs the dropped-index plan.
void CheckRegexQueries(Database& db) {
  for (const char* pattern : kRegexQueries) {
    auto prog = RegexProgram::Compile(pattern);
    ASSERT_TRUE(prog.ok()) << pattern;
    std::string sql = std::string("SELECT id FROM C WHERE seq MATCHES '") +
                      pattern + "' ORDER BY id";
    EXPECT_EQ(SqlIds(db, sql), OracleIds(db, [&](const std::string& s) {
                return prog->FullMatch(s);
              }))
        << sql;
  }
  for (const char* pattern : kLikeQueries) {
    std::string sql = std::string("SELECT id FROM C WHERE seq LIKE '") +
                      pattern + "' ORDER BY id";
    // LIKE semantics oracle: translate through the same engine the
    // planner uses is circular, so match naively in C++.
    std::string pat = pattern;
    auto like_match = [&pat](const std::string& s) {
      std::function<bool(size_t, size_t)> walk = [&](size_t pi,
                                                     size_t si) -> bool {
        if (pi == pat.size()) return si == s.size();
        if (pat[pi] == '%') {
          for (size_t skip = si; skip <= s.size(); ++skip) {
            if (walk(pi + 1, skip)) return true;
          }
          return false;
        }
        if (si == s.size()) return false;
        if (pat[pi] != '_' && pat[pi] != s[si]) return false;
        return walk(pi + 1, si + 1);
      };
      return walk(0, 0);
    };
    EXPECT_EQ(SqlIds(db, sql), OracleIds(db, like_match)) << sql;
  }
}

// Brute-force top-k oracle: result must be exactly k rows (table
// permitting), in nondecreasing distance order, and its distance multiset
// must equal the k smallest distances over the whole table.
void CheckTopK(Database& db, const std::string& target, int k) {
  auto all = db.Execute("SELECT id, seq FROM C ORDER BY id");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  std::vector<int> all_dists;
  std::vector<std::pair<int64_t, int>> dist_of;
  for (const auto& row : all->rows) {
    int d = EditDistance(row.values[1].as_string(), target);
    all_dists.push_back(d);
    dist_of.emplace_back(row.values[0].as_int(), d);
  }
  std::sort(all_dists.begin(), all_dists.end());
  std::string sql = "SELECT id, seq FROM C ORDER BY DISTANCE(seq, '" +
                    target + "') LIMIT " + std::to_string(k);
  auto r = db.Execute(sql);
  ASSERT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
  size_t want = std::min<size_t>(k, all->rows.size());
  ASSERT_EQ(r->rows.size(), want) << sql;
  int prev = -1;
  std::vector<int> got_dists;
  std::vector<int64_t> got_ids;
  for (const auto& row : r->rows) {
    int d = EditDistance(row.values[1].as_string(), target);
    EXPECT_GE(d, prev) << sql << " not distance-ordered";
    prev = d;
    got_dists.push_back(d);
    got_ids.push_back(row.values[0].as_int());
  }
  std::vector<int> want_dists(all_dists.begin(), all_dists.begin() + want);
  std::vector<int> sorted_got = got_dists;
  std::sort(sorted_got.begin(), sorted_got.end());
  EXPECT_EQ(sorted_got, want_dists) << sql;
  // No id repeats, and every returned distance is honest for its id.
  std::vector<int64_t> dedup = got_ids;
  std::sort(dedup.begin(), dedup.end());
  EXPECT_EQ(std::unique(dedup.begin(), dedup.end()), dedup.end()) << sql;
}

// EXPECT_EQ on long id vectors truncates before the first difference;
// report the symmetric difference instead.
void ExpectSameIds(const std::vector<int64_t>& got,
                   const std::vector<int64_t>& want,
                   const std::string& context) {
  std::vector<int64_t> missing, extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  EXPECT_TRUE(missing.empty() && extra.empty())
      << context << "\nmissing from result:"
      << [&] {
           std::string s;
           for (int64_t id : missing) s += " " + std::to_string(id);
           return s;
         }()
      << "\nunexpected in result:" << [&] {
           std::string s;
           for (int64_t id : extra) s += " " + std::to_string(id);
           return s;
         }();
  EXPECT_EQ(got, want) << context;
}

void CheckAlignQueries(Database& db, const std::string& query) {
  for (int threshold : {2, 4, 6, 8}) {
    std::string sql = "SELECT id FROM C WHERE ALIGN(seq, '" + query +
                      "') >= " + std::to_string(threshold) + " ORDER BY id";
    ExpectSameIds(SqlIds(db, sql), OracleIds(db, [&](const std::string& s) {
                    return SmithWatermanScore(s, query) >= threshold;
                  }),
                  sql);
    std::string strict = "SELECT id FROM C WHERE ALIGN(seq, '" + query +
                         "') > " + std::to_string(threshold) + " ORDER BY id";
    ExpectSameIds(SqlIds(db, strict), OracleIds(db, [&](const std::string& s) {
                    return SmithWatermanScore(s, query) > threshold;
                  }),
                  strict);
  }
}

// Renders every search query with the index in place and again after
// dropping it; the plans differ, the results must not.
void CheckIndexedMatchesDropped(Database& db) {
  std::vector<std::string> sqls;
  for (const char* pattern : kRegexQueries) {
    sqls.push_back(std::string("SELECT id FROM C WHERE seq MATCHES '") +
                   pattern + "' ORDER BY id");
  }
  for (const char* pattern : kLikeQueries) {
    sqls.push_back(std::string("SELECT id FROM C WHERE seq LIKE '") +
                   pattern + "' ORDER BY id");
  }
  for (int k : {1, 3, 10}) {
    sqls.push_back(
        "SELECT id, seq FROM C ORDER BY DISTANCE(seq, 'ACGTACGT') LIMIT " +
        std::to_string(k));
  }
  sqls.push_back(
      "SELECT id FROM C WHERE ALIGN(seq, 'GATTACA') >= 6 ORDER BY id");
  std::vector<std::string> with_index;
  for (const auto& sql : sqls) {
    auto r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n-> " << r.status().ToString();
    with_index.push_back(Render(*r));
  }
  EXEC_OK(db, "DROP INDEX cx ON C");
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto r = db.Execute(sqls[i]);
    ASSERT_TRUE(r.ok()) << sqls[i];
    EXPECT_EQ(Render(*r), with_index[i]) << sqls[i];
  }
  EXEC_OK(db, "CREATE SEQUENCE INDEX cx ON C (seq) USING SPGIST");
}

void RunDifferentialSuite(uint64_t seed, const std::string& alphabet) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE C (id INT, seq SEQUENCE)").ok());
  std::mt19937_64 rng(seed);
  std::vector<std::pair<int64_t, std::string>> oracle;
  BuildCorpus(db, rng, 300, alphabet, &oracle);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(
      db.Execute("CREATE SEQUENCE INDEX cx ON C (seq) USING SPGIST").ok());

  CheckRegexQueries(db);
  for (const std::string& target : {std::string("ACGTACGT"), std::string(""),
                                    std::string(1, alphabet[0])}) {
    for (int k : {1, 5, 17, 1000}) CheckTopK(db, target, k);
  }
  CheckAlignQueries(db, "GATTACA");
  CheckIndexedMatchesDropped(db);

  // DML churn: overwrite, delete and insert under the index, then verify
  // the same oracles against the new visible state.
  std::uniform_int_distribution<int> pick(0, 299);
  for (int i = 0; i < 20; ++i) {
    int id = pick(rng);
    std::string seq;
    for (int j = 0; j < 6; ++j) {
      seq.push_back(alphabet[rng() % alphabet.size()]);
    }
    ASSERT_TRUE(db.Execute("UPDATE C SET seq = '" + seq + "' WHERE id = " +
                           std::to_string(id))
                    .ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Execute("DELETE FROM C WHERE id = " +
                           std::to_string(pick(rng)))
                    .ok());
  }
  ASSERT_TRUE(db.Execute("INSERT INTO C VALUES (1000, 'ACGTACGT'), "
                         "(1001, ''), (1002, 'GATTACA')")
                  .ok());
  CheckRegexQueries(db);
  CheckTopK(db, "ACGTACGT", 9);
  CheckAlignQueries(db, "GATTACA");

  // Rolled-back DML must leave no trace in the trie: results before the
  // transaction and after ROLLBACK are identical.
  std::vector<int64_t> before =
      SqlIds(db, "SELECT id FROM C WHERE seq MATCHES '.*GA.*' ORDER BY id");
  ASSERT_TRUE(db.Execute("BEGIN").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO C VALUES (2000, 'GAGAGA')").ok());
  ASSERT_TRUE(db.Execute("UPDATE C SET seq = 'TTTTTT' WHERE id < 50").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM C WHERE id >= 250").ok());
  ASSERT_TRUE(db.Execute("ROLLBACK").ok());
  EXPECT_EQ(
      SqlIds(db, "SELECT id FROM C WHERE seq MATCHES '.*GA.*' ORDER BY id"),
      before);
  CheckRegexQueries(db);
  CheckTopK(db, "GAGAGA", 7);
}

class SequenceSearchDifferential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SequenceSearchDifferential, DnaCorpusAgreesWithOracles) {
  RunDifferentialSuite(GetParam(), "ACGT");
}

TEST_P(SequenceSearchDifferential, ProteinCorpusAgreesWithOracles) {
  RunDifferentialSuite(GetParam() ^ 0x5eedULL, "ACDEFGHIKLMNPQRSTVWY");
}

INSTANTIATE_TEST_SUITE_P(FixedCorpus, SequenceSearchDifferential,
                         ::testing::Values(1, 7, 42, 20260808));

// Nightly CI exports BDBMS_SEQSEARCH_SEED (derived from the date) so new
// corpora are explored continuously; locally and in regular CI the
// variable is unset and this test is a no-op.
TEST(SequenceSearchTest, RotatingSeedFromEnv) {
  const char* env = std::getenv("BDBMS_SEQSEARCH_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "BDBMS_SEQSEARCH_SEED not set";
  }
  uint64_t seed = std::strtoull(env, nullptr, 10);
  RunDifferentialSuite(seed, "ACGT");
  RunDifferentialSuite(seed * 31 + 7, "ACDEFGHIKLMNPQRSTVWY");
}

// ---------------------------------------------------------------------------
// Shape extremes: empty, singleton and duplicate-heavy tables
// ---------------------------------------------------------------------------

TEST(SequenceSearchShapes, EmptyTable) {
  Database db;
  EXEC_OK(db, "CREATE TABLE C (id INT, seq SEQUENCE)");
  EXEC_OK(db, "CREATE SEQUENCE INDEX cx ON C (seq) USING SPGIST");
  EXPECT_TRUE(SqlIds(db, "SELECT id FROM C WHERE seq MATCHES '.*'").empty());
  EXPECT_TRUE(
      SqlIds(db, "SELECT id FROM C WHERE ALIGN(seq, 'AC') >= 1").empty());
  auto r = db.Execute(
      "SELECT id FROM C ORDER BY DISTANCE(seq, 'ACGT') LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows.empty());
}

TEST(SequenceSearchShapes, SingletonTable) {
  Database db;
  EXEC_OK(db, "CREATE TABLE C (id INT, seq SEQUENCE)");
  EXEC_OK(db, "INSERT INTO C VALUES (1, 'ACGT')");
  EXEC_OK(db, "CREATE SEQUENCE INDEX cx ON C (seq) USING SPGIST");
  EXPECT_EQ(SqlIds(db, "SELECT id FROM C WHERE seq MATCHES 'A.*'"),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(SqlIds(db, "SELECT id FROM C WHERE seq MATCHES 'C.*'"),
            (std::vector<int64_t>{}));
  CheckTopK(db, "ACGA", 1);
  CheckTopK(db, "ACGA", 5);
}

TEST(SequenceSearchShapes, DuplicateHeavyTable) {
  // 150 rows over 3 distinct sequences: trie leaf groups carry long
  // payload lists and the ALIGN walker's duplicate-suffix dedup earns its
  // keep.
  Database db;
  EXEC_OK(db, "CREATE TABLE C (id INT, seq SEQUENCE)");
  static const char* kSeqs[3] = {"ACGTACGT", "ACGTTTTT", "GATTACA"};
  std::string insert = "INSERT INTO C VALUES ";
  for (int i = 0; i < 150; ++i) {
    if (i > 0) insert += ", ";
    insert += "(";  // stepwise: GCC 12 -Wrestrict false positive
    insert += std::to_string(i) + ", '" + kSeqs[i % 3] + "')";
  }
  EXEC_OK(db, insert);
  EXEC_OK(db, "CREATE SEQUENCE INDEX cx ON C (seq) USING SPGIST");
  CheckRegexQueries(db);
  CheckTopK(db, "ACGTACGA", 60);
  CheckAlignQueries(db, "GATTACA");
  CheckIndexedMatchesDropped(db);
}

}  // namespace
}  // namespace bdbms
