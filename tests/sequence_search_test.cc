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
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <random>
#include <regex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bio/alignment.h"
#include "core/database.h"
#include "core/session.h"
#include "index/sequence_index.h"
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
  // The pattern compiles at the first row evaluated, so a table with no
  // row to evaluate (empty, or only NULL cells) reports no error.
  EXEC_OK(db, "CREATE TABLE E (id INT, seq SEQUENCE)");
  EXEC_OK(db, "SELECT id FROM E WHERE seq MATCHES '[AC'");
  EXEC_OK(db, "INSERT INTO E VALUES (1, NULL)");
  EXEC_OK(db, "SELECT id FROM E WHERE seq MATCHES '[AC'");
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

// Translates the MATCHES dialect into an ECMAScript pattern, so the
// oracle is std::regex_match, an engine that shares no code with
// RegexProgram. Every non-alphanumeric character is escaped, inside
// classes too: a dialect class is a plain character set, so "[a-z]" is
// the three characters 'a', '-' and 'z', never a range. Alphanumerics
// stay bare, because ECMAScript gives "\d", "\b" or "\1" other meanings.
// `pattern` must compile.
std::string ToEcmaScript(std::string_view pattern) {
  std::string out;
  auto put = [&out](char c) {
    if (!std::isalnum(static_cast<unsigned char>(c))) out.push_back('\\');
    out.push_back(c);
  };
  for (size_t i = 0; i < pattern.size(); ++i) {
    char c = pattern[i];
    if (c == '.') {
      out += "[\\s\\S]";  // any character, line terminators included
    } else if (c == '*' || c == '+' || c == '?') {
      out.push_back(c);
    } else if (c == '\\') {
      put(pattern[++i]);
    } else if (c == '[') {
      size_t close = pattern.find(']', i + 1);
      out.push_back('[');
      for (size_t k = i + 1; k < close; ++k) put(pattern[k]);
      out.push_back(']');
      i = close;
    } else {
      put(c);
    }
  }
  return out;
}

// Diffs every regex/LIKE query three ways: trie-indexed plan vs the
// std::regex / naive LIKE oracle, then (caller) vs the dropped-index plan.
void CheckRegexQueries(Database& db) {
  for (const char* pattern : kRegexQueries) {
    std::regex oracle(ToEcmaScript(pattern));
    std::string sql = std::string("SELECT id FROM C WHERE seq MATCHES '") +
                      pattern + "' ORDER BY id";
    EXPECT_EQ(SqlIds(db, sql), OracleIds(db, [&](const std::string& s) {
                return std::regex_match(s, oracle);
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

// Renders each query with the index cx in place and again after dropping
// it; the plans differ, the results must not.
void ExpectSameWithoutIndex(Database& db,
                            const std::vector<std::string>& sqls) {
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

// Every search query kind, indexed and not.
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
  ExpectSameWithoutIndex(db, sqls);
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

// DISTANCE(NULL, t) is NULL, and the sort ranks NULL before every number,
// so the ranked scan must emit the visible NULL cells first, in RowId
// order, though the trie does not hold them.
TEST(SequenceSearchShapes, NullCellsRankFirstLikeTheSort) {
  Database db;
  EXEC_OK(db, "CREATE TABLE C (id INT, seq SEQUENCE)");
  EXEC_OK(db, "INSERT INTO C VALUES (1, NULL), (2, 'ACGT'), (3, 'TTTT')");
  EXEC_OK(db, "CREATE SEQUENCE INDEX cx ON C (seq) USING SPGIST");
  auto nearest = [](int k) {
    return "SELECT id, seq FROM C ORDER BY DISTANCE(seq, 'ACGA') LIMIT " +
           std::to_string(k);
  };
  EXPECT_NE(Explain(db, nearest(1)).find("SpgistTopKScan C"),
            std::string::npos);
  EXPECT_EQ(SqlIds(db, nearest(1)), (std::vector<int64_t>{1}));
  EXPECT_EQ(SqlIds(db, nearest(3)), (std::vector<int64_t>{1, 2, 3}));

  EXEC_OK(db, "INSERT INTO C VALUES (4, NULL), (5, 'ACGA'), (6, NULL)");
  auto check_all_limits = [&] {
    std::vector<std::string> sqls;
    for (int k = 1; k <= 7; ++k) sqls.push_back(nearest(k));
    ExpectSameWithoutIndex(db, sqls);
  };
  // LIMIT below, at and above the three NULL cells.
  EXPECT_EQ(SqlIds(db, nearest(2)), (std::vector<int64_t>{1, 4}));
  EXPECT_EQ(SqlIds(db, nearest(4)), (std::vector<int64_t>{1, 4, 6, 5}));
  check_all_limits();

  // A cell updated to NULL ranks with the NULLs; set back, it ranks by
  // distance again. The superseded versions' entries are stale either way.
  EXEC_OK(db, "UPDATE C SET seq = NULL WHERE id = 5");
  EXPECT_EQ(SqlIds(db, nearest(5)), (std::vector<int64_t>{1, 4, 5, 6, 2}));
  check_all_limits();
  EXEC_OK(db, "UPDATE C SET seq = 'ACGA' WHERE id = 5");
  EXPECT_EQ(SqlIds(db, nearest(5)), (std::vector<int64_t>{1, 4, 6, 5, 2}));
  check_all_limits();
  EXEC_OK(db, "UPDATE C SET seq = 'ACGG' WHERE id = 1");
  EXPECT_EQ(SqlIds(db, nearest(3)), (std::vector<int64_t>{4, 6, 5}));
  check_all_limits();
}


// ---------------------------------------------------------------------------
// Seeded random patterns across the NFA's 64-state word boundaries
// ---------------------------------------------------------------------------

// A random pattern of exactly `atoms` atoms (literals, '.', classes and
// escaped metacharacters, each maybe quantified), texts sampled from it,
// which match by construction, and one-edit mutants of those, which
// mostly do not.
struct RandomPattern {
  std::string pattern;
  std::vector<std::string> texts;
};

RandomPattern MakeRandomPattern(std::mt19937_64& rng, int atoms) {
  const std::string kLetters = "ACGT";
  const std::string kClassExtras = "-.*\\";  // plain characters in a class
  const std::string kEscapable = ".*+?[]\\-";
  const std::string kAnyChar = kLetters + kEscapable;
  auto pick = [&rng](const std::string& from) {
    return from[rng() % from.size()];
  };
  struct Atom {
    std::string chars;  // what the atom consumes
    char quantifier;    // 0, '?', '*' or '+'
  };
  RandomPattern out;
  std::vector<Atom> parsed;
  for (int a = 0; a < atoms; ++a) {
    Atom atom;
    int kind = static_cast<int>(rng() % 20);
    if (kind < 10) {
      atom.chars = std::string(1, pick(kLetters));
      out.pattern += atom.chars;
    } else if (kind < 13) {
      atom.chars = kAnyChar;
      out.pattern += '.';
    } else if (kind < 18) {
      const std::string pool = kLetters + kClassExtras;
      for (int n = 1 + static_cast<int>(rng() % 3); n > 0; --n) {
        atom.chars += pick(pool);
      }
      out.pattern += "[" + atom.chars + "]";
    } else {
      atom.chars = std::string(1, pick(kEscapable));
      out.pattern += "\\" + atom.chars;
    }
    // '.' repeats only through '?': a chain of '.*' makes the
    // backtracking oracle exponential, and repetition is already
    // covered by the literals and classes.
    int q = static_cast<int>(rng() % 10);
    atom.quantifier = q < 6 ? 0 : q < 8 ? '?' : q == 8 ? '*' : '+';
    if (atom.chars == kAnyChar && atom.quantifier != 0) atom.quantifier = '?';
    if (atom.quantifier != 0) out.pattern += atom.quantifier;
    parsed.push_back(atom);
  }
  for (int sample = 0; sample < 8; ++sample) {
    std::string text;
    for (const Atom& atom : parsed) {
      int count = atom.quantifier == '?'   ? static_cast<int>(rng() % 2)
                  : atom.quantifier == '*' ? static_cast<int>(rng() % 3)
                  : atom.quantifier == '+' ? 1 + static_cast<int>(rng() % 2)
                                           : 1;
      while (count-- > 0) text += pick(atom.chars);
    }
    out.texts.push_back(text);
    if (text.empty()) continue;
    size_t at = rng() % text.size();
    std::string substituted = text;
    substituted[at] = pick(kAnyChar);
    std::string deleted = text;
    deleted.erase(at, 1);
    std::string inserted = text;
    inserted.insert(at, 1, pick(kAnyChar));
    out.texts.push_back(substituted);
    out.texts.push_back(deleted);
    out.texts.push_back(inserted);
  }
  return out;
}

TEST(SequenceSearchRegexOracle, RandomPatternsAcrossWordBoundaries) {
  std::mt19937_64 rng(20261016);
  int matched = 0;
  int rejected = 0;
  for (int atoms : {63, 64, 65, 130}) {
    for (int rep = 0; rep < 5; ++rep) {
      RandomPattern rp = MakeRandomPattern(rng, atoms);
      SCOPED_TRACE(rp.pattern);
      auto prog = RegexProgram::Compile(rp.pattern);
      ASSERT_TRUE(prog.ok()) << prog.status().ToString();
      std::regex oracle(ToEcmaScript(rp.pattern));
      Database db;
      EXEC_OK(db, "CREATE TABLE C (id INT, seq SEQUENCE)");
      EXEC_OK(db, "CREATE SEQUENCE INDEX cx ON C (seq) USING SPGIST");
      std::vector<int64_t> want;
      for (size_t i = 0; i < rp.texts.size(); ++i) {
        const std::string& text = rp.texts[i];
        EXEC_OK(db, "INSERT INTO C VALUES (" + std::to_string(i) + ", '" +
                        text + "')");
        bool match = std::regex_match(text, oracle);
        EXPECT_EQ(prog->FullMatch(text), match) << text;
        if (match) want.push_back(static_cast<int64_t>(i));
        ++(match ? matched : rejected);
      }
      std::string sql = "SELECT id FROM C WHERE seq MATCHES '" + rp.pattern +
                        "' ORDER BY id";
      EXPECT_NE(Explain(db, sql).find("SpgistRegexScan"), std::string::npos);
      EXPECT_EQ(SqlIds(db, sql), want);
    }
  }
  // Both verdicts are well represented, or the suite proves little.
  EXPECT_GT(matched, 100);
  EXPECT_GT(rejected, 100);
}

// ---------------------------------------------------------------------------
// The bit-vector Levenshtein column across its 64-cell word boundaries
// ---------------------------------------------------------------------------

// After every text character, the column's score and minimum must equal
// the last cell and the minimum of the matching row of a plain full-matrix
// DP. Texts are either random or near copies of the target, so both large
// distances and long runs of matches (zero and negative deltas) occur.
TEST(SequenceSearchDistanceKernel, MatchesPlainDpAtWordBoundaries) {
  std::mt19937_64 rng(1999);
  const std::vector<size_t> kLengths = {0, 1, 63, 64, 65, 127, 128, 130};
  for (bool dna : {true, false}) {
    auto random_char = [&] {
      return dna ? "ACGT"[rng() % 4] : static_cast<char>(1 + rng() % 255);
    };
    for (size_t m : kLengths) {
      std::string target;
      for (size_t j = 0; j < m; ++j) target.push_back(random_char());
      LevenshteinColumn kernel(target);
      ASSERT_EQ(kernel.column_words(), 2 * ((m + 63) / 64));
      for (size_t n : kLengths) {
        for (bool near : {false, true}) {
          std::string text;
          for (size_t i = 0; i < n; ++i) {
            bool copy = near && i < m && rng() % 8 != 0;
            text.push_back(copy ? target[i] : random_char());
          }
          SCOPED_TRACE("dna=" + std::to_string(dna) + " m=" +
                       std::to_string(m) + " n=" + std::to_string(n) +
                       " near=" + std::to_string(near));
          std::vector<std::vector<int>> dp(n + 1, std::vector<int>(m + 1));
          for (size_t j = 0; j <= m; ++j) dp[0][j] = static_cast<int>(j);
          for (size_t i = 1; i <= n; ++i) {
            dp[i][0] = static_cast<int>(i);
            for (size_t j = 1; j <= m; ++j) {
              dp[i][j] = std::min(
                  {dp[i - 1][j - 1] + (text[i - 1] == target[j - 1] ? 0 : 1),
                   dp[i - 1][j] + 1, dp[i][j - 1] + 1});
            }
          }
          // Steps alternate between two buffers and stepping in place.
          std::vector<uint64_t> a(kernel.column_words());
          std::vector<uint64_t> b(kernel.column_words());
          kernel.Init(a.data());
          for (size_t i = 0; i <= n; ++i) {
            if (i > 0) {
              if (i % 3 == 0) {
                kernel.Step(a.data(), a.data(), text[i - 1]);
              } else {
                kernel.Step(a.data(), b.data(), text[i - 1]);
                std::swap(a, b);
              }
            }
            int depth = static_cast<int>(i);
            ASSERT_EQ(kernel.Score(a.data(), depth), dp[i][m]) << "i=" << i;
            ASSERT_EQ(kernel.Min(a.data(), depth),
                      *std::min_element(dp[i].begin(), dp[i].end()))
                << "i=" << i;
          }
          EXPECT_EQ(dp[n][m], EditDistance(text, target));
        }
      }
    }
  }
}

// Ranked DISTANCE through SQL with targets that straddle the column's
// word boundaries, over a corpus of 40-140 character reads. Targets are
// mutated corpus rows, so every target has near neighbours.
TEST(SequenceSearchDistanceOracle, TargetsAcrossWordBoundaries) {
  Database db;
  EXEC_OK(db, "CREATE TABLE C (id INT, seq SEQUENCE)");
  std::mt19937_64 rng(20261017);
  std::vector<std::string> corpus;
  std::string insert;
  for (int i = 0; i < 300; ++i) {
    std::string seq;
    for (size_t len = 40 + rng() % 101; seq.size() < len;) {
      seq.push_back("ACGT"[rng() % 4]);
    }
    corpus.push_back(seq);
    insert += insert.empty() ? "INSERT INTO C VALUES (" : ", (";
    insert += std::to_string(i) + ", '" + seq + "')";
  }
  EXEC_OK(db, insert);
  EXEC_OK(db, "CREATE SEQUENCE INDEX cx ON C (seq) USING SPGIST");

  std::vector<std::string> targets;
  std::vector<std::string> sqls;
  for (size_t len : {63, 64, 65, 130}) {
    std::string target = corpus[rng() % corpus.size()];
    while (target.size() < len) target.push_back("ACGT"[rng() % 4]);
    target.resize(len);
    for (int edit = 0; edit < 3; ++edit) {
      target[rng() % len] = "ACGT"[rng() % 4];
    }
    SCOPED_TRACE(target);
    for (int k : {1, 10, 1000}) {
      CheckTopK(db, target, k);
      sqls.push_back("SELECT id, seq FROM C ORDER BY DISTANCE(seq, '" +
                     target + "') LIMIT " + std::to_string(k));
    }
    EXPECT_NE(Explain(db, sqls.back()).find("SpgistTopKScan C"),
              std::string::npos);
    targets.push_back(target);
  }
  ExpectSameWithoutIndex(db, sqls);

  // A stale entry at the head of the ranking: a reader's open snapshot
  // keeps the nearest row's old version, and with it its trie entry,
  // after an update moves the row far away. A new snapshot must reject
  // the entry and rerun without it; the reader still ranks the row first.
  const std::string& target = targets[2];
  ASSERT_EQ(target.size(), 65u);
  const std::string top1 = "SELECT id, seq FROM C ORDER BY DISTANCE(seq, '" +
                           target + "') LIMIT 1";
  std::vector<int64_t> nearest = SqlIds(db, top1);
  ASSERT_EQ(nearest.size(), 1u);
  Session reader(&db, "admin");
  auto reader_top1 = [&] {
    auto r = reader.Execute(top1);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r->rows.size() == 1 ? r->rows[0].values[0].as_int()
                                         : int64_t{-1};
  };
  EXEC_OK(reader, "BEGIN");
  EXPECT_EQ(reader_top1(), nearest[0]);
  EXEC_OK(db, "UPDATE C SET seq = '" + std::string(90, 'T') +
                  "' WHERE id = " + std::to_string(nearest[0]));
  CheckTopK(db, target, 1);
  CheckTopK(db, target, 10);
  EXPECT_NE(SqlIds(db, top1), nearest);
  EXPECT_EQ(reader_top1(), nearest[0]);
  EXEC_OK(reader, "COMMIT");
}

// ---------------------------------------------------------------------------
// Concurrent probes under a writer
// ---------------------------------------------------------------------------

// Four readers loop the four trie probes (prefix, MATCHES, top-k DISTANCE
// and ALIGN) while a writer runs INSERT/UPDATE/DELETE on the indexed
// column. The writer only touches ids from 1000 up, with sequences that
// open on a run of 20 'W's: at edit distance >= 20 from the top-k target,
// they can never enter its answer, and the other probes are checked on
// the stable ids below 1000. The writer must finish its statements before
// a generous deadline. Were it starved, the readers stop at the deadline,
// so the test fails instead of hanging.
TEST(SequenceSearchConcurrency, ParallelProbesWithWriter) {
  Database db;
  EXEC_OK(db, "CREATE TABLE C (id INT, seq SEQUENCE)");
  std::mt19937_64 rng(15);
  std::vector<std::pair<int64_t, std::string>> corpus;
  BuildCorpus(db, rng, 900, "ACGT", &corpus);
  if (HasFatalFailure()) return;
  EXEC_OK(db, "CREATE SEQUENCE INDEX cx ON C (seq) USING SPGIST");

  const std::vector<std::string> probes = {
      "SELECT id FROM C WHERE seq LIKE 'AC%' ORDER BY id",
      "SELECT id FROM C WHERE seq MATCHES '.*GA.*T' ORDER BY id",
      "SELECT id FROM C ORDER BY DISTANCE(seq, 'ACGTACGT') LIMIT 7",
      "SELECT id FROM C WHERE ALIGN(seq, 'GATTACA') >= 8 ORDER BY id",
  };
  const std::vector<std::string> plans = {"SpgistScan", "SpgistRegexScan",
                                          "SpgistTopKScan", "SpgistAlignScan"};
  auto stable_ids = [&](const std::string& sql) {
    std::vector<int64_t> ids = SqlIds(db, sql);
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [](int64_t id) { return id >= 1000; }),
              ids.end());
    return ids;
  };
  std::vector<std::vector<int64_t>> want;
  for (size_t p = 0; p < probes.size(); ++p) {
    EXPECT_NE(Explain(db, probes[p]).find(plans[p]), std::string::npos)
        << probes[p];
    want.push_back(stable_ids(probes[p]));
    EXPECT_FALSE(want.back().empty()) << probes[p];
  }

  constexpr int kWriterStatements = 60;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  std::atomic<bool> writer_done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> reader_rounds{0};
  std::mutex first_mismatch_mu;
  std::string first_mismatch;

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      for (size_t round = r; !writer_done.load() &&
                             std::chrono::steady_clock::now() < deadline;
           ++round) {
        size_t p = round % probes.size();
        if (stable_ids(probes[p]) != want[p]) {
          if (mismatches.fetch_add(1) == 0) {
            std::lock_guard<std::mutex> lock(first_mismatch_mu);
            first_mismatch = probes[p];
          }
        }
        reader_rounds.fetch_add(1);
      }
    });
  }

  int written = 0;
  std::string writer_error;
  for (int i = 0; i < kWriterStatements && writer_error.empty(); ++i) {
    const std::string id = std::to_string(1000 + i / 3);
    std::string seq = std::string(20, 'W');
    for (int j = 0; j < 8; ++j) seq.push_back("ACGT"[rng() % 4]);
    std::string sql;
    switch (i % 3) {
      case 0:
        sql = "INSERT INTO C VALUES (" + id + ", '" + seq + "')";
        break;
      case 1:
        sql = "UPDATE C SET seq = '" + seq + "' WHERE id = " + id;
        break;
      default:
        // Every other row is deleted; the rest stay in the trie.
        sql = (i / 3) % 2 == 0
                  ? "DELETE FROM C WHERE id = " + id
                  : "UPDATE C SET seq = '" + seq + "' WHERE id = " + id;
        break;
    }
    auto result = db.Execute(sql);
    if (!result.ok()) writer_error = sql + " -> " + result.status().ToString();
    ++written;
  }
  const auto writer_end = std::chrono::steady_clock::now();
  writer_done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(writer_error, "");
  EXPECT_EQ(written, kWriterStatements);
  EXPECT_LT(writer_end, deadline) << "the writer starved behind the probes";
  EXPECT_EQ(mismatches.load(), 0) << "first mismatch: " << first_mismatch;
  EXPECT_GE(reader_rounds.load(), 4);
  for (size_t p = 0; p < probes.size(); ++p) {
    EXPECT_EQ(stable_ids(probes[p]), want[p]) << probes[p];
  }
}

// The same guarantee with no SQL around the probes: readers that call
// FindRegex back to back keep their walks overlapping, so some reader
// holds the latch nearly all the time. A reader-preferring latch lets
// each new walk past the waiting writer and starves it until the readers
// stop at the deadline; a writer-preferring one queues new walks behind
// the writer, which then waits out only the walks already running.
TEST(SequenceSearchConcurrency, WriterIsNotStarvedByOverlappingWalks) {
  auto index = SequenceIndex::Create("trie", 0);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  std::mt19937_64 rng(16);
  for (RowId row = 0; row < 4000; ++row) {
    std::string seq;
    for (int len = static_cast<int>(rng() % 13); len > 0; --len) {
      seq.push_back("ACGT"[rng() % 4]);
    }
    ASSERT_TRUE((*index)->Insert(Value::Sequence(seq), row).ok());
  }
  auto program = RegexProgram::Compile(".*GA.*T");
  ASSERT_TRUE(program.ok());

  constexpr int kWrites = 20;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::atomic<bool> writer_done{false};
  std::atomic<int> walks{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!writer_done.load() &&
             std::chrono::steady_clock::now() < deadline) {
        if (!(*index)->FindRegex(*program).ok()) failures.fetch_add(1);
        walks.fetch_add(1);
      }
    });
  }
  // Start writing once the walks overlap.
  while (walks.load() < 8 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  for (int i = 0; i < kWrites; ++i) {
    Value cell = Value::Sequence("GATTACA" + std::to_string(i));
    EXPECT_TRUE((*index)->Insert(cell, 10000 + i).ok());
    EXPECT_TRUE((*index)->Remove(cell, 10000 + i).ok());
  }
  const auto writer_end = std::chrono::steady_clock::now();
  writer_done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_LT(writer_end, deadline)
      << "the writer starved behind overlapping walks";
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*index)->entry_count(), 4000u);
}

}  // namespace
}  // namespace bdbms
