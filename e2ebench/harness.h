#ifndef BDBMS_E2EBENCH_HARNESS_H_
#define BDBMS_E2EBENCH_HARNESS_H_

// Workload definitions, data and operation generation, answer checks and
// the summary statistics of the end-to-end benchmark (bdbms_bench). Every
// generator is a pure function of the seed, so one seed always yields the
// same corpus and the same per-session operation streams.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace e2e {

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// Nearest-rank percentile (0 < p <= 100) of an ascending sample; 0 for an
// empty sample.
double Percentile(const std::vector<double>& sorted, double p);

// How many samples of a sample of size n lie strictly beyond the
// nearest-rank p-th percentile position.
size_t SamplesBeyond(size_t n, double p);

// The highest of 99, 90 and 50 whose percentile has at least `min_beyond`
// samples beyond it; 0 when even the median lacks them.
int HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

double Median(std::vector<double> values);

// Geometric mean of positive values; 0 for an empty list.
double GeometricMean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Operation samples
// ---------------------------------------------------------------------------

enum class OpClass : uint8_t;

struct OpSample {
  float latency_us = 0;  // whole operation, as the client saw it
  float engine_us = 0;   // summed over its Client/Session::Execute calls
  OpClass cls{};
};

// A uniform random sample of at most `capacity` of the operations a
// session added (Vitter's algorithm R). Keeping every operation would make
// the harness's memory grow with throughput and leak into peak_rss_mb.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed);
  void Add(const OpSample& s);
  uint64_t seen() const { return seen_; }
  const std::vector<OpSample>& items() const { return items_; }

 private:
  size_t capacity_;
  bdbms::Rng rng_;
  uint64_t seen_ = 0;
  std::vector<OpSample> items_;
};

// One uniform sample of all sessions' operations: each reservoir is cut
// down to the lowest sampling rate among them, so that no session is over-
// represented.
std::vector<OpSample> MergeSamples(const std::vector<const Reservoir*>& parts,
                                   uint64_t seed);

// ---------------------------------------------------------------------------
// Zipf-distributed ranks in [0, n) (Gray et al., "Quickly generating
// billion-record synthetic databases"); rank 0 is the most popular.
// ---------------------------------------------------------------------------
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Next(bdbms::Rng& rng) const;

 private:
  uint64_t n_;
  double alpha_, zetan_, eta_, half_pow_theta_;
};

// 64-bit mix of several values into one seed (splitmix64 finalizer).
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c = 0);

// ---------------------------------------------------------------------------
// Operation classes and workloads
// ---------------------------------------------------------------------------

enum class OpClass : uint8_t {
  kGetGene,
  kGetGeneAnnotated,
  kGetProtein,
  kAnnotate,
  kCurateFunction,
  kUpdateSequence,
  kSubmitGene,
  kFindSimilar,
  kApprove,
  kAwhereScan,
  kPromoteRange,
  kRegexPrefix,
  kRegexInfix,
  kTopkDistance,
  kAlignThreshold,
  kGeneProteinJoin,
};
inline constexpr size_t kNumClasses = 16;

const char* ClassName(OpClass cls);
bool IsWrite(OpClass cls);

struct WorkloadSpec {
  std::string name;
  size_t genes = 0;  // also the protein count: one protein per gene
  size_t annotations = 0;
  size_t gene_len_min = 0, gene_len_max = 0;
  size_t pool_pages = 0;        // DurabilityOptions::buffer_pool_pages
  bool sequence_index = false;  // SP-GiST trie on Gene.GSequence
  bool curation = false;  // dependency rules, content approval, Zipf keys
  // Class weights; OpStream deals each session a deck of them.
  std::vector<std::pair<OpClass, int>> mix;
};

// The three workloads, in the order README.md lists them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Row counts divided by `scale` (smoke runs use 1/20 of the data).
WorkloadSpec Scaled(const WorkloadSpec& spec, size_t scale);

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

struct GeneRow {
  std::string gid, name, seq;
};
struct ProteinRow {
  std::string pname, gid, seq, function;
};
struct AnnotationRow {
  size_t gene = 0;
  std::string body;
};

// One analytics query of a class pool with what its answer must be.
struct Query {
  std::string sql;
  std::string arg;              // regex, probe sequence or range start
  std::string arg2;             // range end (exclusive)
  std::vector<std::string> gids;  // expected GIDs, sorted (set classes)
  int kth_distance = 0;         // top-k: distance of the k-th nearest
};
inline constexpr int kTopK = 10;
inline constexpr int kAlignThreshold = 22;

struct Corpus {
  std::vector<GeneRow> genes;
  std::vector<ProteinRow> proteins;
  std::vector<AnnotationRow> annotations;
  std::vector<std::vector<size_t>> gene_annotations;  // per gene
  std::vector<uint32_t> zipf_order;  // popularity rank -> gene index
  // Seeded pools of 64 queries per analytics class (empty elsewhere).
  std::array<std::vector<Query>, kNumClasses> pools;
};
inline constexpr size_t kPoolSize = 64;

std::string GeneId(size_t index);

// Generates the rows and query pools; the oracle answers are filled in by
// ComputeOracles, which is the expensive part and runs on `threads`.
Corpus BuildCorpus(const WorkloadSpec& spec, uint64_t seed);
void ComputeOracles(Corpus* corpus, unsigned threads);

// Statements that build the dataset over one connection as "admin": DDL,
// 500-row transactions of multi-row INSERTs, annotations, ANALYZE, and for
// curation the dependency rules and content approval.
std::vector<std::string> SetupScript(const WorkloadSpec& spec,
                                     const Corpus& corpus);

inline constexpr const char* kLabUsers[] = {"alice", "bob", "carol"};

// ---------------------------------------------------------------------------
// Operation streams
// ---------------------------------------------------------------------------

struct Op {
  OpClass cls = OpClass::kGetGene;
  std::vector<std::string> sql;  // approve adds its APPROVEs at run time
  size_t gene = 0;               // target gene of point operations
  int query = -1;                // pool index of analytics operations
  std::string gid;               // submit_gene: the new GID
  std::string body;              // annotate: the annotation body
  std::string prefix;            // find_similar: the sequence prefix
};

// Session 0 is "admin"; sessions 1..3 are the lab members. `pass`
// separates the streams of successive passes over one database, so that
// GIDs created by submit_gene never repeat. Classes are dealt from a
// shuffled deck holding each class as many times as its weight, so every
// run executes the mix exactly rather than a random draw of it.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, const Corpus& corpus, uint64_t seed,
           int session, int pass);
  Op Next();

 private:
  size_t PickGene();

  const WorkloadSpec& spec_;
  const Corpus& corpus_;
  int session_, pass_;
  bdbms::Rng rng_;
  Zipf zipf_;
  std::vector<OpClass> deck_;
  size_t next_card_ = 0;
  uint64_t admin_reads_ = 0;
  uint64_t serial_ = 0;
};

// One line naming the class and its statements (the determinism test).
std::string DescribeOp(const Op& op);

// ---------------------------------------------------------------------------
// Answer checks
// ---------------------------------------------------------------------------

// A SELECT answer as rendered by QueryResult::ToString (the wire form).
struct Answer {
  struct Cell {
    std::string value;
    std::vector<std::string> annotations;  // "category:body"
  };
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;
};
bool ParseAnswer(const std::string& text, Answer* out);

// Checks the successful reply to statement `index` of `op`; "" when
// correct, else what was wrong. On curation, whose rows the run rewrites,
// point reads pin only the requested GID.
std::string CheckReply(const WorkloadSpec& spec, const Corpus& corpus,
                       const Op& op, size_t index, const std::string& text);

// Operation ids listed by SHOW PENDING, oldest first.
std::vector<uint64_t> PendingOpIds(const std::string& text);

}  // namespace e2e

#endif  // BDBMS_E2EBENCH_HARNESS_H_
