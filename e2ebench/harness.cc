#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <regex>
#include <thread>

#include "bio/alignment.h"

namespace e2e {

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

namespace {

size_t NearestRank(size_t n, double p) {
  // ceil(p/100 * n); the epsilon keeps exact products (p = 99, n = 1000)
  // from rounding up by one.
  const double exact = p * static_cast<double>(n) / 100.0;
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

int HighestSupportedPercentile(size_t n, size_t min_beyond) {
  for (int p : {99, 90, 50}) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// ---------------------------------------------------------------------------
// Operation samples
// ---------------------------------------------------------------------------

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  items_.reserve(capacity);
}

void Reservoir::Add(const OpSample& s) {
  ++seen_;
  if (items_.size() < capacity_) {
    items_.push_back(s);
  } else if (const uint64_t j = rng_.Uniform(seen_); j < capacity_) {
    items_[j] = s;
  }
}

std::vector<OpSample> MergeSamples(const std::vector<const Reservoir*>& parts,
                                   uint64_t seed) {
  double rate = 1.0;
  for (const Reservoir* r : parts) {
    if (r->seen() > 0) {
      rate = std::min(rate, static_cast<double>(r->items().size()) /
                                static_cast<double>(r->seen()));
    }
  }
  bdbms::Rng rng(seed);
  std::vector<OpSample> out;
  for (const Reservoir* r : parts) {
    std::vector<OpSample> items = r->items();
    const auto wanted = static_cast<size_t>(
        std::llround(rate * static_cast<double>(r->seen())));
    const size_t keep = std::min(items.size(), wanted);
    for (size_t i = 0; i < keep; ++i) {  // partial Fisher-Yates
      std::swap(items[i], items[i + rng.Uniform(items.size() - i)]);
    }
    items.resize(keep);
    out.insert(out.end(), items.begin(), items.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Zipf
// ---------------------------------------------------------------------------

Zipf::Zipf(uint64_t n, double theta) : n_(n) {
  zetan_ = 0;
  for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(i, theta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
  half_pow_theta_ = 1.0 + std::pow(0.5, theta);
}

uint64_t Zipf::Next(bdbms::Rng& rng) const {
  const double u = rng.UniformDouble();
  const double uz = u * zetan_;
  if (uz < 1.0 || n_ < 2) return 0;
  if (uz < half_pow_theta_) return 1;
  const auto rank = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(rank, n_ - 1);
}

uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b * 0xBF58476D1CE4E5B9ull +
               c * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Classes and workloads
// ---------------------------------------------------------------------------

const char* ClassName(OpClass cls) {
  static constexpr const char* kNames[kNumClasses] = {
      "get_gene",        "get_gene_annotated", "get_protein",
      "annotate",        "curate_function",    "update_sequence",
      "submit_gene",     "find_similar",       "approve",
      "awhere_scan",     "promote_range",      "regex_prefix",
      "regex_infix",     "topk_distance",      "align_threshold",
      "gene_protein_join"};
  return kNames[static_cast<size_t>(cls)];
}

bool IsWrite(OpClass cls) {
  switch (cls) {
    case OpClass::kAnnotate:
    case OpClass::kCurateFunction:
    case OpClass::kUpdateSequence:
    case OpClass::kSubmitGene:
    case OpClass::kApprove:
      return true;
    default:
      return false;
  }
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(3);
    w[0].name = "point_lookup";
    w[0].genes = 20000;
    w[0].annotations = 5000;
    w[0].gene_len_min = 60;
    w[0].gene_len_max = 300;
    w[0].mix = {{OpClass::kGetGene, 50},
                {OpClass::kGetGeneAnnotated, 30},
                {OpClass::kGetProtein, 20}};

    w[1].name = "curation_mix";
    w[1].genes = 10000;
    w[1].annotations = 2500;
    w[1].gene_len_min = 60;
    w[1].gene_len_max = 300;
    w[1].curation = true;
    w[1].mix = {{OpClass::kGetGeneAnnotated, 35},
                {OpClass::kGetProtein, 15},
                {OpClass::kAnnotate, 20},
                {OpClass::kCurateFunction, 10},
                {OpClass::kUpdateSequence, 8},
                {OpClass::kSubmitGene, 7},
                {OpClass::kFindSimilar, 5}};

    w[2].name = "sequence_analytics";
    w[2].genes = 5000;
    w[2].annotations = 1250;
    w[2].gene_len_min = 24;
    w[2].gene_len_max = 63;
    w[2].pool_pages = 6;
    w[2].sequence_index = true;
    for (OpClass c :
         {OpClass::kAwhereScan, OpClass::kPromoteRange, OpClass::kRegexPrefix,
          OpClass::kRegexInfix, OpClass::kTopkDistance,
          OpClass::kAlignThreshold, OpClass::kGeneProteinJoin}) {
      w[2].mix.emplace_back(c, 1);
    }
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadSpec Scaled(const WorkloadSpec& spec, size_t scale) {
  WorkloadSpec s = spec;
  s.genes = std::max<size_t>(s.genes / scale, 100);
  s.annotations = std::max<size_t>(s.annotations / scale, 25);
  return s;
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kDna = "ACGT";

const char* const kFunctions[] = {"kinase",    "transporter", "ligase",
                                  "regulator", "protease",    "chaperone",
                                  "synthase",  "unknown"};

bool IsAnalytics(OpClass cls) { return cls >= OpClass::kAwhereScan; }

std::string Tag(uint64_t t) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "tag%02u", static_cast<unsigned>(t % 64));
  return buf;
}

std::string RandomDna(bdbms::Rng& rng, size_t min_len, size_t max_len) {
  const auto len = static_cast<size_t>(rng.UniformInt(
      static_cast<int64_t>(min_len), static_cast<int64_t>(max_len)));
  return rng.NextString(len, kDna);
}

// A random window of `len` characters of `seq` (all of it when shorter).
std::string Window(bdbms::Rng& rng, const std::string& seq, size_t len) {
  if (seq.size() <= len) return seq;
  return seq.substr(rng.Uniform(seq.size() - len + 1), len);
}

Query MakeQuery(OpClass cls, size_t q, const Corpus& c, bdbms::Rng& rng) {
  const size_t n = c.genes.size();
  const std::string& read = c.genes[rng.Uniform(n)].seq;
  Query query;
  switch (cls) {
    case OpClass::kAwhereScan:
      query.arg = Tag(q);
      query.sql =
          "SELECT GID, GSequence FROM Gene ANNOTATION(Curation) "
          "AWHERE VALUE LIKE '%" + query.arg + "%'";
      break;
    case OpClass::kPromoteRange:
    case OpClass::kGeneProteinJoin: {
      const size_t width = std::min<size_t>(
          cls == OpClass::kPromoteRange ? 200 : 50, n);
      const size_t lo = rng.Uniform(n - width + 1);
      query.arg = GeneId(lo);
      query.arg2 = GeneId(lo + width);
      const std::string range = " >= '" + query.arg + "' AND ";
      query.sql =
          cls == OpClass::kPromoteRange
              ? "SELECT GID, GName PROMOTE (GSequence) FROM Gene "
                "ANNOTATION(Curation) WHERE GID" + range + "GID < '" +
                    query.arg2 + "'"
              : "SELECT G.GID, P.PName FROM Gene G, Protein P WHERE "
                "G.GID = P.GID AND G.GID" + range + "G.GID < '" +
                    query.arg2 + "'";
      break;
    }
    case OpClass::kRegexPrefix: {
      // Six leading bases with the third widened to a two-base class.
      std::string p = read.substr(0, 6);
      const char other = kDna[(kDna.find(p[2]) + 1 + rng.Uniform(3)) % 4];
      query.arg = p.substr(0, 2) + "[" + std::string(1, p[2]) + other + "]" +
                  p.substr(3) + ".*";
      query.sql =
          "SELECT GID FROM Gene WHERE GSequence MATCHES '" + query.arg + "'";
      break;
    }
    case OpClass::kRegexInfix:
      query.arg = ".*" + Window(rng, read, 8) + ".*";
      query.sql =
          "SELECT GID FROM Gene WHERE GSequence MATCHES '" + query.arg + "'";
      break;
    case OpClass::kTopkDistance: {
      std::string probe = read;
      for (int i = 0; i < 3; ++i) {
        probe[rng.Uniform(probe.size())] = kDna[rng.Uniform(4)];
      }
      query.arg = probe;
      query.sql =
          "SELECT GID, GSequence FROM Gene ORDER BY DISTANCE(GSequence, '" +
          probe + "') LIMIT " + std::to_string(kTopK);
      break;
    }
    case OpClass::kAlignThreshold:
      query.arg = Window(rng, read, 12);
      query.sql = "SELECT GID FROM Gene WHERE ALIGN(GSequence, '" + query.arg +
                  "') >= " + std::to_string(kAlignThreshold);
      break;
    default:
      break;
  }
  return query;
}

// Fills the expected answer of one pool query from the generated rows.
void SolveQuery(OpClass cls, const Corpus& c, Query* q) {
  std::vector<std::string>& out = q->gids;
  switch (cls) {
    case OpClass::kAwhereScan:
      for (size_t g = 0; g < c.genes.size(); ++g) {
        for (size_t a : c.gene_annotations[g]) {
          if (c.annotations[a].body.find(q->arg) != std::string::npos) {
            out.push_back(c.genes[g].gid);
            break;
          }
        }
      }
      break;
    case OpClass::kPromoteRange:
    case OpClass::kGeneProteinJoin:
      for (const GeneRow& g : c.genes) {
        if (g.gid >= q->arg && g.gid < q->arg2) out.push_back(g.gid);
      }
      break;
    case OpClass::kRegexPrefix:
    case OpClass::kRegexInfix: {
      const std::regex re(q->arg);
      for (const GeneRow& g : c.genes) {
        if (std::regex_match(g.seq, re)) out.push_back(g.gid);
      }
      break;
    }
    case OpClass::kTopkDistance: {
      std::vector<int> d;
      d.reserve(c.genes.size());
      for (const GeneRow& g : c.genes) {
        d.push_back(bdbms::EditDistance(g.seq, q->arg));
      }
      const size_t k = std::min<size_t>(kTopK, d.size()) - 1;
      std::nth_element(d.begin(), d.begin() + static_cast<long>(k), d.end());
      q->kth_distance = d[k];
      break;
    }
    case OpClass::kAlignThreshold:
      for (const GeneRow& g : c.genes) {
        if (bdbms::SmithWatermanScore(g.seq, q->arg) >= kAlignThreshold) {
          out.push_back(g.gid);
        }
      }
      break;
    default:
      break;
  }
  std::sort(out.begin(), out.end());
}

}  // namespace

std::string GeneId(size_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "G%06zu", index);
  return buf;
}

Corpus BuildCorpus(const WorkloadSpec& spec, uint64_t seed) {
  bdbms::Rng rng(MixSeed(seed, 0xC0C0));
  Corpus c;
  const size_t n = spec.genes;
  c.genes.reserve(n);
  c.proteins.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    GeneRow g;
    g.gid = GeneId(i);
    g.name = "gn" + rng.NextString(4, "abcdefghijklmnopqrstuvwxyz");
    g.seq = RandomDna(rng, spec.gene_len_min, spec.gene_len_max);
    ProteinRow p;
    p.pname = "P" + g.gid.substr(1);
    p.gid = g.gid;
    p.seq = bdbms::TranslateGene(g.seq);
    p.function = kFunctions[rng.Uniform(std::size(kFunctions))];
    c.genes.push_back(std::move(g));
    c.proteins.push_back(std::move(p));
  }
  c.gene_annotations.resize(n);
  for (size_t a = 0; a < spec.annotations; ++a) {
    AnnotationRow row;
    row.gene = rng.Uniform(n);
    row.body = "<Annotation>note " + std::to_string(a) + " " +
               Tag(rng.Uniform(64)) + "</Annotation>";
    c.gene_annotations[row.gene].push_back(a);
    c.annotations.push_back(std::move(row));
  }
  c.zipf_order.resize(n);
  for (size_t i = 0; i < n; ++i) c.zipf_order[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i > 1; --i) {
    std::swap(c.zipf_order[i - 1], c.zipf_order[rng.Uniform(i)]);
  }
  for (const auto& [cls, weight] : spec.mix) {
    if (!IsAnalytics(cls)) continue;
    auto& pool = c.pools[static_cast<size_t>(cls)];
    for (size_t q = 0; q < kPoolSize; ++q) {
      pool.push_back(MakeQuery(cls, q, c, rng));
    }
  }
  return c;
}

void ComputeOracles(Corpus* corpus, unsigned threads) {
  std::vector<std::pair<OpClass, Query*>> work;
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    for (Query& q : corpus->pools[cls]) {
      work.emplace_back(static_cast<OpClass>(cls), &q);
    }
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < work.size(); i = next++) {
        SolveQuery(work[i].first, *corpus, work[i].second);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

std::vector<std::string> SetupScript(const WorkloadSpec& spec,
                                     const Corpus& corpus) {
  constexpr size_t kRowsPerInsert = 100;
  constexpr size_t kRowsPerTxn = 500;
  std::vector<std::string> s = {
      "CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence SEQUENCE)",
      "CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence SEQUENCE, "
      "PFunction TEXT)",
      "CREATE ANNOTATION TABLE Curation ON Gene",
      "CREATE GROUP lab_members"};
  if (spec.curation) s.push_back("CREATE ANNOTATION TABLE Notes ON Gene");
  for (const char* user : kLabUsers) {
    s.push_back(std::string("CREATE USER ") + user);
    s.push_back(std::string("ADD USER ") + user + " TO GROUP lab_members");
  }
  for (const char* table : {"Gene", "Protein"}) {
    for (const char* priv : {"SELECT", "INSERT", "UPDATE"}) {
      s.push_back(std::string("GRANT ") + priv + " ON " + table +
                  " TO lab_members");
    }
  }
  auto load = [&](const char* table, auto&& row_sql) {
    const size_t n = corpus.genes.size();
    for (size_t i = 0; i < n; i += kRowsPerInsert) {
      if (i % kRowsPerTxn == 0) s.push_back("BEGIN");
      std::string sql = std::string("INSERT INTO ") + table + " VALUES ";
      for (size_t r = i; r < std::min(n, i + kRowsPerInsert); ++r) {
        if (r > i) sql += ", ";
        sql += row_sql(r);
      }
      s.push_back(std::move(sql));
      if ((i + kRowsPerInsert) % kRowsPerTxn == 0 || i + kRowsPerInsert >= n) {
        s.push_back("COMMIT");
      }
    }
  };
  load("Gene", [&](size_t r) {
    const GeneRow& g = corpus.genes[r];
    return "('" + g.gid + "', '" + g.name + "', '" + g.seq + "')";
  });
  load("Protein", [&](size_t r) {
    const ProteinRow& p = corpus.proteins[r];
    return "('" + p.pname + "', '" + p.gid + "', '" + p.seq + "', '" +
           p.function + "')";
  });
  s.push_back("CREATE INDEX gene_gid ON Gene (GID)");
  s.push_back("CREATE INDEX protein_gid ON Protein (GID)");
  if (spec.sequence_index) {
    s.push_back("CREATE SEQUENCE INDEX gene_seq ON Gene (GSequence)");
  }
  for (size_t a = 0; a < corpus.annotations.size(); ++a) {
    if (a % kRowsPerTxn == 0) s.push_back("BEGIN");
    const AnnotationRow& row = corpus.annotations[a];
    s.push_back("ADD ANNOTATION TO Gene.Curation VALUE '" + row.body +
                "' ON (SELECT GSequence FROM Gene WHERE GID = '" +
                corpus.genes[row.gene].gid + "')");
    if ((a + 1) % kRowsPerTxn == 0 || a + 1 == corpus.annotations.size()) {
      s.push_back("COMMIT");
    }
  }
  s.push_back("ANALYZE");
  // An annotation table's interval index is rebuilt by the first query
  // after a write, and that rebuild is not safe against a concurrent one
  // (IntervalIndex::RebuildIfNeeded runs under AnnotationTable's shared
  // latch). One read here rebuilds Curation before the sessions start;
  // curation_mix therefore also writes only to Notes, which no session
  // reads.
  s.push_back(
      "SELECT GID, GSequence FROM Gene ANNOTATION(Curation) WHERE GID = '" +
      GeneId(0) + "'");
  if (spec.curation) {
    s.push_back(
        "CREATE DEPENDENCY rule1 FROM Gene.GSequence TO Protein.PSequence "
        "USING P JOIN ON Gene.GID = Protein.GID");
    s.push_back(
        "CREATE DEPENDENCY rule2 FROM Protein.PSequence TO Protein.PFunction "
        "USING lab_experiment");
    s.push_back(
        "START CONTENT APPROVAL ON Protein COLUMNS (PFunction) APPROVED BY "
        "admin");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Operation streams
// ---------------------------------------------------------------------------

OpStream::OpStream(const WorkloadSpec& spec, const Corpus& corpus,
                   uint64_t seed, int session, int pass)
    : spec_(spec),
      corpus_(corpus),
      session_(session),
      pass_(pass),
      rng_(MixSeed(seed, static_cast<uint64_t>(session) + 1,
                   static_cast<uint64_t>(pass) + 1)),
      zipf_(corpus.genes.size(), 0.9) {
  for (const auto& [cls, weight] : spec.mix) {
    deck_.insert(deck_.end(), static_cast<size_t>(weight), cls);
  }
  next_card_ = deck_.size();
}

size_t OpStream::PickGene() {
  if (spec_.curation) return corpus_.zipf_order[zipf_.Next(rng_)];
  return rng_.Uniform(corpus_.genes.size());
}

Op OpStream::Next() {
  Op op;
  if (next_card_ == deck_.size()) {
    for (size_t i = deck_.size(); i > 1; --i) {
      std::swap(deck_[i - 1], deck_[rng_.Uniform(i)]);
    }
    next_card_ = 0;
  }
  op.cls = deck_[next_card_++];
  // The administrator reviews instead of every second read.
  if (spec_.curation && session_ == 0 && !IsWrite(op.cls) &&
      admin_reads_++ % 2 == 1) {
    op.cls = OpClass::kApprove;
  }
  const std::string tag = "s" + std::to_string(session_) + " p" +
                          std::to_string(pass_) + " n" +
                          std::to_string(serial_++);
  auto where_gid = [&] {
    op.gene = PickGene();
    return " WHERE GID = '" + corpus_.genes[op.gene].gid + "'";
  };
  switch (op.cls) {
    case OpClass::kGetGene:
      op.sql = {"SELECT GID, GName, GSequence FROM Gene" + where_gid()};
      break;
    case OpClass::kGetGeneAnnotated:
      op.sql = {"SELECT GID, GName, GSequence FROM Gene ANNOTATION(Curation)" +
                where_gid()};
      break;
    case OpClass::kGetProtein:
      op.sql = {"SELECT PName, GID, PSequence, PFunction FROM Protein" +
                where_gid()};
      break;
    case OpClass::kAnnotate:
      op.body = "<Annotation>" + tag + " " + Tag(rng_.Uniform(64)) +
                "</Annotation>";
      op.sql = {"ADD ANNOTATION TO Gene.Notes VALUE '" + op.body +
                "' ON (SELECT GSequence FROM Gene" + where_gid() + ")"};
      break;
    case OpClass::kCurateFunction:
      op.sql = {"UPDATE Protein SET PFunction = 'curated " + tag + "'" +
                where_gid()};
      break;
    case OpClass::kUpdateSequence: {
      const std::string seq =
          RandomDna(rng_, spec_.gene_len_min, spec_.gene_len_max);
      op.sql = {"UPDATE Gene SET GSequence = '" + seq + "'" + where_gid()};
      break;
    }
    case OpClass::kSubmitGene: {
      op.gid = "N" + std::to_string(session_) + "-" + std::to_string(pass_) +
               "-" + std::to_string(serial_);
      const std::string seq =
          RandomDna(rng_, spec_.gene_len_min, spec_.gene_len_max);
      op.sql = {"BEGIN",
                "INSERT INTO Gene VALUES ('" + op.gid + "', 'gnew', '" + seq +
                    "')",
                "INSERT INTO Protein VALUES ('P" + op.gid + "', '" + op.gid +
                    "', '" + bdbms::TranslateGene(seq) + "', 'unknown')",
                "COMMIT"};
      break;
    }
    case OpClass::kFindSimilar:
      op.gene = PickGene();
      op.prefix = corpus_.genes[op.gene].seq.substr(0, 8);
      op.sql = {"SELECT GID, GSequence FROM Gene WHERE GSequence MATCHES '" +
                op.prefix + ".*'"};
      break;
    case OpClass::kApprove:
      op.sql = {"SHOW PENDING ON Protein"};
      break;
    default: {
      const auto& pool = corpus_.pools[static_cast<size_t>(op.cls)];
      op.query = static_cast<int>(rng_.Uniform(pool.size()));
      op.sql = {pool[static_cast<size_t>(op.query)].sql};
      break;
    }
  }
  return op;
}

std::string DescribeOp(const Op& op) {
  std::string out = ClassName(op.cls);
  for (const std::string& sql : op.sql) out += " | " + sql;
  return out;
}

// ---------------------------------------------------------------------------
// Answer checks
// ---------------------------------------------------------------------------

namespace {

std::vector<std::string> Split(const std::string& s, const std::string& sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t pos; (pos = s.find(sep, start)) != std::string::npos;
       start = pos + sep.size()) {
    parts.push_back(s.substr(start, pos - start));
  }
  parts.push_back(s.substr(start));
  return parts;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> CuratedBodies(const Corpus& c, size_t gene) {
  std::vector<std::string> out;
  for (size_t a : c.gene_annotations[gene]) {
    out.push_back(std::string("Curation:") + c.annotations[a].body);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Expect(bool ok, const std::string& what) { return ok ? "" : what; }

// Column `col` of every row, sorted.
std::vector<std::string> ColumnValues(const Answer& a, size_t col) {
  std::vector<std::string> out;
  for (const auto& row : a.rows) out.push_back(row[col].value);
  std::sort(out.begin(), out.end());
  return out;
}

std::string CheckPointRead(const WorkloadSpec& spec, const Corpus& c,
                           const Op& op, const Answer& a) {
  if (a.rows.size() != 1) {
    return "expected 1 row, got " + std::to_string(a.rows.size());
  }
  const auto& row = a.rows[0];
  const GeneRow& g = c.genes[op.gene];
  const bool protein = op.cls == OpClass::kGetProtein;
  if (row[protein ? 1 : 0].value != g.gid) {
    return "wrong GID " + row[protein ? 1 : 0].value + " for " + g.gid;
  }
  if (spec.curation) return "";
  if (protein) {
    const ProteinRow& p = c.proteins[op.gene];
    return Expect(row[0].value == p.pname && row[2].value == p.seq &&
                      row[3].value == p.function,
                  "protein row of " + g.gid + " differs");
  }
  if (row[1].value != g.name || row[2].value != g.seq) {
    return "gene row of " + g.gid + " differs";
  }
  if (op.cls == OpClass::kGetGeneAnnotated) {
    std::vector<std::string> got = row[2].annotations;
    std::sort(got.begin(), got.end());
    return Expect(got == CuratedBodies(c, op.gene),
                  "annotations of " + g.gid + " differ");
  }
  return "";
}

std::string CheckAnalytics(const Corpus& c, const Op& op, const Answer& a) {
  const Query& q =
      c.pools[static_cast<size_t>(op.cls)][static_cast<size_t>(op.query)];
  switch (op.cls) {
    case OpClass::kTopkDistance: {
      if (a.rows.size() != static_cast<size_t>(kTopK)) {
        return "top-k returned " + std::to_string(a.rows.size()) + " rows";
      }
      std::vector<std::string> gids = ColumnValues(a, 0);
      if (std::adjacent_find(gids.begin(), gids.end()) != gids.end()) {
        return "top-k returned a row twice";
      }
      for (const auto& row : a.rows) {
        const std::string& gid = row[0].value;
        if (gid.size() != 7 || gid[0] != 'G') return "bad GID " + gid;
        const size_t g = std::stoul(gid.substr(1));
        if (g >= c.genes.size() || c.genes[g].seq != row[1].value) {
          return "top-k row " + gid + " differs";
        }
        if (bdbms::EditDistance(row[1].value, q.arg) > q.kth_distance) {
          return "top-k row " + gid + " beyond the k-th distance";
        }
      }
      return "";
    }
    case OpClass::kPromoteRange: {
      if (ColumnValues(a, 0) != q.gids) return "range rows differ";
      for (const auto& row : a.rows) {
        const size_t g = std::stoul(row[0].value.substr(1));
        if (row[1].value != c.genes[g].name ||
            row[1].annotations.size() != c.gene_annotations[g].size()) {
          return "promoted annotations of " + row[0].value + " differ";
        }
      }
      return "";
    }
    case OpClass::kGeneProteinJoin: {
      if (ColumnValues(a, 0) != q.gids) return "join rows differ";
      for (const auto& row : a.rows) {
        if (row[1].value != "P" + row[0].value.substr(1)) {
          return "join paired " + row[0].value + " with " + row[1].value;
        }
      }
      return "";
    }
    default:
      return Expect(ColumnValues(a, 0) == q.gids,
                    std::string(ClassName(op.cls)) + " answer differs from " +
                        "the oracle (" + std::to_string(a.rows.size()) +
                        " rows vs " + std::to_string(q.gids.size()) + ")");
  }
}

}  // namespace

bool ParseAnswer(const std::string& text, Answer* out) {
  std::vector<std::string> lines = Split(text, "\n");
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) return false;
  out->columns = Split(lines[0], " | ");
  out->rows.clear();
  for (size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> cells = Split(lines[i], " | ");
    if (cells.size() != out->columns.size()) return false;
    std::vector<Answer::Cell> row;
    for (const std::string& cell : cells) {
      std::vector<std::string> parts = Split(cell, " [");
      Answer::Cell c;
      c.value = parts[0];
      for (size_t p = 1; p < parts.size(); ++p) {
        if (parts[p].empty() || parts[p].back() != ']') return false;
        c.annotations.push_back(parts[p].substr(0, parts[p].size() - 1));
      }
      row.push_back(std::move(c));
    }
    out->rows.push_back(std::move(row));
  }
  return true;
}

std::string CheckReply(const WorkloadSpec& spec, const Corpus& corpus,
                       const Op& op, size_t index, const std::string& text) {
  auto parse = [&](Answer* a) { return ParseAnswer(text, a); };
  Answer a;
  switch (op.cls) {
    case OpClass::kGetGene:
    case OpClass::kGetGeneAnnotated:
    case OpClass::kGetProtein:
      if (!parse(&a)) return "unparsable answer";
      return CheckPointRead(spec, corpus, op, a);
    case OpClass::kAnnotate:
      return Expect(StartsWith(text, "annotation added over 1 region(s)"),
                    "annotate: " + text);
    case OpClass::kCurateFunction:
    case OpClass::kUpdateSequence:
      return Expect(StartsWith(text, "1 row(s) updated"), "update: " + text);
    case OpClass::kSubmitGene: {
      static const char* const kExpected[] = {
          "BEGIN", "1 row(s) inserted into Gene",
          "1 row(s) inserted into Protein", "COMMIT (2 statements)"};
      return Expect(index < 4 && StartsWith(text, kExpected[index]),
                    "submit_gene: " + text);
    }
    case OpClass::kFindSimilar:
      if (!parse(&a)) return "unparsable answer";
      for (const auto& row : a.rows) {
        if (!StartsWith(row[1].value, op.prefix)) {
          return "find_similar row " + row[0].value + " lacks the prefix";
        }
      }
      return "";
    case OpClass::kApprove:
      if (index == 0) return Expect(parse(&a), "unparsable SHOW PENDING");
      return Expect(StartsWith(text, "operation ") &&
                        text.find(" approved") != std::string::npos,
                    "approve: " + text);
    default:
      if (!parse(&a)) return "unparsable answer";
      return CheckAnalytics(corpus, op, a);
  }
}

std::vector<uint64_t> PendingOpIds(const std::string& text) {
  Answer a;
  std::vector<uint64_t> ids;
  if (!ParseAnswer(text, &a)) return ids;
  for (const auto& row : a.rows) ids.push_back(std::stoull(row[0].value));
  return ids;
}

}  // namespace e2e
