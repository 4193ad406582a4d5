// bdbms_bench: the end-to-end workload benchmark (README.md).
//
//   bdbms_bench --workload point_lookup|curation_mix|sequence_analytics
//               --seed N [--seconds 20] [--trace 0|1] [--trace-file PATH]
//               [--scale K] [--dir DIR]
//
// Builds the workload's dataset over one wire connection, then drives
// min(4, cores) closed-loop client sessions through an in-process Server
// for a warm-up and the measured window, checking every answer, reopens
// the directory to check that every acknowledged write survived, and
// builds the dataset four more times (setup_s is the median of five).
// With --trace 1 the window is split into the per-layer passes instead:
// wire, in-process untraced, in-process traced; the dataset is built once.
// The last line of standard output is one JSON object holding every
// metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bio/alignment.h"
#include "core/database.h"
#include "core/session.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "sql/parser.h"
#include "trace.h"

namespace e2e {
namespace {

using bdbms::Database;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string trace_file;
  size_t scale = 1;
  std::string dir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        a->workload = value;
      } else if (flag == "--seed") {
        a->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a->seconds = std::stod(value);
      } else if (flag == "--trace") {
        a->trace = value == "1";
      } else if (flag == "--trace-file") {
        a->trace_file = value;
      } else if (flag == "--scale") {
        a->scale = std::max<size_t>(1, std::stoul(value));
      } else if (flag == "--dir") {
        a->dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

// ---------------------------------------------------------------------------
// Client sessions
// ---------------------------------------------------------------------------

struct Reply {
  bool ok = false;
  std::string text;
  int64_t ns = 0;  // time inside Client::Execute or Session::Execute
};

class Conn {
 public:
  virtual ~Conn() = default;
  virtual Reply Exec(const std::string& sql) = 0;
};

class WireConn : public Conn {
 public:
  explicit WireConn(std::unique_ptr<bdbms::Client> client)
      : client_(std::move(client)) {}

  Reply Exec(const std::string& sql) override {
    Reply reply;
    const int64_t start = NowNs();
    auto r = client_->Execute(sql);
    reply.ns = NowNs() - start;
    if (!r.ok()) {
      reply.text = "transport: " + r.status().ToString();
      return reply;
    }
    reply.ok = r->ok;
    reply.text = std::move(r->text);
    return reply;
  }

 private:
  std::unique_ptr<bdbms::Client> client_;
};

// Plan time of one EXPLAINed statement next to the statement's own
// execute time.
struct PlanSample {
  int64_t plan_ns = 0;
  int64_t execute_ns = 0;
};

// A Session driven from the load thread itself. When traced, each
// statement is first parsed on its own (the sql layer), and one in 32
// SELECT/UPDATE/DELETE statements is also EXPLAINed (the plan layer).
class LocalConn : public Conn {
 public:
  LocalConn(Database* db, std::string user, bool traced)
      : session_(db, std::move(user)), traced_(traced) {}

  Reply Exec(const std::string& sql) override {
    int64_t plan_ns = -1;
    if (traced_) {
      const std::string verb = sql.substr(0, sql.find(' '));
      if ((verb == "SELECT" || verb == "UPDATE" || verb == "DELETE") &&
          plannable_++ % 32 == 0) {
        plan_ns = Explain("EXPLAIN " + sql);
      }
      ScopedSpan span(SpanKind::kParse);
      (void)bdbms::ParseStatement(sql);
    }
    Reply reply;
    std::optional<bdbms::Result<bdbms::QueryResult>> r;
    {
      ScopedSpan span(SpanKind::kExecute);
      const int64_t start = NowNs();
      r.emplace(session_.Execute(sql));
      reply.ns = NowNs() - start;
    }
    reply.ok = r->ok();
    reply.text = reply.ok ? (*r)->ToString() : r->status().ToString();
    if (plan_ns >= 0) plan_samples.push_back({plan_ns, reply.ns});
    return reply;
  }

  std::vector<PlanSample> plan_samples;

 private:
  // EXPLAIN time minus the time to parse the EXPLAIN statement.
  int64_t Explain(const std::string& explain) {
    int64_t parse_ns = 0, total_ns = 0;
    {
      ScopedSpan span(SpanKind::kExplainParse);
      const int64_t start = NowNs();
      (void)bdbms::ParseStatement(explain);
      parse_ns = NowNs() - start;
    }
    {
      ScopedSpan span(SpanKind::kExplain);
      const int64_t start = NowNs();
      (void)session_.Execute(explain);
      total_ns = NowNs() - start;
    }
    return std::max<int64_t>(0, total_ns - parse_ns);
  }

  bdbms::Session session_;
  bool traced_;
  uint64_t plannable_ = 0;
};

const char* SessionUser(size_t session) {
  return session == 0 ? "admin" : kLabUsers[(session - 1) % 3];
}

// ---------------------------------------------------------------------------
// Closed-loop load
// ---------------------------------------------------------------------------

struct Ctx {
  const WorkloadSpec& spec;
  const Corpus& corpus;
};

struct OpRecord {
  int64_t engine_ns = 0;  // summed over the operation's statements
  uint32_t retries = 0;
};

// What one session did during a pass. Operations wholly inside the
// measured window are counted and sampled; acknowledged writes are kept
// from the whole pass for the durability check.
struct SessionLog {
  explicit SessionLog(uint64_t seed) : sample(kSampleCapacity, seed) {}

  static constexpr size_t kSampleCapacity = 1 << 17;
  uint64_t ops = 0, failed = 0, retried_ops = 0, retries = 0;
  Reservoir sample;
  std::vector<std::string> errors;
  std::vector<std::string> submitted;                          // new GIDs
  std::vector<std::pair<std::string, std::string>> annotated;  // GID, body
  std::vector<Span> spans;
};

constexpr int kMaxAttempts = 50;
// Lab sessions log pending operations faster than one review approving a
// few could settle them; a longer queue would make SHOW PENDING, and so
// approve, slower as the run goes on.
constexpr size_t kApprovalsPerReview = 16;

// Runs `op` to completion, re-running the whole operation after a
// serialization failure. Like a well-behaved client, it first backs off
// for a random, exponentially growing time: retrying at once would reopen
// a transaction before the one that won the conflict could drain the
// others, starving it. Returns "" or what went wrong.
std::string RunOp(const Ctx& ctx, Conn& conn, const Op& op, bdbms::Rng& rng,
                  OpRecord* rec) {
  for (int attempt = 1;; ++attempt) {
    std::vector<std::string> stmts = op.sql;
    bool in_txn = false, conflict = false;
    std::string error;
    for (size_t i = 0; i < stmts.size() && error.empty() && !conflict; ++i) {
      const Reply r = conn.Exec(stmts[i]);
      rec->engine_ns += r.ns;
      if (!r.ok) {
        conflict = r.text.find("serialization failure") != std::string::npos;
        if (!conflict) error = std::string(ClassName(op.cls)) + ": " + r.text;
        continue;
      }
      in_txn = stmts[i] == "BEGIN" || (in_txn && stmts[i] != "COMMIT");
      error = CheckReply(ctx.spec, ctx.corpus, op, i, r.text);
      if (op.cls == OpClass::kApprove && i == 0) {
        const std::vector<uint64_t> ids = PendingOpIds(r.text);
        for (size_t k = 0; k < std::min(ids.size(), kApprovalsPerReview); ++k) {
          stmts.push_back("APPROVE OPERATION " + std::to_string(ids[k]));
        }
      }
    }
    if (in_txn) {
      const Reply r = conn.Exec("ROLLBACK");
      rec->engine_ns += r.ns;
      if (!r.ok && error.empty()) error = "ROLLBACK: " + r.text;
    }
    if (!conflict || !error.empty()) return error;
    if (attempt == kMaxAttempts) return "serialization failures persisted";
    ++rec->retries;
    const uint64_t cap_us = 100ull << std::min(attempt, 7);
    std::this_thread::sleep_for(
        std::chrono::microseconds(cap_us / 2 + rng.Uniform(cap_us / 2)));
  }
}

void RunSession(const Ctx& ctx, Conn* conn, OpStream stream, uint64_t session,
                int64_t record_from, int64_t stop_at, bool traced,
                SessionLog* log) {
  if (traced) RecordSpansInto(&log->spans);
  bdbms::Rng backoff(session + 1);
  for (uint64_t serial = 1; NowNs() < stop_at; ++serial) {
    const Op op = stream.Next();
    const size_t spans_before = log->spans.size();
    OpRecord rec;
    int64_t start = 0, end = 0;
    std::string error;
    StartTrace(session << 32 | serial);
    {
      ScopedSpan root(SpanKind::kOp);
      start = NowNs();
      error = RunOp(ctx, *conn, op, backoff, &rec);
      end = NowNs();
    }
    if (!error.empty()) {
      if (log->errors.size() < 5) log->errors.push_back(error);
    } else if (op.cls == OpClass::kSubmitGene) {
      log->submitted.push_back(op.gid);
    } else if (op.cls == OpClass::kAnnotate) {
      log->annotated.emplace_back(ctx.corpus.genes[op.gene].gid, op.body);
    }
    if (start < record_from || end > stop_at) {
      log->spans.resize(spans_before);
      continue;
    }
    ++log->ops;
    log->failed += error.empty() ? 0 : 1;
    log->retried_ops += rec.retries > 0 ? 1 : 0;
    log->retries += rec.retries;
    auto us = [](int64_t ns) {
      return static_cast<float>(static_cast<double>(ns) / 1e3);
    };
    log->sample.Add({us(end - start), us(rec.engine_ns), op.cls});
  }
  RecordSpansInto(nullptr);
}

// Drives every connection from its own thread: `warmup_s` unrecorded,
// then `window_s` recorded.
std::vector<SessionLog> RunPass(const Ctx& ctx, const std::vector<Conn*>& conns,
                                uint64_t seed, int pass, double warmup_s,
                                double window_s, bool traced) {
  const int64_t record_from =
      NowNs() + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t stop_at = record_from + static_cast<int64_t>(window_s * 1e9);
  std::vector<SessionLog> logs;
  for (size_t s = 0; s < conns.size(); ++s) {
    logs.emplace_back(MixSeed(seed, static_cast<uint64_t>(pass), s));
  }
  std::vector<std::thread> threads;
  for (size_t s = 0; s < conns.size(); ++s) {
    threads.emplace_back(RunSession, std::cref(ctx), conns[s],
                         OpStream(ctx.spec, ctx.corpus, seed,
                                  static_cast<int>(s), pass),
                         s, record_from, stop_at, traced, &logs[s]);
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

struct PassSummary {
  double window_s = 0;
  uint64_t ops = 0, failed = 0, retried_ops = 0, retries = 0;
  // Sorted, over the merged operation sample.
  std::vector<double> latency_ms, read_ms, write_ms, engine_us;
  std::array<std::vector<double>, kNumClasses> class_engine_us, class_ms;
};

PassSummary Summarize(const std::vector<SessionLog>& logs, double window_s) {
  PassSummary p;
  p.window_s = window_s;
  std::vector<const Reservoir*> parts;
  for (const SessionLog& log : logs) {
    p.ops += log.ops;
    p.failed += log.failed;
    p.retried_ops += log.retried_ops;
    p.retries += log.retries;
    parts.push_back(&log.sample);
  }
  for (const OpSample& s : MergeSamples(parts, logs.size())) {
    const double ms = s.latency_us / 1e3;
    p.latency_ms.push_back(ms);
    (IsWrite(s.cls) ? p.write_ms : p.read_ms).push_back(ms);
    p.engine_us.push_back(s.engine_us);
    p.class_engine_us[static_cast<size_t>(s.cls)].push_back(s.engine_us);
    p.class_ms[static_cast<size_t>(s.cls)].push_back(ms);
  }
  for (auto* v : {&p.latency_ms, &p.read_ms, &p.write_ms, &p.engine_us}) {
    std::sort(v->begin(), v->end());
  }
  for (auto& v : p.class_engine_us) std::sort(v.begin(), v.end());
  for (auto& v : p.class_ms) std::sort(v.begin(), v.end());
  return p;
}

// ---------------------------------------------------------------------------
// Engine set-up and the durability check
// ---------------------------------------------------------------------------

bdbms::Status RegisterProcedures(Database& db) {
  bdbms::ProcedureInfo p = bdbms::MakePredictionToolProcedure("P");
  p.fn = [inner = p.fn](const std::vector<bdbms::Value>& in) {
    ScopedSpan span(SpanKind::kProcedure);
    return inner(in);
  };
  BDBMS_RETURN_IF_ERROR(db.procedures().Register(std::move(p)));
  bdbms::ProcedureInfo lab;
  lab.name = "lab_experiment";
  return db.procedures().Register(std::move(lab));
}

// The bdbms_server defaults (per-statement fsync, a checkpoint every 1024
// logged statements, readahead 4) with the workload's buffer pool.
bdbms::DurabilityOptions Options(const WorkloadSpec& spec, TimingWalEnv* env) {
  bdbms::DurabilityOptions o;
  o.env = env;
  o.buffer_pool_pages = spec.pool_pages;
  o.bootstrap = RegisterProcedures;
  return o;
}

struct Engine {
  std::unique_ptr<Database> db;
  std::unique_ptr<bdbms::Server> server;
};

// Opens a fresh database in `dir`, serves it, and runs `script` over one
// admin connection. Returns the script's wall time in seconds.
bdbms::Result<double> SetUp(const WorkloadSpec& spec,
                            const std::vector<std::string>& script,
                            const std::string& dir, TimingWalEnv* env,
                            Engine* out) {
  std::filesystem::remove_all(dir);
  auto db = Database::Open(dir, Options(spec, env));
  if (!db.ok()) return db.status();
  out->db = std::move(*db);
  out->server = std::make_unique<bdbms::Server>(out->db.get());
  BDBMS_RETURN_IF_ERROR(out->server->Start());
  auto client =
      bdbms::Client::Connect("127.0.0.1", out->server->port(), "admin");
  if (!client.ok()) return client.status();
  const int64_t start = NowNs();
  for (const std::string& sql : script) {
    auto r = (*client)->Execute(sql);
    if (!r.ok()) return r.status();
    if (!r->ok) {
      return bdbms::Status::Internal(sql.substr(0, 80) + ": " + r->text);
    }
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

std::string ShutDown(Engine* e) {
  e->server.reset();  // stops and joins the pool
  std::string error;
  if (e->db) {
    bdbms::Status s = e->db->Close();
    if (!s.ok()) error = "close: " + s.ToString();
  }
  e->db.reset();
  return error;
}

// Reopens `dir` (timed into `open_s`) and checks it holds every generated
// gene and annotation plus every acknowledged submit_gene and annotate.
std::string VerifyReopen(const Ctx& ctx, const std::string& dir,
                         TimingWalEnv* env,
                         const std::vector<std::string>& submitted,
                         const std::vector<std::pair<std::string, std::string>>&
                             annotated,
                         double* open_s) {
  const int64_t start = NowNs();
  auto db = Database::Open(dir, Options(ctx.spec, env));
  *open_s = static_cast<double>(NowNs() - start) / 1e9;
  if (!db.ok()) return "reopen: " + db.status().ToString();
  bdbms::Session session(db->get(), "admin");
  auto r = session.Execute("SELECT GID, GSequence FROM Gene ANNOTATION(ALL)");
  if (!r.ok()) return "reopen scan: " + r.status().ToString();
  std::map<std::string, std::set<std::string>> bodies;
  for (const bdbms::ResultRow& row : r->rows) {
    auto& set = bodies[row.values[0].ToDisplayString()];
    for (const bdbms::ResultAnnotation& a : row.annotations[1]) {
      set.insert(a.body);
    }
  }
  const size_t expected = ctx.corpus.genes.size() + submitted.size();
  if (r->rows.size() != expected) {
    return "reopened Gene holds " + std::to_string(r->rows.size()) +
           " rows, expected " + std::to_string(expected);
  }
  for (const std::string& gid : submitted) {
    if (bodies.count(gid) == 0) return "acknowledged gene " + gid + " lost";
  }
  for (const AnnotationRow& a : ctx.corpus.annotations) {
    if (bodies[ctx.corpus.genes[a.gene].gid].count(a.body) == 0) {
      return "loaded annotation lost on " + ctx.corpus.genes[a.gene].gid;
    }
  }
  for (const auto& [gid, body] : annotated) {
    if (bodies[gid].count(body) == 0) {
      return "acknowledged annotation lost on " + gid;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string SampleNote(const std::vector<double>& sorted, double p) {
  std::string note = "n=" + std::to_string(sorted.size());
  if (p > 50) {
    const size_t beyond = SamplesBeyond(sorted.size(), p);
    note += " beyond=" + std::to_string(beyond);
    if (beyond < 10) {
      note += " (too few beyond; highest supported: p" +
              std::to_string(HighestSupportedPercentile(sorted.size())) + ")";
    }
  }
  return note;
}

Metric Timing(const std::string& name, const std::vector<double>& sorted,
              double p, const std::string& unit) {
  return {name, Percentile(sorted, p), unit, SampleNote(sorted, p)};
}

// The typical latency: the geometric mean, over the operation classes the
// workload ran (only its reads if `reads_only`), of each class's median.
// The median of all operations together would not do. The classes form
// clusters far apart (1 ms range reads beside 70 ms trie walks, reads that
// pass the engine gate beside reads queued behind a writer), that median
// falls in a sparse gap between clusters, and a small shift of operations
// from one cluster to another moves it by a quarter from run to run. A
// class's own median sits where its samples are dense.
Metric ClassP50Gmean(const std::string& name, const PassSummary& p,
                     bool reads_only) {
  std::vector<double> medians;
  for (size_t c = 0; c < kNumClasses; ++c) {
    if (p.class_ms[c].empty()) continue;
    if (reads_only && IsWrite(static_cast<OpClass>(c))) continue;
    medians.push_back(Percentile(p.class_ms[c], 50));
  }
  return {name, GeometricMean(medians), "ms",
          "classes=" + std::to_string(medians.size())};
}

std::vector<Metric> EndToEndMetrics(const PassSummary& p,
                                    const std::vector<double>& setup_s,
                                    double peak_rss_mb) {
  return {
      {"throughput_ops_s", Ratio(static_cast<double>(p.ops), p.window_s),
       "ops/s", "n=" + std::to_string(p.ops)},
      ClassP50Gmean("latency_p50_gmean_ms", p, false),
      Timing("latency_p99_ms", p.latency_ms, 99, "ms"),
      ClassP50Gmean("read_p50_gmean_ms", p, true),
      Timing("read_p99_ms", p.read_ms, 99, "ms"),
      {"setup_s", Median(setup_s), "s",
       "median of " + std::to_string(setup_s.size())},
      {"peak_rss_mb", peak_rss_mb, "MiB", ""},
  };
}

// Engine counters sampled around the traced pass.
struct Counters {
  bdbms::DurabilityStats wal;
  bdbms::BufferPoolStats pool;
};

Counters Sample(Database* db) {
  Counters c;
  c.wal = db->durability_stats();
  for (const char* table : {"Gene", "Protein"}) {
    auto t = db->GetTable(table);
    if (!t.ok()) continue;
    const bdbms::BufferPoolStats s = (*t)->buffer_stats();
    c.pool.hits += s.hits;
    c.pool.misses += s.misses;
    c.pool.evictions += s.evictions;
    c.pool.readahead += s.readahead;
  }
  return c;
}

struct TraceInputs {
  PassSummary wire, untraced, traced;
  std::vector<Span> spans;
  std::vector<PlanSample> plan;
  Counters before, after;
  uint64_t versions_max = 0;
  uint64_t pending_end = 0, outdated_end = 0;
  size_t annotations_added = 0;
  double recovery_s = 0;
};

std::vector<Metric> LayerMetrics(const TraceInputs& in) {
  std::array<std::vector<double>, kNumSpanKinds> us;
  for (const Span& s : in.spans) {
    us[static_cast<size_t>(s.kind)].push_back(
        static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  for (auto& v : us) std::sort(v.begin(), v.end());
  auto spans = [&](SpanKind k) -> const std::vector<double>& {
    return us[static_cast<size_t>(k)];
  };
  auto total = [&](SpanKind k) {
    return std::accumulate(spans(k).begin(), spans(k).end(), 0.0);
  };
  auto per_op = [&](double v) {
    return Ratio(v, static_cast<double>(in.traced.ops));
  };
  auto p50 = [](const std::vector<double>& v) { return Percentile(v, 50); };
  const double execute_us = total(SpanKind::kExecute);
  double plan_us = 0, planned_execute_us = 0;
  std::vector<double> plan_samples;
  for (const PlanSample& s : in.plan) {
    plan_samples.push_back(static_cast<double>(s.plan_ns) / 1e3);
    plan_us += static_cast<double>(s.plan_ns) / 1e3;
    planned_execute_us += static_cast<double>(s.execute_ns) / 1e3;
  }
  std::sort(plan_samples.begin(), plan_samples.end());
  const auto& cls = in.traced.class_engine_us;
  const auto& get_gene = cls[static_cast<size_t>(OpClass::kGetGene)];
  const auto& annotated = cls[static_cast<size_t>(OpClass::kGetGeneAnnotated)];
  const bdbms::BufferPoolStats& a = in.after.pool;
  const bdbms::BufferPoolStats& b = in.before.pool;
  const double fetches =
      static_cast<double>(a.hits - b.hits + a.misses - b.misses);
  // Means, not medians: curation_mix's median sits on the boundary between
  // fast reads and slow writes, so two passes' medians are not comparable.
  auto mean = [](const std::vector<double>& v) {
    return Ratio(std::accumulate(v.begin(), v.end(), 0.0),
                 static_cast<double>(v.size()));
  };
  const double untraced_mean = mean(in.untraced.latency_ms);

  std::vector<Metric> m = {
      {"net.request_p50_us", p50(in.wire.engine_us), "us", ""},
      {"net.overhead_p50_us",
       p50(in.wire.engine_us) - p50(in.untraced.engine_us), "us", ""},
      Timing("core.execute_p50_us", in.traced.engine_us, 50, "us"),
      Timing("core.execute_p99_us", in.traced.engine_us, 99, "us"),
  };
  for (size_t c = 0; c < kNumClasses; ++c) {
    m.push_back(Timing(std::string("core.execute_p50_us.") +
                           ClassName(static_cast<OpClass>(c)),
                       cls[c], 50, "us"));
  }
  const std::vector<Metric> rest = {
      Timing("sql.parse_p50_us", spans(SpanKind::kParse), 50, "us"),
      {"sql.parse_share", Ratio(total(SpanKind::kParse), execute_us), "ratio",
       ""},
      Timing("plan.explain_p50_us", plan_samples, 50, "us"),
      {"plan.share", Ratio(plan_us, planned_execute_us), "ratio", ""},
      {"wal.appends_per_op",
       per_op(static_cast<double>(spans(SpanKind::kWalAppend).size())),
       "count/op", ""},
      {"wal.bytes_per_op",
       per_op(static_cast<double>(in.after.wal.wal_bytes_appended -
                                  in.before.wal.wal_bytes_appended)),
       "bytes/op", ""},
      {"wal.fsyncs_per_op",
       per_op(static_cast<double>(spans(SpanKind::kWalSync).size())),
       "count/op", ""},
      Timing("wal.fsync_p50_us", spans(SpanKind::kWalSync), 50, "us"),
      Timing("wal.fsync_p99_us", spans(SpanKind::kWalSync), 99, "us"),
      {"wal.fsync_share", Ratio(total(SpanKind::kWalSync), execute_us),
       "ratio", ""},
      {"wal.checkpoints",
       static_cast<double>(in.after.wal.checkpoints_taken -
                           in.before.wal.checkpoints_taken),
       "count", ""},
      {"wal.recovery_s", in.recovery_s, "s", ""},
      {"storage.pool_hit_ratio",
       Ratio(static_cast<double>(a.hits - b.hits), fetches), "ratio",
       "fetches=" + std::to_string(static_cast<uint64_t>(fetches))},
      {"storage.evictions_per_op",
       per_op(static_cast<double>(a.evictions - b.evictions)), "count/op", ""},
      {"storage.readahead_per_op",
       per_op(static_cast<double>(a.readahead - b.readahead)), "count/op", ""},
      {"storage.page_reads_per_op",
       per_op(static_cast<double>(spans(SpanKind::kPageRead).size())),
       "count/op", ""},
      Timing("storage.page_read_p50_us", spans(SpanKind::kPageRead), 50, "us"),
      {"storage.page_writes_per_op",
       per_op(static_cast<double>(spans(SpanKind::kPageWrite).size())),
       "count/op", ""},
      {"dep.procedure_calls_per_op",
       per_op(static_cast<double>(spans(SpanKind::kProcedure).size())),
       "count/op", ""},
      Timing("dep.procedure_p50_us", spans(SpanKind::kProcedure), 50, "us"),
      {"dep.outdated_cells_end", static_cast<double>(in.outdated_end), "count",
       ""},
      {"txn.versions_retained_max", static_cast<double>(in.versions_max),
       "count", ""},
      {"txn.serialization_failures", static_cast<double>(in.wire.retries),
       "count", ""},
      {"annot.propagation_p50_us",
       get_gene.empty() || annotated.empty() ? 0.0
                                             : p50(annotated) - p50(get_gene),
       "us", ""},
      {"annot.added", static_cast<double>(in.annotations_added), "count", ""},
      {"auth.pending_end", static_cast<double>(in.pending_end), "count", ""},
      {"trace.overhead_pct",
       Ratio(mean(in.traced.latency_ms) - untraced_mean, untraced_mean) * 100,
       "%", ""},
      Timing("write_p50_ms", in.wire.write_ms, 50, "ms"),
      Timing("write_p99_ms", in.wire.write_ms, 99, "ms"),
      {"error_ratio",
       Ratio(static_cast<double>(in.wire.failed + in.wire.retried_ops),
             static_cast<double>(in.wire.ops)),
       "ratio", ""},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

// Latency by operation class, for reading only: the classes differ between
// workloads, so they are not metrics.
void PrintClasses(const PassSummary& p) {
  for (size_t c = 0; c < kNumClasses; ++c) {
    const std::vector<double>& v = p.class_ms[c];
    if (v.empty()) continue;
    const double mean = std::accumulate(v.begin(), v.end(), 0.0) /
                        static_cast<double>(v.size());
    std::printf("class %-22s n=%-7zu p50 %10.4f  mean %10.4f  p90 %10.4f ms\n",
                ClassName(static_cast<OpClass>(c)), v.size(),
                Percentile(v, 50), mean, Percentile(v, 90));
  }
}

void PrintReport(const std::vector<Metric>& metrics, bool correct,
                 size_t attempted, size_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

constexpr uint64_t kTraceFileOpsPerSession = 10000;
// A build of the smaller datasets takes well under a second, so a single
// build is at the mercy of every hiccup of the host; setup_s is the median
// of this many.
constexpr int kSetupRepeats = 5;

template <typename T>
std::vector<Conn*> Raw(const std::vector<std::unique_ptr<T>>& conns) {
  std::vector<Conn*> out;
  for (const auto& c : conns) out.push_back(c.get());
  return out;
}

int Run(const Args& args) {
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec spec = Scaled(*found, args.scale);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t sessions = std::min(4u, cores);
  Corpus corpus = BuildCorpus(spec, args.seed);
  ComputeOracles(&corpus, sessions);
  const Ctx ctx{spec, corpus};
  const std::vector<std::string> script = SetupScript(spec, corpus);
  TimingWalEnv env;
  const std::string base = args.dir + "/" + spec.name + "-" +
                           std::to_string(::getpid()) + "-";

  // Set-up is repeated so that setup_s is a median. The copy the load runs
  // on is built first; the others are built after the measured window,
  // because the memory of a copy built and dropped stays scattered over
  // the allocator's per-thread arenas and would add a different amount to
  // peak_rss_mb in every run.
  std::vector<double> setup_s;
  auto set_up = [&](Engine* e, std::string* dir) {
    *dir = base + std::to_string(setup_s.size());
    std::filesystem::create_directories(args.dir);
    auto t = SetUp(spec, script, *dir, &env, e);
    if (!t.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", t.status().ToString().c_str());
      ShutDown(e);
      std::filesystem::remove_all(*dir);
      return false;
    }
    setup_s.push_back(*t);
    return true;
  };
  Engine engine;
  std::string dir;
  if (!set_up(&engine, &dir)) return 1;

  std::vector<std::unique_ptr<WireConn>> wire;
  for (size_t s = 0; s < sessions; ++s) {
    auto c = bdbms::Client::Connect("127.0.0.1", engine.server->port(),
                                    SessionUser(s));
    if (!c.ok()) {
      std::fprintf(stderr, "connect: %s\n", c.status().ToString().c_str());
      return 1;
    }
    wire.push_back(std::make_unique<WireConn>(std::move(*c)));
  }
  const double warmup_s = std::min(3.0, 0.15 * args.seconds);
  std::vector<std::vector<SessionLog>> passes;
  TraceInputs trace;
  if (!args.trace) {
    passes.push_back(RunPass(ctx, Raw(wire), args.seed, 0, warmup_s,
                             args.seconds, false));
  } else {
    // Wire (half the window), then in-process untraced and traced (a
    // quarter each) on the same seed.
    passes.push_back(RunPass(ctx, Raw(wire), args.seed, 0, warmup_s,
                             args.seconds / 2, false));
    wire.clear();
    engine.server.reset();
    std::vector<std::unique_ptr<LocalConn>> local;
    for (size_t s = 0; s < sessions; ++s) {
      local.push_back(std::make_unique<LocalConn>(engine.db.get(),
                                                  SessionUser(s), false));
    }
    passes.push_back(RunPass(ctx, Raw(local), args.seed, 1, 0,
                             args.seconds / 4, false));
    local.clear();
    for (size_t s = 0; s < sessions; ++s) {
      local.push_back(std::make_unique<LocalConn>(engine.db.get(),
                                                  SessionUser(s), true));
    }
    trace.before = Sample(engine.db.get());
    std::atomic<bool> done{false};
    std::thread sampler([&] {
      while (!done) {
        trace.versions_max =
            std::max(trace.versions_max, engine.db->version_count());
        for (int i = 0; i < 20 && !done; ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
    passes.push_back(RunPass(ctx, Raw(local), args.seed, 2, 0,
                             args.seconds / 4, true));
    done = true;
    sampler.join();
    trace.after = Sample(engine.db.get());
    for (const auto& c : local) {
      trace.plan.insert(trace.plan.end(), c->plan_samples.begin(),
                        c->plan_samples.end());
    }
    local.clear();
    trace.pending_end = engine.db->approvals().Pending("Protein").size();
    trace.outdated_end = engine.db->dependencies().OutdatedCount("Protein");
  }
  wire.clear();
  // Taken here, so that the durability check's reopen and full scan and
  // the further set-ups below, which are the harness's work and not the
  // workload's, do not count.
  const double peak_rss_mb = PeakRssMib();

  // Correctness: every answer checked in flight, then the durability check.
  std::vector<std::string> errors, submitted;
  std::vector<std::pair<std::string, std::string>> annotated;
  size_t attempted = 0, failed = 0;
  for (const auto& logs : passes) {
    for (const SessionLog& log : logs) {
      errors.insert(errors.end(), log.errors.begin(), log.errors.end());
      submitted.insert(submitted.end(), log.submitted.begin(),
                       log.submitted.end());
      annotated.insert(annotated.end(), log.annotated.begin(),
                       log.annotated.end());
      attempted += log.ops;
      failed += log.failed;
    }
  }
  if (std::string e = ShutDown(&engine); !e.empty()) errors.push_back(e);
  double open_s = 0;
  if (std::string e =
          VerifyReopen(ctx, dir, &env, submitted, annotated, &open_s);
      !e.empty()) {
    errors.push_back(e);
  }
  std::filesystem::remove_all(dir);
  for (int i = 1; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    Engine copy;
    if (!set_up(&copy, &dir)) return 1;
    if (std::string e = ShutDown(&copy); !e.empty()) errors.push_back(e);
    std::filesystem::remove_all(dir);
  }

  std::vector<Metric> metrics;
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const PassSummary first = Summarize(passes[0], window);
  if (!args.trace) {
    metrics = EndToEndMetrics(first, setup_s, peak_rss_mb);
  } else {
    trace.wire = first;
    trace.untraced = Summarize(passes[1], args.seconds / 4);
    trace.traced = Summarize(passes[2], args.seconds / 4);
    for (const SessionLog& log : passes[2]) {
      trace.spans.insert(trace.spans.end(), log.spans.begin(), log.spans.end());
      trace.annotations_added += log.annotated.size();
    }
    trace.recovery_s = open_s;
    if (std::string e = CheckNesting(trace.spans); !e.empty()) {
      errors.push_back("span nesting: " + e);
    }
    if (!args.trace_file.empty()) {
      // Metrics use every span; the file keeps each session's first
      // operations, which is plenty to inspect and stays small.
      std::vector<Span> kept;
      for (const Span& s : trace.spans) {
        if ((s.trace & 0xFFFFFFFFu) <= kTraceFileOpsPerSession) {
          kept.push_back(s);
        }
      }
      const std::string header =
          "{\"workload\":\"" + spec.name + "\",\"seed\":" +
          std::to_string(args.seed) + ",\"spans\":" +
          std::to_string(kept.size()) + ",\"spans_recorded\":" +
          std::to_string(trace.spans.size()) + "}";
      if (!WriteTrace(args.trace_file, header, kept)) {
        errors.push_back("cannot write " + args.trace_file);
      }
    }
    metrics = LayerMetrics(trace);
  }
  std::printf("workload %s seed %llu sessions %zu window %.1f s%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              sessions, args.seconds, args.trace ? " (traced run)" : "");
  PrintClasses(first);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "ERROR: %s\n", e.c_str());
  }
  const bool correct = errors.empty() && failed == 0 && attempted > 0;
  PrintReport(metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload point_lookup|curation_mix|"
                 "sequence_analytics --seed N [--seconds S] [--trace 0|1] "
                 "[--trace-file PATH] [--scale K] [--dir DIR]\n",
                 argv[0]);
    return 2;
  }
  return e2e::Run(args);
}
