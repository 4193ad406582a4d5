// Unit tests for src/dep: procedures, procedural-dependency rules,
// reasoning (closures, cycles, chain derivation) and runtime propagation —
// including the paper's exact Figure 9/10 scenario.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <sstream>

#include "catalog/catalog.h"
#include "core/database.h"
#include "dep/chain_rules.h"
#include "dep/dependency_manager.h"
#include "dep/outdated_bitmap.h"
#include "dep/outdated_bitmap_rle.h"
#include "dep/procedure.h"
#include "table/table.h"

namespace bdbms {
namespace {

TEST(ProcedureRegistryTest, RegisterAndLookup) {
  ProcedureRegistry reg;
  ProcedureInfo lab;
  lab.name = "lab_experiment";
  lab.executable = false;
  ASSERT_TRUE(reg.Register(lab).ok());
  EXPECT_TRUE(reg.Has("lab_experiment"));
  auto got = reg.Get("lab_experiment");
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE((*got)->executable);
  EXPECT_TRUE(reg.Register(lab).IsAlreadyExists());
  EXPECT_FALSE(reg.Get("nope").ok());
}

TEST(ProcedureRegistryTest, ExecutableNeedsFn) {
  ProcedureRegistry reg;
  ProcedureInfo p;
  p.name = "p";
  p.executable = true;  // but no fn
  EXPECT_FALSE(reg.Register(p).ok());

  p.executable = false;
  p.fn = [](const std::vector<Value>&) -> Result<Value> {
    return Value::Int(0);
  };
  EXPECT_FALSE(reg.Register(p).ok());  // fn without executable
}

TEST(ProcedureRegistryTest, UpdateImplementationBumpsVersion) {
  ProcedureRegistry reg;
  ProcedureInfo p;
  p.name = "blast";
  p.executable = true;
  p.fn = [](const std::vector<Value>&) -> Result<Value> {
    return Value::Double(1.0);
  };
  ASSERT_TRUE(reg.Register(p).ok());
  EXPECT_EQ((*reg.Get("blast"))->version, 1);
  ASSERT_TRUE(reg.UpdateImplementation("blast",
                                       [](const std::vector<Value>&)
                                           -> Result<Value> {
                                         return Value::Double(2.0);
                                       })
                  .ok());
  EXPECT_EQ((*reg.Get("blast"))->version, 2);
}

// Test fixture reproducing the paper's Figure 9 schema:
//   Gene(GID, GName, GSequence)
//   Protein(PName, GID, PSequence, PFunction)
//   GeneMatching(Gene1, Gene2, Evalue)
// Rules:
//   1: Gene.GSequence --P(exec)--> Protein.PSequence          [join on GID]
//   2: Protein.PSequence --lab(non-exec)--> Protein.PFunction
//   3: GeneMatching.{Gene1,Gene2} --BLAST(exec)--> GeneMatching.Evalue
class DependencyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema gene("Gene");
    ASSERT_TRUE(gene.AddColumn("GID", DataType::kText).ok());
    ASSERT_TRUE(gene.AddColumn("GName", DataType::kText).ok());
    ASSERT_TRUE(gene.AddColumn("GSequence", DataType::kSequence).ok());
    TableSchema protein("Protein");
    ASSERT_TRUE(protein.AddColumn("PName", DataType::kText).ok());
    ASSERT_TRUE(protein.AddColumn("GID", DataType::kText).ok());
    ASSERT_TRUE(protein.AddColumn("PSequence", DataType::kSequence).ok());
    ASSERT_TRUE(protein.AddColumn("PFunction", DataType::kText).ok());
    TableSchema matching("GeneMatching");
    ASSERT_TRUE(matching.AddColumn("Gene1", DataType::kSequence).ok());
    ASSERT_TRUE(matching.AddColumn("Gene2", DataType::kSequence).ok());
    ASSERT_TRUE(matching.AddColumn("Evalue", DataType::kDouble).ok());

    ASSERT_TRUE(catalog_.CreateTable(gene).ok());
    ASSERT_TRUE(catalog_.CreateTable(protein).ok());
    ASSERT_TRUE(catalog_.CreateTable(matching).ok());

    // Prediction tool P: protein sequence derived as "translated" gene seq
    // (first 6 chars, uppercased 'P' prefix) — a deterministic stand-in.
    ProcedureInfo p;
    p.name = "P";
    p.executable = true;
    p.fn = [](const std::vector<Value>& in) -> Result<Value> {
      std::string g = in[0].as_string();
      std::string translated = "P";
      translated.append(g, 0, std::min<size_t>(6, g.size()));
      return Value::Sequence(std::move(translated));
    };
    ASSERT_TRUE(procs_.Register(p).ok());

    ProcedureInfo lab;
    lab.name = "lab_experiment";
    lab.executable = false;
    ASSERT_TRUE(procs_.Register(lab).ok());

    ProcedureInfo blast;
    blast.name = "BLAST-2.2.15";
    blast.executable = true;
    blast.fn = [](const std::vector<Value>& in) -> Result<Value> {
      // Toy E-value: inverse of shared-prefix length.
      const std::string &a = in[0].as_string(), &b = in[1].as_string();
      size_t k = 0;
      while (k < a.size() && k < b.size() && a[k] == b[k]) ++k;
      return Value::Double(1.0 / (1.0 + static_cast<double>(k)));
    };
    ASSERT_TRUE(procs_.Register(blast).ok());

    mgr_ = std::make_unique<DependencyManager>(&catalog_, &procs_);

    DependencyRule r1;
    r1.name = "rule1";
    r1.sources = {{"Gene", "GSequence"}};
    r1.target = {"Protein", "PSequence"};
    r1.procedure = "P";
    r1.join = KeyJoin{"GID", "GID"};
    ASSERT_TRUE(mgr_->AddRule(r1).ok());

    DependencyRule r2;
    r2.name = "rule2";
    r2.sources = {{"Protein", "PSequence"}};
    r2.target = {"Protein", "PFunction"};
    r2.procedure = "lab_experiment";
    ASSERT_TRUE(mgr_->AddRule(r2).ok());

    DependencyRule r3;
    r3.name = "rule3";
    r3.sources = {{"GeneMatching", "Gene1"}, {"GeneMatching", "Gene2"}};
    r3.target = {"GeneMatching", "Evalue"};
    r3.procedure = "BLAST-2.2.15";
    ASSERT_TRUE(mgr_->AddRule(r3).ok());
  }

  Table* table(const std::string& name) {
    return catalog_.tables().at(name).get();
  }

  Catalog catalog_;
  ProcedureRegistry procs_;
  std::unique_ptr<DependencyManager> mgr_;
};

TEST_F(DependencyFixture, RuleValidation) {
  DependencyRule bad;
  bad.sources = {{"Gene", "GSequence"}};
  bad.target = {"Protein", "PSequence"};
  bad.procedure = "P";
  // Missing join on a cross-table rule.
  EXPECT_FALSE(mgr_->AddRule(bad).ok());

  bad.join = KeyJoin{"GID", "GID"};
  bad.procedure = "unknown_proc";
  EXPECT_FALSE(mgr_->AddRule(bad).ok());

  bad.procedure = "P";
  bad.sources = {{"Gene", "NoSuchColumn"}};
  EXPECT_FALSE(mgr_->AddRule(bad).ok());

  DependencyRule self;
  self.sources = {{"Gene", "GSequence"}};
  self.target = {"Gene", "GSequence"};
  self.procedure = "P";
  EXPECT_FALSE(mgr_->AddRule(self).ok());
}

TEST_F(DependencyFixture, CycleRejected) {
  // PFunction -> GSequence would close the loop
  // GSequence -> PSequence -> PFunction -> GSequence.
  DependencyRule back;
  back.name = "back";
  back.sources = {{"Protein", "PFunction"}};
  back.target = {"Gene", "GSequence"};
  back.procedure = "lab_experiment";
  back.join = KeyJoin{"GID", "GID"};
  EXPECT_TRUE(mgr_->WouldCreateCycle(back));
  EXPECT_TRUE(mgr_->AddRule(back).IsFailedPrecondition());
}

TEST_F(DependencyFixture, ColumnClosure) {
  auto closure = ColumnClosure(mgr_->rules(), {"Gene", "GSequence"});
  std::set<ColumnRef> got(closure.begin(), closure.end());
  EXPECT_TRUE(got.count({"Protein", "PSequence"}));
  EXPECT_TRUE(got.count({"Protein", "PFunction"}));
  EXPECT_EQ(got.size(), 2u);

  // PFunction is a sink.
  EXPECT_TRUE(ColumnClosure(mgr_->rules(), {"Protein", "PFunction"}).empty());
}

TEST_F(DependencyFixture, ProcedureClosure) {
  // Closure of P: PSequence (direct) + PFunction (downstream).
  auto closure = ProcedureClosure(mgr_->rules(), "P");
  std::set<ColumnRef> got(closure.begin(), closure.end());
  EXPECT_EQ(got.size(), 2u);
  EXPECT_TRUE(got.count({"Protein", "PSequence"}));
  EXPECT_TRUE(got.count({"Protein", "PFunction"}));

  // Closure of BLAST: just Evalue.
  auto blast = ProcedureClosure(mgr_->rules(), "BLAST-2.2.15");
  ASSERT_EQ(blast.size(), 1u);
  EXPECT_EQ(blast[0], (ColumnRef{"GeneMatching", "Evalue"}));
}

TEST_F(DependencyFixture, DeriveChainRulesReproducesRule4) {
  auto chains = DeriveChainRules(mgr_->rules(), procs_);
  // Exactly one chain of length 2: GSequence -> PFunction via [P, lab].
  ASSERT_EQ(chains.size(), 1u);
  const ChainRule& rule4 = chains[0];
  EXPECT_EQ(rule4.source, (ColumnRef{"Gene", "GSequence"}));
  EXPECT_EQ(rule4.target, (ColumnRef{"Protein", "PFunction"}));
  EXPECT_EQ(rule4.procedures,
            (std::vector<std::string>{"P", "lab_experiment"}));
  // Paper: "the chain is non-executable because at least one of the
  // procedures, namely the lab experiment, is non-executable."
  EXPECT_FALSE(rule4.executable);
  EXPECT_FALSE(rule4.invertible);
}

TEST_F(DependencyFixture, Figure10Scenario) {
  // Populate the paper's rows: mraW/JW0080, ftsI/JW0082, yabP/JW0055.
  Table* gene = table("Gene");
  Table* protein = table("Protein");
  ASSERT_TRUE(gene->Insert({Value::Text("JW0080"), Value::Text("mraW"),
                            Value::Sequence("ATGATGGAAAA")})
                  .ok());
  ASSERT_TRUE(gene->Insert({Value::Text("JW0082"), Value::Text("ftsI"),
                            Value::Sequence("ATGAAAGCAGC")})
                  .ok());
  ASSERT_TRUE(gene->Insert({Value::Text("JW0055"), Value::Text("yabP"),
                            Value::Sequence("ATGAAAGTATC")})
                  .ok());
  ASSERT_TRUE(protein->Insert({Value::Text("mraW"), Value::Text("JW0080"),
                               Value::Sequence("MKENYKNM"),
                               Value::Text("Exhibitor")})
                  .ok());
  ASSERT_TRUE(protein->Insert({Value::Text("ftsI"), Value::Text("JW0082"),
                               Value::Sequence("MTATTKTQ"),
                               Value::Text("Cell wall formation")})
                  .ok());
  ASSERT_TRUE(protein->Insert({Value::Text("yabP"), Value::Text("JW0055"),
                               Value::Sequence("MKVSVPGM"),
                               Value::Text("Hypothetical protein")})
                  .ok());

  // Modify the sequences of JW0080 (row 0) and JW0082 (row 1).
  ASSERT_TRUE(gene->UpdateCell(0, 2, Value::Sequence("GTGAAACTGGA")).ok());
  auto rep0 = mgr_->OnCellUpdated("Gene", 0, 2);
  ASSERT_TRUE(rep0.ok());
  ASSERT_TRUE(gene->UpdateCell(1, 2, Value::Sequence("TTGAAACTGGA")).ok());
  auto rep1 = mgr_->OnCellUpdated("Gene", 1, 2);
  ASSERT_TRUE(rep1.ok());

  // PSequence (col 2) was auto-recomputed by P -> bits stay 0.
  EXPECT_FALSE(mgr_->IsOutdated("Protein", 0, 2));
  EXPECT_FALSE(mgr_->IsOutdated("Protein", 1, 2));
  // PFunction (col 3) cannot be recomputed -> bits set to 1, exactly as in
  // Figure 10.
  EXPECT_TRUE(mgr_->IsOutdated("Protein", 0, 3));
  EXPECT_TRUE(mgr_->IsOutdated("Protein", 1, 3));
  // yabP untouched.
  EXPECT_FALSE(mgr_->IsOutdated("Protein", 2, 3));

  // PSequence values actually changed to P's output.
  auto p_row = protein->Get(0);
  ASSERT_TRUE(p_row.ok());
  EXPECT_EQ((*p_row)[2].as_string(), "PGTGAAA");

  // Each update recomputed one PSequence and invalidated one PFunction.
  EXPECT_EQ(rep0->recomputed.size(), 1u);
  EXPECT_EQ(rep0->outdated.size(), 1u);
}

TEST_F(DependencyFixture, SameTableRecompute) {
  Table* matching = table("GeneMatching");
  ASSERT_TRUE(matching
                  ->Insert({Value::Sequence("ATCCCGGTT"),
                            Value::Sequence("ATCCTGGTT"), Value::Double(0.0)})
                  .ok());
  // Changing Gene1 re-runs BLAST automatically.
  ASSERT_TRUE(matching->UpdateCell(0, 0, Value::Sequence("ATCCTGGTT")).ok());
  auto rep = mgr_->OnCellUpdated("GeneMatching", 0, 0);
  ASSERT_TRUE(rep.ok());
  ASSERT_EQ(rep->recomputed.size(), 1u);
  EXPECT_TRUE(rep->outdated.empty());
  auto row = matching->Get(0);
  ASSERT_TRUE(row.ok());
  EXPECT_DOUBLE_EQ((*row)[2].as_double(), 1.0 / 10.0);  // full 9-char match
  EXPECT_FALSE(mgr_->IsOutdated("GeneMatching", 0, 2));
}

TEST_F(DependencyFixture, ProcedureChangeReevaluatesClosure) {
  Table* matching = table("GeneMatching");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(matching
                    ->Insert({Value::Sequence("AAAA"), Value::Sequence("AAAT"),
                              Value::Double(-1.0)})
                    .ok());
  }
  // Upgrade BLAST (paper: "If a newer version of BLAST is used ... we need
  // to re-evaluate the values in the Evalue column").
  ASSERT_TRUE(procs_
                  .UpdateImplementation(
                      "BLAST-2.2.15",
                      [](const std::vector<Value>&) -> Result<Value> {
                        return Value::Double(42.0);
                      })
                  .ok());
  auto rep = mgr_->OnProcedureChanged("BLAST-2.2.15");
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->recomputed.size(), 5u);
  for (RowId r = 0; r < 5; ++r) {
    auto row = matching->Get(r);
    ASSERT_TRUE(row.ok());
    EXPECT_DOUBLE_EQ((*row)[2].as_double(), 42.0);
  }
}

TEST_F(DependencyFixture, NonExecutableProcedureChangeMarksOutdated) {
  Table* protein = table("Protein");
  ASSERT_TRUE(protein->Insert({Value::Text("x"), Value::Text("JW1"),
                               Value::Sequence("M"), Value::Text("f")})
                  .ok());
  auto rep = mgr_->OnProcedureChanged("lab_experiment");
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->recomputed.empty());
  ASSERT_EQ(rep->outdated.size(), 1u);
  EXPECT_TRUE(mgr_->IsOutdated("Protein", 0, 3));
}

TEST_F(DependencyFixture, RevalidationClearsBit) {
  Table* protein = table("Protein");
  Table* gene = table("Gene");
  ASSERT_TRUE(gene->Insert({Value::Text("JW1"), Value::Text("g"),
                            Value::Sequence("AAA")})
                  .ok());
  ASSERT_TRUE(protein->Insert({Value::Text("p"), Value::Text("JW1"),
                               Value::Sequence("M"), Value::Text("f")})
                  .ok());
  ASSERT_TRUE(gene->UpdateCell(0, 2, Value::Sequence("CCC")).ok());
  ASSERT_TRUE(mgr_->OnCellUpdated("Gene", 0, 2).ok());
  ASSERT_TRUE(mgr_->IsOutdated("Protein", 0, 3));

  // Paper: "a modification to a gene sequence may not affect the
  // corresponding protein ... revalidated without modifying its value."
  ASSERT_TRUE(mgr_->Revalidate("Protein", 0, 3).ok());
  EXPECT_FALSE(mgr_->IsOutdated("Protein", 0, 3));
  // Revalidating a non-outdated cell fails.
  EXPECT_TRUE(mgr_->Revalidate("Protein", 0, 3).IsFailedPrecondition());
}

TEST_F(DependencyFixture, RevalidateWithValueUpdatesAndPropagates) {
  Table* protein = table("Protein");
  Table* gene = table("Gene");
  ASSERT_TRUE(gene->Insert({Value::Text("JW1"), Value::Text("g"),
                            Value::Sequence("AAA")})
                  .ok());
  ASSERT_TRUE(protein->Insert({Value::Text("p"), Value::Text("JW1"),
                               Value::Sequence("M"), Value::Text("f")})
                  .ok());
  ASSERT_TRUE(gene->UpdateCell(0, 2, Value::Sequence("CCC")).ok());
  ASSERT_TRUE(mgr_->OnCellUpdated("Gene", 0, 2).ok());
  ASSERT_TRUE(mgr_->IsOutdated("Protein", 0, 3));

  auto rep = mgr_->RevalidateWithValue("Protein", 0, 3,
                                       Value::Text("verified function"));
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE(mgr_->IsOutdated("Protein", 0, 3));
  auto row = protein->Get(0);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[3].as_string(), "verified function");
}

TEST(OutdatedBitmapTest, MarkClearQuery) {
  OutdatedBitmap bm(4);
  EXPECT_FALSE(bm.IsOutdated(10, 2));
  bm.Mark(10, 2);
  EXPECT_TRUE(bm.IsOutdated(10, 2));
  EXPECT_EQ(bm.RowMask(10), ColumnBit(2));
  EXPECT_EQ(bm.CountOutdated(), 1u);
  bm.Clear(10, 2);
  EXPECT_FALSE(bm.IsOutdated(10, 2));
  EXPECT_EQ(bm.CountOutdated(), 0u);
}

TEST(OutdatedBitmapTest, RleRoundTrip) {
  OutdatedBitmap bm(4);
  bm.Mark(0, 1);
  bm.Mark(0, 2);
  bm.Mark(999, 3);
  std::string serialized = SerializeOutdatedRle(bm, 1000);
  auto back = DeserializeOutdatedRle(serialized, 4);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->IsOutdated(0, 1));
  EXPECT_TRUE(back->IsOutdated(0, 2));
  EXPECT_TRUE(back->IsOutdated(999, 3));
  EXPECT_EQ(back->CountOutdated(), 3u);
}

TEST(OutdatedBitmapTest, RleCompressesSparseBitmaps) {
  OutdatedBitmap bm(8);
  bm.Mark(5000, 3);  // single outdated cell in a 10k-row table
  uint64_t raw = bm.RawSizeBytes(10000);
  std::string rle = SerializeOutdatedRle(bm, 10000);
  EXPECT_EQ(raw, 10000u);       // 10k rows * 8 cols / 8 bits
  EXPECT_LT(rle.size(), 16u);   // ~3 varints
}

// --- Join-key index probes (DependencyIndexProbe) -------------------------
// Dependency propagation finds a rule's target rows, and a target's source
// row, through a B+-tree on the join key when one exists and by scanning
// otherwise. Each scenario below runs twice — once with indexes on every
// join key, once without — and both runs must leave identical rows and
// outdated bits and return identical propagation reports.

// Gene.GSequence feeds Protein.PSequence through P (joined on GID) and
// Gene.GNote through F; Protein.PSequence feeds Protein.PFunction through
// the non-executable lab procedure; Num.V feeds Dbl.D through P, joined
// from an INT key to a DOUBLE key. F fails on 'BAD', after rule1 has
// already rewritten the joined proteins (rules run in name order).
Status RegisterProbeProcedures(Database& db) {
  ProcedureInfo p;
  p.name = "P";
  p.executable = true;
  p.fn = [](const std::vector<Value>& in) -> Result<Value> {
    return Value::Sequence("P:" + in[0].as_string());
  };
  BDBMS_RETURN_IF_ERROR(db.procedures().Register(p));
  ProcedureInfo f;
  f.name = "F";
  f.executable = true;
  f.fn = [](const std::vector<Value>& in) -> Result<Value> {
    if (in[0].as_string() == "BAD") {
      return Status::InvalidArgument("F rejects BAD");
    }
    return Value::Text("len=" + std::to_string(in[0].as_string().size()));
  };
  BDBMS_RETURN_IF_ERROR(db.procedures().Register(f));
  ProcedureInfo lab;
  lab.name = "lab_experiment";
  lab.executable = false;
  return db.procedures().Register(lab);
}

std::vector<std::string> ProbeSchema(bool indexed) {
  std::vector<std::string> sql = {
      "CREATE TABLE Gene (GID TEXT, GSequence SEQUENCE, GNote TEXT)",
      "CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence SEQUENCE, "
      "PFunction TEXT)",
      "CREATE TABLE Num (K INT, V SEQUENCE)",
      "CREATE TABLE Dbl (K DOUBLE, D SEQUENCE)",
      "CREATE DEPENDENCY rule1 FROM Gene.GSequence TO Protein.PSequence "
      "USING P JOIN ON Gene.GID = Protein.GID",
      "CREATE DEPENDENCY rule2 FROM Protein.PSequence TO Protein.PFunction "
      "USING lab_experiment",
      "CREATE DEPENDENCY rule3 FROM Num.V TO Dbl.D "
      "USING P JOIN ON Num.K = Dbl.K",
      "CREATE DEPENDENCY rule9 FROM Gene.GSequence TO Gene.GNote USING F",
  };
  if (indexed) {
    sql.push_back("CREATE INDEX gene_gid ON Gene (GID)");
    sql.push_back("CREATE INDEX protein_gid ON Protein (GID)");
    sql.push_back("CREATE INDEX num_k ON Num (K)");
    sql.push_back("CREATE INDEX dbl_k ON Dbl (K)");
  }
  return sql;
}

// Rows and outdated bits of every table.
std::string DepState(Database& db) {
  std::ostringstream out;
  for (const auto& [name, table] : db.catalog().tables()) {
    out << name << ":\n";
    (void)table->Scan([&](RowId row_id, const Row& row) {
      out << "  " << row_id << ":";
      for (const Value& v : row) out << " " << v.ToString();
      out << " outdated=" << db.dependencies().OutdatedMask(name, row_id)
          << "\n";
      return Status::Ok();
    });
  }
  return out.str();
}

std::string ReportString(
    const Result<DependencyManager::PropagationReport>& report) {
  std::ostringstream out;
  if (!report.ok()) {
    out << "error: " << report.status().ToString() << "\n";
    return out.str();
  }
  out << "recomputed:";
  for (const CellRef& c : report->recomputed) out << " " << c.ToString();
  out << " outdated:";
  for (const CellRef& c : report->outdated) out << " " << c.ToString();
  out << "\n";
  return out.str();
}

// Logs each statement's outcome and the state after it.
void Exec(Database& db, std::ostream& log, const std::string& sql,
          const std::string& user = "admin") {
  auto r = db.Execute(sql, user);
  log << sql << " -> " << (r.ok() ? "ok" : r.status().ToString()) << "\n"
      << DepState(db);
}

using ProbeScenario = std::function<void(Database&, std::ostream&)>;

// Runs `scenario` on a fresh in-memory database built by ProbeSchema.
std::string RunProbeScenario(bool indexed, const ProbeScenario& scenario) {
  Database db;
  EXPECT_TRUE(RegisterProbeProcedures(db).ok());
  for (const std::string& sql : ProbeSchema(indexed)) {
    auto r = db.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }
  std::ostringstream log;
  scenario(db, log);
  return log.str();
}

// The scan run's log, after checking the indexed run matches it.
std::string ExpectSameWithAndWithoutIndex(const ProbeScenario& scenario) {
  std::string scanned = RunProbeScenario(false, scenario);
  std::string probed = RunProbeScenario(true, scenario);
  EXPECT_EQ(scanned, probed);
  return scanned;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(DependencyIndexProbe, DuplicateKeysTakeFirstSourceRowInRowIdOrder) {
  std::string got = ExpectSameWithAndWithoutIndex([](Database& db,
                                                     std::ostream& out) {
    Exec(db, out, "INSERT INTO Gene VALUES ('J2', 'AAA', NULL)");
    Exec(db, out, "INSERT INTO Gene VALUES ('J1', 'CCC', NULL)");
    Exec(db, out, "INSERT INTO Protein VALUES ('p1', 'J1', 'M', 'fn')");
    Exec(db, out, "INSERT INTO Protein VALUES ('p2', 'J2', 'M', 'fn')");
    Exec(db, out, "INSERT INTO Protein VALUES ('p3', 'J1', 'M', 'fn')");
    // Gene 0 joins J1 too; it now precedes gene 1 among J1's sources.
    Exec(db, out, "UPDATE Gene SET GID = 'J1' WHERE GSequence = 'AAA'");
    Exec(db, out, "UPDATE Gene SET GSequence = 'TTT' WHERE GSequence = 'CCC'");
    out << ReportString(db.NotifyCellUpdated("Gene", 1, 1));
  });
  // p1 and p3 are recomputed from gene 0, the first J1 row, not gene 1.
  EXPECT_TRUE(Contains(got, "0: 'p1' 'J1' 'P:AAA' 'fn' outdated=8")) << got;
  EXPECT_TRUE(Contains(got, "2: 'p3' 'J1' 'P:AAA' 'fn' outdated=8")) << got;
  EXPECT_TRUE(Contains(got, "recomputed: Protein[0].2 Protein[2].2 "
                            "Gene[1].2 outdated:\n"))
      << got;
}

TEST(DependencyIndexProbe, NullSourceKeyMatchesNullTargetKeys) {
  std::string got = ExpectSameWithAndWithoutIndex([](Database& db,
                                                     std::ostream& out) {
    Exec(db, out, "INSERT INTO Gene VALUES (NULL, 'AAA', NULL)");
    Exec(db, out, "INSERT INTO Protein VALUES ('p1', NULL, 'M', 'fn')");
    Exec(db, out, "INSERT INTO Protein VALUES ('p2', 'J1', 'M', 'fn')");
    Exec(db, out, "INSERT INTO Protein VALUES ('p3', NULL, 'M', 'fn')");
    Exec(db, out, "UPDATE Gene SET GSequence = 'TTT' WHERE GSequence = 'AAA'");
    out << ReportString(db.NotifyCellUpdated("Gene", 0, 1));
  });
  EXPECT_TRUE(Contains(got, "0: 'p1' NULL 'P:TTT' 'fn' outdated=8")) << got;
  EXPECT_TRUE(Contains(got, "1: 'p2' 'J1' 'M' 'fn' outdated=8")) << got;
  EXPECT_TRUE(Contains(got, "2: 'p3' NULL 'P:TTT' 'fn' outdated=8")) << got;
}

TEST(DependencyIndexProbe, IntSourceKeyMatchesDoubleTargetKey) {
  std::string got = ExpectSameWithAndWithoutIndex([](Database& db,
                                                     std::ostream& out) {
    Exec(db, out, "INSERT INTO Num VALUES (3, 'AAA')");
    Exec(db, out, "INSERT INTO Dbl VALUES (3.0, 'x')");
    Exec(db, out, "INSERT INTO Dbl VALUES (3.5, 'y')");
    Exec(db, out, "UPDATE Num SET V = 'GGG' WHERE K = 3");
    out << ReportString(db.NotifyCellUpdated("Num", 0, 1));
  });
  EXPECT_TRUE(Contains(got, "0: 3 'P:GGG' outdated=0")) << got;
  EXPECT_TRUE(Contains(got, "1: 3.5 'y' outdated=0")) << got;
  EXPECT_TRUE(Contains(got, "recomputed: Dbl[0].1 outdated:")) << got;
}

TEST(DependencyIndexProbe, KeyChangedEarlierInTransactionLeavesStaleEntry) {
  std::string got = ExpectSameWithAndWithoutIndex([](Database& db,
                                                     std::ostream& out) {
    Exec(db, out, "INSERT INTO Gene VALUES ('J1', 'AAA', NULL)");
    Exec(db, out, "INSERT INTO Protein VALUES ('p1', 'J1', 'M', 'fn')");
    Exec(db, out, "INSERT INTO Protein VALUES ('p2', 'J1', 'M', 'fn')");
    Exec(db, out, "BEGIN");
    // p1's superseded J1 version keeps its index entry until vacuum.
    Exec(db, out, "UPDATE Protein SET GID = 'J9' WHERE PName = 'p1'");
    Exec(db, out, "UPDATE Gene SET GSequence = 'CCC' WHERE GID = 'J1'");
    // Back to J1: the index now holds two J1 entries for p1.
    Exec(db, out, "UPDATE Protein SET GID = 'J1' WHERE PName = 'p1'");
    Exec(db, out, "UPDATE Gene SET GSequence = 'GGG' WHERE GID = 'J1'");
    out << ReportString(db.NotifyCellUpdated("Gene", 0, 1));
    Exec(db, out, "COMMIT");
  });
  // While p1 was keyed J9 only p2 followed the gene.
  EXPECT_TRUE(Contains(got, "0: 'p1' 'J9' 'M' 'fn' outdated=8\n"
                            "  1: 'p2' 'J1' 'P:CCC' 'fn' outdated=8"))
      << got;
  EXPECT_TRUE(Contains(got, "recomputed: Protein[0].2 Protein[1].2 Gene[0].2 "
                            "outdated:\n"))
      << got;
  EXPECT_TRUE(Contains(got, "0: 'p1' 'J1' 'P:GGG' 'fn' outdated=8")) << got;
}

TEST(DependencyIndexProbe, DeletedTargetRowsAreSkipped) {
  std::string got = ExpectSameWithAndWithoutIndex([](Database& db,
                                                     std::ostream& out) {
    Exec(db, out, "INSERT INTO Gene VALUES ('J1', 'AAA', NULL)");
    Exec(db, out, "INSERT INTO Protein VALUES ('p1', 'J1', 'M', 'fn')");
    Exec(db, out, "INSERT INTO Protein VALUES ('p2', 'J1', 'M', 'fn')");
    Exec(db, out, "DELETE FROM Protein WHERE PName = 'p1'");
    Exec(db, out, "UPDATE Gene SET GSequence = 'CCC' WHERE GID = 'J1'");
    out << ReportString(db.NotifyCellUpdated("Gene", 0, 1));
  });
  EXPECT_TRUE(Contains(got, "recomputed: Protein[1].2 Gene[0].2 outdated:\n"))
      << got;
}

TEST(DependencyIndexProbe, RowErasedMarksJoinedTargetsOutdated) {
  std::string got = ExpectSameWithAndWithoutIndex([](Database& db,
                                                     std::ostream& out) {
    Exec(db, out, "INSERT INTO Gene VALUES ('J1', 'AAA', NULL)");
    Exec(db, out, "INSERT INTO Gene VALUES ('J2', 'CCC', NULL)");
    Exec(db, out, "INSERT INTO Protein VALUES ('p1', 'J1', 'M', 'fn')");
    Exec(db, out, "INSERT INTO Protein VALUES ('p2', 'J2', 'M', 'fn')");
    Exec(db, out, "INSERT INTO Protein VALUES ('p3', 'J1', 'M', 'fn')");
    Exec(db, out, "DELETE FROM Gene WHERE GID = 'J1'");
    Row pre_image = {Value::Text("J2"), Value::Sequence("CCC"), Value::Null()};
    out << ReportString(db.dependencies().OnRowErased("Gene", 1, pre_image));
  });
  EXPECT_TRUE(Contains(got, "0: 'p1' 'J1' 'M' 'fn' outdated=12")) << got;
  EXPECT_TRUE(Contains(got, "recomputed: outdated: Protein[1].2\n"))
      << got;
}

TEST(DependencyIndexProbe, ProcedureChangeRecomputesThroughJoin) {
  std::string got = ExpectSameWithAndWithoutIndex([](Database& db,
                                                     std::ostream& out) {
    Exec(db, out, "INSERT INTO Gene VALUES ('J1', 'AAA', NULL)");
    Exec(db, out, "INSERT INTO Gene VALUES ('J2', 'CCC', NULL)");
    Exec(db, out, "INSERT INTO Protein VALUES ('p1', 'J2', 'M', 'fn')");
    Exec(db, out, "INSERT INTO Protein VALUES ('p2', 'J1', 'M', 'fn')");
    Exec(db, out, "INSERT INTO Num VALUES (7, 'TT')");
    Exec(db, out, "INSERT INTO Dbl VALUES (7.0, 'x')");
    out << ReportString(db.dependencies().OnProcedureChanged("P"));
    out << DepState(db);
  });
  EXPECT_TRUE(Contains(got, "0: 'p1' 'J2' 'P:CCC' 'fn' outdated=8")) << got;
  EXPECT_TRUE(Contains(got, "1: 'p2' 'J1' 'P:AAA' 'fn' outdated=8")) << got;
  EXPECT_TRUE(Contains(got, "0: 7 'P:TT' outdated=0")) << got;
}

TEST(DependencyIndexProbe, DisapprovalPropagatesThroughJoin) {
  std::string got = ExpectSameWithAndWithoutIndex([](Database& db,
                                                     std::ostream& out) {
    Exec(db, out, "CREATE USER curator");
    Exec(db, out, "CREATE USER lab_admin");
    Exec(db, out, "GRANT SELECT ON Gene TO curator");
    Exec(db, out, "GRANT INSERT ON Gene TO curator");
    Exec(db, out, "GRANT UPDATE ON Gene TO curator");
    Exec(db, out, "INSERT INTO Gene VALUES ('J1', 'AAA', NULL)");
    Exec(db, out, "INSERT INTO Protein VALUES ('p1', 'J1', 'M', 'fn')");
    Exec(db, out, "INSERT INTO Protein VALUES ('p2', 'J5', 'M', 'fn')");
    Exec(db, out, "START CONTENT APPROVAL ON Gene APPROVED BY lab_admin");
    Exec(db, out, "UPDATE Gene SET GSequence = 'CCC' WHERE GID = 'J1'",
         "curator");
    Exec(db, out, "INSERT INTO Gene VALUES ('J5', 'GGG', NULL)", "curator");
    auto pending = db.Execute("SHOW PENDING ON Gene");
    ASSERT_TRUE(pending.ok());
    ASSERT_EQ(pending->rows.size(), 2u);
    for (const auto& row : pending->rows) {
      Exec(db, out, "DISAPPROVE OPERATION " + row.values[0].ToString(),
           "lab_admin");
    }
  });
  // The update's rollback recomputes p1 from the restored sequence; the
  // insert's rollback erases gene J5 and outdates p2.
  EXPECT_TRUE(Contains(got, "0: 'p1' 'J1' 'P:AAA' 'fn' outdated=8")) << got;
  EXPECT_TRUE(Contains(got, "1: 'p2' 'J5' 'P:GGG' 'fn' outdated=12")) << got;
}

TEST(DependencyIndexProbe, FailedStatementRollsBackPropagation) {
  std::string got = ExpectSameWithAndWithoutIndex([](Database& db,
                                                     std::ostream& out) {
    Exec(db, out, "INSERT INTO Gene VALUES ('J1', 'AAA', NULL)");
    Exec(db, out, "INSERT INTO Protein VALUES ('p1', 'J1', 'M', 'fn')");
    Exec(db, out, "INSERT INTO Protein VALUES ('p2', 'J1', 'M', 'fn')");
    std::string before = DepState(db);
    // rule1 rewrites both proteins, then rule9's F fails the statement.
    Exec(db, out, "UPDATE Gene SET GSequence = 'BAD' WHERE GID = 'J1'");
    EXPECT_EQ(DepState(db), before);
    Exec(db, out, "BEGIN");
    Exec(db, out, "UPDATE Gene SET GSequence = 'CCC' WHERE GID = 'J1'");
    std::string in_txn = DepState(db);
    Exec(db, out, "UPDATE Gene SET GSequence = 'BAD' WHERE GID = 'J1'");
    EXPECT_EQ(DepState(db), in_txn);
    Exec(db, out, "COMMIT");
  });
  EXPECT_TRUE(Contains(got, "F rejects BAD")) << got;
  EXPECT_TRUE(Contains(got, "1: 'p2' 'J1' 'P:CCC' 'fn' outdated=8")) << got;
}

TEST(DependencyIndexProbe, ReopenReplaysLogToSameState) {
  auto scenario = [](bool indexed) {
    std::string dir = ::testing::TempDir() + "/dep_index_probe_" +
                      (indexed ? "indexed" : "scan");
    std::filesystem::remove_all(dir);
    DurabilityOptions opts;
    opts.bootstrap = RegisterProbeProcedures;
    std::ostringstream out;
    std::string live;
    {
      auto db = Database::Open(dir, opts);
      EXPECT_TRUE(db.ok()) << db.status().ToString();
      if (!db.ok()) return std::string();
      std::vector<std::string> schema = ProbeSchema(false);
      for (const std::string& sql : schema) Exec(**db, out, sql);
      Exec(**db, out, "INSERT INTO Gene VALUES ('J1', 'AAA', NULL)");
      Exec(**db, out, "INSERT INTO Protein VALUES ('p1', 'J1', 'M', 'fn')");
      Exec(**db, out, "UPDATE Gene SET GSequence = 'CCC' WHERE GID = 'J1'");
      // The index appears mid-out: replay probes it only from here on.
      if (indexed) {
        for (const std::string& sql : ProbeSchema(true)) {
          if (sql.rfind("CREATE INDEX", 0) == 0) (void)(*db)->Execute(sql);
        }
      }
      Exec(**db, out, "INSERT INTO Protein VALUES ('p2', 'J1', 'M', 'fn')");
      Exec(**db, out, "UPDATE Protein SET GID = 'J2' WHERE PName = 'p1'");
      Exec(**db, out, "UPDATE Gene SET GSequence = 'GGG' WHERE GID = 'J1'");
      Exec(**db, out, "DELETE FROM Gene WHERE GID = 'J1'");
      live = DepState(**db);
      EXPECT_TRUE((*db)->Close().ok());
    }
    auto reopened = Database::Open(dir, opts);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    if (!reopened.ok()) return std::string();
    EXPECT_GT((*reopened)->durability_stats().replayed_on_open, 0u);
    EXPECT_EQ(DepState(**reopened), live);
    return out.str() + live;
  };
  std::string scanned = scenario(false);
  EXPECT_EQ(scanned, scenario(true));
  EXPECT_TRUE(Contains(scanned, "1: 'p2' 'J1' 'P:GGG' 'fn' outdated=12"))
      << scanned;
}

}  // namespace
}  // namespace bdbms
