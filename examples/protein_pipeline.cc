// Local dependency tracking through a gene -> protein -> function pipeline
// (paper §5, Figures 9 and 10): the prediction tool P is executable, so
// protein sequences are recomputed automatically when their gene changes;
// the lab experiment behind PFunction is not, so those cells are marked
// Outdated and flagged in every query answer until revalidated. BLAST
// E-values (Rule 3) are re-evaluated when the procedure itself is upgraded.
#include <cstdio>

#include "bio/alignment.h"
#include "core/database.h"
#include "dep/chain_rules.h"

using bdbms::Database;
using bdbms::ProcedureInfo;
using bdbms::Result;
using bdbms::Status;
using bdbms::Value;

namespace {

void Run(Database& db, const std::string& sql) {
  auto result = db.Execute(sql);
  std::printf("bdbms> %s\n", sql.c_str());
  if (!result.ok()) {
    std::printf("  !! %s\n\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s\n", result->ToString().c_str());
}

}  // namespace

int main() {
  Database db;

  // Register the procedures of Figure 9: prediction tool P (executable),
  // the lab experiment (non-executable), and BLAST (executable).
  (void)db.procedures().Register(bdbms::MakePredictionToolProcedure("P"));
  ProcedureInfo lab;
  lab.name = "lab_experiment";
  lab.executable = false;
  (void)db.procedures().Register(lab);
  (void)db.procedures().Register(bdbms::MakeBlastProcedure("BLAST-2.2.15"));

  Run(db, "CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence SEQUENCE)");
  Run(db,
      "CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence SEQUENCE, "
      "PFunction TEXT)");
  Run(db,
      "CREATE TABLE GeneMatching (Gene1 SEQUENCE, Gene2 SEQUENCE, "
      "Evalue DOUBLE)");

  // The paper's procedural dependency rules 1-3.
  Run(db,
      "CREATE DEPENDENCY rule1 FROM Gene.GSequence TO Protein.PSequence "
      "USING P JOIN ON Gene.GID = Protein.GID");
  Run(db,
      "CREATE DEPENDENCY rule2 FROM Protein.PSequence TO Protein.PFunction "
      "USING lab_experiment");
  Run(db,
      "CREATE DEPENDENCY rule3 FROM GeneMatching.Gene1, GeneMatching.Gene2 "
      "TO GeneMatching.Evalue USING 'BLAST-2.2.15'");

  // Rule reasoning: the derived Rule 4 of the paper.
  std::printf("derived chain rules:\n");
  for (const auto& chain :
       DeriveChainRules(db.dependencies().rules(), db.procedures())) {
    std::printf("  %s\n", chain.ToString().c_str());
  }
  std::printf("\n");

  Run(db, "INSERT INTO Gene VALUES ('JW0080', 'mraW', 'ATGATGGAAAAA')");
  Run(db,
      "INSERT INTO Protein VALUES ('mraW', 'JW0080', 'MKEN', 'Exhibitor')");
  Run(db,
      "INSERT INTO GeneMatching VALUES ('ATCCCGGTT', 'ATCCTGGTT', 0.0)");

  Run(db, "SELECT PName, PSequence, PFunction FROM Protein");

  // Modify the gene sequence: PSequence is recomputed by P, PFunction is
  // marked Outdated — exactly Figure 10's bitmap.
  Run(db, "UPDATE Gene SET GSequence = 'GTGAAACTGGAT' WHERE GID = 'JW0080'");
  Run(db, "SELECT PName, PSequence, PFunction FROM Protein");
  std::printf("Protein outdated cells: %llu\n\n",
              static_cast<unsigned long long>(
                  db.dependencies().OutdatedCount("Protein")));

  // The wet lab re-verified the function: revalidate with a new value.
  auto report = db.dependencies().RevalidateWithValue(
      "Protein", 0, 3, Value::Text("methyltransferase (verified 2026-06)"));
  if (report.ok()) {
    std::printf("revalidated Protein.PFunction (cascade touched %zu cells)\n\n",
                report->total());
  }
  Run(db, "SELECT PName, PFunction FROM Protein");

  // Upgrading BLAST re-evaluates its whole closure (paper §5).
  (void)db.procedures().UpdateImplementation(
      "BLAST-2.2.15", [](const std::vector<Value>& in) -> Result<Value> {
        const std::string& a = in[0].as_string();
        const std::string& b = in[1].as_string();
        int score = bdbms::SmithWatermanScore(a, b, {3, -2, -3, 0.267, 0.041});
        return Value::Double(
            bdbms::AlignmentEvalue(score, a.size(), b.size()));
      });
  auto blast_report =
      db.dependencies().OnProcedureChanged("BLAST-2.2.15");
  if (blast_report.ok()) {
    std::printf("BLAST upgraded: %zu Evalue cells re-evaluated\n\n",
                blast_report->recomputed.size());
  }
  Run(db, "SELECT Evalue FROM GeneMatching");
  return 0;
}
