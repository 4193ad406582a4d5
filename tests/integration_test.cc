// Cross-feature integration: all four bdbms pillars interacting in one
// curation workflow (the paper's Figure 1 ecosystem) — annotations +
// provenance + dependency tracking + content-based approval, driven
// entirely through A-SQL.
#include <gtest/gtest.h>

#include "bio/alignment.h"
#include "common/random.h"
#include "core/database.h"

namespace bdbms {
namespace {

#define EXEC_OK(db, sql, user)                                    \
  do {                                                            \
    auto _r = (db).Execute(sql, user);                            \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> "                      \
                         << _r.status().ToString();               \
  } while (0)

TEST(IntegrationTest, FullCurationLifecycle) {
  Database db;
  ASSERT_TRUE(db.procedures().Register(MakePredictionToolProcedure("P")).ok());
  ProcedureInfo lab;
  lab.name = "lab_experiment";
  lab.executable = false;
  ASSERT_TRUE(db.procedures().Register(lab).ok());

  // --- schema, principals, rules, approval --------------------------------
  EXEC_OK(db, "CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence SEQUENCE)",
          "admin");
  EXEC_OK(db,
          "CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence SEQUENCE, "
          "PFunction TEXT)",
          "admin");
  EXEC_OK(db, "CREATE ANNOTATION TABLE Curation ON Gene", "admin");
  EXEC_OK(db, "CREATE ANNOTATION TABLE Lineage ON Gene AS PROVENANCE",
          "admin");
  EXEC_OK(db, "CREATE USER alice", "admin");
  EXEC_OK(db, "GRANT SELECT ON Gene TO alice", "admin");
  EXEC_OK(db, "GRANT INSERT ON Gene TO alice", "admin");
  EXEC_OK(db, "GRANT UPDATE ON Gene TO alice", "admin");
  EXEC_OK(db, "GRANT SELECT ON Protein TO alice", "admin");
  EXEC_OK(db,
          "CREATE DEPENDENCY rule1 FROM Gene.GSequence TO Protein.PSequence "
          "USING P JOIN ON Gene.GID = Protein.GID",
          "admin");
  EXEC_OK(db,
          "CREATE DEPENDENCY rule2 FROM Protein.PSequence TO "
          "Protein.PFunction USING lab_experiment",
          "admin");
  EXEC_OK(db,
          "START CONTENT APPROVAL ON Gene COLUMNS (GSequence) "
          "APPROVED BY admin",
          "admin");

  // --- data enters with an annotation attached to the INSERT --------------
  EXEC_OK(db,
          "ADD ANNOTATION TO Gene.Curation VALUE "
          "'<Annotation>imported from RegulonDB</Annotation>' "
          "ON (INSERT INTO Gene VALUES ('JW0080', 'mraW', 'ATGATGGAAAAA'))",
          "alice");
  EXEC_OK(db,
          "INSERT INTO Protein VALUES ('mraW', 'JW0080', 'M', 'Exhibitor')",
          "admin");

  // Auto-provenance captured the insert.
  auto prov = db.provenance().SourceAt("Gene", "Lineage", 0, 2, UINT64_MAX);
  ASSERT_TRUE(prov.ok());
  ASSERT_TRUE(prov->has_value());
  EXPECT_EQ((*prov)->operation, "insert");
  EXPECT_EQ((*prov)->user, "alice");

  // --- a monitored update fires the whole machinery ------------------------
  EXEC_OK(db, "UPDATE Gene SET GSequence = 'GTGAAACTGGAT' WHERE GID = 'JW0080'",
          "alice");

  // (1) dependency tracking recomputed the protein sequence via P...
  auto protein = db.Execute("SELECT PSequence, PFunction FROM Protein",
                            "alice");
  ASSERT_TRUE(protein.ok());
  EXPECT_EQ(protein->rows[0].values[0].as_string(),
            TranslateGene("GTGAAACTGGAT"));
  // ...and marked the lab-derived function outdated, visible as an
  // _outdated annotation in the answer.
  ASSERT_EQ(protein->rows[0].annotations[1].size(), 1u);
  EXPECT_EQ(protein->rows[0].annotations[1][0].category, kOutdatedCategory);

  // (2) provenance recorded the update.
  prov = db.provenance().SourceAt("Gene", "Lineage", 0, 2, UINT64_MAX);
  ASSERT_TRUE(prov.ok());
  EXPECT_EQ((*prov)->operation, "update");

  // (3) both writes sit in the approval log (INSERTs are always monitored
  // while approval is on; the UPDATE because it touched GSequence).
  auto pending = db.Execute("SHOW PENDING ON Gene", "admin");
  ASSERT_TRUE(pending.ok());
  ASSERT_EQ(pending->rows.size(), 2u);
  uint64_t insert_op = 0, update_op = 0;
  for (const auto& row : pending->rows) {
    if (row.values[1].as_string() == "INSERT") {
      insert_op = static_cast<uint64_t>(row.values[0].as_int());
    } else {
      update_op = static_cast<uint64_t>(row.values[0].as_int());
    }
  }
  ASSERT_NE(insert_op, 0u);
  ASSERT_NE(update_op, 0u);
  EXEC_OK(db, "APPROVE OPERATION " + std::to_string(insert_op), "admin");
  uint64_t op = update_op;

  // --- the admin disapproves: inverse runs, dependencies re-fire ----------
  EXEC_OK(db, "DISAPPROVE OPERATION " + std::to_string(op), "admin");
  auto gene = db.Execute("SELECT GSequence FROM Gene", "admin");
  ASSERT_TRUE(gene.ok());
  EXPECT_EQ(gene->rows[0].values[0].as_string(), "ATGATGGAAAAA");
  // The rollback re-propagated: protein sequence recomputed back from the
  // restored gene.
  protein = db.Execute("SELECT PSequence FROM Protein", "alice");
  ASSERT_TRUE(protein.ok());
  EXPECT_EQ(protein->rows[0].values[0].as_string(),
            TranslateGene("ATGATGGAAAAA"));

  // --- the lab revalidates the still-outdated function --------------------
  EXPECT_TRUE(db.dependencies().IsOutdated("Protein", 0, 3));
  auto report = db.dependencies().RevalidateWithValue(
      "Protein", 0, 3, Value::Text("methyltransferase"));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(db.dependencies().IsOutdated("Protein", 0, 3));

  // --- curators flag and later archive a doubt -----------------------------
  EXEC_OK(db,
          "ADD ANNOTATION TO Gene.Curation VALUE "
          "'<Annotation>sequence briefly disputed</Annotation>' "
          "ON (SELECT GSequence FROM Gene WHERE GID = 'JW0080')",
          "admin");
  auto annotated = db.Execute(
      "SELECT GSequence FROM Gene ANNOTATION(Curation)", "alice");
  ASSERT_TRUE(annotated.ok());
  ASSERT_EQ(annotated->rows[0].annotations[0].size(), 2u);  // import + dispute

  EXEC_OK(db,
          "ARCHIVE ANNOTATION FROM Gene.Curation "
          "ON (SELECT GSequence FROM Gene WHERE GID = 'JW0080')",
          "admin");
  annotated = db.Execute("SELECT GSequence FROM Gene ANNOTATION(Curation)",
                         "alice");
  ASSERT_TRUE(annotated.ok());
  EXPECT_TRUE(annotated->rows[0].annotations[0].empty());
}

TEST(IntegrationTest, EndToEndStateStaysConsistentUnderMixedWorkload) {
  // Randomized mixed workload across features; invariants checked at the
  // end against ground truth maintained alongside.
  Database db;
  EXEC_OK(db, "CREATE TABLE T (k TEXT, v INT)", "admin");
  EXEC_OK(db, "CREATE ANNOTATION TABLE A ON T", "admin");
  Rng rng(2027);
  std::map<std::string, int64_t> truth;
  for (int step = 0; step < 300; ++step) {
    // Built stepwise: inline "k" + std::to_string(...) trips GCC 12's
    // -Wrestrict false positive (PR105329) at -O2 under -Werror.
    std::string key = "k";
    key += std::to_string(rng.Uniform(40));
    double dice = rng.UniformDouble();
    if (dice < 0.5) {
      int64_t v = rng.UniformInt(0, 1000);
      if (truth.count(key)) {
        EXEC_OK(db,
                "UPDATE T SET v = " + std::to_string(v) + " WHERE k = '" +
                    key + "'",
                "admin");
      } else {
        EXEC_OK(db,
                "INSERT INTO T VALUES ('" + key + "', " + std::to_string(v) +
                    ")",
                "admin");
      }
      truth[key] = v;
    } else if (dice < 0.65 && truth.count(key)) {
      EXEC_OK(db, "DELETE FROM T WHERE k = '" + key + "'", "admin");
      truth.erase(key);
    } else if (truth.count(key)) {
      EXEC_OK(db,
              "ADD ANNOTATION TO T.A VALUE '<A>note</A>' "
              "ON (SELECT * FROM T WHERE k = '" +
                  key + "')",
              "admin");
    }
  }
  auto all = db.Execute("SELECT k, v FROM T ORDER BY k", "admin");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->rows.size(), truth.size());
  for (const auto& row : all->rows) {
    auto it = truth.find(row.values[0].as_string());
    ASSERT_NE(it, truth.end());
    EXPECT_EQ(row.values[1].as_int(), it->second);
  }
}

}  // namespace
}  // namespace bdbms
