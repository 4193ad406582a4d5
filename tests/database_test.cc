// End-to-end tests through bdbms::Database::Execute — the full A-SQL
// surface, reproducing the paper's running examples (Figures 2, 3, 7).
#include <gtest/gtest.h>

#include "core/database.h"

namespace bdbms {
namespace {

// Collects all annotation bodies attached to column `col` of row `r`.
std::vector<std::string> BodiesAt(const QueryResult& qr, size_t r, size_t col) {
  std::vector<std::string> out;
  for (const ResultAnnotation& a : qr.rows[r].annotations[col]) {
    out.push_back(a.body);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool HasBody(const QueryResult& qr, size_t r, size_t col,
             const std::string& needle) {
  for (const ResultAnnotation& a : qr.rows[r].annotations[col]) {
    if (a.body.find(needle) != std::string::npos) return true;
  }
  return false;
}

#define EXEC_OK(db, sql)                                     \
  do {                                                       \
    auto _r = (db).Execute(sql);                             \
    ASSERT_TRUE(_r.ok()) << (sql) << "\n-> "                 \
                         << _r.status().ToString();          \
  } while (0)

// Builds the paper's Figure 2/3 database: DB1_Gene and DB2_Gene with
// annotations A1-A3 and B1-B5.
class PaperFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    EXEC_OK(db_, "CREATE TABLE DB1_Gene (GID TEXT, GName TEXT, "
                 "GSequence SEQUENCE)");
    EXEC_OK(db_, "CREATE TABLE DB2_Gene (GID TEXT, GName TEXT, "
                 "GSequence SEQUENCE)");
    EXEC_OK(db_, "CREATE ANNOTATION TABLE GAnnotation ON DB1_Gene");
    EXEC_OK(db_, "CREATE ANNOTATION TABLE GAnnotation ON DB2_Gene");

    // DB1_Gene rows (Figure 2): mraW, ftsI, yabP, fruR.
    EXEC_OK(db_,
            "INSERT INTO DB1_Gene VALUES "
            "('JW0080', 'mraW', 'ATGATGGAAAA'), "
            "('JW0082', 'ftsI', 'ATGAAAGCAGC'), "
            "('JW0055', 'yabP', 'ATGAAAGTATC'), "
            "('JW0078', 'fruR', 'GTGAAACTGGA')");
    // DB2_Gene rows: mraW, fixB, caiB, ispH, yabP.
    EXEC_OK(db_,
            "INSERT INTO DB2_Gene VALUES "
            "('JW0080', 'mraW', 'ATGATGGAAAA'), "
            "('JW0041', 'fixB', 'ATGAACACGTT'), "
            "('JW0037', 'caiB', 'ATGGATCATCT'), "
            "('JW0027', 'ispH', 'ATGCAGATCCT'), "
            "('JW0055', 'yabP', 'ATGAAAGTATC')");

    // A1: over the GID+GName cells of mraW and ftsI.
    EXEC_OK(db_,
            "ADD ANNOTATION TO DB1_Gene.GAnnotation "
            "VALUE '<Annotation>These genes are published in X</Annotation>' "
            "ON (SELECT GID, GName FROM DB1_Gene "
            "WHERE GID = 'JW0080' OR GID = 'JW0082')");
    // A2: entire rows of yabP and fruR in DB1.
    EXEC_OK(db_,
            "ADD ANNOTATION TO DB1_Gene.GAnnotation "
            "VALUE '<Annotation>These genes were obtained from "
            "RegulonDB</Annotation>' "
            "ON (SELECT * FROM DB1_Gene "
            "WHERE GID = 'JW0055' OR GID = 'JW0078')");
    // A3: single cell — GSequence of mraW.
    EXEC_OK(db_,
            "ADD ANNOTATION TO DB1_Gene.GAnnotation "
            "VALUE '<Annotation>Involved in methyltransferase "
            "activity</Annotation>' "
            "ON (SELECT GSequence FROM DB1_Gene WHERE GID = 'JW0080')");

    // B1: GID+GName of mraW, fixB, caiB ("Curated by user admin").
    EXEC_OK(db_,
            "ADD ANNOTATION TO DB2_Gene.GAnnotation "
            "VALUE '<Annotation>Curated by user admin</Annotation>' "
            "ON (SELECT GID, GName FROM DB2_Gene WHERE GID = 'JW0080' "
            "OR GID = 'JW0041' OR GID = 'JW0037')");
    // B2: GName of ispH and yabP ("possibly split by frameshift").
    EXEC_OK(db_,
            "ADD ANNOTATION TO DB2_Gene.GAnnotation "
            "VALUE '<Annotation>possibly split by frameshift</Annotation>' "
            "ON (SELECT GName FROM DB2_Gene WHERE GID = 'JW0027' "
            "OR GID = 'JW0055')");
    // B3: the entire GSequence column ("obtained from GenoBase").
    EXEC_OK(db_,
            "ADD ANNOTATION TO DB2_Gene.GAnnotation "
            "VALUE '<Annotation>obtained from GenoBase</Annotation>' "
            "ON (SELECT G.GSequence FROM DB2_Gene G)");
    // B4: entire row of caiB ("pseudogene").
    EXEC_OK(db_,
            "ADD ANNOTATION TO DB2_Gene.GAnnotation "
            "VALUE '<Annotation>pseudogene</Annotation>' "
            "ON (SELECT * FROM DB2_Gene WHERE GID = 'JW0037')");
    // B5: entire row of mraW ("This gene has an unknown function") — the
    // paper's exact example command.
    EXEC_OK(db_,
            "ADD ANNOTATION TO DB2_Gene.GAnnotation "
            "VALUE '<Annotation>This gene has an unknown "
            "function</Annotation>' "
            "ON (SELECT G.* FROM DB2_Gene G WHERE GID = 'JW0080')");
  }

  Database db_;
};

TEST_F(PaperFixture, ProjectionPropagatesOnlyProjectedColumns) {
  // Paper §3.4: "projecting column GID from Table DB2_Gene results in
  // reporting GID data along with annotations B1, B4, and B5 only".
  auto r = db_.Execute(
      "SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) ORDER BY GID");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 5u);
  // Row JW0080 (mraW): B1 and B5 on GID, not B3 (sequence-only).
  // ORDER BY GID: JW0027, JW0037, JW0041, JW0055, JW0080.
  EXPECT_TRUE(HasBody(*r, 4, 0, "Curated by user admin"));    // B1
  EXPECT_TRUE(HasBody(*r, 4, 0, "unknown function"));         // B5
  EXPECT_FALSE(HasBody(*r, 4, 0, "GenoBase"));                // B3 excluded
  // Row JW0037 (caiB): B1 + B4.
  EXPECT_TRUE(HasBody(*r, 1, 0, "Curated by user admin"));
  EXPECT_TRUE(HasBody(*r, 1, 0, "pseudogene"));
  // Row JW0027 (ispH): GID carries nothing (B2 is on GName, B3 on GSeq).
  EXPECT_TRUE(r->rows[0].annotations[0].empty());
}

TEST_F(PaperFixture, SelectionPassesAllAnnotationsOfSelectedTuple) {
  // Paper §3.4: "selecting the gene with GID = JW0080 from DB2_Gene
  // results in reporting the first tuple along with B1, B3, and B5".
  auto r = db_.Execute(
      "SELECT * FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  bool has_b1 = false, has_b3 = false, has_b5 = false, has_b4 = false;
  for (const auto& per_col : r->rows[0].annotations) {
    for (const auto& a : per_col) {
      if (a.body.find("Curated") != std::string::npos) has_b1 = true;
      if (a.body.find("GenoBase") != std::string::npos) has_b3 = true;
      if (a.body.find("unknown function") != std::string::npos) has_b5 = true;
      if (a.body.find("pseudogene") != std::string::npos) has_b4 = true;
    }
  }
  EXPECT_TRUE(has_b1);
  EXPECT_TRUE(has_b3);
  EXPECT_TRUE(has_b5);
  EXPECT_FALSE(has_b4);  // belongs to caiB's row
}

TEST_F(PaperFixture, IntersectUnionsAnnotationsFromBothSides) {
  // The paper's motivating example: genes common to DB1_Gene and DB2_Gene
  // with their annotations — one A-SQL statement instead of steps (a)-(c).
  auto r = db_.Execute(
      "SELECT GID, GName, GSequence FROM DB1_Gene ANNOTATION(GAnnotation) "
      "INTERSECT "
      "SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation) "
      "ORDER BY GID");
  ASSERT_TRUE(r.ok());
  // Common genes: JW0080 (mraW) and JW0055 (yabP).
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0].values[0].as_string(), "JW0055");
  EXPECT_EQ(r->rows[1].values[0].as_string(), "JW0080");

  // JW0080's annotations from BOTH databases are present: A1/A3 from DB1,
  // B1/B3/B5 from DB2.
  bool a1 = false, a3 = false, b1 = false, b3 = false, b5 = false;
  for (const auto& per_col : r->rows[1].annotations) {
    for (const auto& a : per_col) {
      if (a.body.find("published") != std::string::npos) a1 = true;
      if (a.body.find("methyltransferase") != std::string::npos) a3 = true;
      if (a.body.find("Curated") != std::string::npos) b1 = true;
      if (a.body.find("GenoBase") != std::string::npos) b3 = true;
      if (a.body.find("unknown function") != std::string::npos) b5 = true;
    }
  }
  EXPECT_TRUE(a1);
  EXPECT_TRUE(a3);
  EXPECT_TRUE(b1);
  EXPECT_TRUE(b3);
  EXPECT_TRUE(b5);
  // yabP: A2 from DB1 and B2/B3 from DB2.
  EXPECT_TRUE(HasBody(*r, 0, 0, "RegulonDB"));
  EXPECT_TRUE(HasBody(*r, 0, 1, "frameshift"));
  EXPECT_TRUE(HasBody(*r, 0, 2, "GenoBase"));
}

TEST_F(PaperFixture, PromoteCopiesAnnotationsAcrossColumns) {
  // Paper §3.4: "if column GID is projected from DB1_Gene, annotation A3
  // will not be propagated unless the annotations over GSequence are
  // copied to GID".
  auto without = db_.Execute(
      "SELECT GID FROM DB1_Gene ANNOTATION(GAnnotation) "
      "WHERE GID = 'JW0080'");
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(HasBody(*without, 0, 0, "methyltransferase"));

  auto with = db_.Execute(
      "SELECT GID PROMOTE (GSequence) FROM DB1_Gene ANNOTATION(GAnnotation) "
      "WHERE GID = 'JW0080'");
  ASSERT_TRUE(with.ok());
  EXPECT_TRUE(HasBody(*with, 0, 0, "methyltransferase"));
}

TEST_F(PaperFixture, AwhereFiltersTuplesByAnnotation) {
  auto r = db_.Execute(
      "SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) "
      "AWHERE VALUE LIKE '%pseudogene%' ORDER BY GID");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].values[0].as_string(), "JW0037");
}

TEST_F(PaperFixture, FilterPrunesAnnotationsButKeepsTuples) {
  auto r = db_.Execute(
      "SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation) "
      "FILTER VALUE LIKE '%GenoBase%' ORDER BY GID");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 5u);  // all tuples pass
  for (size_t i = 0; i < r->rows.size(); ++i) {
    // Only B3 (on GSequence) survives the filter.
    EXPECT_TRUE(r->rows[i].annotations[0].empty());
    EXPECT_TRUE(r->rows[i].annotations[1].empty());
    ASSERT_EQ(r->rows[i].annotations[2].size(), 1u);
    EXPECT_NE(r->rows[i].annotations[2][0].body.find("GenoBase"),
              std::string::npos);
  }
}

TEST_F(PaperFixture, ArchiveHidesFromPropagationRestoreReinstates) {
  // Archive B5 (the "unknown function" annotation): the paper's example of
  // an annotation that becomes invalid.
  auto archived = db_.Execute(
      "ARCHIVE ANNOTATION FROM DB2_Gene.GAnnotation "
      "ON (SELECT * FROM DB2_Gene WHERE GID = 'JW0080')");
  ASSERT_TRUE(archived.ok());
  EXPECT_GE(archived->affected, 1u);

  auto r = db_.Execute(
      "SELECT * FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'");
  ASSERT_TRUE(r.ok());
  bool any_b5 = false;
  for (const auto& per_col : r->rows[0].annotations) {
    for (const auto& a : per_col) {
      if (a.body.find("unknown function") != std::string::npos) any_b5 = true;
    }
  }
  EXPECT_FALSE(any_b5);

  auto restored = db_.Execute(
      "RESTORE ANNOTATION FROM DB2_Gene.GAnnotation "
      "ON (SELECT * FROM DB2_Gene WHERE GID = 'JW0080')");
  ASSERT_TRUE(restored.ok());
  r = db_.Execute(
      "SELECT * FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'");
  ASSERT_TRUE(r.ok());
  any_b5 = false;
  for (const auto& per_col : r->rows[0].annotations) {
    for (const auto& a : per_col) {
      if (a.body.find("unknown function") != std::string::npos) any_b5 = true;
    }
  }
  EXPECT_TRUE(any_b5);
}

TEST_F(PaperFixture, AnnotationCategoriesSelectable) {
  EXEC_OK(db_, "CREATE ANNOTATION TABLE Lineage ON DB1_Gene");
  EXEC_OK(db_,
          "ADD ANNOTATION TO DB1_Gene.Lineage "
          "VALUE '<Annotation>lineage info</Annotation>' "
          "ON (SELECT * FROM DB1_Gene WHERE GID = 'JW0080')");

  // Selecting only the Lineage category excludes GAnnotation content.
  auto r = db_.Execute(
      "SELECT GID FROM DB1_Gene ANNOTATION(Lineage) WHERE GID = 'JW0080'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows[0].annotations[0].size(), 1u);
  EXPECT_EQ(r->rows[0].annotations[0][0].category, "Lineage");

  // ANNOTATION(ALL) includes both.
  r = db_.Execute(
      "SELECT GID FROM DB1_Gene ANNOTATION(ALL) WHERE GID = 'JW0080'");
  ASSERT_TRUE(r.ok());
  bool lineage = false, gann = false;
  for (const auto& a : r->rows[0].annotations[0]) {
    if (a.category == "Lineage") lineage = true;
    if (a.category == "GAnnotation") gann = true;
  }
  EXPECT_TRUE(lineage);
  EXPECT_TRUE(gann);

  // No ANNOTATION clause: no annotations propagated.
  r = db_.Execute("SELECT GID FROM DB1_Gene WHERE GID = 'JW0080'");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows[0].annotations[0].empty());
}

TEST(DatabaseTest, BasicSqlPipeline) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (name TEXT, score INT)");
  EXEC_OK(db, "INSERT INTO T VALUES ('a', 10), ('b', 20), ('a', 30), "
              "('c', 5)");
  auto r = db.Execute(
      "SELECT name, COUNT(*) AS n, SUM(score) AS total FROM T "
      "GROUP BY name HAVING SUM(score) > 5 ORDER BY name");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0].values[0].as_string(), "a");
  EXPECT_EQ(r->rows[0].values[1].as_int(), 2);
  EXPECT_EQ(r->rows[0].values[2].as_int(), 40);
  EXPECT_EQ(r->rows[1].values[0].as_string(), "b");
}

TEST(DatabaseTest, JoinAcrossTables) {
  Database db;
  EXEC_OK(db, "CREATE TABLE Gene (GID TEXT, GName TEXT)");
  EXEC_OK(db, "CREATE TABLE Protein (PName TEXT, GID TEXT)");
  EXEC_OK(db, "INSERT INTO Gene VALUES ('J1', 'g1'), ('J2', 'g2')");
  EXEC_OK(db, "INSERT INTO Protein VALUES ('p1', 'J1'), ('p2', 'J2'), "
              "('p3', 'J1')");
  auto r = db.Execute(
      "SELECT G.GName, P.PName FROM Gene G, Protein P "
      "WHERE G.GID = P.GID ORDER BY PName");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0].values[0].as_string(), "g1");
  EXPECT_EQ(r->rows[2].values[1].as_string(), "p3");
}

TEST(DatabaseTest, UpdateDeleteWithWhere) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (k TEXT, v INT)");
  EXEC_OK(db, "INSERT INTO T VALUES ('a', 1), ('b', 2), ('c', 3)");
  auto upd = db.Execute("UPDATE T SET v = v * 10 WHERE v >= 2");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->affected, 2u);
  auto del = db.Execute("DELETE FROM T WHERE v = 30");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->affected, 1u);
  auto r = db.Execute("SELECT k, v FROM T ORDER BY v");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[1].values[1].as_int(), 20);
}

TEST(DatabaseTest, DistinctUnionsAnnotations) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (k TEXT, v TEXT)");
  EXEC_OK(db, "CREATE ANNOTATION TABLE A ON T");
  EXEC_OK(db, "INSERT INTO T VALUES ('x', 'same'), ('y', 'same')");
  EXEC_OK(db, "ADD ANNOTATION TO T.A VALUE '<A>first</A>' "
              "ON (SELECT v FROM T WHERE k = 'x')");
  EXEC_OK(db, "ADD ANNOTATION TO T.A VALUE '<A>second</A>' "
              "ON (SELECT v FROM T WHERE k = 'y')");
  auto r = db.Execute("SELECT DISTINCT v FROM T ANNOTATION(A)");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  auto bodies = BodiesAt(*r, 0, 0);
  EXPECT_EQ(bodies,
            (std::vector<std::string>{"<A>first</A>", "<A>second</A>"}));
}

TEST(DatabaseTest, AccessControlEndToEnd) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (v INT)");
  EXEC_OK(db, "CREATE USER alice");
  // alice has no SELECT yet.
  auto denied = db.Execute("SELECT v FROM T", "alice");
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsPermissionDenied());

  EXEC_OK(db, "GRANT SELECT ON T TO alice");
  EXPECT_TRUE(db.Execute("SELECT v FROM T", "alice").ok());
  // Still no INSERT.
  EXPECT_TRUE(db.Execute("INSERT INTO T VALUES (1)", "alice")
                  .status()
                  .IsPermissionDenied());
  // Non-superusers may not grant.
  EXPECT_TRUE(db.Execute("GRANT INSERT ON T TO alice", "alice")
                  .status()
                  .IsPermissionDenied());
}

TEST(DatabaseTest, ContentApprovalEndToEnd) {
  Database db;
  EXEC_OK(db, "CREATE TABLE Gene (GID TEXT, GSequence SEQUENCE)");
  EXEC_OK(db, "CREATE USER member");
  EXEC_OK(db, "CREATE USER lab_admin");
  EXEC_OK(db, "GRANT INSERT ON Gene TO member");
  EXEC_OK(db, "GRANT SELECT ON Gene TO member");
  EXEC_OK(db, "START CONTENT APPROVAL ON Gene APPROVED BY lab_admin");

  EXEC_OK(db, "INSERT INTO Gene VALUES ('J1', 'ATG')");  // admin insert
  auto member_insert =
      db.Execute("INSERT INTO Gene VALUES ('J2', 'CCC')", "member");
  ASSERT_TRUE(member_insert.ok());

  // Both operations are pending; data is visible meanwhile.
  auto pending = db.Execute("SHOW PENDING ON Gene");
  ASSERT_TRUE(pending.ok());
  ASSERT_EQ(pending->rows.size(), 2u);
  auto visible = db.Execute("SELECT GID FROM Gene", "member");
  ASSERT_TRUE(visible.ok());
  EXPECT_EQ(visible->rows.size(), 2u);

  // The lab admin approves the first and disapproves the second.
  uint64_t op1 = static_cast<uint64_t>(pending->rows[0].values[0].as_int());
  uint64_t op2 = static_cast<uint64_t>(pending->rows[1].values[0].as_int());
  auto approve = db.Execute("APPROVE OPERATION " + std::to_string(op1),
                            "lab_admin");
  ASSERT_TRUE(approve.ok());
  auto disapprove = db.Execute(
      "DISAPPROVE OPERATION " + std::to_string(op2), "lab_admin");
  ASSERT_TRUE(disapprove.ok());

  auto after = db.Execute("SELECT GID FROM Gene");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->rows.size(), 1u);
  EXPECT_EQ(after->rows[0].values[0].as_string(), "J1");
  // A random member cannot settle operations.
  EXEC_OK(db, "INSERT INTO Gene VALUES ('J3', 'TTT')");
  auto pending2 = db.Execute("SHOW PENDING ON Gene");
  ASSERT_TRUE(pending2.ok());
  ASSERT_EQ(pending2->rows.size(), 1u);
  uint64_t op3 = static_cast<uint64_t>(pending2->rows[0].values[0].as_int());
  EXPECT_TRUE(db.Execute("APPROVE OPERATION " + std::to_string(op3), "member")
                  .status()
                  .IsPermissionDenied());
}

TEST(DatabaseTest, DependencyPipelineViaSql) {
  Database db;
  // Register the prediction tool P.
  ProcedureInfo p;
  p.name = "P";
  p.executable = true;
  p.fn = [](const std::vector<Value>& in) -> Result<Value> {
    return Value::Sequence("P:" + in[0].as_string());
  };
  ASSERT_TRUE(db.procedures().Register(p).ok());
  ProcedureInfo lab;
  lab.name = "lab_experiment";
  lab.executable = false;
  ASSERT_TRUE(db.procedures().Register(lab).ok());

  EXEC_OK(db, "CREATE TABLE Gene (GID TEXT, GSequence SEQUENCE)");
  EXEC_OK(db, "CREATE TABLE Protein (PName TEXT, GID TEXT, "
              "PSequence SEQUENCE, PFunction TEXT)");
  EXEC_OK(db, "CREATE DEPENDENCY rule1 FROM Gene.GSequence "
              "TO Protein.PSequence USING P JOIN ON Gene.GID = Protein.GID");
  EXEC_OK(db, "CREATE DEPENDENCY rule2 FROM Protein.PSequence "
              "TO Protein.PFunction USING lab_experiment");

  EXEC_OK(db, "INSERT INTO Gene VALUES ('J1', 'AAA')");
  EXEC_OK(db, "INSERT INTO Protein VALUES ('prot1', 'J1', 'MMM', 'fn')");

  // Update the gene sequence through SQL: PSequence recomputed,
  // PFunction outdated.
  EXEC_OK(db, "UPDATE Gene SET GSequence = 'CCC' WHERE GID = 'J1'");
  auto r = db.Execute("SELECT PSequence, PFunction FROM Protein");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0].values[0].as_string(), "P:CCC");
  // PFunction carries the synthesized _outdated annotation.
  ASSERT_EQ(r->rows[0].annotations[1].size(), 1u);
  EXPECT_EQ(r->rows[0].annotations[1][0].category, kOutdatedCategory);
  // PSequence does not (it was recomputed).
  EXPECT_TRUE(r->rows[0].annotations[0].empty());
  EXPECT_TRUE(db.dependencies().IsOutdated("Protein", 0, 3));

  // Deleting the gene invalidates dependent protein sequence as well.
  EXEC_OK(db, "DELETE FROM Gene WHERE GID = 'J1'");
  EXPECT_TRUE(db.dependencies().IsOutdated("Protein", 0, 2));
}

TEST(DatabaseTest, ProvenanceAutoMaintained) {
  Database db;
  EXEC_OK(db, "CREATE TABLE Gene (GID TEXT, GSequence SEQUENCE)");
  EXEC_OK(db, "CREATE ANNOTATION TABLE GProv ON Gene AS PROVENANCE");
  EXEC_OK(db, "INSERT INTO Gene VALUES ('J1', 'ATG')");
  EXEC_OK(db, "UPDATE Gene SET GSequence = 'CCC' WHERE GID = 'J1'");

  // The engine recorded insert + update provenance automatically.
  auto history = db.provenance().History("Gene", "GProv", 0, 1);
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 2u);
  EXPECT_EQ((*history)[0].operation, "insert");
  EXPECT_EQ((*history)[1].operation, "update");
  EXPECT_EQ((*history)[0].source, "local");

  // End users cannot write into the provenance table via ADD ANNOTATION.
  EXEC_OK(db, "CREATE USER eve");
  auto denied = db.Execute(
      "ADD ANNOTATION TO Gene.GProv "
      "VALUE '<Provenance><Source>fake</Source>"
      "<Operation>copy</Operation></Provenance>' "
      "ON (SELECT * FROM Gene)",
      "eve");
  EXPECT_TRUE(denied.status().IsPermissionDenied());
}

TEST(DatabaseTest, AddAnnotationOnInsertAndUpdate) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (k TEXT, v INT)");
  EXEC_OK(db, "CREATE ANNOTATION TABLE A ON T");
  // Paper §3.2: "users can insert and annotate the new tuple instantly".
  EXEC_OK(db, "ADD ANNOTATION TO T.A VALUE '<A>why inserted</A>' "
              "ON (INSERT INTO T VALUES ('x', 1))");
  auto r = db.Execute("SELECT k FROM T ANNOTATION(A)");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(HasBody(*r, 0, 0, "why inserted"));

  EXEC_OK(db, "ADD ANNOTATION TO T.A VALUE '<A>why updated</A>' "
              "ON (UPDATE T SET v = 2 WHERE k = 'x')");
  r = db.Execute("SELECT v FROM T ANNOTATION(A)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(HasBody(*r, 0, 0, "why updated"));
  // The update annotation went on column v, not on k.
  r = db.Execute("SELECT k FROM T ANNOTATION(A)");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(HasBody(*r, 0, 0, "why updated"));
}

TEST(DatabaseTest, AddAnnotationOnDeleteLogsTuples) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (k TEXT, v INT)");
  EXEC_OK(db, "CREATE ANNOTATION TABLE A ON T");
  EXEC_OK(db, "INSERT INTO T VALUES ('x', 1), ('y', 2)");
  EXEC_OK(db, "ADD ANNOTATION TO T.A VALUE '<A>obsolete entry</A>' "
              "ON (DELETE FROM T WHERE k = 'x')");
  auto r = db.Execute("SELECT k FROM T");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);

  const auto& log = db.DeletionLog("T");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].old_values[0].as_string(), "x");
  EXPECT_EQ(log[0].annotation, "<A>obsolete entry</A>");
}

TEST(DatabaseTest, DropTableCascades) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (k TEXT)");
  EXEC_OK(db, "CREATE ANNOTATION TABLE A ON T");
  EXEC_OK(db, "DROP TABLE T");
  EXPECT_FALSE(db.Execute("SELECT k FROM T").ok());
  EXPECT_FALSE(db.annotations().Get("T", "A").ok());
}

// A rule or approval config left naming a dropped table would fail every
// later write on the tables still named with it, so DROP TABLE refuses
// while one exists — whether the table is a rule's source or its target.
TEST(DatabaseTest, DropTableRefusedWhileRuleOrApprovalNamesIt) {
  Database db;
  ProcedureInfo lab;
  lab.name = "lab";
  lab.executable = false;
  ASSERT_TRUE(db.procedures().Register(lab).ok());
  EXEC_OK(db, "CREATE TABLE G (GID TEXT, S TEXT)");
  EXEC_OK(db, "CREATE TABLE Q (GID TEXT, F TEXT)");
  EXEC_OK(db,
          "CREATE DEPENDENCY r1 FROM G.S TO Q.F USING lab "
          "JOIN ON G.GID = Q.GID");
  for (const std::string table : {"Q", "G"}) {
    auto r = db.Execute("DROP TABLE " + table);
    ASSERT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
    EXPECT_NE(r.status().message().find("dependency rule r1"),
              std::string::npos)
        << r.status().ToString();
  }
  // Both tables and the rule survive: writes on either side still work.
  EXEC_OK(db, "INSERT INTO Q VALUES ('g1', 'fn')");
  EXEC_OK(db, "INSERT INTO G VALUES ('g1', 'AAA')");
  EXEC_OK(db, "UPDATE G SET S = 'CCC' WHERE GID = 'g1'");
  EXPECT_TRUE(db.dependencies().IsOutdated("Q", 0, 1));
  EXEC_OK(db, "DELETE FROM G WHERE GID = 'g1'");

  EXEC_OK(db, "DROP DEPENDENCY r1");
  EXEC_OK(db, "START CONTENT APPROVAL ON Q APPROVED BY admin");
  auto r = db.Execute("DROP TABLE Q");
  ASSERT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("content approval"), std::string::npos)
      << r.status().ToString();
  EXEC_OK(db, "STOP CONTENT APPROVAL ON Q");
  EXEC_OK(db, "DROP TABLE Q");
  EXEC_OK(db, "DROP TABLE G");
  EXPECT_TRUE(db.Execute("DROP TABLE G").status().IsNotFound());
}

// A pending operation settles by table name, so DROP TABLE refuses while
// one names the table: disapproving it after a drop and re-create would
// run its inverse on the new table's rows.
TEST(DatabaseTest, DropTableRefusedWhilePendingOperationNamesIt) {
  Database db;
  EXEC_OK(db, "CREATE TABLE P (v TEXT)");
  EXEC_OK(db, "START CONTENT APPROVAL ON P APPROVED BY admin");
  EXEC_OK(db, "INSERT INTO P VALUES ('old')");  // operation 1, pending
  EXEC_OK(db, "STOP CONTENT APPROVAL ON P");
  auto r = db.Execute("DROP TABLE P");
  ASSERT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("pending operation 1"),
            std::string::npos)
      << r.status().ToString();
  EXEC_OK(db, "INSERT INTO P VALUES ('newrow')");
  EXEC_OK(db, "DISAPPROVE OPERATION 1");  // removes 'old' only
  auto rows = db.Execute("SELECT v FROM P");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0].values[0].as_string(), "newrow");
  // Settled: nothing pending names P any more.
  EXEC_OK(db, "DROP TABLE P");
  EXEC_OK(db, "CREATE TABLE P (v TEXT)");
  EXEC_OK(db, "INSERT INTO P VALUES ('fresh')");
  EXPECT_FALSE(db.Execute("DISAPPROVE OPERATION 1").ok());
  rows = db.Execute("SELECT v FROM P");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 1u);
}

// Grants belong to the table: a new table of the same name starts with
// none, and a rolled-back DROP brings them back.
TEST(DatabaseTest, DropTableDropsItsGrants) {
  Database db;
  EXEC_OK(db, "CREATE USER u");
  EXEC_OK(db, "CREATE TABLE Q (k TEXT)");
  EXEC_OK(db, "CREATE TABLE Other (k TEXT)");
  EXEC_OK(db, "GRANT SELECT ON Q TO u");
  EXEC_OK(db, "GRANT INSERT ON Q TO u");
  EXEC_OK(db, "GRANT SELECT ON Other TO u");
  ASSERT_TRUE(db.Execute("SELECT k FROM Q", "u").ok());

  EXEC_OK(db, "BEGIN");
  EXEC_OK(db, "DROP TABLE Q");
  EXEC_OK(db, "ROLLBACK");
  EXPECT_TRUE(db.Execute("SELECT k FROM Q", "u").ok());
  EXPECT_TRUE(db.access().IsGranted("u", "Q", Privilege::kInsert));

  EXEC_OK(db, "DROP TABLE Q");
  EXEC_OK(db, "CREATE TABLE Q (k TEXT)");
  EXPECT_TRUE(
      db.Execute("SELECT k FROM Q", "u").status().IsPermissionDenied());
  EXPECT_TRUE(db.Execute("INSERT INTO Q VALUES ('x')", "u")
                  .status()
                  .IsPermissionDenied());
  EXPECT_EQ(db.access().grants().count({"u", "Q"}), 0u);
  // Grants on other tables are untouched.
  EXPECT_TRUE(db.Execute("SELECT k FROM Other", "u").ok());
}

// Outdated marks belong to the table too: a new table of the same name
// must not inherit the old one's marks as `_outdated` annotations.
TEST(DatabaseTest, DropTableDropsItsOutdatedMarks) {
  Database db;
  ProcedureInfo lab;
  lab.name = "lab";
  lab.executable = false;
  ASSERT_TRUE(db.procedures().Register(lab).ok());
  EXEC_OK(db, "CREATE TABLE G (GID TEXT, S TEXT)");
  EXEC_OK(db, "CREATE TABLE Q (GID TEXT, F TEXT)");
  EXEC_OK(db,
          "CREATE DEPENDENCY r1 FROM G.S TO Q.F USING lab "
          "JOIN ON G.GID = Q.GID");
  EXEC_OK(db, "INSERT INTO G VALUES ('g1', 'AAA')");
  EXEC_OK(db, "INSERT INTO Q VALUES ('g1', 'fn')");
  EXEC_OK(db, "UPDATE G SET S = 'CCC' WHERE GID = 'g1'");
  ASSERT_TRUE(db.dependencies().IsOutdated("Q", 0, 1));
  EXEC_OK(db, "DROP DEPENDENCY r1");

  EXEC_OK(db, "BEGIN");
  EXEC_OK(db, "DROP TABLE Q");
  EXEC_OK(db, "ROLLBACK");
  EXPECT_TRUE(db.dependencies().IsOutdated("Q", 0, 1));

  EXEC_OK(db, "DROP TABLE Q");
  EXEC_OK(db, "CREATE TABLE Q (GID TEXT, F TEXT)");
  EXEC_OK(db, "INSERT INTO Q VALUES ('new', 'fresh')");
  EXPECT_EQ(db.dependencies().OutdatedCount("Q"), 0u);
  auto r = db.Execute("SELECT F FROM Q");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->rows[0].annotations[0].empty());
}

TEST(DatabaseTest, ParseErrorsSurfaceCleanly) {
  Database db;
  auto r = db.Execute("SELEC nonsense");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(DatabaseTest, LikeAndArithmetic) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (name TEXT, a INT, b DOUBLE)");
  EXEC_OK(db, "INSERT INTO T VALUES ('alpha', 6, 1.5), ('beta', 8, 0.25)");
  auto r = db.Execute(
      "SELECT name, a * b AS prod FROM T WHERE name LIKE 'a%' ");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r->rows[0].values[1].as_double(), 9.0);
  EXPECT_EQ(r->columns[1], "prod");

  auto r2 = db.Execute("SELECT name FROM T WHERE a / 2 = 4");
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->rows.size(), 1u);
  EXPECT_EQ(r2->rows[0].values[0].as_string(), "beta");

  auto div0 = db.Execute("SELECT a / 0 FROM T");
  EXPECT_FALSE(div0.ok());
}

TEST(DatabaseTest, NullSemantics) {
  Database db;
  EXEC_OK(db, "CREATE TABLE T (k TEXT, v INT)");
  EXEC_OK(db, "INSERT INTO T VALUES ('x', NULL), ('y', 2)");
  auto r = db.Execute("SELECT k FROM T WHERE v = 2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
  auto r2 = db.Execute("SELECT k FROM T WHERE v IS NULL");
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->rows.size(), 1u);
  EXPECT_EQ(r2->rows[0].values[0].as_string(), "x");
  auto r3 = db.Execute("SELECT k FROM T WHERE v IS NOT NULL");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->rows.size(), 1u);
}

}  // namespace
}  // namespace bdbms
