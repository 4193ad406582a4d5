// Unit tests for src/auth: GRANT/REVOKE ACLs and content-based approval
// (paper §6, Figure 11).
#include <gtest/gtest.h>

#include "auth/access_control.h"
#include "auth/approval.h"
#include "catalog/catalog.h"
#include "table/table.h"

namespace bdbms {
namespace {

TEST(AccessControlTest, GrantRevokeCheck) {
  AccessControl ac;
  ASSERT_TRUE(ac.CreateUser("alice").ok());
  EXPECT_FALSE(ac.IsGranted("alice", "Gene", Privilege::kInsert));
  ASSERT_TRUE(ac.Grant("alice", "Gene", Privilege::kInsert).ok());
  EXPECT_TRUE(ac.IsGranted("alice", "Gene", Privilege::kInsert));
  EXPECT_FALSE(ac.IsGranted("alice", "Gene", Privilege::kDelete));
  EXPECT_FALSE(ac.IsGranted("alice", "Protein", Privilege::kInsert));
  ASSERT_TRUE(ac.Revoke("alice", "Gene", Privilege::kInsert).ok());
  EXPECT_FALSE(ac.IsGranted("alice", "Gene", Privilege::kInsert));
  EXPECT_TRUE(ac.Revoke("alice", "Gene", Privilege::kInsert).IsNotFound());
}

TEST(AccessControlTest, SuperuserBypassesGrants) {
  AccessControl ac;
  EXPECT_TRUE(ac.IsGranted("admin", "Anything", Privilege::kDelete));
  ac.AddSuperuser("root");
  EXPECT_TRUE(ac.IsGranted("root", "Anything", Privilege::kUpdate));
}

TEST(AccessControlTest, GroupGrants) {
  AccessControl ac;
  ASSERT_TRUE(ac.CreateUser("bob").ok());
  ASSERT_TRUE(ac.CreateGroup("lab_members").ok());
  ASSERT_TRUE(ac.AddToGroup("bob", "lab_members").ok());
  ASSERT_TRUE(ac.Grant("lab_members", "Gene", Privilege::kUpdate).ok());
  EXPECT_TRUE(ac.IsGranted("bob", "Gene", Privilege::kUpdate));
  EXPECT_TRUE(ac.MatchesPrincipal("bob", "lab_members"));
  EXPECT_FALSE(ac.MatchesPrincipal("eve", "lab_members"));
  EXPECT_TRUE(ac.MatchesPrincipal("eve", "eve"));
}

TEST(AccessControlTest, CheckProducesPermissionDenied) {
  AccessControl ac;
  Status st = ac.Check("mallory", "Gene", Privilege::kSelect);
  EXPECT_TRUE(st.IsPermissionDenied());
}

class ApprovalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema gene("Gene");
    ASSERT_TRUE(gene.AddColumn("GID", DataType::kText).ok());
    ASSERT_TRUE(gene.AddColumn("GName", DataType::kText).ok());
    ASSERT_TRUE(gene.AddColumn("GSequence", DataType::kSequence).ok());
    ASSERT_TRUE(catalog_.CreateTable(gene).ok());
    auto t = catalog_.GetTable("Gene");
    ASSERT_TRUE(t.ok());
    gene_ = *t;

    ASSERT_TRUE(access_.CreateUser("member").ok());
    ASSERT_TRUE(access_.CreateUser("lab_admin").ok());

    mgr_ = std::make_unique<ApprovalManager>(&catalog_, &access_, &clock_);
  }

  Catalog catalog_;
  AccessControl access_;
  LogicalClock clock_;
  Table* gene_ = nullptr;
  std::unique_ptr<ApprovalManager> mgr_;
};

TEST_F(ApprovalFixture, StartStopAndShouldLog) {
  EXPECT_FALSE(mgr_->ShouldLog("Gene", OpType::kInsert, 0));
  ASSERT_TRUE(mgr_->StartContentApproval("Gene", {}, "lab_admin").ok());
  EXPECT_TRUE(mgr_->ShouldLog("Gene", OpType::kInsert, 0));
  EXPECT_TRUE(mgr_->ShouldLog("Gene", OpType::kUpdate, ColumnBit(1)));
  ASSERT_TRUE(mgr_->StopContentApproval("Gene", {}).ok());
  EXPECT_FALSE(mgr_->ShouldLog("Gene", OpType::kInsert, 0));
  EXPECT_TRUE(mgr_->StopContentApproval("Gene", {}).IsFailedPrecondition());
}

TEST_F(ApprovalFixture, ColumnScopedMonitoring) {
  // Paper: "we can monitor the update operations over only Column
  // GSequence of Table Gene".
  ASSERT_TRUE(
      mgr_->StartContentApproval("Gene", {"GSequence"}, "lab_admin").ok());
  EXPECT_TRUE(mgr_->ShouldLog("Gene", OpType::kUpdate, ColumnBit(2)));
  EXPECT_FALSE(mgr_->ShouldLog("Gene", OpType::kUpdate, ColumnBit(1)));
  // INSERT/DELETE always logged while enabled.
  EXPECT_TRUE(mgr_->ShouldLog("Gene", OpType::kInsert, 0));

  // Stop just that column -> monitoring disappears entirely.
  ASSERT_TRUE(mgr_->StopContentApproval("Gene", {"GSequence"}).ok());
  EXPECT_EQ(mgr_->configs().count("Gene"), 0u);
}

TEST_F(ApprovalFixture, StartRejectsUnknownTableOrColumn) {
  EXPECT_FALSE(mgr_->StartContentApproval("NoTable", {}, "a").ok());
  EXPECT_FALSE(mgr_->StartContentApproval("Gene", {"NoCol"}, "a").ok());
  EXPECT_FALSE(mgr_->StartContentApproval("Gene", {}, "").ok());
}

TEST_F(ApprovalFixture, InsertLoggedAndDisapprovedRollsBack) {
  ASSERT_TRUE(mgr_->StartContentApproval("Gene", {}, "lab_admin").ok());
  Row row = {Value::Text("JW0080"), Value::Text("mraW"),
             Value::Sequence("ATGATGGAAAA")};
  auto rid = gene_->Insert(row);
  ASSERT_TRUE(rid.ok());
  auto op_id = mgr_->LogOperation(OpType::kInsert, "Gene", *rid, "member", {},
                                  row);
  ASSERT_TRUE(op_id.ok());

  // Data is visible while pending (the paper's requirement).
  EXPECT_TRUE(gene_->Get(*rid).ok());
  auto pending = mgr_->Pending("Gene");
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0]->inverse_sql,
            "DELETE FROM Gene WHERE _rowid = " + std::to_string(*rid));

  // Disapproval executes the inverse.
  auto settled = mgr_->Disapprove(*op_id, "lab_admin");
  ASSERT_TRUE(settled.ok());
  EXPECT_FALSE(gene_->Get(*rid).ok());
  EXPECT_TRUE(mgr_->Pending("Gene").empty());
}

TEST_F(ApprovalFixture, DeleteDisapprovalReinsertsOldRow) {
  ASSERT_TRUE(mgr_->StartContentApproval("Gene", {}, "lab_admin").ok());
  Row row = {Value::Text("JW0055"), Value::Text("yabP"),
             Value::Sequence("ATGAAAGTATC")};
  auto rid = gene_->Insert(row);
  ASSERT_TRUE(rid.ok());
  auto fetched = gene_->Get(*rid);
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(gene_->Delete(*rid).ok());
  auto op_id = mgr_->LogOperation(OpType::kDelete, "Gene", *rid, "member",
                                  *fetched, {});
  ASSERT_TRUE(op_id.ok());
  auto op = mgr_->log().find(*op_id);
  ASSERT_NE(op, mgr_->log().end());
  EXPECT_EQ(op->second.inverse_sql,
            "INSERT INTO Gene VALUES ('JW0055', 'yabP', 'ATGAAAGTATC')");

  auto settled = mgr_->Disapprove(*op_id, "lab_admin");
  ASSERT_TRUE(settled.ok());
  auto restored = gene_->Get(*rid);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)[0].as_string(), "JW0055");
}

TEST_F(ApprovalFixture, UpdateDisapprovalRestoresOldValues) {
  ASSERT_TRUE(
      mgr_->StartContentApproval("Gene", {"GSequence"}, "lab_admin").ok());
  Row row = {Value::Text("JW0082"), Value::Text("ftsI"),
             Value::Sequence("ATGAAAGCAGC")};
  auto rid = gene_->Insert(row);
  ASSERT_TRUE(rid.ok());
  auto old_row = gene_->Get(*rid);
  ASSERT_TRUE(old_row.ok());
  ASSERT_TRUE(gene_->UpdateCell(*rid, 2, Value::Sequence("CCCCC")).ok());
  auto new_row = gene_->Get(*rid);
  ASSERT_TRUE(new_row.ok());
  auto op_id = mgr_->LogOperation(OpType::kUpdate, "Gene", *rid, "member",
                                  *old_row, *new_row);
  ASSERT_TRUE(op_id.ok());

  auto settled = mgr_->Disapprove(*op_id, "lab_admin");
  ASSERT_TRUE(settled.ok());
  auto restored = gene_->Get(*rid);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)[2].as_string(), "ATGAAAGCAGC");
}

TEST_F(ApprovalFixture, ApproveSettlesWithoutSideEffects) {
  ASSERT_TRUE(mgr_->StartContentApproval("Gene", {}, "lab_admin").ok());
  Row row = {Value::Text("JW0078"), Value::Text("fruR"),
             Value::Sequence("GTGAAACTGGA")};
  auto rid = gene_->Insert(row);
  ASSERT_TRUE(rid.ok());
  auto op_id =
      mgr_->LogOperation(OpType::kInsert, "Gene", *rid, "member", {}, row);
  ASSERT_TRUE(op_id.ok());
  ASSERT_TRUE(mgr_->Approve(*op_id, "lab_admin").ok());
  EXPECT_TRUE(gene_->Get(*rid).ok());
  EXPECT_TRUE(mgr_->Pending("Gene").empty());
  // Double settle fails.
  EXPECT_TRUE(mgr_->Approve(*op_id, "lab_admin").IsFailedPrecondition());
  EXPECT_TRUE(mgr_->Disapprove(*op_id, "lab_admin")
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(ApprovalFixture, OnlyConfiguredApproverMaySettle) {
  ASSERT_TRUE(mgr_->StartContentApproval("Gene", {}, "lab_admin").ok());
  Row row = {Value::Text("J"), Value::Text("g"), Value::Sequence("A")};
  auto rid = gene_->Insert(row);
  ASSERT_TRUE(rid.ok());
  auto op_id =
      mgr_->LogOperation(OpType::kInsert, "Gene", *rid, "member", {}, row);
  ASSERT_TRUE(op_id.ok());
  EXPECT_TRUE(mgr_->Approve(*op_id, "member").IsPermissionDenied());
  // Superuser may always settle.
  EXPECT_TRUE(mgr_->Approve(*op_id, "admin").ok());
}

TEST_F(ApprovalFixture, GroupApprover) {
  ASSERT_TRUE(access_.CreateGroup("pi_group").ok());
  ASSERT_TRUE(access_.AddToGroup("lab_admin", "pi_group").ok());
  ASSERT_TRUE(mgr_->StartContentApproval("Gene", {}, "pi_group").ok());
  Row row = {Value::Text("J"), Value::Text("g"), Value::Sequence("A")};
  auto rid = gene_->Insert(row);
  ASSERT_TRUE(rid.ok());
  auto op_id =
      mgr_->LogOperation(OpType::kInsert, "Gene", *rid, "member", {}, row);
  ASSERT_TRUE(op_id.ok());
  EXPECT_TRUE(mgr_->Approve(*op_id, "lab_admin").ok());
}

}  // namespace
}  // namespace bdbms
