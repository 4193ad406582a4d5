#ifndef BDBMS_TESTS_DURABILITY_TEST_UTIL_H_
#define BDBMS_TESTS_DURABILITY_TEST_UTIL_H_

// Shared helpers for the durability test suites: a deep state fingerprint
// (the recovery oracle — two databases with equal fingerprints answer
// every query identically, since all query state is covered), an
// index-vs-heap consistency checker, and scratch-directory management.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "annot/annotation_table.h"
#include "bio/alignment.h"
#include "core/database.h"
#include "index/secondary_index.h"
#include "index/sequence_index.h"

namespace bdbms {
namespace testutil {

// Fresh scratch directory under the gtest temp root; any previous
// contents from an earlier run are removed.
inline std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Procedures and system agents are programmatic state, re-established on
// every open via DurabilityOptions::bootstrap; this is the registration
// the standard workload's CREATE DEPENDENCY statements need.
inline Status RegisterProcedures(Database& db) {
  BDBMS_RETURN_IF_ERROR(
      db.procedures().Register(MakePredictionToolProcedure("P")));
  ProcedureInfo lab;
  lab.name = "lab_experiment";
  lab.executable = false;
  return db.procedures().Register(lab);
}

inline DurabilityOptions DurableOpts(uint64_t checkpoint_interval = 0,
                                     uint64_t group_commit = 1) {
  DurabilityOptions opts;
  opts.checkpoint_interval = checkpoint_interval;
  opts.group_commit_interval = group_commit;
  opts.bootstrap = RegisterProcedures;
  return opts;
}

// A deterministic mixed workload touching every statement-driven
// subsystem: DDL, DML, secondary + sequence indexes, ANALYZE statistics,
// annotations (add/archive), the deletion log, users/groups/grants,
// content approval (pending + approved + disapproved), and dependency
// rules with both recomputation and outdated marking.
inline std::vector<std::pair<std::string, std::string>> StandardWorkload() {
  return {
      {"admin", "CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence SEQUENCE)"},
      {"admin",
       "CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence SEQUENCE, "
       "PFunction TEXT)"},
      {"admin", "CREATE ANNOTATION TABLE Curation ON Gene"},
      {"admin", "CREATE ANNOTATION TABLE Lineage ON Gene AS PROVENANCE"},
      {"admin", "CREATE USER alice"},
      {"admin", "CREATE USER bob"},
      {"admin", "CREATE GROUP lab_members"},
      {"admin", "ADD USER alice TO GROUP lab_members"},
      {"admin", "GRANT SELECT ON Gene TO lab_members"},
      {"admin", "GRANT INSERT ON Gene TO alice"},
      {"admin", "GRANT UPDATE ON Gene TO alice"},
      {"admin", "GRANT SELECT ON Protein TO alice"},
      {"admin",
       "CREATE DEPENDENCY rule1 FROM Gene.GSequence TO Protein.PSequence "
       "USING P JOIN ON Gene.GID = Protein.GID"},
      {"admin",
       "CREATE DEPENDENCY rule2 FROM Protein.PSequence TO Protein.PFunction "
       "USING lab_experiment"},
      {"admin", "CREATE INDEX gidx ON Gene (GID)"},
      {"admin", "CREATE SEQUENCE INDEX sidx ON Gene (GSequence) USING SPGIST"},
      {"alice",
       "ADD ANNOTATION TO Gene.Curation VALUE "
       "'<Annotation>imported</Annotation>' "
       "ON (INSERT INTO Gene VALUES ('JW0080', 'mraW', 'ATGATG'))"},
      {"alice", "INSERT INTO Gene VALUES ('JW0081', 'ftsL', 'CCGGAA')"},
      {"admin", "INSERT INTO Protein VALUES ('mraW', 'JW0080', 'M', 'fn')"},
      {"admin",
       "START CONTENT APPROVAL ON Gene COLUMNS (GSequence) APPROVED BY admin"},
      {"alice", "UPDATE Gene SET GSequence = 'TTTT' WHERE GID = 'JW0080'"},
      {"alice", "UPDATE Gene SET GSequence = 'GGGG' WHERE GID = 'JW0081'"},
      {"admin", "APPROVE OPERATION 1"},
      {"admin", "DISAPPROVE OPERATION 2"},
      {"admin", "ANALYZE Gene"},
      {"admin",
       "ADD ANNOTATION TO Gene.Curation VALUE '<Annotation>old</Annotation>' "
       "ON (SELECT GID FROM Gene WHERE GID = 'JW0081')"},
      {"admin",
       "ARCHIVE ANNOTATION FROM Gene.Curation "
       "ON (SELECT GID FROM Gene WHERE GID = 'JW0081')"},
      {"admin",
       "ADD ANNOTATION TO Gene.Curation VALUE "
       "'<Annotation>deleted: dup</Annotation>' "
       "ON (DELETE FROM Gene WHERE GID = 'JW0081')"},
  };
}

// Executes the first `prefix` statements of the standard workload.
inline void RunStandardWorkload(Database& db, size_t prefix = SIZE_MAX) {
  auto statements = StandardWorkload();
  for (size_t i = 0; i < statements.size() && i < prefix; ++i) {
    auto r = db.Execute(statements[i].second, statements[i].first);
    ASSERT_TRUE(r.ok()) << statements[i].second << "\n-> "
                        << r.status().ToString();
  }
}

// Deep, deterministic dump of every statement-driven piece of engine
// state. Everything a query can observe — rows, annotations (archived
// included), indexes, statistics, outdated bits, grants, approvals,
// deletion log, the logical clock — lands in the string, so fingerprint
// equality is the equivalence oracle for recovery tests.
inline std::string Fingerprint(Database& db) {
  std::ostringstream out;
  out << "clock=" << db.clock().Peek() << "\n";

  for (const auto& [name, table] : db.catalog().tables()) {
    const TableSchema& schema = table->schema();
    out << "table " << name << " (";
    for (const ColumnDef& col : schema.columns()) {
      out << col.name << ":" << DataTypeName(col.type) << ",";
    }
    out << ")\n";

    out << "  next_row_id=" << table->next_row_id() << "\n";
    (void)table->Scan([&](RowId row_id, const Row& row) {
      out << "  row " << row_id << ":";
      for (const Value& v : row) out << " " << v.ToString();
      out << "\n";
      return Status::Ok();
    });

    for (const std::string& ann_name : db.annotations().ListFor(name)) {
      AnnotationTable* ann = *db.annotations().Get(name, ann_name);
      out << "  ann " << ann_name << " prov=" << ann->is_provenance() << "\n";
      out << "    next_id=" << ann->next_id() << "\n";
      ann->ForEach(/*include_archived=*/true, [&](const AnnotationMeta& m) {
        out << "    a" << m.id << " ts=" << m.timestamp
            << " arch=" << m.archived << " by=" << m.author << " regions=";
        for (const Region& reg : m.regions) {
          out << "[" << reg.columns << "," << reg.row_begin << ","
              << reg.row_end << "]";
        }
        auto body = ann->Body(m.id);
        out << " body=" << (body.ok() ? *body : "<err>") << "\n";
      });
    }

    // Each index family in creation order: the planner breaks cost ties
    // by it, so a reopen that reorders indexes shows up here.
    for (const auto& idx : table->indexes()) {
      out << "  index " << idx->name() << " kind=btree cols=";
      for (size_t c : idx->columns()) out << schema.column(c).name << ",";
      out << " entries=" << idx->entry_count() << "\n";
    }
    for (const auto& idx : table->sequence_indexes()) {
      out << "  index " << idx->name() << " kind=spgist cols="
          << schema.column(idx->column()).name << ","
          << " entries=" << idx->entry_count() << "\n";
    }

    if (const TableStats* stats = table->stats()) {
      out << "  stats rows=" << stats->row_count;
      for (const ColumnStats& cs : stats->columns) {
        out << " [nn=" << cs.non_null << " null=" << cs.null_count
            << " ndv=" << cs.ndv
            << " min=" << (cs.min ? cs.min->ToString() : "-")
            << " max=" << (cs.max ? cs.max->ToString() : "-") << " hist=";
        if (cs.histogram) {
          out << cs.histogram->lo << ":" << cs.histogram->hi << ":";
          for (uint64_t c : cs.histogram->counts) out << c << ",";
        } else {
          out << "-";
        }
        out << "]";
      }
      out << "\n";
    }

    if (const OutdatedBitmap* bm = db.dependencies().FindBitmap(name)) {
      out << "  outdated";
      for (const auto& [row, mask] : bm->entries()) {
        out << " " << row << ":" << mask;
      }
      out << "\n";
    }

    const auto& dl = db.DeletionLog(name);
    for (const DeletionLogEntry& e : dl) {
      out << "  deleted " << e.row << " ts=" << e.timestamp
          << " by=" << e.issuer << " ann=" << e.annotation << " vals=";
      for (const Value& v : e.old_values) out << v.ToString() << ",";
      out << "\n";
    }
  }

  out << "rules:\n";
  for (const auto& [rname, rule] : db.dependencies().rules()) {
    out << "  " << rname << ":";
    for (const ColumnRef& s : rule.sources) out << " " << s.ToString();
    out << " -> " << rule.target.ToString() << " via " << rule.procedure;
    if (rule.join) {
      out << " join " << rule.join->source_key_column << "="
          << rule.join->target_key_column;
    }
    out << "\n";
  }

  out << "users:";
  for (const std::string& u : db.access().users()) out << " " << u;
  out << "\nsuperusers:";
  for (const std::string& u : db.access().superusers()) out << " " << u;
  out << "\ngroups:";
  for (const auto& [g, members] : db.access().group_members()) {
    out << " " << g << "(";
    for (const std::string& m : members) out << m << ",";
    out << ")";
  }
  out << "\ngrants:";
  for (const auto& [key, privs] : db.access().grants()) {
    out << " " << key.first << "/" << key.second << "=";
    for (Privilege p : privs) out << PrivilegeName(p) << ",";
  }
  out << "\nagents:";
  for (const std::string& a : db.provenance().system_agents()) out << " " << a;

  out << "\napproval_configs:";
  for (const auto& [t, cfg] : db.approvals().configs()) {
    out << " " << t << "(on=" << cfg.enabled << ",cols=" << cfg.columns
        << ",by=" << cfg.approver << ")";
  }
  out << "\napproval_log next=" << db.approvals().next_op_id() << "\n";
  for (const auto& [id, op] : db.approvals().log()) {
    out << "  op" << id << " " << OpTypeName(op.type) << " "
        << static_cast<int>(op.state) << " " << op.table << "[" << op.row
        << "] by=" << op.issuer << " ts=" << op.timestamp << " old=";
    for (const Value& v : op.old_row) out << v.ToString() << ",";
    out << " new=";
    for (const Value& v : op.new_row) out << v.ToString() << ",";
    out << " inv=" << op.inverse_sql << "\n";
  }
  return out.str();
}

// Fingerprint of a never-closed in-memory database that executed the
// first `prefix` statements of the standard workload — the oracle a
// recovered database is diffed against.
inline std::string ReferenceFingerprint(size_t prefix = SIZE_MAX) {
  Database ref;
  EXPECT_TRUE(RegisterProcedures(ref).ok());
  RunStandardWorkload(ref, prefix);
  return Fingerprint(ref);
}

// Asserts every secondary/sequence index agrees with its heap: entry
// counts match and every live row is reachable through its own key. A
// recovery that rebuilt indexes from stale rows fails here.
inline void VerifyIndexConsistency(Database& db) {
  for (const auto& [name, table] : db.catalog().tables()) {
    for (const auto& qi : table->sequence_indexes()) {
      size_t column = qi->column();
      (void)table->Scan([&](RowId row_id, const Row& row) {
        if (!row[column].is_string()) return Status::Ok();
        auto found = qi->FindExact(row[column].as_string());
        EXPECT_TRUE(found.ok());
        EXPECT_TRUE(std::find(found->begin(), found->end(), row_id) !=
                    found->end())
            << qi->name() << " lost row " << row_id;
        return Status::Ok();
      });
    }
    for (const auto& si : table->indexes()) {
      EXPECT_EQ(si->entry_count(), table->row_count())
          << si->name() << " entry count diverged from heap";
      (void)table->Scan([&](RowId row_id, const Row& row) {
        IndexProbe probe;
        bool has_null = false;
        for (size_t c : si->columns()) {
          if (row[c].is_null()) has_null = true;
          probe.eq.push_back(row[c]);
        }
        if (has_null) return Status::Ok();  // SQL probes never match NULL
        auto found = si->Find(probe);
        EXPECT_TRUE(found.ok());
        EXPECT_TRUE(std::find(found->begin(), found->end(), row_id) !=
                    found->end())
            << si->name() << " lost row " << row_id;
        return Status::Ok();
      });
    }
  }
}

}  // namespace testutil
}  // namespace bdbms

#endif  // BDBMS_TESTS_DURABILITY_TEST_UTIL_H_
