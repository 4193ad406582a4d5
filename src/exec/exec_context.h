#ifndef BDBMS_EXEC_EXEC_CONTEXT_H_
#define BDBMS_EXEC_EXEC_CONTEXT_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "annot/annotation_manager.h"
#include "auth/access_control.h"
#include "auth/approval.h"
#include "catalog/catalog.h"
#include "common/clock.h"
#include "dep/dependency_manager.h"
#include "prov/provenance.h"
#include "table/table.h"
#include "txn/mvcc.h"

namespace bdbms {

// Rows deleted under ADD ANNOTATION ... ON (DELETE ...) are preserved here
// together with the annotation explaining the deletion (paper §3.2: "the
// deleted tuples will be stored in separate log tables along with the
// annotation that specifies why these tuples have been deleted").
struct DeletionLogEntry {
  RowId row;
  Row old_values;
  std::string annotation;  // XML body ("" for plain DELETEs)
  std::string issuer;
  uint64_t timestamp;
};

// Everything the executor and planner need from the Database facade.
struct ExecContext {
  Catalog* catalog = nullptr;
  AnnotationManager* annotations = nullptr;
  ProvenanceManager* provenance = nullptr;
  DependencyManager* dependencies = nullptr;
  ApprovalManager* approvals = nullptr;
  AccessControl* access = nullptr;
  LogicalClock* clock = nullptr;
  // Storage of CREATE TABLE's new table: paged heaps for a durable
  // database; null builds an in-memory table.
  TableFactory new_table;
  std::map<std::string, std::vector<DeletionLogEntry>>* deletion_log = nullptr;
  // The transaction's writer while a mutating statement runs (null for a
  // read); mutation paths that live in the executor itself (the deletion
  // log) record their compensations in its write set.
  MvccWriter* writer = nullptr;
  // The snapshot every scan operator resolves row/annotation visibility
  // against: the transaction's own, or {kLatestCsn, own txn} once it runs
  // alone (escalated).
  MvccSnapshot snapshot;
};

}  // namespace bdbms

#endif  // BDBMS_EXEC_EXEC_CONTEXT_H_
