#ifndef BDBMS_EXEC_EXEC_CONTEXT_H_
#define BDBMS_EXEC_EXEC_CONTEXT_H_

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

// Everything the executor and planner need from the Database facade.
struct ExecContext {
  Catalog* catalog = nullptr;
  AnnotationManager* annotations = nullptr;
  ProvenanceManager* provenance = nullptr;
  DependencyManager* dependencies = nullptr;
  ApprovalManager* approvals = nullptr;
  AccessControl* access = nullptr;
  LogicalClock* clock = nullptr;
  // The snapshot every scan operator resolves row/annotation visibility
  // against: the transaction's own, or {kLatestCsn, own txn} once it runs
  // alone (escalated).
  MvccSnapshot snapshot;
};

}  // namespace bdbms

#endif  // BDBMS_EXEC_EXEC_CONTEXT_H_
