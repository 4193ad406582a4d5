#ifndef BDBMS_ANNOT_ANNOTATION_MANAGER_H_
#define BDBMS_ANNOT_ANNOTATION_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "annot/annotation_table.h"
#include "common/clock.h"
#include "common/result.h"
#include "txn/mvcc.h"

namespace bdbms {

// The bdbms annotation manager (paper §2, §3): owns the annotation storage
// space — every AnnotationTable of every user relation — and implements
// the A-SQL annotation-table commands. It is the one registry of
// annotation tables; the executor checks that the user table exists
// before creating one.
class AnnotationManager {
 public:
  // `clock` stamps annotations; must outlive the manager.
  explicit AnnotationManager(LogicalClock* clock) : clock_(clock) {}

  AnnotationManager(const AnnotationManager&) = delete;
  AnnotationManager& operator=(const AnnotationManager&) = delete;

  // CREATE ANNOTATION TABLE <ann_name> ON <table> [AS PROVENANCE].
  Status CreateAnnotationTable(const std::string& table,
                               const std::string& ann_name,
                               bool is_provenance = false);

  // DROP ANNOTATION TABLE <ann_name> ON <table>.
  Status DropAnnotationTable(const std::string& table,
                             const std::string& ann_name);

  // Drops every annotation table attached to `table` (DROP TABLE cascade).
  void DropAllFor(const std::string& table);

  // Storage object lookup.
  Result<AnnotationTable*> Get(const std::string& table,
                               const std::string& ann_name) const;

  // All annotation table names attached to `table`.
  std::vector<std::string> ListFor(const std::string& table) const;

  // Wires the engine's ambient MVCC context into this manager and every
  // owned AnnotationTable (current and future): while a writer is
  // installed, annotations are versions and creates/drops record
  // compensations.
  void set_mvcc(MvccState* mvcc);

  // Visits every annotation table with its "<table>.<ann>" key — the
  // engine uses this to capture per-statement id bases for the WAL and to
  // restore them during replay.
  void ForEachTable(
      const std::function<void(const std::string&, AnnotationTable*)>& fn)
      const;

 private:
  static std::string Key(const std::string& table, const std::string& ann) {
    return table + "." + ann;
  }

  LogicalClock* clock_;
  std::map<std::string, std::unique_ptr<AnnotationTable>> tables_;
  MvccState* mvcc_ = nullptr;
};

}  // namespace bdbms

#endif  // BDBMS_ANNOT_ANNOTATION_MANAGER_H_
