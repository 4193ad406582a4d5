#include "annot/annotation_manager.h"

namespace bdbms {

void AnnotationManager::set_mvcc(MvccState* mvcc) {
  mvcc_ = mvcc;
  for (auto& [key, at] : tables_) at->set_mvcc(mvcc);
}

void AnnotationManager::ForEachTable(
    const std::function<void(const std::string&, AnnotationTable*)>& fn)
    const {
  for (const auto& [key, at] : tables_) fn(key, at.get());
}

Status AnnotationManager::CreateAnnotationTable(const std::string& table,
                                                const std::string& ann_name,
                                                bool is_provenance) {
  std::string key = Key(table, ann_name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("annotation table " + key +
                                 " already exists");
  }
  BDBMS_ASSIGN_OR_RETURN(
      std::unique_ptr<AnnotationTable> at,
      AnnotationTable::CreateInMemory(ann_name, clock_, is_provenance));
  at->set_mvcc(mvcc_);
  tables_[key] = std::move(at);
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, key] { tables_.erase(key); });
  }
  return Status::Ok();
}

// Dropped annotation tables are not destroyed while a writer is installed:
// the storage object moves into the compensation closure and moves back
// on rollback, annotations intact. Commit frees it.
Status AnnotationManager::DropAnnotationTable(const std::string& table,
                                              const std::string& ann_name) {
  auto it = tables_.find(Key(table, ann_name));
  if (it == tables_.end()) {
    return Status::NotFound("no annotation table " + ann_name + " on " +
                            table);
  }
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    auto held = std::make_shared<std::unique_ptr<AnnotationTable>>(
        std::move(it->second));
    w->undo.push_back(
        [this, key = it->first, held] { tables_[key] = std::move(*held); });
  }
  tables_.erase(it);
  return Status::Ok();
}

void AnnotationManager::DropAllFor(const std::string& table) {
  for (const std::string& ann : ListFor(table)) {
    (void)DropAnnotationTable(table, ann);
  }
}

Result<AnnotationTable*> AnnotationManager::Get(
    const std::string& table, const std::string& ann_name) const {
  auto it = tables_.find(Key(table, ann_name));
  if (it == tables_.end()) {
    return Status::NotFound("no annotation table " + ann_name + " on " +
                            table);
  }
  return it->second.get();
}

std::vector<std::string> AnnotationManager::ListFor(
    const std::string& table) const {
  std::vector<std::string> names;
  std::string prefix = table + ".";
  for (const auto& [key, at] : tables_) {
    if (key.compare(0, prefix.size(), prefix) == 0) {
      names.push_back(key.substr(prefix.size()));
    }
  }
  return names;
}

}  // namespace bdbms
