#include "table/table.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <set>

#include "index/secondary_index.h"
#include "index/sequence_index.h"

namespace bdbms {

namespace {

// MVCC event visibility. A begin/end event is a (csn, txn) pair: non-zero
// csn = committed at that CSN; zero csn with non-zero txn = still owned by
// an uncommitted transaction; zero/zero = ancient (predates tracking).
bool BeginVisible(uint64_t csn, uint64_t txn, const MvccSnapshot& s) {
  if (txn != 0 && s.txn_id != 0 && txn == s.txn_id) return true;  // own write
  if (csn == 0 && txn == 0) return true;                          // ancient
  return csn != 0 && csn <= s.csn;
}

bool EndVisible(uint64_t csn, uint64_t txn, const MvccSnapshot& s) {
  if (txn != 0 && s.txn_id != 0 && txn == s.txn_id) return true;
  return csn != 0 && csn <= s.csn;
}

Status SerializationConflict(const std::string& table, RowId row_id) {
  return Status::SerializationFailure(
      "serialization failure, retry transaction (concurrent write to " +
      table + " row " + std::to_string(row_id) + ")");
}

}  // namespace

Table::Table(TableSchema schema, std::unique_ptr<HeapFile> heap)
    : schema_(std::move(schema)), heap_(std::move(heap)) {}

Table::~Table() = default;

Result<std::unique_ptr<Table>> Table::CreateInMemory(TableSchema schema,
                                                     size_t pool_pages) {
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> heap,
                         HeapFile::CreateInMemory(pool_pages));
  auto table =
      std::unique_ptr<Table>(new Table(std::move(schema), std::move(heap)));
  BDBMS_RETURN_IF_ERROR(table->Bootstrap());
  return table;
}

Result<std::unique_ptr<Table>> Table::OpenPaged(TableSchema schema,
                                                WalEnv* env,
                                                const std::string& path,
                                                size_t pool_pages) {
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> heap,
                         HeapFile::OpenPaged(env, path, pool_pages));
  auto table =
      std::unique_ptr<Table>(new Table(std::move(schema), std::move(heap)));
  size_t sep = path.find_last_of('/');
  table->heap_file_name_ =
      sep == std::string::npos ? path : path.substr(sep + 1);
  BDBMS_RETURN_IF_ERROR(table->Bootstrap());
  return table;
}

Status Table::CheckpointPrepare(uint64_t gen) {
  if (!paged()) return Status::Ok();
  return heap_->CheckpointPrepare(gen);
}

Status Table::CheckpointCommit() {
  if (!paged()) return Status::Ok();
  return heap_->CheckpointCommit();
}

Status Table::Bootstrap() {
  return heap_->ForEach([&](RecordId rid, std::string_view payload) {
    auto decoded = DecodeRecord(payload);
    BDBMS_RETURN_IF_ERROR(decoded.status());
    RowId row_id = decoded->first;
    rows_[row_id] = rid;
    if (row_id >= next_row_id_) next_row_id_ = row_id + 1;
    return Status::Ok();
  });
}

std::string Table::EncodeRecord(RowId row_id, const Row& row) {
  std::string out;
  char buf[8];
  std::memcpy(buf, &row_id, 8);
  out.append(buf, 8);
  for (const Value& v : row) v.EncodeTo(&out);
  return out;
}

Result<std::pair<RowId, Row>> Table::DecodeRecord(std::string_view payload) {
  if (payload.size() < 8) return Status::Corruption("row record too short");
  RowId row_id;
  std::memcpy(&row_id, payload.data(), 8);
  size_t offset = 8;
  Row row;
  while (offset < payload.size()) {
    BDBMS_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(payload, &offset));
    row.push_back(std::move(v));
  }
  return std::make_pair(row_id, std::move(row));
}

Result<RowId> Table::Insert(Row row) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  return InsertLocked(std::move(row));
}

Result<RowId> Table::InsertLocked(Row row) {
  BDBMS_ASSIGN_OR_RETURN(Row validated, schema_.ValidateRow(std::move(row)));
  BDBMS_RETURN_IF_ERROR(CheckIndexable(validated));
  RowId row_id = next_row_id_++;
  BDBMS_RETURN_IF_ERROR(StoreNewLocked(row_id, validated, RowOrigin::kInsert));
  return row_id;
}

Status Table::InsertWithRowId(RowId row_id, Row row) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  return InsertWithRowIdLocked(row_id, std::move(row));
}

Status Table::InsertWithRowIdLocked(RowId row_id, Row row) {
  if (rows_.count(row_id)) {
    return Status::AlreadyExists("row " + std::to_string(row_id) +
                                 " already exists");
  }
  BDBMS_ASSIGN_OR_RETURN(Row validated, schema_.ValidateRow(std::move(row)));
  BDBMS_RETURN_IF_ERROR(CheckIndexable(validated));
  if (row_id >= next_row_id_) next_row_id_ = row_id + 1;
  return StoreNewLocked(row_id, validated, RowOrigin::kReinsert);
}

Status Table::StoreNewLocked(RowId row_id, const Row& row, RowOrigin origin) {
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    // Tag the new version with the owning transaction so it stays
    // invisible to other snapshots until commit stamps it. A re-inserted
    // RowId may keep an older chain.
    RowMvcc& mv = mvcc_rows_[row_id];
    mv.begin_csn = 0;
    mv.begin_txn = w->txn_id;
    mv.begin_stmt = w->statement;
    mv.origin = origin;
    w->rows.emplace_back(this, row_id);
  }
  BDBMS_ASSIGN_OR_RETURN(RecordId rid,
                         heap_->Insert(EncodeRecord(row_id, row)));
  rows_[row_id] = rid;
  return IndexInsert(row_id, row);
}

Result<Row> Table::Get(RowId row_id) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  return GetLocked(row_id);
}

Result<Row> Table::GetLocked(RowId row_id) const {
  auto it = rows_.find(row_id);
  if (it == rows_.end()) {
    return Status::NotFound("table " + schema_.name() + ": no row " +
                            std::to_string(row_id));
  }
  BDBMS_ASSIGN_OR_RETURN(std::string payload, heap_->Read(it->second));
  BDBMS_ASSIGN_OR_RETURN(auto decoded, DecodeRecord(payload));
  if (decoded.first != row_id) {
    return Status::Corruption("row id mismatch in record");
  }
  return std::move(decoded.second);
}

int Table::ResolveVisibleLocked(RowId row_id, const MvccSnapshot& snap,
                                const RowVersion** node) const {
  auto mit = mvcc_rows_.find(row_id);
  bool has_current = rows_.count(row_id) > 0;
  if (mit == mvcc_rows_.end()) return has_current ? 1 : 0;  // ancient row
  const RowMvcc& mv = mit->second;
  if (has_current && BeginVisible(mv.begin_csn, mv.begin_txn, snap)) {
    return 1;  // the current version never has an end event
  }
  for (auto rit = mv.old.rbegin(); rit != mv.old.rend(); ++rit) {
    if (!BeginVisible(rit->begin_csn, rit->begin_txn, snap)) continue;
    // Newest version the snapshot can see. If its end event is also
    // visible the row was deleted (an update's successor would have been
    // returned above).
    if (EndVisible(rit->end_csn, rit->end_txn, snap)) return 0;
    *node = &*rit;
    return 2;
  }
  return 0;
}

Result<std::optional<Row>> Table::GetVisible(RowId row_id,
                                             const MvccSnapshot& snap) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  const RowVersion* node = nullptr;
  switch (ResolveVisibleLocked(row_id, snap, &node)) {
    case 1: {
      BDBMS_ASSIGN_OR_RETURN(Row row, GetLocked(row_id));
      return std::optional<Row>(std::move(row));
    }
    case 2:
      return std::optional<Row>(node->row);
    default:
      return std::optional<Row>();
  }
}

Status Table::CheckWriteConflictLocked(RowId row_id,
                                       const MvccWriter& w) const {
  auto mit = mvcc_rows_.find(row_id);
  if (mit == mvcc_rows_.end()) return Status::Ok();
  const RowMvcc& mv = mit->second;
  if (rows_.count(row_id)) {
    // First updater wins: a current version created by another
    // uncommitted transaction, or committed after our snapshot, means a
    // concurrent writer already replaced the row.
    if (mv.begin_csn == 0 && mv.begin_txn != 0 && mv.begin_txn != w.txn_id) {
      return SerializationConflict(schema_.name(), row_id);
    }
    if (mv.begin_csn != 0 && mv.begin_csn > w.snapshot_csn) {
      return SerializationConflict(schema_.name(), row_id);
    }
  } else if (!mv.old.empty()) {
    // Row deleted: if our snapshot could still see it, the delete raced
    // us and we lose.
    const RowVersion& last = mv.old.back();
    if (last.end_csn == 0 && last.end_txn != 0 && last.end_txn != w.txn_id) {
      return SerializationConflict(schema_.name(), row_id);
    }
    if (last.end_csn != 0 && last.end_csn > w.snapshot_csn) {
      return SerializationConflict(schema_.name(), row_id);
    }
  }
  return Status::Ok();
}

Status Table::Update(RowId row_id, Row row) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  return UpdateLocked(row_id, std::move(row));
}

Status Table::UpdateLocked(RowId row_id, Row row) {
  MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr;
  auto it = rows_.find(row_id);
  if (it == rows_.end()) {
    if (w) BDBMS_RETURN_IF_ERROR(CheckWriteConflictLocked(row_id, *w));
    return Status::NotFound("table " + schema_.name() + ": no row " +
                            std::to_string(row_id));
  }
  BDBMS_ASSIGN_OR_RETURN(Row validated, schema_.ValidateRow(std::move(row)));
  BDBMS_RETURN_IF_ERROR(CheckIndexable(validated));
  if (w) BDBMS_RETURN_IF_ERROR(CheckWriteConflictLocked(row_id, *w));
  BDBMS_ASSIGN_OR_RETURN(Row old_row, GetLocked(row_id));
  RowMvcc* mv = w ? &mvcc_rows_[row_id] : nullptr;
  if (mv == nullptr || (mv->begin_csn == 0 && mv->begin_txn == w->txn_id &&
                        mv->begin_stmt == w->statement)) {
    // No writer, or a second touch within the statement that created the
    // current version: rewrite it in place, index entries and all.
    BDBMS_RETURN_IF_ERROR(IndexRemove(row_id, old_row));
  } else {
    // A new version: the superseded one moves onto the chain and keeps
    // owning its index entries (snapshot index probes may still need
    // them; vacuum or abort removes them), and the new one becomes
    // current, tagged uncommitted.
    mv->old.push_back(RowVersion{std::move(old_row), mv->begin_csn,
                                 mv->begin_txn, 0, w->txn_id, mv->origin});
    mv->begin_csn = 0;
    mv->begin_txn = w->txn_id;
    mv->begin_stmt = w->statement;
    mv->origin = RowOrigin::kUpdate;
    w->rows.emplace_back(this, row_id);
  }
  BDBMS_RETURN_IF_ERROR(heap_->Delete(it->second));
  BDBMS_ASSIGN_OR_RETURN(RecordId rid,
                         heap_->Insert(EncodeRecord(row_id, validated)));
  it->second = rid;
  return IndexInsert(row_id, validated);
}

Status Table::UpdateCell(RowId row_id, size_t column, Value value) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  if (column >= schema_.num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  BDBMS_ASSIGN_OR_RETURN(Row row, GetLocked(row_id));
  BDBMS_ASSIGN_OR_RETURN(row[column],
                         value.CoerceTo(schema_.column(column).type));
  return UpdateLocked(row_id, std::move(row));
}

Status Table::Delete(RowId row_id) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  return DeleteLocked(row_id);
}

Status Table::DeleteLocked(RowId row_id) {
  MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr;
  auto it = rows_.find(row_id);
  if (it == rows_.end()) {
    if (w) BDBMS_RETURN_IF_ERROR(CheckWriteConflictLocked(row_id, *w));
    return Status::NotFound("table " + schema_.name() + ": no row " +
                            std::to_string(row_id));
  }
  if (w) BDBMS_RETURN_IF_ERROR(CheckWriteConflictLocked(row_id, *w));
  BDBMS_ASSIGN_OR_RETURN(Row old_row, GetLocked(row_id));
  if (w == nullptr) {
    BDBMS_RETURN_IF_ERROR(IndexRemove(row_id, old_row));
  } else {
    // The deleted version moves onto the chain with an uncommitted end
    // event; its index entries stay (owned by the chain node) so snapshot
    // index scans still find the row until GC retires it.
    RowMvcc& mv = mvcc_rows_[row_id];
    mv.old.push_back(RowVersion{std::move(old_row), mv.begin_csn,
                                mv.begin_txn, 0, w->txn_id, mv.origin});
    w->rows.emplace_back(this, row_id);
  }
  BDBMS_RETURN_IF_ERROR(heap_->Delete(it->second));
  rows_.erase(it);
  return Status::Ok();
}

void Table::CommitRow(RowId row_id, uint64_t txn, uint64_t csn) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  auto mit = mvcc_rows_.find(row_id);
  if (mit == mvcc_rows_.end()) return;
  RowMvcc& mv = mit->second;
  if (mv.begin_csn == 0 && mv.begin_txn == txn) {
    mv.begin_csn = csn;
    mv.begin_txn = 0;
  }
  for (RowVersion& v : mv.old) {
    if (v.begin_csn == 0 && v.begin_txn == txn) {
      v.begin_csn = csn;
      v.begin_txn = 0;
    }
    if (v.end_csn == 0 && v.end_txn == txn) {
      v.end_csn = csn;
      v.end_txn = 0;
    }
  }
}

void Table::AbortRow(RowId row_id, uint64_t txn) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  auto mit = mvcc_rows_.find(row_id);
  if (mit == mvcc_rows_.end()) return;
  RowMvcc& mv = mit->second;
  auto it = rows_.find(row_id);
  if (it != rows_.end()) {
    if (mv.begin_csn != 0 || mv.begin_txn != txn) return;
    // Discard the current version `txn` wrote: heap record and index
    // entries.
    auto cur = GetLocked(row_id);
    if (cur.ok()) (void)IndexRemove(row_id, *cur);
    (void)heap_->Delete(it->second);
    rows_.erase(it);
    if (mv.origin != RowOrigin::kUpdate) {
      if (mv.origin == RowOrigin::kInsert && next_row_id_ == row_id + 1) {
        next_row_id_ = row_id;
      }
      if (mv.old.empty()) mvcc_rows_.erase(mit);
      return;
    }
  }
  // The version `txn` superseded or deleted becomes current again; it
  // never gave up its index entries.
  if (mv.old.empty()) return;
  RowVersion& prev = mv.old.back();
  if (prev.end_csn != 0 || prev.end_txn != txn) return;
  auto rid = heap_->Insert(EncodeRecord(row_id, prev.row));
  if (rid.ok()) rows_[row_id] = *rid;
  mv.begin_csn = prev.begin_csn;
  mv.begin_txn = prev.begin_txn;
  mv.begin_stmt = 0;
  mv.origin = prev.origin;
  mv.old.pop_back();
  if (mv.old.empty() && mv.begin_csn == 0 && mv.begin_txn == 0) {
    mvcc_rows_.erase(mit);  // back to the ancient, untracked state
  }
}

void Table::Vacuum(uint64_t oldest_csn) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  for (auto it = mvcc_rows_.begin(); it != mvcc_rows_.end();) {
    RowMvcc& mv = it->second;
    // Committed chain nodes are ordered by end CSN, with the nodes still
    // owned by an uncommitted writer at the back, so dead versions form a
    // prefix.
    while (!mv.old.empty()) {
      const RowVersion& v = mv.old.front();
      if (v.end_csn == 0 || v.end_csn > oldest_csn) break;
      (void)IndexRemove(it->first, v.row);
      mv.old.erase(mv.old.begin());
    }
    bool has_current = rows_.count(it->first) > 0;
    bool retire = false;
    if (mv.old.empty()) {
      if (!has_current) {
        retire = true;  // deleted and no snapshot can see any version
      } else if (mv.begin_txn == 0 && mv.begin_csn != 0 &&
                 mv.begin_csn <= oldest_csn) {
        retire = true;  // visible to everyone: back to the ancient state
      }
    }
    if (retire) {
      it = mvcc_rows_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t Table::version_count() const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  uint64_t count = rows_.size();
  for (const auto& [row_id, mv] : mvcc_rows_) count += mv.old.size();
  return count;
}

Status Table::Scan(const std::function<Status(RowId, const Row&)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  return ScanLocked(fn);
}

Status Table::ScanLocked(
    const std::function<Status(RowId, const Row&)>& fn) const {
  for (const auto& [row_id, rid] : rows_) {
    BDBMS_ASSIGN_OR_RETURN(std::string payload, heap_->Read(rid));
    BDBMS_ASSIGN_OR_RETURN(auto decoded, DecodeRecord(payload));
    BDBMS_RETURN_IF_ERROR(fn(row_id, decoded.second));
  }
  return Status::Ok();
}

Status Table::ScanAllVersions(
    const std::function<Status(RowId, const Row&)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  BDBMS_RETURN_IF_ERROR(ScanLocked(fn));
  for (const auto& [row_id, mv] : mvcc_rows_) {
    for (const RowVersion& v : mv.old) BDBMS_RETURN_IF_ERROR(fn(row_id, v.row));
  }
  return Status::Ok();
}

std::vector<RowId> Table::VisibleRowIds(const MvccSnapshot& snap) const {
  return VisibleRowIdsInRange(0, UINT64_MAX, snap);
}

std::vector<RowId> Table::VisibleRowIdsInRange(
    RowId begin, RowId end, const MvccSnapshot& snap) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  std::vector<RowId> ids;
  // Merge the live map with the version side map: a row deleted by a
  // newer transaction lives only in mvcc_rows_ but may still be visible.
  auto rit = rows_.lower_bound(begin);
  auto mit = mvcc_rows_.lower_bound(begin);
  while (rit != rows_.end() || mit != mvcc_rows_.end()) {
    RowId id;
    if (mit == mvcc_rows_.end() ||
        (rit != rows_.end() && rit->first < mit->first)) {
      id = rit->first;
      ++rit;
    } else if (rit == rows_.end() || mit->first < rit->first) {
      id = mit->first;
      ++mit;
    } else {
      id = rit->first;
      ++rit;
      ++mit;
    }
    if (id > end) break;
    const RowVersion* node = nullptr;
    if (ResolveVisibleLocked(id, snap, &node) != 0) ids.push_back(id);
  }
  return ids;
}

uint64_t Table::row_count() const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  return rows_.size();
}

RowId Table::next_row_id() const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  return next_row_id_;
}

void Table::AdvanceNextRowId(RowId next) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  if (next > next_row_id_) next_row_id_ = next;
}

void Table::SetNextRowId(RowId next) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  next_row_id_ = next;
}

Status Table::CreateIndex(const std::string& name,
                          const std::vector<std::string>& columns,
                          IndexKind kind) {
  if (columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }
  std::vector<size_t> positions;
  for (const std::string& column : columns) {
    std::optional<size_t> found = schema_.FindColumn(column);
    if (!found.has_value()) {
      return Status::NotFound("no column " + column + " in " +
                              schema_.name());
    }
    if (std::find(positions.begin(), positions.end(), *found) !=
        positions.end()) {
      return Status::InvalidArgument("duplicate index column " + column);
    }
    DataType type = schema_.column(*found).type;
    if (kind == IndexKind::kSpGist && type != DataType::kText &&
        type != DataType::kSequence) {
      return Status::InvalidArgument(
          "sequence index requires a TEXT or SEQUENCE column");
    }
    positions.push_back(*found);
  }
  if (kind == IndexKind::kSpGist && positions.size() != 1) {
    return Status::InvalidArgument("sequence index takes exactly one column");
  }
  if (FindIndex(name) != nullptr || FindSequenceIndex(name) != nullptr) {
    return Status::AlreadyExists("index " + name + " already exists on " +
                                 schema_.name());
  }
  if (kind == IndexKind::kSpGist) {
    const size_t column = positions.front();
    BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<SequenceIndex> index,
                           SequenceIndex::Create(name, column));
    BDBMS_RETURN_IF_ERROR(ScanAllVersions([&](RowId row_id, const Row& row) {
      return index->Insert(row[column], row_id);
    }));
    seq_indexes_.push_back(std::move(index));
  } else {
    BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<SecondaryIndex> index,
                           SecondaryIndex::Create(name, std::move(positions)));
    BDBMS_RETURN_IF_ERROR(ScanAllVersions([&](RowId row_id, const Row& row) {
      return index->Insert(row, row_id);
    }));
    indexes_.push_back(std::move(index));
  }
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, name] { (void)DropIndex(name); });
  }
  return Status::Ok();
}

// A dropped index is not destroyed while a writer is installed: the built
// object itself moves into the compensation closure (wrapped shared_ptr —
// std::function requires copyable captures) and moves back on rollback,
// so ROLLBACK never pays a full re-build scan. Commit discards the
// closure, which finally frees the index.
Status Table::DropIndex(const std::string& name) {
  MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr;
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if ((*it)->name() == name) {
      if (w != nullptr) {
        auto held = std::make_shared<std::unique_ptr<SecondaryIndex>>(
            std::move(*it));
        size_t pos = static_cast<size_t>(it - indexes_.begin());
        w->undo.push_back([this, held, pos] {
          size_t at = std::min(pos, indexes_.size());
          indexes_.insert(indexes_.begin() + static_cast<ptrdiff_t>(at),
                          std::move(*held));
        });
      }
      indexes_.erase(it);
      return Status::Ok();
    }
  }
  for (auto it = seq_indexes_.begin(); it != seq_indexes_.end(); ++it) {
    if ((*it)->name() == name) {
      if (w != nullptr) {
        auto held = std::make_shared<std::unique_ptr<SequenceIndex>>(
            std::move(*it));
        size_t pos = static_cast<size_t>(it - seq_indexes_.begin());
        w->undo.push_back([this, held, pos] {
          size_t at = std::min(pos, seq_indexes_.size());
          seq_indexes_.insert(
              seq_indexes_.begin() + static_cast<ptrdiff_t>(at),
              std::move(*held));
        });
      }
      seq_indexes_.erase(it);
      return Status::Ok();
    }
  }
  return Status::NotFound("no index " + name + " on " + schema_.name());
}

const SecondaryIndex* Table::FindIndex(const std::string& name) const {
  for (const auto& index : indexes_) {
    if (index->name() == name) return index.get();
  }
  return nullptr;
}

const SequenceIndex* Table::FindSequenceIndex(const std::string& name) const {
  for (const auto& index : seq_indexes_) {
    if (index->name() == name) return index.get();
  }
  return nullptr;
}

Status Table::CheckIndexable(const Row& row) const {
  for (const auto& index : seq_indexes_) {
    const Value& cell = row[index->column()];
    if (cell.is_null()) continue;
    if (cell.as_string().find('\0') != std::string::npos) {
      return Status::InvalidArgument(
          "sequence index " + index->name() +
          " cannot store values with embedded NUL bytes");
    }
  }
  return Status::Ok();
}

Status Table::IndexInsert(RowId row_id, const Row& row) {
  for (const auto& index : indexes_) {
    BDBMS_RETURN_IF_ERROR(index->Insert(row, row_id));
  }
  for (const auto& index : seq_indexes_) {
    BDBMS_RETURN_IF_ERROR(index->Insert(row[index->column()], row_id));
  }
  return Status::Ok();
}

Status Table::IndexRemove(RowId row_id, const Row& row) {
  Status first = Status::Ok();
  auto note = [&first](Status s) {
    if (first.ok()) first = std::move(s);
  };
  for (const auto& index : indexes_) note(index->Remove(row, row_id));
  for (const auto& index : seq_indexes_) {
    note(index->Remove(row[index->column()], row_id));
  }
  return first;
}

void Table::SetStats(TableStats stats) {
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, prior = stats_] { stats_ = prior; });
  }
  stats_ = std::move(stats);
}

Result<TableStats> Table::ComputeStats(size_t histogram_buckets) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  size_t ncols = schema_.num_columns();
  TableStats stats;
  stats.columns.resize(ncols);
  // Distinct non-null values per column (by encoded identity) and, for
  // columns that stay all-numeric, the raw values for the histogram pass.
  std::vector<std::set<std::string>> distinct(ncols);
  std::vector<std::vector<double>> numeric(ncols);
  std::vector<bool> all_numeric(ncols, true);
  BDBMS_RETURN_IF_ERROR(ScanLocked([&](RowId, const Row& row) {
    ++stats.row_count;
    for (size_t c = 0; c < ncols; ++c) {
      const Value& v = row[c];
      ColumnStats& col = stats.columns[c];
      if (v.is_null()) {
        ++col.null_count;
        continue;
      }
      ++col.non_null;
      std::string key;
      v.EncodeTo(&key);
      distinct[c].insert(std::move(key));
      if (!col.min.has_value() || v.Compare(*col.min) < 0) col.min = v;
      if (!col.max.has_value() || v.Compare(*col.max) > 0) col.max = v;
      if (v.is_numeric() && all_numeric[c]) {
        numeric[c].push_back(v.as_double());
      } else {
        all_numeric[c] = false;
      }
    }
    return Status::Ok();
  }));
  for (size_t c = 0; c < ncols; ++c) {
    ColumnStats& col = stats.columns[c];
    col.ndv = distinct[c].size();
    if (!all_numeric[c] || numeric[c].empty() || histogram_buckets == 0) {
      continue;
    }
    Histogram h;
    h.lo = *std::min_element(numeric[c].begin(), numeric[c].end());
    h.hi = *std::max_element(numeric[c].begin(), numeric[c].end());
    h.counts.assign(histogram_buckets, 0);
    double width = (h.hi - h.lo) / static_cast<double>(histogram_buckets);
    for (double v : numeric[c]) {
      size_t bucket =
          width > 0.0 ? static_cast<size_t>((v - h.lo) / width) : 0;
      if (bucket >= histogram_buckets) bucket = histogram_buckets - 1;
      ++h.counts[bucket];
    }
    h.total = numeric[c].size();
    col.histogram = std::move(h);
  }
  return stats;
}

}  // namespace bdbms
