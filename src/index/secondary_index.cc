#include "index/secondary_index.h"

#include <algorithm>

#include "index/key_codec.h"

namespace bdbms {

Result<std::unique_ptr<SecondaryIndex>> SecondaryIndex::Create(
    std::string name, std::vector<size_t> columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<BPlusTree> tree,
                         BPlusTree::CreateInMemory());
  return std::unique_ptr<SecondaryIndex>(new SecondaryIndex(
      std::move(name), std::move(columns), std::move(tree)));
}

std::string SecondaryIndex::KeyOf(const Row& row) const {
  std::string key;
  for (size_t c : columns_) AppendIndexKey(&key, row[c]);
  return key;
}

Status SecondaryIndex::Insert(const Row& row, RowId row_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return tree_->Insert(KeyOf(row), row_id);
}

Status SecondaryIndex::Remove(const Row& row, RowId row_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return tree_->Delete(KeyOf(row), row_id);
}

Result<std::vector<RowId>> SecondaryIndex::Find(
    const IndexProbe& probe) const {
  std::vector<RowId> rows;
  // Equality with NULL is never true; such probes match nothing.
  for (const Value& v : probe.eq) {
    if (v.is_null()) return rows;
  }
  if ((probe.lo.has_value() && probe.lo->value.is_null()) ||
      (probe.hi.has_value() && probe.hi->value.is_null())) {
    return rows;
  }
  std::string prefix = EncodeCompositeKey(probe.eq);
  std::string lo_key, hi_key;
  if (probe.like_prefix.has_value()) {
    lo_key = prefix;
    AppendStringKeyPrefix(&lo_key, *probe.like_prefix);
    hi_key = IndexKeyPrefixUpperBound(lo_key);
  } else if (probe.lo.has_value() || probe.hi.has_value()) {
    // A range on the column after the equality prefix. An inclusive side
    // must take every key whose *component* equals the bound, whatever
    // the later components hold (a successor byte would miss a NULL
    // continuation, which encodes as the very byte the successor appends)
    // — hence the prefix-upper-bound of the component encoding. Absent
    // bounds fall to the fences: above NULLs on the low side (SQL
    // comparisons never match NULL), past every key with this prefix on
    // the high side.
    if (probe.lo.has_value()) {
      lo_key = prefix + EncodeIndexKey(probe.lo->value);
      if (!probe.lo->inclusive) lo_key = IndexKeyPrefixUpperBound(lo_key);
    } else {
      lo_key = prefix + IndexKeyLowestNonNull();
    }
    if (probe.hi.has_value()) {
      hi_key = prefix + EncodeIndexKey(probe.hi->value);
      if (probe.hi->inclusive) hi_key = IndexKeyPrefixUpperBound(hi_key);
    } else {
      hi_key = IndexKeyPrefixUpperBound(prefix);
    }
  } else {
    // Pure prefix equality (or, with no equalities at all, a full-index
    // scan). Unconstrained trailing columns may hold anything, NULLs
    // included, so no low fence applies beyond the prefix itself.
    lo_key = prefix;
    hi_key = IndexKeyPrefixUpperBound(prefix);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    BDBMS_RETURN_IF_ERROR(
        tree_->ScanRange(lo_key, hi_key, [&](std::string_view, RowId row) {
          rows.push_back(row);
          return true;
        }));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool ProbeMatchesEquality(DataType key_type, DataType column_type) {
  if (key_type == DataType::kInt) return column_type == DataType::kInt;
  if (key_type == DataType::kText || key_type == DataType::kSequence) {
    return column_type == DataType::kText ||
           column_type == DataType::kSequence;
  }
  return false;
}

Result<std::vector<RowId>> SecondaryIndex::FindEqual(
    const Value& probe) const {
  if (probe.is_null()) return std::vector<RowId>{};
  IndexProbe p;
  p.eq.push_back(probe);
  return Find(p);
}

}  // namespace bdbms
