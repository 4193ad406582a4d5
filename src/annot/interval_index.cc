#include "annot/interval_index.h"

#include <algorithm>

namespace bdbms {

void IntervalIndex::Insert(RowId begin, RowId end, uint64_t payload) {
  entries_.push_back({begin, end, payload});
  dirty_ = true;
}

void IntervalIndex::Erase(uint64_t payload) {
  auto it = std::remove_if(
      entries_.begin(), entries_.end(),
      [payload](const Entry& e) { return e.payload == payload; });
  if (it != entries_.end()) {
    entries_.erase(it, entries_.end());
    dirty_ = true;
  }
}

void IntervalIndex::RebuildIfNeeded() const {
  if (!dirty_) return;
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  if (!dirty_) return;  // a concurrent query rebuilt it first
  sorted_ = entries_;
  std::sort(sorted_.begin(), sorted_.end(),
            [](const Entry& a, const Entry& b) { return a.begin < b.begin; });
  max_end_.assign(sorted_.empty() ? 0 : 4 * sorted_.size(), 0);
  if (!sorted_.empty()) BuildMaxTree(1, 0, sorted_.size() - 1);
  dirty_ = false;
}

void IntervalIndex::BuildMaxTree(size_t node, size_t lo, size_t hi) const {
  if (lo == hi) {
    max_end_[node] = sorted_[lo].end;
    return;
  }
  size_t mid = (lo + hi) / 2;
  BuildMaxTree(2 * node, lo, mid);
  BuildMaxTree(2 * node + 1, mid + 1, hi);
  max_end_[node] = std::max(max_end_[2 * node], max_end_[2 * node + 1]);
}

void IntervalIndex::QueryPoint(
    RowId row, const std::function<void(RowId, RowId, uint64_t)>& fn) const {
  QueryRange(row, row, fn);
}

void IntervalIndex::QueryRange(
    RowId begin, RowId end,
    const std::function<void(RowId, RowId, uint64_t)>& fn) const {
  RebuildIfNeeded();
  if (sorted_.empty()) return;
  QueryRangeNode(1, 0, sorted_.size() - 1, begin, end, fn);
}

void IntervalIndex::QueryRangeNode(
    size_t node, size_t lo, size_t hi, RowId begin, RowId end,
    const std::function<void(RowId, RowId, uint64_t)>& fn) const {
  // Prune: every interval in this subtree starts after the query range, or
  // none reaches the query start.
  if (sorted_[lo].begin > end) return;
  if (max_end_[node] < begin) return;
  if (lo == hi) {
    const Entry& e = sorted_[lo];
    if (e.begin <= end && begin <= e.end) fn(e.begin, e.end, e.payload);
    return;
  }
  size_t mid = (lo + hi) / 2;
  QueryRangeNode(2 * node, lo, mid, begin, end, fn);
  QueryRangeNode(2 * node + 1, mid + 1, hi, begin, end, fn);
}

}  // namespace bdbms
