#ifndef BDBMS_ANNOT_INTERVAL_INDEX_H_
#define BDBMS_ANNOT_INTERVAL_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "table/table.h"

namespace bdbms {

// Static augmented interval index over row intervals. Intervals are
// appended (and logically removed) freely; the search structure — the
// interval array sorted by begin plus an implicit segment tree of max
// ends — is rebuilt lazily on the first query after a modification.
// Point and range stabbing run in O(log n + k) once built.
//
// Mutators need exclusive access, but queries may run concurrently (the
// owning AnnotationTable holds only a shared latch for them): the lazy
// rebuild is serialized by a mutex behind an atomic dirty flag, so
// queries of a clean index take no lock.
//
// The annotation manager uses one per annotation table to find the regions
// covering a cell or row range without scanning every region.
class IntervalIndex {
 public:
  // Adds interval [begin, end] carrying `payload` (an annotation id).
  void Insert(RowId begin, RowId end, uint64_t payload);

  // Removes all intervals with this payload. O(n).
  void Erase(uint64_t payload);

  // Invokes fn(begin, end, payload) for every interval containing `row`.
  void QueryPoint(RowId row,
                  const std::function<void(RowId, RowId, uint64_t)>& fn) const;

  // Invokes fn for every interval overlapping [begin, end].
  void QueryRange(RowId begin, RowId end,
                  const std::function<void(RowId, RowId, uint64_t)>& fn) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    RowId begin;
    RowId end;
    uint64_t payload;
  };

  void RebuildIfNeeded() const;
  void BuildMaxTree(size_t node, size_t lo, size_t hi) const;
  void QueryRangeNode(
      size_t node, size_t lo, size_t hi, RowId begin, RowId end,
      const std::function<void(RowId, RowId, uint64_t)>& fn) const;

  std::vector<Entry> entries_;
  mutable std::atomic<bool> dirty_{false};
  mutable std::mutex rebuild_mu_;
  mutable std::vector<Entry> sorted_;   // sorted by begin
  mutable std::vector<RowId> max_end_;  // segment tree over sorted_
};

}  // namespace bdbms

#endif  // BDBMS_ANNOT_INTERVAL_INDEX_H_
