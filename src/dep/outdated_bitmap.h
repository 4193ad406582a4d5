#ifndef BDBMS_DEP_OUTDATED_BITMAP_H_
#define BDBMS_DEP_OUTDATED_BITMAP_H_

#include <cstdint>
#include <map>

#include "catalog/schema.h"
#include "table/table.h"

namespace bdbms {

// The per-table outdated bitmap of paper Figure 10: one bit per cell,
// set when the cell's value may be invalid because something it was
// derived from changed and the derivation could not be re-executed.
//
// The bitmap is kept sparse (row -> column mask), and the checkpoint
// stores it that way. The run-length encoding the paper proposes lives
// beside the paper's other storage comparisons (outdated_bitmap_rle.h).
class OutdatedBitmap {
 public:
  explicit OutdatedBitmap(size_t num_columns) : num_columns_(num_columns) {}

  void Mark(RowId row, size_t col);
  void Clear(RowId row, size_t col);
  bool IsOutdated(RowId row, size_t col) const;

  // Column mask of outdated cells in `row` (0 when none).
  ColumnMask RowMask(RowId row) const;

  // All (row, mask) entries with at least one outdated cell.
  const std::map<RowId, ColumnMask>& entries() const { return marks_; }

  uint64_t CountOutdated() const;
  void ClearAll() { marks_.clear(); }

  size_t num_columns() const { return num_columns_; }

  // Raw bitmap bytes for `row_extent` rows: ceil(rows * cols / 8).
  uint64_t RawSizeBytes(RowId row_extent) const {
    return (row_extent * num_columns_ + 7) / 8;
  }

 private:
  size_t num_columns_;
  std::map<RowId, ColumnMask> marks_;
};

}  // namespace bdbms

#endif  // BDBMS_DEP_OUTDATED_BITMAP_H_
