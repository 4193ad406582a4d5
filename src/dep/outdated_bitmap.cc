#include "dep/outdated_bitmap.h"

namespace bdbms {

void OutdatedBitmap::Mark(RowId row, size_t col) {
  marks_[row] |= ColumnBit(col);
}

void OutdatedBitmap::Clear(RowId row, size_t col) {
  auto it = marks_.find(row);
  if (it == marks_.end()) return;
  it->second &= ~ColumnBit(col);
  if (it->second == 0) marks_.erase(it);
}

bool OutdatedBitmap::IsOutdated(RowId row, size_t col) const {
  auto it = marks_.find(row);
  return it != marks_.end() && (it->second & ColumnBit(col)) != 0;
}

ColumnMask OutdatedBitmap::RowMask(RowId row) const {
  auto it = marks_.find(row);
  return it == marks_.end() ? 0 : it->second;
}

uint64_t OutdatedBitmap::CountOutdated() const {
  uint64_t n = 0;
  for (const auto& [row, mask] : marks_) {
    n += static_cast<uint64_t>(__builtin_popcountll(mask));
  }
  return n;
}

}  // namespace bdbms
