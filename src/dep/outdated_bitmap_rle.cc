#include "dep/outdated_bitmap_rle.h"

#include <vector>

#include "common/rle.h"

namespace bdbms {

std::string SerializeOutdatedRle(const OutdatedBitmap& bm, RowId row_extent) {
  const size_t cols = bm.num_columns();
  std::vector<bool> bits(row_extent * cols, false);
  for (const auto& [row, mask] : bm.entries()) {
    if (row >= row_extent) continue;
    for (size_t col = 0; col < cols; ++col) {
      if (mask & ColumnBit(col)) bits[row * cols + col] = true;
    }
  }
  std::string out;
  BitRle::Serialize(BitRle::Encode(bits), &out);
  return out;
}

Result<OutdatedBitmap> DeserializeOutdatedRle(std::string_view data,
                                              size_t num_columns) {
  if (num_columns == 0) {
    return Status::InvalidArgument("bitmap needs at least one column");
  }
  BDBMS_ASSIGN_OR_RETURN(std::vector<uint32_t> runs, BitRle::Deserialize(data));
  std::vector<bool> bits = BitRle::Decode(runs);
  OutdatedBitmap bm(num_columns);
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) bm.Mark(i / num_columns, i % num_columns);
  }
  return bm;
}

}  // namespace bdbms
