#ifndef BDBMS_DEP_OUTDATED_BITMAP_RLE_H_
#define BDBMS_DEP_OUTDATED_BITMAP_RLE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "dep/outdated_bitmap.h"

namespace bdbms {

// The run-length encoding the paper proposes for outdated bitmaps
// (Figure 10: "data compression techniques such as Run-Length-Encoding can
// be used to effectively compress the bitmaps"), for the storage
// comparison of experiment E3. The engine's checkpoint stores the sparse
// (row, mask) pairs instead.

// Row-major flattening of `bm` over rows [0, row_extent), RLE-compressed.
std::string SerializeOutdatedRle(const OutdatedBitmap& bm, RowId row_extent);

// Inverse of SerializeOutdatedRle.
Result<OutdatedBitmap> DeserializeOutdatedRle(std::string_view data,
                                              size_t num_columns);

}  // namespace bdbms

#endif  // BDBMS_DEP_OUTDATED_BITMAP_RLE_H_
