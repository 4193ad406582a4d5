#ifndef BDBMS_INDEX_KEY_CODEC_H_
#define BDBMS_INDEX_KEY_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"

namespace bdbms {

// Order-preserving byte encoding of cell values for B+-tree index keys.
//
// The B+-tree compares keys as raw byte strings, so the codec must map the
// engine's value order onto memcmp order — including for *composite*
// (multi-column) keys, which are the concatenation of the per-component
// encodings. Each component is a one-byte type-rank tag (NULL < numeric <
// string, matching Value::Compare) followed by a rank-specific payload:
//   * NULL    — the tag alone
//   * INT     — big-endian two's complement with the sign bit flipped
//   * DOUBLE  — big-endian IEEE bits; negatives wholly inverted, positives
//               sign-flipped (the classic total-order trick)
//   * TEXT / SEQUENCE — the bytes with 0x00 escaped as 0x00 0xFF, closed by
//               a 0x00 0x01 terminator. The escape keeps the terminator
//               unambiguous, and the terminator makes every component
//               encoding prefix-free, so concatenating components preserves
//               lexicographic row order ("ab" < "abc" because the
//               terminator byte 0x00 sorts below every continuation).
void AppendIndexKey(std::string* out, const Value& v);

// Single-component convenience wrapper around AppendIndexKey.
std::string EncodeIndexKey(const Value& v);

// Concatenation of the component encodings of `values`.
std::string EncodeCompositeKey(const std::vector<Value>& values);

// Appends the *unterminated* string-component prefix for `prefix` (rank
// tag + escaped bytes, no terminator): every string component whose value
// starts with `prefix` encodes to a byte string starting with exactly
// these bytes — the probe prefix of a LIKE 'p%' ScanPrefix range.
void AppendStringKeyPrefix(std::string* out, std::string_view prefix);

// Smallest key of non-null rank — the lower fence that excludes NULLs
// (SQL comparisons never match NULL, so scans start above them).
std::string IndexKeyLowestNonNull();

// Upper fence above every encodable key (single- or multi-component).
std::string IndexKeyUpperFence();

// The least key strictly greater than every key that starts with `prefix`
// (byte-increment of the last non-0xFF byte); the global upper fence when
// no such key exists. Upper bound of prefix-probe ranges.
std::string IndexKeyPrefixUpperBound(std::string prefix);

}  // namespace bdbms

#endif  // BDBMS_INDEX_KEY_CODEC_H_
