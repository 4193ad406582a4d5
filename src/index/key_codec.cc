#include "index/key_codec.h"

#include <cstring>

namespace bdbms {

namespace {

constexpr char kRankNull = '\x00';
constexpr char kRankNumeric = '\x01';
constexpr char kRankString = '\x02';
constexpr char kRankFence = '\x03';

constexpr char kEscape = '\x00';
constexpr char kEscapedNul = '\xFF';
constexpr char kTerminator = '\x01';

void AppendBigEndian(std::string* out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    out->push_back(c);
    if (c == kEscape) out->push_back(kEscapedNul);
  }
}

}  // namespace

void AppendIndexKey(std::string* out, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      out->push_back(kRankNull);
      break;
    case DataType::kInt: {
      out->push_back(kRankNumeric);
      uint64_t bits = static_cast<uint64_t>(v.as_int());
      AppendBigEndian(out, bits ^ (uint64_t{1} << 63));
      break;
    }
    case DataType::kDouble: {
      out->push_back(kRankNumeric);
      double d = v.as_double();
      if (d == 0.0) d = 0.0;  // -0.0 == +0.0 must share one key
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      if (bits & (uint64_t{1} << 63)) {
        bits = ~bits;  // negative: reverse the order of magnitudes
      } else {
        bits ^= uint64_t{1} << 63;  // positive: above all negatives
      }
      AppendBigEndian(out, bits);
      break;
    }
    case DataType::kText:
    case DataType::kSequence:
      out->push_back(kRankString);
      AppendEscaped(out, v.as_string());
      out->push_back(kEscape);
      out->push_back(kTerminator);
      break;
  }
}

std::string EncodeIndexKey(const Value& v) {
  std::string key;
  AppendIndexKey(&key, v);
  return key;
}

std::string EncodeCompositeKey(const std::vector<Value>& values) {
  std::string key;
  for (const Value& v : values) AppendIndexKey(&key, v);
  return key;
}

void AppendStringKeyPrefix(std::string* out, std::string_view prefix) {
  out->push_back(kRankString);
  AppendEscaped(out, prefix);
}

std::string IndexKeyLowestNonNull() { return std::string(1, kRankNumeric); }

std::string IndexKeyUpperFence() { return std::string(1, kRankFence); }

std::string IndexKeyPrefixUpperBound(std::string prefix) {
  while (!prefix.empty() &&
         static_cast<unsigned char>(prefix.back()) == 0xFF) {
    prefix.pop_back();
  }
  if (prefix.empty()) return IndexKeyUpperFence();
  prefix.back() = static_cast<char>(
      static_cast<unsigned char>(prefix.back()) + 1);
  return prefix;
}

}  // namespace bdbms
