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

uint64_t ReadBigEndian(std::string_view data) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<unsigned char>(data[i]);
  }
  return v;
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

Result<std::vector<Value>> DecodeCompositeKey(
    std::string_view key, const std::vector<DataType>& types) {
  std::vector<Value> values;
  values.reserve(types.size());
  size_t off = 0;
  for (DataType type : types) {
    if (off >= key.size()) return Status::Corruption("index key too short");
    char rank = key[off++];
    if (rank == kRankNull) {
      values.push_back(Value::Null());
      continue;
    }
    if (rank == kRankNumeric) {
      if (off + 8 > key.size()) {
        return Status::Corruption("truncated numeric index key component");
      }
      uint64_t bits = ReadBigEndian(key.substr(off, 8));
      off += 8;
      if (type == DataType::kInt) {
        values.push_back(
            Value::Int(static_cast<int64_t>(bits ^ (uint64_t{1} << 63))));
      } else if (type == DataType::kDouble) {
        if (bits & (uint64_t{1} << 63)) {
          bits ^= uint64_t{1} << 63;  // positive: undo the sign flip
        } else {
          bits = ~bits;  // negative: undo the full inversion
        }
        double d;
        std::memcpy(&d, &bits, 8);
        values.push_back(Value::Double(d));
      } else {
        return Status::Corruption("numeric index key for a string column");
      }
      continue;
    }
    if (rank == kRankString) {
      if (type != DataType::kText && type != DataType::kSequence) {
        return Status::Corruption("string index key for a numeric column");
      }
      std::string s;
      bool closed = false;
      while (off < key.size()) {
        char c = key[off++];
        if (c != kEscape) {
          s.push_back(c);
          continue;
        }
        if (off >= key.size()) break;  // dangling escape: corrupt
        char next = key[off++];
        if (next == kTerminator) {
          closed = true;
          break;
        }
        if (next != kEscapedNul) {
          return Status::Corruption("bad escape in string index key");
        }
        s.push_back(kEscape);
      }
      if (!closed) {
        return Status::Corruption("unterminated string index key component");
      }
      values.push_back(type == DataType::kText
                           ? Value::Text(std::move(s))
                           : Value::Sequence(std::move(s)));
      continue;
    }
    return Status::Corruption("unknown index key rank tag");
  }
  if (off != key.size()) {
    return Status::Corruption("trailing bytes after index key components");
  }
  return values;
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
