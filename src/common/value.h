#ifndef BDBMS_COMMON_VALUE_H_
#define BDBMS_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"

namespace bdbms {

// Column data types supported by the engine. Biological payloads (gene and
// protein sequences, annotation bodies) are kText; kSequence marks columns
// the storage layer may keep RLE-compressed.
enum class DataType : uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kText = 3,
  kSequence = 4,  // text payload flagged as a biological sequence
};

std::string_view DataTypeName(DataType t);

// A dynamically typed cell value. Total order used across the engine:
// NULL < numeric (int/double compared numerically) < text/sequence
// (lexicographic). This matches the comparison the executor, indexes and
// tuple codec all rely on.
class Value {
 public:
  Value() : type_(DataType::kNull) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value x;
    x.type_ = DataType::kInt;
    x.data_ = v;
    return x;
  }
  static Value Double(double v) {
    Value x;
    x.type_ = DataType::kDouble;
    x.data_ = v;
    return x;
  }
  static Value Text(std::string v) {
    Value x;
    x.type_ = DataType::kText;
    x.data_ = std::move(v);
    return x;
  }
  static Value Sequence(std::string v) {
    Value x;
    x.type_ = DataType::kSequence;
    x.data_ = std::move(v);
    return x;
  }

  DataType type() const { return type_; }
  bool is_null() const { return type_ == DataType::kNull; }
  bool is_numeric() const {
    return type_ == DataType::kInt || type_ == DataType::kDouble;
  }
  bool is_string() const {
    return type_ == DataType::kText || type_ == DataType::kSequence;
  }

  // Accessors; type must match (is_numeric()/is_string()).
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const {
    return type_ == DataType::kInt
               ? static_cast<double>(std::get<int64_t>(data_))
               : std::get<double>(data_);
  }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  // Three-way comparison under the engine's total order (see class docs).
  // Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  // SQL-literal style rendering: NULL, 42, 3.14, 'text'.
  std::string ToString() const;
  // Raw rendering without quoting (used for CSV-ish output).
  std::string ToDisplayString() const;

  // Binary (de)serialization, appended to / read from a byte buffer.
  void EncodeTo(std::string* out) const;
  static Result<Value> DecodeFrom(std::string_view data, size_t* offset);

  // Coerces this value to the declared column type. Int->Double widening
  // and Text<->Sequence relabeling are allowed; anything else errs.
  Result<Value> CoerceTo(DataType target) const;

 private:
  DataType type_;
  std::variant<int64_t, double, std::string> data_;
};

using Row = std::vector<Value>;

}  // namespace bdbms

#endif  // BDBMS_COMMON_VALUE_H_
