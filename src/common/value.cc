#include "common/value.h"

#include <cmath>
#include <cstring>

namespace bdbms {

namespace {

// Rank of each type in the cross-type total order.
int TypeRank(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kInt:
    case DataType::kDouble:
      return 1;
    case DataType::kText:
    case DataType::kSequence:
      return 2;
  }
  return 3;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

Result<uint64_t> ReadU64(std::string_view data, size_t* offset) {
  if (*offset + 8 > data.size()) {
    return Status::Corruption("value decode: truncated u64");
  }
  uint64_t v;
  std::memcpy(&v, data.data() + *offset, 8);
  *offset += 8;
  return v;
}

}  // namespace

std::string_view DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt:
      return "INT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kText:
      return "TEXT";
    case DataType::kSequence:
      return "SEQUENCE";
  }
  return "UNKNOWN";
}

int Value::Compare(const Value& other) const {
  int ra = TypeRank(type_), rb = TypeRank(other.type_);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;  // NULL == NULL for ordering purposes
    case 1: {
      if (type_ == DataType::kInt && other.type_ == DataType::kInt) {
        int64_t a = as_int(), b = other.as_int();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      double a = as_double(), b = other.as_double();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: {
      int c = as_string().compare(other.as_string());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

std::string Value::ToString() const {
  switch (type_) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt:
      return std::to_string(as_int());
    case DataType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", std::get<double>(data_));
      return buf;
    }
    default: {
      std::string out = "'";
      for (char c : as_string()) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
  }
}

std::string Value::ToDisplayString() const {
  switch (type_) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt:
      return std::to_string(as_int());
    case DataType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", std::get<double>(data_));
      return buf;
    }
    default:
      return as_string();
  }
}

void Value::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type_));
  switch (type_) {
    case DataType::kNull:
      break;
    case DataType::kInt:
      AppendU64(out, static_cast<uint64_t>(as_int()));
      break;
    case DataType::kDouble: {
      double d = std::get<double>(data_);
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      AppendU64(out, bits);
      break;
    }
    default: {
      const std::string& s = as_string();
      AppendU64(out, s.size());
      out->append(s);
      break;
    }
  }
}

Result<Value> Value::DecodeFrom(std::string_view data, size_t* offset) {
  if (*offset >= data.size()) {
    return Status::Corruption("value decode: truncated type tag");
  }
  DataType t = static_cast<DataType>(data[*offset]);
  ++*offset;
  switch (t) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kInt: {
      BDBMS_ASSIGN_OR_RETURN(uint64_t bits, ReadU64(data, offset));
      return Value::Int(static_cast<int64_t>(bits));
    }
    case DataType::kDouble: {
      BDBMS_ASSIGN_OR_RETURN(uint64_t bits, ReadU64(data, offset));
      double d;
      std::memcpy(&d, &bits, 8);
      return Value::Double(d);
    }
    case DataType::kText:
    case DataType::kSequence: {
      BDBMS_ASSIGN_OR_RETURN(uint64_t len, ReadU64(data, offset));
      if (*offset + len > data.size()) {
        return Status::Corruption("value decode: truncated string payload");
      }
      std::string s(data.substr(*offset, len));
      *offset += len;
      return t == DataType::kText ? Value::Text(std::move(s))
                                  : Value::Sequence(std::move(s));
    }
    default:
      return Status::Corruption("value decode: bad type tag");
  }
}

Result<Value> Value::CoerceTo(DataType target) const {
  if (type_ == target || is_null()) return *this;
  switch (target) {
    case DataType::kDouble:
      if (type_ == DataType::kInt) return Value::Double(as_double());
      break;
    case DataType::kInt:
      if (type_ == DataType::kDouble) {
        double d = std::get<double>(data_);
        if (d == std::floor(d)) return Value::Int(static_cast<int64_t>(d));
      }
      break;
    case DataType::kText:
      if (type_ == DataType::kSequence) return Value::Text(as_string());
      break;
    case DataType::kSequence:
      if (type_ == DataType::kText) return Value::Sequence(as_string());
      break;
    default:
      break;
  }
  return Status::InvalidArgument(
      std::string("cannot coerce ") + std::string(DataTypeName(type_)) +
      " to " + std::string(DataTypeName(target)));
}

}  // namespace bdbms
