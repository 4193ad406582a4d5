#ifndef BDBMS_WAL_SERIALIZER_H_
#define BDBMS_WAL_SERIALIZER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/value.h"

namespace bdbms {

// Little-endian byte-stream writer used for WAL frame payloads and the
// checkpoint snapshot. Fixed-width integers keep the format independent of
// host struct layout; strings are u32-length-prefixed.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    AppendLe(bits);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }
  void Val(const Value& v) { v.EncodeTo(out_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    char buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    out_->append(buf, sizeof(T));
  }

  std::string* out_;
};

// Matching reader. Every accessor is bounds-checked and returns Corruption
// on truncated input, so a damaged checkpoint or WAL payload is reported
// rather than read out of bounds.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8() {
    BDBMS_RETURN_IF_ERROR(Need(1));
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint32_t> U32() { return ReadLe<uint32_t>(); }
  Result<uint64_t> U64() { return ReadLe<uint64_t>(); }
  Result<int64_t> I64() {
    BDBMS_ASSIGN_OR_RETURN(uint64_t v, ReadLe<uint64_t>());
    return static_cast<int64_t>(v);
  }
  Result<double> F64() {
    BDBMS_ASSIGN_OR_RETURN(uint64_t bits, ReadLe<uint64_t>());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  Result<std::string> Str() {
    BDBMS_ASSIGN_OR_RETURN(uint32_t len, U32());
    BDBMS_RETURN_IF_ERROR(Need(len));
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }
  Result<Value> Val() { return Value::DecodeFrom(data_, &pos_); }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n) const {
    if (data_.size() - pos_ < n) {
      return Status::Corruption("serialized payload truncated at offset " +
                                std::to_string(pos_));
    }
    return Status::Ok();
  }

  template <typename T>
  Result<T> ReadLe() {
    BDBMS_RETURN_IF_ERROR(Need(sizeof(T)));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace bdbms

#endif  // BDBMS_WAL_SERIALIZER_H_
