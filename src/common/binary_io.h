// Bounds-checked binary (de)serialization over std::string buffers.
//
// BinaryWriter appends fixed-width little-endian-as-stored fields (this
// codebase never ships buffers across architectures; byte order is the
// host's, the same convention ParameterSet::Serialize uses). BinaryReader
// is the hostile-input counterpart: every read validates the remaining
// byte count and returns a Status instead of walking past the end, and
// length-prefixed strings are capped so a corrupted length field cannot
// trigger a multi-gigabyte allocation.
#ifndef LIGHTTR_COMMON_BINARY_IO_H_
#define LIGHTTR_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.h"

namespace lighttr {

/// Appends fixed-width fields to an owned byte buffer.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { Append(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Append(&v, sizeof(v)); }
  void WriteF32(float v) { Append(&v, sizeof(v)); }
  void WriteF64(double v) { Append(&v, sizeof(v)); }

  /// Raw bytes, no length prefix.
  void WriteBytes(const void* data, size_t n) { Append(data, n); }

  /// u64 length prefix + bytes.
  void WriteString(const std::string& s) {
    WriteU64(static_cast<uint64_t>(s.size()));
    Append(s.data(), s.size());
  }

  const std::string& bytes() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  void Append(const void* data, size_t n) {
    buffer_.append(static_cast<const char*>(data), n);
  }

  std::string buffer_;
};

/// Reads fixed-width fields from a borrowed byte buffer; every read is
/// bounds-checked and failure leaves the cursor unmoved.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& data)
      : BinaryReader(data.data(), data.size()) {}
  /// Reads the first `size` bytes at `data` (a prefix of a larger
  /// buffer, without copying it).
  BinaryReader(const char* data, size_t size) : data_(data), size_(size) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return size_ - offset_; }
  bool AtEnd() const { return offset_ == size_; }

  [[nodiscard]] Status ReadU8(uint8_t* out) { return ReadRaw(out, sizeof(*out)); }
  [[nodiscard]] Status ReadU32(uint32_t* out) {
    return ReadRaw(out, sizeof(*out));
  }
  [[nodiscard]] Status ReadU64(uint64_t* out) {
    return ReadRaw(out, sizeof(*out));
  }
  [[nodiscard]] Status ReadI64(int64_t* out) {
    return ReadRaw(out, sizeof(*out));
  }
  [[nodiscard]] Status ReadF32(float* out) { return ReadRaw(out, sizeof(*out)); }
  [[nodiscard]] Status ReadF64(double* out) {
    return ReadRaw(out, sizeof(*out));
  }

  /// Raw bytes, no length prefix.
  [[nodiscard]] Status ReadBytes(void* out, size_t n) { return ReadRaw(out, n); }

  /// Inverse of WriteString. A declared length larger than the bytes
  /// actually present (or than `max_len`) is rejected before any
  /// allocation proportional to it.
  [[nodiscard]] Status ReadString(std::string* out,
                                  uint64_t max_len = kDefaultMaxStringLen) {
    uint64_t len = 0;
    LIGHTTR_RETURN_NOT_OK(ReadU64(&len));
    if (len > max_len) {
      offset_ -= sizeof(uint64_t);
      return Status::InvalidArgument("declared string length " +
                                     std::to_string(len) +
                                     " exceeds cap " + std::to_string(max_len));
    }
    if (len > remaining()) {
      offset_ -= sizeof(uint64_t);
      return Status::InvalidArgument("truncated buffer: declared length " +
                                     std::to_string(len) + ", " +
                                     std::to_string(remaining()) +
                                     " bytes remain");
    }
    out->assign(data_ + offset_, static_cast<size_t>(len));
    offset_ += static_cast<size_t>(len);
    return Status::Ok();
  }

  /// 1 GiB: far above any legitimate field in this codebase, far below
  /// what a hostile length prefix could otherwise demand.
  static constexpr uint64_t kDefaultMaxStringLen = 1ull << 30;

 private:
  [[nodiscard]] Status ReadRaw(void* out, size_t n) {
    if (n > remaining()) {
      return Status::InvalidArgument(
          "truncated buffer: need " + std::to_string(n) + " bytes at offset " +
          std::to_string(offset_) + ", have " + std::to_string(remaining()));
    }
    std::memcpy(out, data_ + offset_, n);
    offset_ += n;
    return Status::Ok();
  }

  const char* data_;
  size_t size_;
  size_t offset_ = 0;
};

}  // namespace lighttr

#endif  // LIGHTTR_COMMON_BINARY_IO_H_
