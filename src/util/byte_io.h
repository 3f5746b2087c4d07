// Chunked byte writer and reader for the binary model formats (FUMEDARE
// forests, FUMESHRD sharded containers, FUMESTRM stream checkpoints).
//
// Both sides speak native little-endian PODs; the formats are internal
// artifacts, not a cross-platform interchange format.
//
// ByteWriter appends small fields with memcpy into a fixed 64 KiB buffer and
// hands the std::ostream one large write per full buffer, so an image of
// millions of fields costs a few dozen stream calls instead of one per
// field. Spans larger than the buffer go straight through. The buffer is
// deliberately not the whole image: a checkpoint is several MB, and holding
// it twice (model + image) would show up in peak RSS.
//
// ByteReader reads through the stream's buffer (std::streambuf::sgetn, no
// istream sentry per field) and never reads past what it is asked for, so a
// decoder can hand the same stream to a nested decoder. Where the stream can
// report its size it tracks the bytes that remain, so a corrupt length field
// is rejected before anything is allocated for it; otherwise arrays grow in
// bounded steps as their bytes actually arrive.

#ifndef FUME_UTIL_BYTE_IO_H_
#define FUME_UTIL_BYTE_IO_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace fume {

class ByteWriter {
 public:
  static constexpr size_t kBufferBytes = size_t{64} << 10;

  explicit ByteWriter(std::ostream* out)
      : out_(out), buf_(new char[kBufferBytes]) {}
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;
  /// Flushes whatever is still buffered.
  ~ByteWriter() { Flush(); }

  template <typename T>
  void Pod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (len_ + sizeof(T) > kBufferBytes) Flush();
    std::memcpy(buf_.get() + len_, &value, sizeof(T));
    len_ += sizeof(T);
  }

  void Bytes(const void* data, size_t n) {
    if (n >= kBufferBytes) {
      Flush();
      out_->write(static_cast<const char*>(data),
                  static_cast<std::streamsize>(n));
      return;
    }
    if (len_ + n > kBufferBytes) Flush();
    std::memcpy(buf_.get() + len_, data, n);
    len_ += n;
  }

  template <typename T>
  void Span(const T* data, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(data, n * sizeof(T));
  }

  /// u64 element count, then the elements.
  template <typename T>
  void Vec(const std::vector<T>& v) {
    Pod<uint64_t>(v.size());
    Span(v.data(), v.size());
  }

  /// Hands the buffered bytes to the stream (before another encoder writes
  /// to the same stream directly, or to check the stream's state).
  void Flush() {
    if (len_ == 0) return;
    out_->write(buf_.get(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }

  /// Flushes and reports whether every write so far succeeded.
  bool Finish() {
    Flush();
    return static_cast<bool>(*out_);
  }

 private:
  std::ostream* out_;
  std::unique_ptr<char[]> buf_;
  size_t len_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(std::istream* in) : buf_(in->rdbuf()) {
    if (buf_ == nullptr || !*in) {
      failed_ = true;
      return;
    }
    const auto here = buf_->pubseekoff(0, std::ios::cur, std::ios::in);
    if (here == std::streampos(-1)) return;
    const auto end = buf_->pubseekoff(0, std::ios::end, std::ios::in);
    if (end == std::streampos(-1) ||
        buf_->pubseekpos(here, std::ios::in) != here) {
      failed_ = true;
      return;
    }
    remaining_ = static_cast<int64_t>(end - here);
  }

  /// Whether `bytes` more bytes can still be present: always true when the
  /// stream cannot report its size.
  bool Fits(uint64_t bytes) const {
    return remaining_ < 0 || bytes <= static_cast<uint64_t>(remaining_);
  }

  bool Bytes(void* data, size_t n) {
    if (failed_ || !Fits(n)) return Fail();
    if (n > 0 &&
        buf_->sgetn(static_cast<char*>(data),
                    static_cast<std::streamsize>(n)) !=
            static_cast<std::streamsize>(n)) {
      return Fail();
    }
    if (remaining_ >= 0) remaining_ -= static_cast<int64_t>(n);
    return true;
  }

  template <typename T>
  bool Pod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Bytes(value, sizeof(T));
  }

  /// Reads `n` elements into `v` (a std::vector or std::string, replacing
  /// its contents). Allocates only what the stream can still hold: all at
  /// once when its size is known, else in steps of at most 1 MiB as the
  /// bytes arrive.
  template <typename Container>
  bool Array(Container* v, uint64_t n) {
    using T = typename Container::value_type;
    static_assert(std::is_trivially_copyable_v<T>);
    v->clear();
    if (n > kMaxElements / sizeof(T) || !Fits(n * sizeof(T))) return Fail();
    if (remaining_ >= 0) {
      v->resize(static_cast<size_t>(n));
      return Bytes(v->data(), static_cast<size_t>(n) * sizeof(T));
    }
    constexpr uint64_t kStep = (uint64_t{1} << 20) / sizeof(T);
    while (v->size() < n) {
      const size_t done = v->size();
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(n - done, kStep));
      v->resize(done + take);
      if (!Bytes(v->data() + done, take * sizeof(T))) return false;
    }
    return true;
  }

  /// u64 element count (at most `max_size`), then the elements.
  template <typename Container>
  bool Vec(Container* v, uint64_t max_size) {
    uint64_t n = 0;
    if (!Pod(&n)) return false;
    if (n > max_size) return Fail();
    return Array(v, n);
  }

 private:
  static constexpr uint64_t kMaxElements = uint64_t{1} << 40;

  bool Fail() {
    failed_ = true;
    return false;
  }

  std::streambuf* buf_;
  int64_t remaining_ = -1;
  bool failed_ = false;
};

}  // namespace fume

#endif  // FUME_UTIL_BYTE_IO_H_
