// Portable binary (de)serialization for durable state.
//
// The event log and fleet snapshots must be byte-stable across runs and
// platforms: a recovered service proves itself by re-serializing to the
// exact bytes an uninterrupted run produces. Everything is therefore
// written explicitly little-endian with fixed widths — no struct dumps.
// On a little-endian host the in-memory representation already is the
// wire encoding, so scalars and f64/i64 arrays are copied in bulk there;
// any other host takes the per-byte path. Doubles travel as their
// IEEE-754 bit patterns, so values round-trip bit-exactly.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace vbatt::util::wire {

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `size` bytes.
/// check("123456789") == 0xCBF43926. Slice-by-8: eight bytes per step
/// through eight 256-entry tables built on first use. `seed` chains calls:
/// crc32(b, nb, crc32(a, na)) == crc32(a ++ b).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

/// Append-only byte sink. All integers little-endian, fixed width.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw_le(v); }
  void u64(std::uint64_t v) { raw_le(v); }
  void i64(std::int64_t v) { raw_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    raw_le(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& item) {
    u64(v.size());
    for (const T& x : v) item(*this, x);
  }
  void vec_f64(std::span<const double> v) { bulk(v); }
  void vec_i64(std::span<const std::int64_t> v) { bulk(v); }
  void vec_int(const std::vector<int>& v) {
    vec(v, [](Writer& w, int x) { w.i64(x); });
  }
  void vec_u8(const std::vector<char>& v) {
    u64(v.size());
    out_.append(v.data(), v.size());
  }

  const std::string& data() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  template <typename T>
  void raw_le(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      out_.append(reinterpret_cast<const char*>(&v), sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
      }
    }
  }
  /// u64 count, then each 8-byte element little-endian.
  template <typename T>
  void bulk(std::span<const T> v) {
    static_assert(sizeof(T) == 8);
    u64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
      if (!v.empty()) {
        out_.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
      }
    } else {
      for (const T x : v) {
        std::uint64_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        raw_le(bits);
      }
    }
  }
  std::string out_;
};

/// Bounds-checked reader over a byte span. Throws std::runtime_error on
/// truncation — durable-state consumers turn that into a recovery decision
/// (drop the torn tail) or a named refusal, never into UB.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_{data} {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(raw_le(4)); }
  std::uint64_t u64() { return raw_le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(raw_le(8)); }
  double f64() {
    const std::uint64_t bits = raw_le(8);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t n = count(1);
    const std::string_view s = take(n);
    return std::string{s};
  }

  /// Read an element count and check that `n` items of at least
  /// `item_bytes` bytes each fit in the remaining input, so a corrupt
  /// count is a named error before anything is reserved for it.
  std::uint64_t count(std::size_t item_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / item_bytes) {
      throw std::runtime_error{"wire::Reader: count exceeds input"};
    }
    return n;
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& item) {
    const std::uint64_t n = count(1);
    std::vector<T> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(item(*this));
    return v;
  }
  std::vector<double> vec_f64() { return bulk<double>(); }
  std::vector<std::int64_t> vec_i64() { return bulk<std::int64_t>(); }
  std::vector<int> vec_int() {
    const std::uint64_t n = count(8);
    std::vector<int> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(static_cast<int>(i64()));
    return v;
  }
  std::vector<char> vec_u8() {
    const std::uint64_t n = count(1);
    const std::string_view s = take(n);
    return std::vector<char>{s.begin(), s.end()};
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }
  std::size_t position() const noexcept { return pos_; }

 private:
  std::string_view take(std::size_t n) {
    if (remaining() < n) {
      throw std::runtime_error{"wire::Reader: truncated input"};
    }
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  std::uint64_t raw_le(std::size_t width) {
    const std::string_view s = take(width);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[i]))
           << (8 * i);
    }
    return v;
  }
  /// Inverse of Writer::bulk.
  template <typename T>
  std::vector<T> bulk() {
    static_assert(sizeof(T) == 8);
    const std::uint64_t n = count(8);
    std::vector<T> v(n);
    if constexpr (std::endian::native == std::endian::little) {
      const std::string_view s = take(n * 8);
      if (n != 0) std::memcpy(v.data(), s.data(), s.size());
    } else {
      for (T& x : v) {
        const std::uint64_t bits = raw_le(8);
        std::memcpy(&x, &bits, sizeof x);
      }
    }
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace vbatt::util::wire
