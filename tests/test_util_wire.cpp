// util::wire pins: the slice-by-8 CRC against a frozen copy of the
// byte-table loop it replaced, and the bulk little-endian vector paths
// against the byte layout the per-byte encoder writes.
#include "vbatt/util/wire.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "vbatt/util/rng.h"

namespace vbatt::util::wire {
namespace {

/// The byte-at-a-time CRC-32 loop `crc32` used before slicing, frozen.
std::uint32_t frozen_crc32(const void* data, std::size_t size,
                           std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// Little-endian bytes of `bits`, one at a time (the portable encoding).
void put_le(std::string& out, std::uint64_t bits) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

TEST(UtilWire, Crc32CheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(UtilWire, Crc32MatchesFrozenByteTableLoop) {
  Rng rng{0x5eedc0de};
  std::vector<unsigned char> buffer(4099 + 8);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng.next());
  for (int round = 0; round < 600; ++round) {
    // Lengths span 0-4099 and every tail size; offsets are unaligned.
    const std::size_t size =
        round < 64 ? static_cast<std::size_t>(round) : rng.below(4100);
    const std::size_t offset = rng.below(8);
    const auto seed = round % 3 == 0 ? 0u
                                     : static_cast<std::uint32_t>(rng.next());
    const unsigned char* data = buffer.data() + offset;
    ASSERT_EQ(crc32(data, size, seed), frozen_crc32(data, size, seed))
        << "size " << size << " offset " << offset << " seed " << seed;
  }
}

TEST(UtilWire, Crc32ChainsAcrossCalls) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::uint32_t head = crc32(text.data(), cut);
    EXPECT_EQ(crc32(text.data() + cut, text.size() - cut, head),
              crc32(text.data(), text.size()))
        << "cut " << cut;
  }
}

TEST(UtilWire, BulkVectorsRoundTripBitwise) {
  const std::vector<std::uint64_t> f64_bits = {
      0x0000000000000000ull,  // +0.0
      0x8000000000000000ull,  // -0.0
      0x7FF8000000000000ull,  // quiet NaN
      0x7FF8DEADBEEF0001ull,  // quiet NaN with a payload
      0xFFF0000000000001ull,  // negative signalling-pattern NaN
      0x7FF0000000000000ull,  // +inf
      0x0000000000000001ull,  // smallest subnormal
      0x3FF0000000000001ull,  // 1 + ulp
      0xC00921FB54442D18ull,  // -pi
  };
  std::vector<double> doubles;
  for (const std::uint64_t bits : f64_bits) {
    double v;
    std::memcpy(&v, &bits, sizeof v);
    doubles.push_back(v);
  }
  const std::vector<std::int64_t> ints = {
      0, -1, 1, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(), 0x0102030405060708};

  Writer w;
  w.vec_f64(doubles);
  w.vec_i64(ints);
  w.vec_f64({});

  // The bytes are exactly the per-byte little-endian encoding.
  std::string want;
  put_le(want, doubles.size());
  for (const std::uint64_t bits : f64_bits) put_le(want, bits);
  put_le(want, ints.size());
  for (const std::int64_t v : ints) put_le(want, static_cast<std::uint64_t>(v));
  put_le(want, 0);
  ASSERT_EQ(w.data(), want);

  Reader r{w.data()};
  const std::vector<double> back = r.vec_f64();
  ASSERT_EQ(back.size(), doubles.size());
  EXPECT_EQ(std::memcmp(back.data(), doubles.data(),
                        doubles.size() * sizeof(double)),
            0);
  EXPECT_EQ(r.vec_i64(), ints);
  EXPECT_TRUE(r.vec_f64().empty());
  EXPECT_TRUE(r.done());
}

TEST(UtilWire, BulkReadChecksBytesNotElements) {
  // A count of 10 elements with 16 bytes left: 10 <= 16, but the payload
  // needs 80 bytes. The reader must refuse the count itself.
  std::string bytes;
  put_le(bytes, 10);
  bytes.append(16, '\0');
  for (const int which : {0, 1, 2}) {
    Reader r{bytes};
    try {
      if (which == 0) (void)r.vec_f64();
      if (which == 1) (void)r.vec_i64();
      if (which == 2) (void)r.vec_int();
      FAIL() << "an over-long count was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "wire::Reader: count exceeds input");
    }
  }
  // A count near 2^64 must not overflow the byte check.
  std::string huge;
  put_le(huge, std::numeric_limits<std::uint64_t>::max() / 4);
  huge.append(64, '\0');
  Reader r{huge};
  EXPECT_THROW((void)r.vec_f64(), std::runtime_error);
}

}  // namespace
}  // namespace vbatt::util::wire
