#include "errors/error.hpp"
#include "protocol/bitcodec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace ivt::protocol {
namespace {

/// The bit-at-a-time layout walk the byte-wise codec must agree with:
/// Intel fields take bits start, start+1, ... (LSB first); Motorola
/// fields start at their MSB and move towards each byte's LSB, wrapping
/// to bit 7 of the next byte.
std::uint16_t reference_motorola_next(std::uint16_t bit) {
  return static_cast<std::uint16_t>(bit % 8 == 0 ? bit + 15 : bit - 1);
}

bool reference_fits(std::size_t size, std::uint16_t start,
                    std::uint16_t length, ByteOrder order) {
  if (length == 0 || length > 64) return false;
  if (order == ByteOrder::Intel) return start + length <= size * 8;
  std::uint16_t bit = start;
  for (std::uint16_t i = 0; i < length; ++i) {
    if (bit >= size * 8) return false;
    if (i + 1 < length) bit = reference_motorola_next(bit);
  }
  return true;
}

std::uint64_t reference_extract(const std::vector<std::uint8_t>& payload,
                                std::uint16_t start, std::uint16_t length,
                                ByteOrder order) {
  std::uint64_t value = 0;
  std::uint16_t bit = start;
  for (std::uint16_t i = 0; i < length; ++i) {
    const std::uint64_t b = (payload[bit / 8] >> (bit % 8)) & 1U;
    if (order == ByteOrder::Intel) {
      value |= b << i;
      ++bit;
    } else {
      value = (value << 1) | b;
      bit = reference_motorola_next(bit);
    }
  }
  return value;
}

TEST(BitCodecTest, IntelSingleByte) {
  const std::vector<std::uint8_t> payload{0xA5};  // 1010 0101
  EXPECT_EQ(extract_bits(payload, 0, 4, ByteOrder::Intel), 0x5u);
  EXPECT_EQ(extract_bits(payload, 4, 4, ByteOrder::Intel), 0xAu);
  EXPECT_EQ(extract_bits(payload, 0, 8, ByteOrder::Intel), 0xA5u);
}

TEST(BitCodecTest, IntelMultiByteLittleEndian) {
  const std::vector<std::uint8_t> payload{0x34, 0x12};
  EXPECT_EQ(extract_bits(payload, 0, 16, ByteOrder::Intel), 0x1234u);
}

TEST(BitCodecTest, IntelUnalignedField) {
  // bits: byte0 = abcdefgh (h = bit0). Field at start 4, len 8 spans bytes.
  const std::vector<std::uint8_t> payload{0xF0, 0x0F};
  // bits 4..11 = high nibble of byte0 (1111) + low nibble of byte1 (1111)
  EXPECT_EQ(extract_bits(payload, 4, 8, ByteOrder::Intel), 0xFFu);
}

TEST(BitCodecTest, MotorolaByteAligned16) {
  const std::vector<std::uint8_t> payload{0x12, 0x34};
  // Motorola start bit = MSB of byte 0 = bit 7.
  EXPECT_EQ(extract_bits(payload, 7, 16, ByteOrder::Motorola), 0x1234u);
}

TEST(BitCodecTest, MotorolaNibble) {
  const std::vector<std::uint8_t> payload{0xA5};
  EXPECT_EQ(extract_bits(payload, 7, 4, ByteOrder::Motorola), 0xAu);
  EXPECT_EQ(extract_bits(payload, 3, 4, ByteOrder::Motorola), 0x5u);
}

TEST(BitCodecTest, InsertExtractRoundTripIntel) {
  for (std::uint16_t start : {0, 3, 8, 13}) {
    for (std::uint16_t len : {1, 5, 8, 12, 16}) {
      std::vector<std::uint8_t> payload(8, 0);
      const std::uint64_t value = 0x5A5A5A5A5A5A5A5AULL &
                                  ((len >= 64) ? ~0ULL : ((1ULL << len) - 1));
      insert_bits(payload, start, len, ByteOrder::Intel, value);
      EXPECT_EQ(extract_bits(payload, start, len, ByteOrder::Intel), value)
          << "start=" << start << " len=" << len;
    }
  }
}

TEST(BitCodecTest, InsertExtractRoundTripMotorola) {
  for (std::uint16_t start : {7, 15, 23}) {
    for (std::uint16_t len : {4, 8, 12, 16}) {
      std::vector<std::uint8_t> payload(8, 0);
      const std::uint64_t value = 0x3CC3F00FULL & ((1ULL << len) - 1);
      insert_bits(payload, start, len, ByteOrder::Motorola, value);
      EXPECT_EQ(extract_bits(payload, start, len, ByteOrder::Motorola), value)
          << "start=" << start << " len=" << len;
    }
  }
}

TEST(BitCodecTest, InsertDoesNotDisturbNeighbours) {
  std::vector<std::uint8_t> payload(2, 0xFF);
  insert_bits(payload, 4, 4, ByteOrder::Intel, 0x0);
  EXPECT_EQ(payload[0], 0x0F);
  EXPECT_EQ(payload[1], 0xFF);
}

TEST(BitCodecTest, Full64BitField) {
  std::vector<std::uint8_t> payload(8, 0);
  const std::uint64_t value = 0xDEADBEEFCAFEBABEULL;
  insert_bits(payload, 0, 64, ByteOrder::Intel, value);
  EXPECT_EQ(extract_bits(payload, 0, 64, ByteOrder::Intel), value);
}

TEST(BitCodecTest, FitChecks) {
  EXPECT_TRUE(bit_field_fits(8, 0, 64, ByteOrder::Intel));
  EXPECT_FALSE(bit_field_fits(8, 1, 64, ByteOrder::Intel));
  EXPECT_FALSE(bit_field_fits(1, 0, 0, ByteOrder::Intel));
  EXPECT_FALSE(bit_field_fits(1, 0, 65, ByteOrder::Intel));
  EXPECT_TRUE(bit_field_fits(2, 7, 16, ByteOrder::Motorola));
  EXPECT_FALSE(bit_field_fits(2, 7, 17, ByteOrder::Motorola));
}

TEST(BitCodecTest, ByteWiseCodecMatchesBitWalkExhaustively) {
  // Every start bit and length over payloads of 0..11 bytes, both byte
  // orders, random contents: the fit check and the extracted value must
  // equal the bit-at-a-time walk's.
  std::mt19937_64 rng(0xB17C0DE);
  for (std::size_t size = 0; size <= 11; ++size) {
    std::vector<std::uint8_t> payload(size);
    for (std::uint8_t& byte : payload) {
      byte = static_cast<std::uint8_t>(rng());
    }
    for (const ByteOrder order : {ByteOrder::Intel, ByteOrder::Motorola}) {
      for (std::uint16_t start = 0; start < 100; ++start) {
        for (std::uint16_t length = 0; length <= 65; ++length) {
          const bool fits = reference_fits(size, start, length, order);
          ASSERT_EQ(bit_field_fits(size, start, length, order), fits)
              << "size=" << size << " start=" << start
              << " length=" << length;
          if (!fits) continue;
          ASSERT_EQ(extract_bits(payload, start, length, order),
                    reference_extract(payload, start, length, order))
              << "size=" << size << " start=" << start
              << " length=" << length;
        }
      }
    }
  }
}

TEST(BitCodecTest, OutOfRangeThrows) {
  const std::vector<std::uint8_t> payload(2, 0);
  EXPECT_THROW(extract_bits(payload, 12, 8, ByteOrder::Intel),
               ivt::errors::Error);
  std::vector<std::uint8_t> w(2, 0);
  EXPECT_THROW(insert_bits(w, 12, 8, ByteOrder::Intel, 1),
               ivt::errors::Error);
}

TEST(BitCodecTest, SignExtend) {
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0x1, 1), -1);
  EXPECT_EQ(sign_extend(0xFFFF, 16), -1);
  EXPECT_EQ(sign_extend(42, 32), 42);
}

TEST(BitCodecTest, FloatRoundTrip) {
  EXPECT_FLOAT_EQ(raw_to_float32(float32_to_raw(3.14f)), 3.14f);
  EXPECT_DOUBLE_EQ(raw_to_float64(float64_to_raw(-2.718281828)),
                   -2.718281828);
}

TEST(BitCodecTest, HexRoundTrip) {
  const std::vector<std::uint8_t> payload{0x5A, 0x01, 0xFF};
  EXPECT_EQ(to_hex(payload), "5A 01 FF");
  EXPECT_EQ(from_hex("5A 01 FF"), payload);
  EXPECT_EQ(from_hex("5a01ff"), payload);
}

TEST(BitCodecTest, HexRejectsBadInput) {
  EXPECT_THROW(from_hex("5G"), ivt::errors::Error);
  EXPECT_THROW(from_hex("5"), ivt::errors::Error);
  EXPECT_THROW(from_hex("5 A"), ivt::errors::Error);
}

TEST(BitCodecTest, EmptyHex) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

}  // namespace
}  // namespace ivt::protocol
