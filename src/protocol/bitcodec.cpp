#include "protocol/bitcodec.hpp"

#include "errors/error.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace ivt::protocol {

namespace {

/// Successor of bit position `bit` in Motorola layout: one position to the
/// "right" within the byte (towards LSB), wrapping to the MSB of the next
/// byte.
std::uint16_t motorola_next(std::uint16_t bit) {
  if (bit % 8 == 0) return static_cast<std::uint16_t>(bit + 15);
  return static_cast<std::uint16_t>(bit - 1);
}

/// Position of Motorola bit `bit` in the big-endian bit stream (byte
/// order, MSB first): motorola_next advances it by exactly one.
std::size_t motorola_linear(std::uint16_t bit) {
  return static_cast<std::size_t>(bit / 8) * 8 + (7 - bit % 8);
}

void check_fits(std::size_t payload_size, std::uint16_t start_bit,
                std::uint16_t length, ByteOrder order) {
  if (!bit_field_fits(payload_size, start_bit, length, order)) {
    IVT_THROW(errors::Category::Decode, 
        "bit field [start=" + std::to_string(start_bit) +
        ", len=" + std::to_string(length) + "] does not fit in " +
        std::to_string(payload_size) + "-byte payload");
  }
}

}  // namespace

bool bit_field_fits(std::size_t payload_size, std::uint16_t start_bit,
                    std::uint16_t length, ByteOrder order) {
  if (length == 0 || length > 64) return false;
  if (order == ByteOrder::Intel) {
    return static_cast<std::size_t>(start_bit) + length <= payload_size * 8;
  }
  const std::size_t first = motorola_linear(start_bit);
  return (first + length - 1) / 8 < payload_size;
}

std::uint64_t extract_bits(std::span<const std::uint8_t> payload,
                           std::uint16_t start_bit, std::uint16_t length,
                           ByteOrder order) {
  check_fits(payload.size(), start_bit, length, order);
  std::uint64_t value = 0;
  unsigned remaining = length;
  if (order == ByteOrder::Intel) {
    std::size_t bit = start_bit;
    unsigned filled = 0;
    while (remaining > 0) {
      const unsigned offset = static_cast<unsigned>(bit % 8);
      const unsigned take = std::min(8U - offset, remaining);
      const unsigned chunk =
          (static_cast<unsigned>(payload[bit / 8]) >> offset) &
          ((1U << take) - 1U);
      value |= static_cast<std::uint64_t>(chunk) << filled;
      filled += take;
      bit += take;
      remaining -= take;
    }
    return value;
  }
  std::size_t linear = motorola_linear(start_bit);
  while (remaining > 0) {
    const unsigned offset = static_cast<unsigned>(linear % 8);
    const unsigned take = std::min(8U - offset, remaining);
    const unsigned chunk =
        (static_cast<unsigned>(payload[linear / 8]) >> (8U - offset - take)) &
        ((1U << take) - 1U);
    value = (value << take) | chunk;
    linear += take;
    remaining -= take;
  }
  return value;
}

void insert_bits(std::span<std::uint8_t> payload, std::uint16_t start_bit,
                 std::uint16_t length, ByteOrder order, std::uint64_t value) {
  check_fits(payload.size(), start_bit, length, order);
  if (order == ByteOrder::Intel) {
    for (std::uint16_t i = 0; i < length; ++i) {
      const std::uint16_t bit = static_cast<std::uint16_t>(start_bit + i);
      const std::uint8_t mask = static_cast<std::uint8_t>(1U << (bit % 8));
      if ((value >> i) & 1ULL) {
        payload[bit / 8] |= mask;
      } else {
        payload[bit / 8] &= static_cast<std::uint8_t>(~mask);
      }
    }
    return;
  }
  std::uint16_t bit = start_bit;
  for (std::uint16_t i = 0; i < length; ++i) {
    const std::uint8_t mask = static_cast<std::uint8_t>(1U << (bit % 8));
    const std::uint64_t bit_value = (value >> (length - 1 - i)) & 1ULL;
    if (bit_value != 0) {
      payload[bit / 8] |= mask;
    } else {
      payload[bit / 8] &= static_cast<std::uint8_t>(~mask);
    }
    bit = motorola_next(bit);
  }
}

std::int64_t sign_extend(std::uint64_t raw, std::uint16_t length) {
  if (length == 0 || length >= 64) return static_cast<std::int64_t>(raw);
  const std::uint64_t sign_bit = 1ULL << (length - 1);
  if (raw & sign_bit) {
    raw |= ~((1ULL << length) - 1);
  }
  return static_cast<std::int64_t>(raw);
}

float raw_to_float32(std::uint32_t raw) { return std::bit_cast<float>(raw); }
std::uint32_t float32_to_raw(float value) {
  return std::bit_cast<std::uint32_t>(value);
}
double raw_to_float64(std::uint64_t raw) {
  return std::bit_cast<double>(raw);
}
std::uint64_t float64_to_raw(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

std::string to_hex(std::span<const std::uint8_t> payload) {
  static constexpr char kDigits[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(payload.size() * 3);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (i > 0) out += ' ';
    out += kDigits[payload[i] >> 4];
    out += kDigits[payload[i] & 0x0F];
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::vector<std::uint8_t> out;
  int hi = -1;
  for (char c : hex) {
    if (c == ' ' || c == '\t') {
      if (hi >= 0) {
        IVT_THROW(errors::Category::Format, "from_hex: dangling nibble before space");
      }
      continue;
    }
    const int v = nibble(c);
    if (v < 0) {
      IVT_THROW(errors::Category::Format, std::string("from_hex: bad character '") +
                                  c + "'");
    }
    if (hi < 0) {
      hi = v;
    } else {
      out.push_back(static_cast<std::uint8_t>((hi << 4) | v));
      hi = -1;
    }
  }
  if (hi >= 0) IVT_THROW(errors::Category::Format, "from_hex: odd nibble count");
  return out;
}

}  // namespace ivt::protocol
