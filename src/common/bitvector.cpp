#include "common/bitvector.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <stdexcept>

namespace psmgen::common {

namespace {
constexpr unsigned kLimbBits = 64;

/// Value of each byte as a hex digit; 16 marks a non-digit.
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
  std::array<std::uint8_t, 256> t{};
  t.fill(16);
  for (int c = 0; c < 10; ++c) t['0' + c] = static_cast<std::uint8_t>(c);
  for (int c = 0; c < 6; ++c) {
    t['a' + c] = t['A' + c] = static_cast<std::uint8_t>(10 + c);
  }
  return t;
}();
}  // namespace

BitVector::BitVector(unsigned width, std::uint64_t value) {
  reshape(width);
  if (width_ != 0) limbs()[0] = value;
  trim();
}

BitVector& BitVector::assignWide(const BitVector& other) {
  if (this != &other) {
    reshape(other.width_);
    std::ranges::copy(other.limbs(), limbs().begin());
  }
  return *this;
}

void BitVector::reshape(unsigned width) {
  const std::size_t n = limbsFor(width);
  if (n != limbCount()) {
    release();
    if (n > kInlineLimbs) heap_ = new std::uint64_t[n];
  }
  width_ = width;
  std::ranges::fill(limbs(), 0);
}

void BitVector::trim() {
  const unsigned rem = width_ % kLimbBits;
  if (rem != 0) limbs().back() &= (~std::uint64_t{0}) >> (kLimbBits - rem);
}

BitVector BitVector::fromBinary(const std::string& bits) {
  BitVector v(static_cast<unsigned>(bits.size()));
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[i];
    if (c != '0' && c != '1') {
      throw std::invalid_argument("BitVector::fromBinary: bad character");
    }
    // bits[0] is the MSB.
    v.setBit(static_cast<unsigned>(bits.size() - 1 - i), c == '1');
  }
  return v;
}

BitVector BitVector::fromHex(std::string_view hex, unsigned width) {
  BitVector v;
  v.assignHex(hex, width);
  return v;
}

void BitVector::assignHex(std::string_view hex, unsigned width) {
  reshape(width == 0 ? static_cast<unsigned>(hex.size()) * 4 : width);
  const std::span<std::uint64_t> out = limbs();
  // Digit i, counted from the right, holds bits [4i, 4i + 4). The first
  // `body` digits lie wholly inside the width, so only a bad character
  // can fail there: they are gathered 16 to a limb with one store each.
  // The digits above them are checked one by one. Either way the first
  // error in right-to-left order is the one thrown.
  const std::size_t body = std::min<std::size_t>(hex.size(), width_ / 4);
  const auto digit = [hex](std::size_t i) -> unsigned {
    return kHexValue[static_cast<unsigned char>(hex[hex.size() - 1 - i])];
  };
  std::size_t i = 0;
  for (std::size_t k = 0; i < body; ++k) {
    const std::size_t end = std::min<std::size_t>(body, i + kLimbBits / 4);
    std::uint64_t acc = 0;
    unsigned seen = 0;
    for (unsigned shift = 0; i < end; ++i, shift += 4) {
      const unsigned nib = digit(i);
      seen |= nib;
      acc |= std::uint64_t{nib} << shift;
    }
    if (seen > 15) {
      throw std::invalid_argument("BitVector::fromHex: bad character");
    }
    out[k] = acc;
  }
  for (; i < hex.size(); ++i) {
    const unsigned nib = digit(i);
    if (nib > 15) {
      throw std::invalid_argument("BitVector::fromHex: bad character");
    }
    if (nib == 0) continue;
    const std::size_t pos = 4 * i;
    if (pos >= width_ || (nib >> std::min<std::size_t>(width_ - pos, 4)) != 0) {
      throw std::invalid_argument(
          "BitVector::fromHex: value does not fit requested width");
    }
    // pos is a multiple of 4, so a nibble never straddles two limbs.
    out[pos / kLimbBits] |= std::uint64_t{nib} << (pos % kLimbBits);
  }
}

BitVector BitVector::ones(unsigned width) {
  BitVector v(width);
  std::ranges::fill(v.limbs(), ~std::uint64_t{0});
  v.trim();
  return v;
}

bool BitVector::bit(unsigned i) const {
  if (i >= width_) throw std::out_of_range("BitVector::bit: index out of range");
  return (limbs()[i / kLimbBits] >> (i % kLimbBits)) & 1u;
}

void BitVector::setBit(unsigned i, bool v) {
  if (i >= width_) {
    throw std::out_of_range("BitVector::setBit: index out of range");
  }
  const std::uint64_t mask = std::uint64_t{1} << (i % kLimbBits);
  if (v) {
    limbs()[i / kLimbBits] |= mask;
  } else {
    limbs()[i / kLimbBits] &= ~mask;
  }
}

std::uint64_t BitVector::toUint64() const {
  return limb(0);
}

bool BitVector::any() const {
  return std::ranges::any_of(limbs(), [](std::uint64_t l) { return l != 0; });
}

unsigned BitVector::popcount() const {
  unsigned n = 0;
  for (const std::uint64_t l : limbs()) n += static_cast<unsigned>(std::popcount(l));
  return n;
}

unsigned BitVector::hammingDistance(const BitVector& a, const BitVector& b) {
  if (a.width_ != b.width_) {
    throw std::invalid_argument("BitVector::hammingDistance: width mismatch");
  }
  unsigned n = 0;
  const auto la = a.limbs();
  const auto lb = b.limbs();
  for (std::size_t i = 0; i < la.size(); ++i) {
    n += static_cast<unsigned>(std::popcount(la[i] ^ lb[i]));
  }
  return n;
}

BitVector BitVector::slice(unsigned lo, unsigned len) const {
  if (static_cast<std::uint64_t>(lo) + len > width_) {
    throw std::out_of_range("BitVector::slice: range out of bounds");
  }
  BitVector out(len);
  for (unsigned i = 0; i < len; ++i) {
    const unsigned src = lo + i;
    if ((limbs()[src / kLimbBits] >> (src % kLimbBits)) & 1u) out.setBit(i, true);
  }
  return out;
}

BitVector BitVector::concat(const BitVector& hi, const BitVector& lo) {
  BitVector out(hi.width_ + lo.width_);
  for (unsigned i = 0; i < lo.width_; ++i) {
    if (lo.bit(i)) out.setBit(i, true);
  }
  for (unsigned i = 0; i < hi.width_; ++i) {
    if (hi.bit(i)) out.setBit(lo.width_ + i, true);
  }
  return out;
}

BitVector BitVector::resized(unsigned new_width) const {
  BitVector out(new_width);
  const std::size_t n = std::min(out.limbCount(), limbCount());
  std::copy_n(limbs().begin(), n, out.limbs().begin());
  out.trim();
  return out;
}

BitVector BitVector::operator&(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::&: width mismatch");
  BitVector out(width_);
  std::ranges::transform(limbs(), rhs.limbs(), out.limbs().begin(),
                         std::bit_and<>{});
  return out;
}

BitVector BitVector::operator|(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::|: width mismatch");
  BitVector out(width_);
  std::ranges::transform(limbs(), rhs.limbs(), out.limbs().begin(),
                         std::bit_or<>{});
  return out;
}

BitVector BitVector::operator^(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::^: width mismatch");
  BitVector out(width_);
  std::ranges::transform(limbs(), rhs.limbs(), out.limbs().begin(),
                         std::bit_xor<>{});
  return out;
}

BitVector BitVector::operator~() const {
  BitVector out(width_);
  std::ranges::transform(limbs(), out.limbs().begin(), std::bit_not<>{});
  out.trim();
  return out;
}

BitVector BitVector::operator+(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::+: width mismatch");
  BitVector out(width_);
  const std::span<std::uint64_t> sum = out.limbs();
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < sum.size(); ++i) {
    const std::uint64_t a = limbs()[i];
    const std::uint64_t b = rhs.limbs()[i];
    const std::uint64_t s = a + b;
    const std::uint64_t s2 = s + carry;
    carry = (s < a || s2 < s) ? 1 : 0;
    sum[i] = s2;
  }
  out.trim();
  return out;
}

BitVector BitVector::rotl(unsigned n) const {
  if (width_ == 0) return *this;
  n %= width_;
  if (n == 0) return *this;
  BitVector out(width_);
  for (unsigned i = 0; i < width_; ++i) {
    if (bit(i)) out.setBit((i + n) % width_, true);
  }
  return out;
}

BitVector BitVector::operator<<(unsigned n) const {
  BitVector out(width_);
  for (unsigned i = 0; i + n < width_; ++i) {
    if (bit(i)) out.setBit(i + n, true);
  }
  return out;
}

BitVector BitVector::operator>>(unsigned n) const {
  BitVector out(width_);
  for (unsigned i = n; i < width_; ++i) {
    if (bit(i)) out.setBit(i - n, true);
  }
  return out;
}

bool BitVector::operator==(const BitVector& rhs) const {
  return width_ == rhs.width_ && std::ranges::equal(limbs(), rhs.limbs());
}

int BitVector::compareWide(const BitVector& a, const BitVector& b) {
  const auto la = a.limbs();
  const auto lb = b.limbs();
  for (std::size_t i = std::max(la.size(), lb.size()); i-- > 0;) {
    const std::uint64_t x = i < la.size() ? la[i] : 0;
    const std::uint64_t y = i < lb.size() ? lb[i] : 0;
    if (x != y) return x < y ? -1 : 1;
  }
  return 0;
}

std::string BitVector::toBinary() const {
  std::string s(width_, '0');
  for (unsigned i = 0; i < width_; ++i) {
    if (bit(i)) s[width_ - 1 - i] = '1';
  }
  return s;
}

std::string BitVector::toHex() const {
  if (width_ == 0) return "";
  const unsigned nibbles = (width_ + 3) / 4;
  std::string s(nibbles, '0');
  static constexpr char kDigits[] = "0123456789abcdef";
  for (unsigned n = 0; n < nibbles; ++n) {
    unsigned nib = 0;
    for (unsigned b = 0; b < 4; ++b) {
      const unsigned pos = n * 4 + b;
      if (pos < width_ && bit(pos)) nib |= 1u << b;
    }
    s[nibbles - 1 - n] = kDigits[nib];
  }
  return s;
}

std::size_t BitVector::hash() const {
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(width_);
  for (const std::uint64_t l : limbs()) mix(l);
  return h;
}

}  // namespace psmgen::common
