#include "common/bitvector.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
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

// decodeHex8 reads its first character from the lowest byte of the word.
static_assert(std::endian::native == std::endian::little,
              "decodeHex8 assumes a little-endian host");

/// Decodes the 8 hex digits at `p`, most significant first, into 32 bits.
/// ORs a set high bit into `bad` for each byte that is no hex digit.
std::uint64_t decodeHex8(const char* p, std::uint64_t& bad) {
  constexpr std::uint64_t k01 = 0x0101010101010101;
  constexpr std::uint64_t k80 = 0x80 * k01;
  std::uint64_t x = 0;
  std::memcpy(&x, p, sizeof(x));
  // Range tests on the low 7 bits of each byte, so that no sum carries
  // into the next byte: x + (0x80 - lo) sets a byte's high bit iff the
  // byte is >= lo, and x + (0x7f - hi) iff it is > hi.
  const std::uint64_t low7 = x & ~k80;
  const std::uint64_t digit =
      (low7 + (0x80 - '0') * k01) & ~(low7 + (0x7f - '9') * k01);
  const std::uint64_t folded = low7 | 0x20 * k01;  // 'A'-'F' -> 'a'-'f'
  const std::uint64_t letter =
      (folded + (0x80 - 'a') * k01) & ~(folded + (0x7f - 'f') * k01) & k80;
  bad |= (x | ~(digit | letter)) & k80;
  // '0'-'9' carry their value in the low nibble, 'a'-'f' and 'A'-'F' that
  // value less 9.
  std::uint64_t v = (x & 0x0f * k01) + (letter >> 7) * 9;
  // Byte i holds digit i; gather pairs, then quads, then all eight, the
  // earlier digit of each pair going to the higher half.
  v = ((v << 4) | (v >> 8)) & 0x00ff00ff00ff00ff;
  v = ((v << 8) | (v >> 16)) & 0x0000ffff0000ffff;
  return ((v << 16) | (v >> 32)) & 0xffffffff;
}

/// Throws the first error of `hex` as a `width`-bit value in right-to-left
/// digit order: a bad character, or a digit with a set bit at or above
/// `width`. `hex` must have such an error.
[[noreturn]] void throwHexError(std::string_view hex, unsigned width) {
  for (std::size_t i = 0; i < hex.size(); ++i) {
    const unsigned nib =
        kHexValue[static_cast<unsigned char>(hex[hex.size() - 1 - i])];
    if (nib > 15) {
      throw std::invalid_argument("BitVector::fromHex: bad character");
    }
    const std::size_t pos = 4 * i;
    if (nib != 0 &&
        (pos >= width || (nib >> std::min<std::size_t>(width - pos, 4)) != 0)) {
      break;
    }
  }
  throw std::invalid_argument(
      "BitVector::fromHex: value does not fit requested width");
}
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

void BitVector::assignWideLimbs(unsigned width, const std::uint64_t* in) {
  reshape(width);
  std::copy_n(in, limbCount(), limbs().begin());
}

void BitVector::reshape(unsigned width) {
  const std::size_t n = limbsFor(width);
  if (n != limbCount()) {
    release();
    if (n > kInlineLimbs) heap_ = new std::uint64_t[n];
  }
  width_ = width;
  if (onHeap()) {
    std::fill_n(heap_, n, 0);
  } else {
    // Two plain stores, where a fill of limbs() would call memset.
    inline_[0] = inline_[1] = 0;
  }
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
  // Digits are taken 8 at a time from the right, so group g holds bits
  // [32g, 32g + 32); the leading remainder of fewer than 8 digits is the
  // last group. A group above the limbs, or a bit above the width in the
  // top limb, means the value does not fit.
  std::uint64_t bad = 0;
  std::uint64_t spill = 0;
  const auto place = [&](std::size_t g, std::uint64_t bits) {
    if (g / 2 < out.size()) {
      out[g / 2] |= bits << (32 * (g % 2));
    } else {
      spill |= bits;
    }
  };
  std::size_t rest = hex.size();
  std::size_t g = 0;
  for (; rest >= 8; ++g) {
    rest -= 8;
    place(g, decodeHex8(hex.data() + rest, bad));
  }
  if (rest != 0) {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < rest; ++i) {
      const unsigned nib = kHexValue[static_cast<unsigned char>(hex[i])];
      bad |= nib & 16;
      bits = (bits << 4) | (nib & 15);
    }
    place(g, bits);
  }
  if (const unsigned rem = width_ % kLimbBits; rem != 0) {
    spill |= out.back() >> rem;
  }
  if ((bad | spill) != 0) {
    trim();
    throwHexError(hex, width_);
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
  for (const std::uint64_t l : limbs()) n += bitCount(l);
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
    n += bitCount(la[i] ^ lb[i]);
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
  std::string s;
  appendHex(s);
  return s;
}

void BitVector::appendHex(std::string& out) const {
  static constexpr char kDigits[] = "0123456789abcdef";
  const std::span<const std::uint64_t> in = limbs();
  const std::size_t nibbles = (std::size_t{width_} + 3) / 4;
  const std::size_t at = out.size();
  out.resize(at + nibbles);
  // Bits above the width are zero, so the top nibble needs no mask.
  for (std::size_t n = 0; n < nibbles; ++n) {
    out[at + nibbles - 1 - n] = kDigits[(in[n / 16] >> (4 * (n % 16))) & 15];
  }
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
