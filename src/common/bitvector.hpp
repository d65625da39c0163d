#pragma once
// BitVector: an arbitrary-width, unsigned, two's-complement-free bit vector.
//
// IP ports in this project are up to a few hundred bits wide (AES/Camellia
// have 260/262-bit primary inputs), so plain integers do not suffice.
// BitVector provides the operations the methodology needs:
//   - exact equality / unsigned ordering (for mined relational propositions),
//   - bitwise logic and addition (for implementing the IP models),
//   - Hamming weight / Hamming distance (for the linear-regression power
//     refinement of data-dependent states, paper Sec. IV),
//   - slicing and concatenation (for packing/unpacking port buses).
//
// Values are stored little-endian in 64-bit limbs; bits above `width` are
// always kept zero (class invariant, restored by trim() after every
// mutating operation).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psmgen::common {

class BitVector {
 public:
  /// Constructs a zero-width (empty) vector.
  BitVector() = default;

  /// Constructs a `width`-bit vector holding `value` (truncated to width).
  explicit BitVector(unsigned width, std::uint64_t value = 0);

  /// Parses a binary string, e.g. "1010" (MSB first). Width = string length.
  static BitVector fromBinary(const std::string& bits);

  /// Parses a hex string, e.g. "deadbeef" (MSB first); width = 4 * length
  /// unless an explicit width is given (which must be >= significant bits).
  static BitVector fromHex(std::string_view hex, unsigned width = 0);

  /// fromHex in place: decodes into this vector's own limb storage, so a
  /// vector that already holds enough limbs is refilled without
  /// allocating. Throws what fromHex throws; the value is then valid but
  /// unspecified.
  void assignHex(std::string_view hex, unsigned width = 0);

  /// All-ones vector of the given width.
  static BitVector ones(unsigned width);

  unsigned width() const { return width_; }
  bool empty() const { return width_ == 0; }

  /// Number of 64-bit limbs backing the value.
  std::size_t limbCount() const { return limbs_.size(); }
  std::uint64_t limb(std::size_t i) const {
    return i < limbs_.size() ? limbs_[i] : 0;
  }

  bool bit(unsigned i) const;
  void setBit(unsigned i, bool v);

  /// Least-significant 64 bits (the whole value if width <= 64).
  std::uint64_t toUint64() const;

  /// True if any bit is set.
  bool any() const;
  /// True if all bits within width are zero.
  bool isZero() const { return !any(); }

  /// Number of set bits.
  unsigned popcount() const;

  /// Hamming distance between two vectors of the same width.
  /// Throws std::invalid_argument on width mismatch.
  static unsigned hammingDistance(const BitVector& a, const BitVector& b);

  /// Extracts bits [lo, lo+len) as a new vector of width len.
  BitVector slice(unsigned lo, unsigned len) const;

  /// Returns {hi ++ lo}: `hi` occupies the most-significant positions.
  static BitVector concat(const BitVector& hi, const BitVector& lo);

  /// Zero-extends or truncates to the new width.
  BitVector resized(unsigned new_width) const;

  // Bitwise logic (operands must have equal widths).
  BitVector operator&(const BitVector& rhs) const;
  BitVector operator|(const BitVector& rhs) const;
  BitVector operator^(const BitVector& rhs) const;
  BitVector operator~() const;

  /// Modular addition within the common width.
  BitVector operator+(const BitVector& rhs) const;

  /// Left rotation by n bit positions.
  BitVector rotl(unsigned n) const;
  /// Logical shifts within the width.
  BitVector operator<<(unsigned n) const;
  BitVector operator>>(unsigned n) const;

  bool operator==(const BitVector& rhs) const;
  bool operator!=(const BitVector& rhs) const { return !(*this == rhs); }

  /// Unsigned magnitude comparison. Widths may differ; values are compared
  /// as unbounded non-negative integers.
  static int compare(const BitVector& a, const BitVector& b);
  bool operator<(const BitVector& rhs) const { return compare(*this, rhs) < 0; }
  bool operator<=(const BitVector& rhs) const { return compare(*this, rhs) <= 0; }
  bool operator>(const BitVector& rhs) const { return compare(*this, rhs) > 0; }
  bool operator>=(const BitVector& rhs) const { return compare(*this, rhs) >= 0; }

  /// MSB-first binary rendering, exactly `width` characters.
  std::string toBinary() const;
  /// MSB-first hex rendering, ceil(width/4) characters.
  std::string toHex() const;

  /// FNV-1a hash of (width, limbs) for use in hash maps.
  std::size_t hash() const;

 private:
  void trim();

  unsigned width_ = 0;
  std::vector<std::uint64_t> limbs_;
};

struct BitVectorHash {
  std::size_t operator()(const BitVector& v) const { return v.hash(); }
};

}  // namespace psmgen::common
