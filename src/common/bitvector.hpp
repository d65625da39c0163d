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
// mutating operation). A value of up to 128 bits, the widest port of every
// IP here, keeps its two limbs inside the object and never allocates; a
// wider value owns one heap block of exactly limbCount() limbs. A
// moved-from value is empty, equal to BitVector{}.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace psmgen::common {

/// Number of set bits of one limb, counted branch-free in registers (SWAR).
/// std::popcount would compile to a call into the compiler runtime on an
/// x86-64 target without the POPCNT instruction.
inline unsigned bitCount(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
}

class BitVector {
 public:
  /// Constructs a zero-width (empty) vector.
  BitVector() = default;

  /// Constructs a `width`-bit vector holding `value` (truncated to width).
  explicit BitVector(unsigned width, std::uint64_t value = 0);

  BitVector(const BitVector& other) { *this = other; }
  BitVector(BitVector&& other) noexcept { stealFrom(other); }
  BitVector& operator=(const BitVector& other) {
    if (onHeap() || other.onHeap()) return assignWide(other);
    width_ = other.width_;
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
    return *this;
  }
  BitVector& operator=(BitVector&& other) noexcept {
    if (this != &other) {
      release();
      stealFrom(other);
    }
    return *this;
  }
  ~BitVector() {
    if (onHeap()) delete[] heap_;
  }

  /// Parses a binary string, e.g. "1010" (MSB first). Width = string length.
  static BitVector fromBinary(const std::string& bits);

  /// Parses a hex string, e.g. "deadbeef" (MSB first); width = 4 * length
  /// unless an explicit width is given (which must be >= significant bits).
  static BitVector fromHex(std::string_view hex, unsigned width = 0);

  /// fromHex in place: decodes into this vector's own limb storage, so a
  /// value of up to 128 bits, or a wider one whose limb count does not
  /// change, is refilled without allocating. Throws what fromHex throws;
  /// the value is then valid but unspecified. Of several errors, the one
  /// thrown is the first in right-to-left digit order.
  void assignHex(std::string_view hex, unsigned width = 0);

  /// All-ones vector of the given width.
  static BitVector ones(unsigned width);

  unsigned width() const { return width_; }
  bool empty() const { return width_ == 0; }

  /// Number of 64-bit limbs backing the value.
  std::size_t limbCount() const { return limbsFor(width_); }
  std::uint64_t limb(std::size_t i) const {
    return i < limbCount() ? limbs()[i] : 0;
  }

  /// Copies the limbCount() limbs, least significant first, to `out`.
  void readLimbs(std::uint64_t* out) const {
    const std::span<const std::uint64_t> in = limbs();
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i];
  }
  /// Makes this a `width`-bit value from the limbs at `in`, least
  /// significant first, as readLimbs() wrote them: the bits above `width`
  /// must be zero. A value whose limb count does not change keeps its
  /// storage, so refilling a value of the same width only copies limbs.
  void assignLimbs(unsigned width, const std::uint64_t* in) {
    if (onHeap() || width > 64 * kInlineLimbs) {
      assignWideLimbs(width, in);
      return;
    }
    width_ = width;
    inline_[0] = width > 0 ? in[0] : 0;
    inline_[1] = width > 64 ? in[1] : 0;
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
  static int compare(const BitVector& a, const BitVector& b) {
    if (a.onHeap() || b.onHeap()) return compareWide(a, b);
    // Both inline: the words above limbCount() are zero, so the two words
    // compare as they stand, whatever the widths.
    for (std::size_t i = kInlineLimbs; i-- > 0;) {
      if (a.inline_[i] != b.inline_[i]) {
        return a.inline_[i] < b.inline_[i] ? -1 : 1;
      }
    }
    return 0;
  }
  bool operator<(const BitVector& rhs) const { return compare(*this, rhs) < 0; }
  bool operator<=(const BitVector& rhs) const { return compare(*this, rhs) <= 0; }
  bool operator>(const BitVector& rhs) const { return compare(*this, rhs) > 0; }
  bool operator>=(const BitVector& rhs) const { return compare(*this, rhs) >= 0; }

  /// MSB-first binary rendering, exactly `width` characters.
  std::string toBinary() const;
  /// MSB-first hex rendering, ceil(width/4) characters.
  std::string toHex() const;
  /// Appends toHex() to `out`, so that a caller can render many values
  /// into one reused string.
  void appendHex(std::string& out) const;

  /// FNV-1a hash of (width, limbs) for use in hash maps.
  std::size_t hash() const;

 private:
  static constexpr std::size_t kInlineLimbs = 2;

  static std::size_t limbsFor(unsigned width) {
    return (std::size_t{width} + 63) / 64;
  }

  bool onHeap() const { return limbCount() > kInlineLimbs; }
  std::span<std::uint64_t> limbs() {
    return {onHeap() ? heap_ : inline_, limbCount()};
  }
  std::span<const std::uint64_t> limbs() const {
    return {onHeap() ? heap_ : inline_, limbCount()};
  }

  /// Makes this an all-zero `width`-bit value. A heap block is kept when
  /// the limb count does not change.
  void reshape(unsigned width);
  /// Copy assignment where either side is on the heap.
  BitVector& assignWide(const BitVector& other);
  /// assignLimbs() where this value or the new one is on the heap.
  void assignWideLimbs(unsigned width, const std::uint64_t* in);
  /// compare() where either side is on the heap.
  static int compareWide(const BitVector& a, const BitVector& b);
  /// Frees a heap block and leaves the value empty.
  void release() noexcept {
    if (onHeap()) delete[] heap_;
    width_ = 0;
    inline_[0] = inline_[1] = 0;
  }
  /// Takes the storage of `other`, leaving it empty. This value must hold
  /// no heap block.
  void stealFrom(BitVector& other) noexcept {
    width_ = std::exchange(other.width_, 0);
    if (onHeap()) {
      heap_ = other.heap_;
    } else {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    }
    other.inline_[0] = other.inline_[1] = 0;
  }
  void trim();

  unsigned width_ = 0;
  // inline_ while limbCount() <= kInlineLimbs; both of its words are always
  // initialized, so copies move both, and the words above limbCount() are
  // zero. Otherwise heap_ owns limbCount() limbs.
  union {
    std::uint64_t inline_[kInlineLimbs] = {};
    std::uint64_t* heap_;
  };
};

struct BitVectorHash {
  std::size_t operator()(const BitVector& v) const { return v.hash(); }
};

}  // namespace psmgen::common
