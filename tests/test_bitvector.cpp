// Unit and property tests for common::BitVector.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/bitvector.hpp"
#include "common/rng.hpp"

namespace psmgen::common {
namespace {

// Two inline limbs or one heap pointer, plus the width.
static_assert(sizeof(BitVector) == 24);

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.width(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.isZero());
}

TEST(BitVector, ConstructTruncatesToWidth) {
  BitVector v(4, 0xFF);
  EXPECT_EQ(v.toUint64(), 0xFu);
  EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVector, BitAccess) {
  BitVector v(70);
  v.setBit(0, true);
  v.setBit(69, true);
  EXPECT_TRUE(v.bit(0));
  EXPECT_FALSE(v.bit(1));
  EXPECT_TRUE(v.bit(69));
  v.setBit(69, false);
  EXPECT_FALSE(v.bit(69));
  EXPECT_THROW(v.bit(70), std::out_of_range);
  EXPECT_THROW(v.setBit(70, true), std::out_of_range);
}

TEST(BitVector, BinaryRoundTrip) {
  const std::string bits = "1011001110001";
  BitVector v = BitVector::fromBinary(bits);
  EXPECT_EQ(v.width(), bits.size());
  EXPECT_EQ(v.toBinary(), bits);
  EXPECT_THROW(BitVector::fromBinary("10x"), std::invalid_argument);
}

TEST(BitVector, HexRoundTrip) {
  BitVector v = BitVector::fromHex("deadbeefcafe1234");
  EXPECT_EQ(v.width(), 64u);
  EXPECT_EQ(v.toHex(), "deadbeefcafe1234");
  EXPECT_EQ(v.toUint64(), 0xdeadbeefcafe1234ull);
  // Width-specified parse.
  BitVector w = BitVector::fromHex("1f", 8);
  EXPECT_EQ(w.width(), 8u);
  EXPECT_EQ(w.toUint64(), 0x1fu);
  EXPECT_THROW(BitVector::fromHex("100", 8), std::invalid_argument);
  EXPECT_THROW(BitVector::fromHex("zz"), std::invalid_argument);
}

TEST(BitVector, HexOfNonNibbleWidth) {
  BitVector v(13, 0x1abc & 0x1fff);
  EXPECT_EQ(v.toHex().size(), 4u);  // ceil(13/4)
  EXPECT_EQ(BitVector::fromHex(v.toHex(), 13), v);
}

TEST(BitVector, OnesAndComplement) {
  BitVector v = BitVector::ones(67);
  EXPECT_EQ(v.popcount(), 67u);
  EXPECT_TRUE((~v).isZero());
}

TEST(BitVector, BitwiseOps) {
  BitVector a = BitVector::fromHex("f0f0");
  BitVector b = BitVector::fromHex("ff00");
  EXPECT_EQ((a & b).toHex(), "f000");
  EXPECT_EQ((a | b).toHex(), "fff0");
  EXPECT_EQ((a ^ b).toHex(), "0ff0");
  EXPECT_THROW(a & BitVector(8), std::invalid_argument);
}

TEST(BitVector, AdditionWithCarryAcrossLimbs) {
  BitVector a = BitVector::ones(128);
  BitVector one(128, 1);
  EXPECT_TRUE((a + one).isZero());  // modular wrap
  BitVector b(128, ~0ull);          // low limb all ones
  BitVector c = b + one;
  EXPECT_FALSE(c.bit(0));
  EXPECT_TRUE(c.bit(64));
}

TEST(BitVector, CompareUnsignedAcrossWidths) {
  EXPECT_EQ(BitVector::compare(BitVector(8, 5), BitVector(32, 5)), 0);
  EXPECT_LT(BitVector::compare(BitVector(8, 5), BitVector(32, 600)), 0);
  EXPECT_GT(BitVector::compare(BitVector(128, 7), BitVector(8, 6)), 0);
}

TEST(BitVector, SliceAndConcat) {
  BitVector v = BitVector::fromHex("abcd1234");
  EXPECT_EQ(v.slice(0, 16).toHex(), "1234");
  EXPECT_EQ(v.slice(16, 16).toHex(), "abcd");
  EXPECT_EQ(BitVector::concat(v.slice(16, 16), v.slice(0, 16)), v);
  EXPECT_THROW(v.slice(20, 16), std::out_of_range);
}

TEST(BitVector, Resize) {
  BitVector v = BitVector::fromHex("ff");
  EXPECT_EQ(v.resized(4).toHex(), "f");
  EXPECT_EQ(v.resized(16).toHex(), "00ff");
}

TEST(BitVector, HammingDistance) {
  BitVector a = BitVector::fromHex("00ff");
  BitVector b = BitVector::fromHex("0f0f");
  EXPECT_EQ(BitVector::hammingDistance(a, b), 8u);
  EXPECT_EQ(BitVector::hammingDistance(a, a), 0u);
  EXPECT_THROW(BitVector::hammingDistance(a, BitVector(8)), std::invalid_argument);
}

TEST(BitVector, BitCountAgreesWithABitByBitCount) {
  const auto slow = [](std::uint64_t x) {
    unsigned n = 0;
    for (unsigned b = 0; b < 64; ++b) n += (x >> b) & 1u;
    return n;
  };
  EXPECT_EQ(bitCount(0), 0u);
  EXPECT_EQ(bitCount(~std::uint64_t{0}), 64u);
  for (unsigned b = 0; b < 64; ++b) {
    EXPECT_EQ(bitCount(std::uint64_t{1} << b), 1u) << "bit " << b;
    EXPECT_EQ(bitCount(~(std::uint64_t{1} << b)), 63u) << "bit " << b;
  }
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = rng.next();
    EXPECT_EQ(bitCount(x), slow(x)) << std::hex << x;
  }
}

TEST(BitVector, RotlAndShifts) {
  BitVector v = BitVector::fromBinary("0011");
  EXPECT_EQ(v.rotl(1).toBinary(), "0110");
  EXPECT_EQ(v.rotl(4), v);
  EXPECT_EQ((v << 2).toBinary(), "1100");
  EXPECT_EQ((v >> 1).toBinary(), "0001");
}

TEST(BitVector, HashDistinguishesWidthAndValue) {
  EXPECT_NE(BitVector(8, 1).hash(), BitVector(9, 1).hash());
  EXPECT_NE(BitVector(8, 1).hash(), BitVector(8, 2).hash());
  EXPECT_EQ(BitVector(8, 1).hash(), BitVector(8, 1).hash());
}

// ---------------------------------------------------------------------
// Storage: values of up to 128 bits live inside the object, wider ones in
// one heap block. 128 is the last inline width, 129 the first heap width.
// ---------------------------------------------------------------------

TEST(BitVectorStorage, MovedFromIsEmpty) {
  for (const unsigned w : {100u, 300u}) {
    BitVector a(w, 5);
    const BitVector b(std::move(a));
    EXPECT_EQ(b, BitVector(w, 5));
    EXPECT_EQ(a, BitVector{}) << "w=" << w;
    EXPECT_EQ(a.width(), 0u);
    EXPECT_EQ(a.limbCount(), 0u);
    EXPECT_TRUE(a.isZero());
    EXPECT_EQ(a.toHex(), "");
    EXPECT_THROW(a.bit(0), std::out_of_range);

    BitVector c(w, 7);
    BitVector d(8, 1);
    d = std::move(c);
    EXPECT_EQ(d, BitVector(w, 7));
    EXPECT_EQ(c, BitVector{}) << "w=" << w;
    // A moved-from value can be reused.
    c = BitVector::ones(w);
    EXPECT_EQ(c.popcount(), w);
  }
}

TEST(BitVectorStorage, CopyAndMoveAcrossTheInlineBoundary) {
  // Every pair covers inline->inline, inline->heap, heap->inline and
  // heap->heap, with equal and with different limb counts.
  const unsigned widths[] = {64u, 128u, 129u, 262u};
  Rng rng(2024);
  for (const unsigned from : widths) {
    const BitVector src = rng.bits(from);

    BitVector copied(src);
    EXPECT_EQ(copied, src);
    BitVector moved(std::move(copied));
    EXPECT_EQ(moved, src);
    EXPECT_EQ(copied, BitVector{});

    for (const unsigned to : widths) {
      BitVector dst = rng.bits(to);
      dst = src;
      EXPECT_EQ(dst, src) << from << " -> " << to;
      EXPECT_EQ(dst.limbCount(), src.limbCount());

      BitVector tmp = src;
      BitVector into = rng.bits(to);
      into = std::move(tmp);
      EXPECT_EQ(into, src) << from << " -> " << to;
      EXPECT_EQ(tmp, BitVector{});
    }

    BitVector self = src;
    BitVector& alias = self;
    self = alias;
    EXPECT_EQ(self, src);
    self = std::move(alias);
    EXPECT_EQ(self, src);
  }
}

TEST(BitVectorStorage, AssignHexReusesOneValueAcrossWidths) {
  Rng rng(77);
  BitVector v;
  for (const unsigned w : {8192u, 64u, 262u, 1u}) {
    const BitVector want = rng.bits(w);
    v.assignHex(want.toHex(), w);
    EXPECT_EQ(v, want) << "w=" << w;
    EXPECT_EQ(v.limbCount(), (w + 63) / 64);
    EXPECT_EQ(v.hash(), want.hash());
  }
}

/// FNV-1a over the width and then each limb, byte by byte, least
/// significant byte first: the documented definition of hash().
std::size_t referenceHash(const BitVector& v) {
  std::size_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(v.width());
  for (std::size_t i = 0; i < v.limbCount(); ++i) mix(v.limb(i));
  return h;
}

TEST(BitVectorStorage, HashAndEqualityAgreeHoweverBuilt) {
  // The value with the top bit and the low byte set, built three ways.
  for (const unsigned w : {64u, 128u, 129u, 262u}) {
    const unsigned nibbles = (w + 3) / 4;
    const std::string hex = std::to_string(1u << ((w - 1) % 4)) +
                            std::string(nibbles - 3, '0') + "ff";
    const BitVector parsed = BitVector::fromHex(hex, w);
    const BitVector built = (BitVector(w, 1) << (w - 1)) | BitVector(w, 0xff);
    BitVector copied = BitVector::ones(300);
    copied = parsed;
    EXPECT_EQ(parsed, built) << "w=" << w;
    EXPECT_EQ(copied, built) << "w=" << w;
    EXPECT_EQ(parsed.hash(), built.hash()) << "w=" << w;
    EXPECT_EQ(copied.hash(), built.hash()) << "w=" << w;
    EXPECT_EQ(built.hash(), referenceHash(built)) << "w=" << w;
    EXPECT_EQ(built.popcount(), 9u);
  }
}

// ---------------------------------------------------------------------
// Property-style sweeps over widths.
// ---------------------------------------------------------------------

class BitVectorWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorWidths, XorSelfIsZero) {
  Rng rng(GetParam());
  const BitVector v = rng.bits(GetParam());
  EXPECT_TRUE((v ^ v).isZero());
}

TEST_P(BitVectorWidths, RotlInverts) {
  Rng rng(GetParam() * 31);
  const unsigned w = GetParam();
  const BitVector v = rng.bits(w);
  for (unsigned n : {1u, w / 2, w - 1}) {
    EXPECT_EQ(v.rotl(n).rotl(w - n), v) << "w=" << w << " n=" << n;
  }
}

TEST_P(BitVectorWidths, HammingTriangleInequality) {
  const unsigned w = GetParam();
  Rng rng(w * 7 + 1);
  const BitVector a = rng.bits(w);
  const BitVector b = rng.bits(w);
  const BitVector c = rng.bits(w);
  EXPECT_LE(BitVector::hammingDistance(a, c),
            BitVector::hammingDistance(a, b) + BitVector::hammingDistance(b, c));
}

TEST_P(BitVectorWidths, HexRoundTripRandom) {
  const unsigned w = GetParam();
  Rng rng(w * 13 + 5);
  const BitVector v = rng.bits(w);
  // toHex read bit by bit: nibble n, counted from the right, holds bits
  // [4n, 4n + 4).
  std::string want;
  for (unsigned n = (w + 3) / 4; n-- > 0;) {
    unsigned nib = 0;
    for (unsigned b = 0; b < 4 && 4 * n + b < w; ++b) {
      nib |= unsigned{v.bit(4 * n + b)} << b;
    }
    want += "0123456789abcdef"[nib];
  }
  EXPECT_EQ(v.toHex(), want);
  EXPECT_EQ(BitVector::fromHex(v.toHex(), w), v);
  // In-place decoding into storage that held a wider, all-ones value
  // must leave no stale limb or bit behind.
  BitVector reused = BitVector::ones(8192);
  reused.assignHex(v.toHex(), w);
  EXPECT_EQ(reused, BitVector::fromHex(v.toHex(), w));
}

TEST_P(BitVectorWidths, SliceConcatIdentity) {
  const unsigned w = GetParam();
  if (w < 2) return;
  Rng rng(w * 17 + 3);
  const BitVector v = rng.bits(w);
  const unsigned cut = w / 2;
  EXPECT_EQ(BitVector::concat(v.slice(cut, w - cut), v.slice(0, cut)), v);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorWidths,
                         ::testing::Values(1u, 7u, 8u, 31u, 32u, 63u, 64u,
                                           65u, 127u, 128u, 129u, 262u,
                                           8192u));

}  // namespace
}  // namespace psmgen::common
