// Property tests for the 16-bit + era-bit sequence arithmetic (§3.5).
//
// The reference model is plain 64-bit integers: the wire form of v is
// (v mod 2^16, (v / 2^16) mod 2). Every comparison the protocol makes, and
// the sender's and receiver's from_wire resolution, must agree with the
// 64-bit truth as long as the operands are within N/2 of each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "lg/seqno.h"
#include "sim/random.h"

namespace lgsim::lg {
namespace {

TEST(SeqNo, ToWireTogglesEraOnWrap) {
  EXPECT_EQ(to_wire(0xFFFF), (SeqEra{0xFFFF, 0}));
  EXPECT_EQ(to_wire(kSeqSpace), (SeqEra{0, 1}));
  // And back again on the next wrap.
  EXPECT_EQ(to_wire(2 * kSeqSpace - 1), (SeqEra{0xFFFF, 1}));
  EXPECT_EQ(to_wire(2 * kSeqSpace), (SeqEra{0, 0}));
}

TEST(SeqNo, SameEraDistance) {
  EXPECT_EQ(seq_distance({100, 0}, {40, 0}), 60);
  EXPECT_EQ(seq_distance({40, 0}, {100, 0}), -60);
  EXPECT_EQ(seq_distance({7, 1}, {7, 1}), 0);
}

TEST(SeqNo, CrossEraDistanceNearWrap) {
  // 65530 (era 0) followed by 5 (era 1): forward distance 11.
  EXPECT_EQ(seq_distance({5, 1}, {65530, 0}), 11);
  EXPECT_EQ(seq_distance({65530, 0}, {5, 1}), -11);
}

TEST(SeqNo, BeforeFirstPrecedesZero) {
  EXPECT_EQ(seq_distance({0, 0}, seq_before_first()), 1);
  EXPECT_EQ(from_wire(to_wire(0), -1), 0);
}

// Property: for random 64-bit positions and offsets within (-N/2, N/2), the
// wire-format distance equals the integer distance.
TEST(SeqNoProperty, DistanceMatchesReferenceAcrossWraps) {
  Rng rng(1234);
  for (int i = 0; i < 200'000; ++i) {
    const std::int64_t base = static_cast<std::int64_t>(rng.uniform_int(1'000'000'000));
    const std::int32_t off =
        static_cast<std::int32_t>(rng.uniform_int(kSeqSpace - 1)) -
        static_cast<std::int32_t>(kSeqHalf - 1);
    const std::int64_t other = base + off;
    if (other < 0) continue;
    ASSERT_EQ(seq_distance(to_wire(other), to_wire(base)), off)
        << "base=" << base << " off=" << off;
  }
}

// The paper's correctness condition: era correction works as long as the two
// sequence numbers are not more than N/2 apart. Verify the boundary.
TEST(SeqNoProperty, HalfWindowBoundary) {
  const std::int64_t base = 3 * kSeqSpace + 7;  // arbitrary, era toggles hit
  // Exactly N/2 - 1 apart: still correct.
  EXPECT_EQ(seq_distance(to_wire(base + kSeqHalf - 1), to_wire(base)),
            kSeqHalf - 1);
  EXPECT_EQ(seq_distance(to_wire(base - (kSeqHalf - 1)), to_wire(base)),
            -(kSeqHalf - 1));
}

// Property: from_wire inverts to_wire for any reference within N/2 of the
// value, across era wraps. The receiver resolves against latestRxSeqNo, the
// sender against latestRxSeqNo or, before any ACK, its last seqNo sent.
TEST(SeqNoProperty, FromWireInvertsToWireWithinHalfWindow) {
  Rng rng(4321);
  for (int i = 0; i < 200'000; ++i) {
    const std::int64_t ref = static_cast<std::int64_t>(rng.uniform_int(1'000'000'000));
    const std::int64_t off =
        static_cast<std::int64_t>(rng.uniform_int(kSeqSpace - 1)) - (kSeqHalf - 1);
    const std::int64_t v = ref + off;
    if (v < 0) continue;
    ASSERT_EQ(from_wire(to_wire(v), ref), v) << "ref=" << ref << " v=" << v;
  }
  // Every era boundary within reach of a reference just below a wrap.
  for (std::int64_t wrap = kSeqSpace; wrap <= 4 * kSeqSpace; wrap += kSeqSpace) {
    for (std::int64_t v = wrap - 40; v < wrap + 40; ++v) {
      ASSERT_EQ(from_wire(to_wire(v), wrap - 1), v) << "v=" << v;
      ASSERT_EQ(from_wire(to_wire(v), wrap), v) << "v=" << v;
    }
  }
}

// A negative reference (nothing ACKed or received yet) resolves near seq 0
// of era 0: the first N/2 seqNos come back as themselves, and so does a
// sender reference of next_v - 1 before the first ACK, whether or not
// anything has been sent.
TEST(SeqNoProperty, FromWireBeforeAnyReference) {
  for (std::int64_t v = 0; v < kSeqHalf; ++v)
    ASSERT_EQ(from_wire(to_wire(v), -1), v) << "v=" << v;
  for (std::int64_t next_v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{5},
                              std::int64_t{kSeqSpace + 3}}) {
    for (std::int64_t v = std::max<std::int64_t>(0, next_v - 8); v < next_v; ++v)
      ASSERT_EQ(from_wire(to_wire(v), next_v - 1), v)
          << "next_v=" << next_v << " v=" << v;
  }
}

}  // namespace
}  // namespace lgsim::lg
