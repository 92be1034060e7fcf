// Boundary tests for lg::RecircBuffer, the recirculation-loop model behind
// the sender's Tx buffer and the receiver's reordering buffer: the next loop
// pass, the loop count at free, the byte count and slot recycling.
#include <gtest/gtest.h>

#include <cstdint>

#include "lg/recirc.h"
#include "sim/random.h"

namespace lgsim::lg {
namespace {

net::Packet frame(std::int32_t bytes, std::uint64_t uid) {
  net::Packet p;
  p.kind = net::PktKind::kData;
  p.frame_bytes = bytes;
  p.uid = uid;
  return p;
}

struct RecircFixture : ::testing::Test {
  RecircFixture() { cfg.recirc_loop = nsec(1200); }
  LgConfig cfg;
};

TEST_F(RecircFixture, NextPassIsTheFirstLoopPointStrictlyAfterNow) {
  RecircBuffer buf(cfg, 7);
  RecircBuffer::Entry& e = buf.insert(0, frame(100, 1), nsec(1000));
  e.loop_phase = nsec(300);  // the frame first passes the loop point at 1300
  const SimTime loop = cfg.recirc_loop;

  // The phase point is still ahead: that pass is the next one.
  EXPECT_EQ(buf.next_pass(e, nsec(1000)), nsec(1300));
  EXPECT_EQ(buf.next_pass(e, nsec(1299)), nsec(1300));
  // Exactly at a pass: the frame is already past it, so the next one.
  EXPECT_EQ(buf.next_pass(e, nsec(1300)), nsec(1300) + loop);
  EXPECT_EQ(buf.next_pass(e, nsec(1301)), nsec(1300) + loop);
  // Many loops back.
  EXPECT_EQ(buf.next_pass(e, nsec(1300) + 1000 * loop), nsec(1300) + 1001 * loop);
  EXPECT_EQ(buf.next_pass(e, nsec(1300) + 1000 * loop - 1),
            nsec(1300) + 1000 * loop);

  // Any now past the phase point: a loop point, strictly later, within one
  // loop.
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const SimTime now = nsec(1300) + static_cast<SimTime>(rng.uniform_int(usec(500)));
    const SimTime next = buf.next_pass(e, now);
    ASSERT_GT(next, now);
    ASSERT_LE(next - now, loop);
    ASSERT_EQ((next - nsec(1300)) % loop, 0);
  }
}

TEST_F(RecircFixture, PhasesAreDrawnWithinOneLoop) {
  RecircBuffer buf(cfg, 11);
  for (std::int64_t v = 0; v < 1000; ++v) {
    const RecircBuffer::Entry& e = buf.insert(v, frame(64, 0), 0);
    ASSERT_GE(e.loop_phase, 0);
    ASSERT_LT(e.loop_phase, cfg.recirc_loop);
  }
}

TEST_F(RecircFixture, TakeCountsOnePassPerStartedLoop) {
  RecircBuffer buf(cfg, 7);
  const SimTime loop = cfg.recirc_loop;
  std::int64_t loops = 10;  // take adds to what is already counted
  buf.insert(0, frame(100, 1), nsec(500));
  buf.insert(1, frame(100, 2), nsec(500));
  buf.insert(2, frame(100, 3), nsec(500));

  // A lifetime of exactly k loops counts k + 1 passes; one ns less, k.
  ASSERT_NE(buf.take(0, nsec(500) + 3 * loop, loops), nullptr);
  EXPECT_EQ(loops, 10 + 4);
  ASSERT_NE(buf.take(1, nsec(500) + 3 * loop - 1, loops), nullptr);
  EXPECT_EQ(loops, 14 + 3);
  // Freed on entry: one pass.
  ASSERT_NE(buf.take(2, nsec(500), loops), nullptr);
  EXPECT_EQ(loops, 17 + 1);
  // An absent key counts nothing.
  EXPECT_EQ(buf.take(2, nsec(500) + 9 * loop, loops), nullptr);
  EXPECT_EQ(loops, 18);
}

TEST_F(RecircFixture, ByteCountFollowsInsertTakeAndClear) {
  RecircBuffer buf(cfg, 7);
  std::int64_t loops = 0;
  buf.insert(5, frame(100, 1), 0);
  const net::Packet mirrored = frame(200, 2);
  buf.insert(6, mirrored, 0);  // the const& overload parks a copy
  buf.insert(9, frame(1518, 3), 0);
  EXPECT_EQ(buf.bytes(), 1818);
  EXPECT_EQ(buf.size(), 3u);

  const RecircBuffer::Entry* taken = buf.take(6, nsec(10), loops);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(taken->pkt.uid, 2u);  // readable until the next insert
  EXPECT_EQ(buf.bytes(), 1618);
  EXPECT_FALSE(buf.contains(6));
  EXPECT_EQ(buf.take(6, nsec(10), loops), nullptr);
  EXPECT_EQ(buf.bytes(), 1618);

  buf.clear();
  EXPECT_EQ(buf.bytes(), 0);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_FALSE(buf.contains(5));
  buf.insert(5, frame(64, 4), 0);
  EXPECT_EQ(buf.bytes(), 64);
}

TEST_F(RecircFixture, RecycledSlotCarriesNoRetxRequestOver) {
  RecircBuffer buf(cfg, 7);
  std::int64_t loops = 0;
  RecircBuffer::Entry& first = buf.insert(0, frame(100, 1), nsec(40));
  first.retx_requested = true;
  RecircBuffer::Entry* taken = buf.take(0, nsec(50), loops);
  ASSERT_EQ(taken, &first);
  EXPECT_TRUE(taken->retx_requested);  // the taken entry is still as it was

  // Key 16 maps to key 0's slot in a 16-slot ring: the same storage, and
  // none of its earlier occupant's state.
  RecircBuffer::Entry& next = buf.insert(16, frame(200, 2), nsec(60));
  ASSERT_EQ(&next, &first) << "the insert did not reuse the slot";
  EXPECT_FALSE(next.retx_requested);
  EXPECT_EQ(next.pkt.uid, 2u);
  EXPECT_EQ(next.entered_at, nsec(60));
  EXPECT_EQ(buf.bytes(), 200);
}

}  // namespace
}  // namespace lgsim::lg
