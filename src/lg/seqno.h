// Era-corrected 16-bit sequence-number arithmetic (§3.5 "Handling seqNo
// wrap-around").
//
// LinkGuardian's data header carries a 16-bit seqNo plus a 1-bit "era" that
// toggles every time the sequence number wraps. Two sequence numbers from
// different eras are compared after subtracting N/2 (N = 65536) from both,
// which is correct as long as they are no more than N/2 apart — a property
// the protocol maintains because the Tx window is tiny compared to N.
//
// Both endpoints count in 64-bit virtual seqNos and meet the wire only
// through to_wire and from_wire, the one codec of the link.
#pragma once

#include <cstdint>

namespace lgsim::lg {

constexpr std::uint32_t kSeqSpace = 65536;  // N
constexpr std::uint16_t kSeqHalf = 32768;   // N/2

struct SeqEra {
  std::uint16_t seq = 0;
  std::uint8_t era = 0;

  friend bool operator==(SeqEra a, SeqEra b) {
    return a.seq == b.seq && a.era == b.era;
  }
};

/// Signed distance a - b in era-corrected space. Valid when the true distance
/// is within (-N/2, N/2). Implements the paper's era-correction rule: same
/// era -> plain subtraction; different eras -> subtract N/2 from both
/// (mod N) before subtracting.
constexpr std::int32_t seq_distance(SeqEra a, SeqEra b) {
  if (a.era == b.era) {
    return static_cast<std::int32_t>(a.seq) - static_cast<std::int32_t>(b.seq);
  }
  const std::uint16_t a2 = static_cast<std::uint16_t>(a.seq - kSeqHalf);
  const std::uint16_t b2 = static_cast<std::uint16_t>(b.seq - kSeqHalf);
  return static_cast<std::int32_t>(a2) - static_cast<std::int32_t>(b2);
}

/// The state both endpoints start from: "nothing received yet", whose
/// successor is seq 0 of era 0.
constexpr SeqEra seq_before_first() { return {0xFFFF, 1}; }

/// The wire form of virtual (64-bit) seqNo v: its low 16 bits and the era
/// bit, which toggles at every wrap.
constexpr SeqEra to_wire(std::int64_t v) {
  return SeqEra{static_cast<std::uint16_t>(v & 0xFFFF),
                static_cast<std::uint8_t>((v >> 16) & 1)};
}

/// The virtual seqNo whose wire form is `wire`, taken as the one within N/2
/// of `reference` (a virtual seqNo this endpoint already knows). A negative
/// reference means nothing is known yet: `wire` is resolved near seq 0 of
/// era 0.
constexpr std::int64_t from_wire(SeqEra wire, std::int64_t reference) {
  if (reference < 0) return seq_distance(wire, seq_before_first()) - 1;
  return reference + seq_distance(wire, to_wire(reference));
}

}  // namespace lgsim::lg
