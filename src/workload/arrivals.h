// Per-host flow arrival processes for the fabric-scale traffic engine.
//
// Follows the methodology of "Traffic Generation for Benchmarking Data
// Centre Networks" (PAPERS.md): each host offers flows drawn from an
// empirical size distribution at a rate derived from a target *load
// fraction* of its edge (NIC) capacity —
//
//   flows/sec = load_fraction * edge_rate / (8 * mean_flow_bytes)
//
// — with interarrival gaps that are either exponential (Poisson process) or
// lognormal (burstier arrivals at the same mean rate; sigma controls the
// burstiness, sigma -> 0 degenerates to deterministic spacing).
//
// Determinism: generators are seeded per (run seed, cell, host) via
// stream_rng(), a SplitMix64-style mix, so every host of every {seed x
// time-slice} cell draws an independent, scheduling-independent stream — the
// property the traffic engine's byte-identical-for-any-job-and-shard-count
// contract rests on. Restarting a Poisson process at a slice boundary is
// still a Poisson process (memorylessness), so slicing a run's horizon does
// not change the offered load's law.
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/random.h"
#include "util/units.h"

namespace lgsim::workload {

/// Independent stream seeding: a SplitMix64 finalizer over the mixed words,
/// so adjacent (seed, cell, host) triples land far apart in state space.
inline std::uint64_t mix_stream(std::uint64_t seed, std::uint64_t cell,
                                std::uint64_t host) {
  std::uint64_t z = seed;
  z ^= cell + 0x9e3779b97f4a7c15ULL + (z << 6) + (z >> 2);
  z ^= host + 0x9e3779b97f4a7c15ULL + (z << 6) + (z >> 2);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline Rng stream_rng(std::uint64_t seed, std::uint64_t cell,
                      std::uint64_t host) {
  return Rng(mix_stream(seed, cell, host));
}

struct ArrivalSpec {
  enum class Process : std::uint8_t { kPoisson, kLognormal };
  Process process = Process::kPoisson;
  /// Offered load as a fraction of the edge (host NIC) capacity.
  double load_fraction = 0.1;
  BitRate edge_rate = gbps(25);
  /// Lognormal shape parameter (gap CV = sqrt(exp(sigma^2) - 1)); the scale
  /// is always chosen so the *mean* gap matches the Poisson process's.
  double lognormal_sigma = 1.0;
};

/// Mean arrival rate implied by the spec for a workload with the given mean
/// flow size.
inline double flows_per_sec(const ArrivalSpec& s, double mean_flow_bytes) {
  if (mean_flow_bytes <= 0) return 0.0;
  return s.load_fraction * static_cast<double>(s.edge_rate) /
         (8.0 * mean_flow_bytes);
}

/// One host's arrival-gap generator. Draws a fixed number of RNG values per
/// gap (1 uniform for Poisson, 2 for lognormal) so streams stay aligned.
class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalSpec& spec, double mean_flow_bytes, Rng rng)
      : spec_(spec), rng_(rng) {
    const double rate = flows_per_sec(spec, mean_flow_bytes);
    mean_gap_sec_ = rate > 0 ? 1.0 / rate : 0.0;
    // Lognormal with E[gap] = mean_gap: mu = log(mean) - sigma^2/2.
    lognormal_mu_ = mean_gap_sec_ > 0
                        ? std::log(mean_gap_sec_) -
                              0.5 * spec.lognormal_sigma * spec.lognormal_sigma
                        : 0.0;
  }

  /// Seconds until the next arrival; +inf when the spec's rate is zero.
  double next_gap_sec() {
    if (mean_gap_sec_ <= 0) return std::numeric_limits<double>::infinity();
    if (spec_.process == ArrivalSpec::Process::kPoisson)
      return rng_.exponential(mean_gap_sec_);
    // Box-Muller; one (u1, u2) pair per gap.
    double u1 = rng_.uniform();
    const double u2 = rng_.uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(2.0 * 3.141592653589793 * u2);
    return std::exp(lognormal_mu_ + spec_.lognormal_sigma * z);
  }

  double mean_gap_sec() const { return mean_gap_sec_; }

 private:
  ArrivalSpec spec_;
  Rng rng_;
  double mean_gap_sec_ = 0.0;
  double lognormal_mu_ = 0.0;
};

}  // namespace lgsim::workload
