// Table 1: corruption loss rates observed in Microsoft datacenters — the
// input distribution used by the trace generator, validated by sampling.
//
// The sample stream is split into a fixed number of chunks, each with its own
// deterministically derived Rng, fanned out over LGSIM_BENCH_JOBS workers and
// merged in chunk order — so the printed rows are byte-identical for any job
// count (the chunk count never depends on the worker count).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "corropt/corropt.h"
#include "harness/parallel.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

struct ChunkConfig {
  std::uint64_t seed = 0;
  std::int64_t samples = 0;
};

struct ChunkResult {
  lgsim::CountHistogram buckets;  // bin = Table-1 bucket index
  double sum = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  lgsim::bench::TraceSession trace_session(argc, argv);
  using namespace lgsim;
  using namespace lgsim::corropt;
  bench::banner("Table 1", "Corruption loss-rate buckets (Microsoft DCs) & sampler");

  const std::int64_t n = bench::scaled(1'000'000, 100'000);
  constexpr std::int64_t kChunks = 64;

  // Derive per-chunk seeds serially from one base generator, then fan the
  // chunks out; each worker samples only from its own Rng.
  Rng base(42);
  std::vector<ChunkConfig> chunks;
  for (std::int64_t k = 0; k < kChunks; ++k) {
    ChunkConfig c;
    c.seed = base.next_u64();
    c.samples = n / kChunks + (k < n % kChunks ? 1 : 0);
    chunks.push_back(c);
  }
  const auto sample_chunk = [](const ChunkConfig& c) {
    Rng rng(c.seed);
    ChunkResult out;
    for (std::int64_t i = 0; i < c.samples; ++i) {
      const double r = sample_loss_rate(rng);
      out.sum += r;
      if (r < 1e-5) out.buckets.add(0);
      else if (r < 1e-4) out.buckets.add(1);
      else if (r < 1e-3) out.buckets.add(2);
      else out.buckets.add(3);
    }
    return out;
  };

  CountHistogram counts;
  double mean = 0.0;
  for (const ChunkResult& r : harness::run_grid(chunks, sample_chunk)) {
    counts.merge(r.buckets);
    mean += r.sum;
  }
  mean /= static_cast<double>(n);

  TablePrinter t({"Loss bucket", "Paper (% links)", "Sampled (%)"});
  const char* names[] = {"[1e-8, 1e-5)", "[1e-5, 1e-4)", "[1e-4, 1e-3)", "[1e-3+)"};
  const auto& buckets = table1_buckets();
  for (int i = 0; i < 4; ++i) {
    t.add_row({names[i], TablePrinter::fmt(100.0 * buckets[i].fraction, 2),
               TablePrinter::fmt(100.0 * static_cast<double>(counts.count_at(i)) /
                                     static_cast<double>(n), 2)});
  }
  t.print();
  std::printf("\nMean sampled loss rate: %.2e (heavy-tail dominated by the 1e-3+ bucket).\n", mean);
  return 0;
}
