#include "phy/optical.h"

#include <cmath>
#include <stdexcept>

namespace lgsim::phy {

namespace {

// log(n choose k) via lgamma.
double log_choose(int n, int k) {
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
}

}  // namespace

FecParams fec_params(FecCode code) {
  switch (code) {
    case FecCode::kNone:
      return {};
    case FecCode::kRs528_514:
      return {.n = 528, .k = 514, .t = 7, .symbol_bits = 10};
    case FecCode::kRs544_514:
      return {.n = 544, .k = 514, .t = 15, .symbol_bits = 10};
  }
  throw std::logic_error("unknown FEC code");
}

double raw_ber(Modulation mod, double q) {
  if (q <= 0.0) return 0.5;
  switch (mod) {
    case Modulation::kNrz:
      return 0.5 * std::erfc(q / std::sqrt(2.0));
    case Modulation::kPam4:
      // Gray-coded 4-level eye: three eyes each one third of the NRZ swing.
      return 0.75 * std::erfc(q / (3.0 * std::sqrt(2.0)));
  }
  throw std::logic_error("unknown modulation");
}

double codeword_error_prob(FecCode code, double ber) {
  const FecParams fp = fec_params(code);
  if (fp.n == 0) return 0.0;
  if (ber <= 0.0) return 0.0;
  if (ber >= 1.0) return 1.0;
  // Symbol error rate: a 10-bit symbol errs if any constituent bit flips.
  const double ser = 1.0 - std::pow(1.0 - ber, fp.symbol_bits);
  if (ser >= 1.0) return 1.0;
  // P(more than t of n symbols err). Sum the complement when ser is large;
  // otherwise accumulate the tail in log space for numerical stability.
  const double log_ser = std::log(ser);
  const double log_ok = std::log1p(-ser);
  if (ser * fp.n > fp.t * 2.0) {
    // Deep in failure territory; the tail is ~1 but compute the head.
    double head = 0.0;
    for (int i = 0; i <= fp.t; ++i) {
      head += std::exp(log_choose(fp.n, i) + i * log_ser + (fp.n - i) * log_ok);
    }
    return 1.0 - std::min(1.0, head);
  }
  double tail = 0.0;
  for (int i = fp.t + 1; i <= fp.n; ++i) {
    const double term = log_choose(fp.n, i) + i * log_ser + (fp.n - i) * log_ok;
    if (term < -745.0) break;  // below double underflow; terms only shrink
    tail += std::exp(term);
  }
  return std::min(1.0, tail);
}

double Transceiver::q_at(double attenuation_db) const {
  return q0 * std::pow(10.0, -attenuation_db / 10.0);
}

double Transceiver::ber_at(double attenuation_db) const {
  return raw_ber(modulation, q_at(attenuation_db));
}

double Transceiver::frame_loss_rate(double attenuation_db,
                                    std::int64_t frame_bytes) const {
  const double ber = ber_at(attenuation_db);
  const std::int64_t bits = frame_bytes * 8;
  if (fec == FecCode::kNone) {
    // Lost if any bit of the frame flips.
    return 1.0 - std::pow(1.0 - ber, static_cast<double>(bits));
  }
  const FecParams fp = fec_params(fec);
  const double cw_err = codeword_error_prob(fec, ber);
  // The frame spans this many RS codewords (data portion only); it is lost if
  // any of them is uncorrectable.
  const double codewords =
      static_cast<double>(bits) / static_cast<double>(fp.k * fp.symbol_bits);
  return 1.0 - std::pow(1.0 - cw_err, codewords);
}

double calibrate_q0(Modulation mod, FecCode fec, double target_atten_db,
                    double target_loss, std::int64_t frame_bytes) {
  // Bisection on q0: frame loss at target attenuation is monotonically
  // decreasing in q0.
  Transceiver t{.name = "probe", .modulation = mod, .fec = fec, .q0 = 0.0};
  double lo = 1.0, hi = 1e6;
  for (int i = 0; i < 200; ++i) {
    const double mid = std::sqrt(lo * hi);  // geometric bisection
    t.q0 = mid;
    const double loss = t.frame_loss_rate(target_atten_db, frame_bytes);
    if (loss > target_loss) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

namespace {

Transceiver make(const char* name, Modulation mod, FecCode fec,
                 double threshold_atten_db) {
  Transceiver t;
  t.name = name;
  t.modulation = mod;
  t.fec = fec;
  t.q0 = calibrate_q0(mod, fec, threshold_atten_db, 1e-8);
  return t;
}

}  // namespace

Transceiver make_10g_sr() {
  return make("10GBASE-SR", Modulation::kNrz, FecCode::kNone, 16.5);
}
Transceiver make_25g_sr_nofec() {
  return make("25GBASE-SR", Modulation::kNrz, FecCode::kNone, 12.5);
}
Transceiver make_25g_sr_fec() {
  return make("25GBASE-SR (FEC)", Modulation::kNrz, FecCode::kRs528_514, 14.0);
}
Transceiver make_50g_sr() {
  return make("50GBASE-SR (FEC)", Modulation::kPam4, FecCode::kRs544_514, 10.5);
}

}  // namespace lgsim::phy
