// Optical-link corruption model (reproduces Fig. 1).
//
// The paper measured packet loss vs optical attenuation for four transceiver
// configurations (10GBASE-SR, 25GBASE-SR with/without FEC, 50GBASE-SR with
// FEC) using a Variable Optical Attenuator on OM4 fiber. We model the same
// physics chain:
//
//   attenuation (dB) -> received optical power -> Q factor -> raw BER
//     -> [optional Reed-Solomon FEC correction] -> frame loss probability
//
// For direct-detection optics the photocurrent amplitude is proportional to
// received optical power, so the Q factor scales linearly with power:
// q(a) = q0 * 10^(-a/10). NRZ links see BER = 0.5*erfc(q/sqrt(2)); PAM4 packs
// 4 levels into the same amplitude, so the per-symbol eye is one third and
// BER ~= 0.75*erfc(q/(3*sqrt(2))) — the reason 50G links degrade at much
// lower attenuation in Fig. 1, even with stronger FEC.
//
// q0 for each preset is calibrated so the post-FEC frame loss rate of a
// 1518 B frame crosses 1e-8 at the attenuation observed in Fig. 1. BER=1e-12
// (the "healthy link" criterion in footnote 2 of the paper) then falls out of
// the model rather than being assumed.
#pragma once

#include <cstdint>
#include <string>

namespace lgsim::phy {

enum class Modulation : std::uint8_t { kNrz, kPam4 };

/// Reed-Solomon FEC over 10-bit symbols, as specified by IEEE 802.3.
/// KR4 = RS(528,514), corrects 7 symbols; KP4 = RS(544,514), corrects 15.
enum class FecCode : std::uint8_t { kNone, kRs528_514, kRs544_514 };

struct FecParams {
  int n = 0;         // codeword symbols
  int k = 0;         // data symbols
  int t = 0;         // correctable symbols
  int symbol_bits = 10;
};

FecParams fec_params(FecCode code);

/// Raw (pre-FEC) bit error rate at Q factor `q` for the given modulation.
double raw_ber(Modulation mod, double q);

/// Probability that one RS codeword is uncorrectable at pre-FEC BER `ber`.
double codeword_error_prob(FecCode code, double ber);

/// A transceiver pair on an attenuated fiber.
struct Transceiver {
  std::string name;
  Modulation modulation = Modulation::kNrz;
  FecCode fec = FecCode::kNone;
  double q0 = 0.0;  // Q factor at 0 dB attenuation (calibrated)

  double q_at(double attenuation_db) const;
  double ber_at(double attenuation_db) const;

  /// Probability that a frame of `frame_bytes` is lost at the given
  /// attenuation (post-FEC when FEC is present).
  double frame_loss_rate(double attenuation_db, std::int64_t frame_bytes) const;
};

/// Numerically solves for q0 such that frame_loss_rate(target_atten, 1518)
/// equals `target_loss`. Used to build the presets below.
double calibrate_q0(Modulation mod, FecCode fec, double target_atten_db,
                    double target_loss, std::int64_t frame_bytes = 1518);

// Presets matching the four curves of Fig. 1. Threshold attenuations (where
// packet loss crosses 1e-8 for 1518 B frames) read off the figure:
//   10GBASE-SR ........ ~16.5 dB
//   25GBASE-SR ........ ~12.5 dB  (higher baudrate -> less margin)
//   25GBASE-SR + FEC .. ~14.0 dB
//   50GBASE-SR + FEC .. ~10.5 dB  (PAM4 -> much less margin despite KP4)
Transceiver make_10g_sr();
Transceiver make_25g_sr_nofec();
Transceiver make_25g_sr_fec();
Transceiver make_50g_sr();

}  // namespace lgsim::phy
