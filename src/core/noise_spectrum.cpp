#include "core/noise_spectrum.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace psdacc::core {

NoiseSpectrum::NoiseSpectrum(std::size_t n_bins) : bins_(n_bins, 0.0) {
  PSDACC_EXPECTS(n_bins >= 2);
}

NoiseSpectrum::NoiseSpectrum(std::size_t n_bins,
                             const fxp::NoiseMoments& moments)
    : mean_(moments.mean),
      bins_(n_bins, moments.variance / static_cast<double>(n_bins)) {
  PSDACC_EXPECTS(n_bins >= 2);
}

void NoiseSpectrum::reset(std::size_t n_bins) {
  PSDACC_EXPECTS(n_bins >= 2);
  mean_ = 0.0;
  bins_.assign(n_bins, 0.0);
}

double NoiseSpectrum::variance() const {
  double acc = 0.0;
  for (double v : bins_) acc += v;
  return acc;
}

double NoiseSpectrum::power() const { return mean_ * mean_ + variance(); }

void NoiseSpectrum::add_uncorrelated(const NoiseSpectrum& other,
                                     double sign) {
  PSDACC_EXPECTS(other.size() == size());
  for (std::size_t k = 0; k < bins_.size(); ++k) bins_[k] += other.bins_[k];
  mean_ += sign * other.mean_;
}

void NoiseSpectrum::add_white(const fxp::NoiseMoments& moments, double sign) {
  const double per_bin = moments.variance / static_cast<double>(bins_.size());
  for (double& v : bins_) v += per_bin;
  mean_ += sign * moments.mean;
}

void NoiseSpectrum::apply_power_response(
    std::span<const double> power_response, double dc_response) {
  PSDACC_EXPECTS(power_response.size() == size());
  for (std::size_t k = 0; k < bins_.size(); ++k) {
    PSDACC_EXPECTS(power_response[k] >= 0.0);
    bins_[k] *= power_response[k];
  }
  mean_ *= dc_response;
}

void NoiseSpectrum::apply_gain(double g) {
  for (double& v : bins_) v *= g * g;
  mean_ *= g;
}

namespace {

// Interpolated bin value at a fractional index in [0, N); the linear upper
// neighbour of the last bin, and a nearest index rounded up to N, wrap to 0.
double sample_bins(std::span<const double> bins, double index,
                   NoiseSpectrum::Interp interp) {
  const std::size_t n = bins.size();
  if (interp == NoiseSpectrum::Interp::kNearest) {
    const auto k = static_cast<std::size_t>(std::lround(index));
    return bins[k == n ? 0 : k];
  }
  // index >= 0, so the signed conversion truncates exactly like floor.
  const auto lo = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(index));
  const double frac = index - static_cast<double>(lo);
  const std::size_t hi = lo + 1 == n ? 0 : lo + 1;
  return bins[lo] * (1.0 - frac) + bins[hi] * frac;
}

}  // namespace

void fold_bins(std::span<const double> in, std::size_t factor,
               NoiseSpectrum::Interp interp, std::span<double> out) {
  const std::size_t n = in.size();
  PSDACC_EXPECTS(factor >= 1 && out.size() == n);
  const double inv_m = 1.0 / static_cast<double>(factor);
  const auto n_d = static_cast<double>(n);
  // k and rN are integers below 2^53, so the running double counters hold
  // them exactly. For k < N and r < M the source index (k + rN)/M is below
  // N, so no wrap is needed.
  double k_d = 0.0;
  for (std::size_t k = 0; k < n; ++k, k_d += 1.0) {
    double acc = 0.0;
    double rn = 0.0;
    for (std::size_t r = 0; r < factor; ++r, rn += n_d)
      acc += sample_bins(in, (k_d + rn) * inv_m, interp);
    out[k] = acc * inv_m;
  }
}

void compress_bins(std::span<const double> in, std::size_t factor,
                   std::span<double> out) {
  const std::size_t n = in.size();
  PSDACC_EXPECTS(factor >= 1 && out.size() == n);
  const double inv_l = 1.0 / static_cast<double>(factor);
  const std::size_t step = factor % n;
  // src runs through kL mod N without a division per bin.
  for (std::size_t k = 0, src = 0; k < n; ++k) {
    out[k] = in[src] * inv_l;
    src += step;
    if (src >= n) src -= n;
  }
}

void NoiseSpectrum::decimate(std::size_t factor, Interp interp) {
  PSDACC_EXPECTS(factor >= 1);
  if (factor == 1) return;
  std::vector<double> out(bins_.size());
  fold_bins(bins_, factor, interp, out);
  bins_ = std::move(out);
  // mean unchanged: E[x[Mn]] == E[x[n]].
}

void NoiseSpectrum::expand(std::size_t factor) {
  PSDACC_EXPECTS(factor >= 1);
  if (factor == 1) return;
  const std::size_t n = bins_.size();
  const double inv_l = 1.0 / static_cast<double>(factor);
  std::vector<double> out(n);
  compress_bins(bins_, factor, out);
  // The zero-stuffed deterministic mean becomes a periodic impulse train:
  // DC line mean/L stays coherent, the L-1 image lines at F = r/L carry
  // power (mean/L)^2 each and are folded into the stochastic bins.
  const double image_power = (mean_ * inv_l) * (mean_ * inv_l);
  for (std::size_t r = 1; r < factor; ++r) {
    const std::size_t k = (r * n) / factor;  // exact when L | N (asserted)
    PSDACC_EXPECTS((r * n) % factor == 0 &&
                   "N_PSD must be divisible by the upsampling factor");
    out[k] += image_power;
  }
  bins_ = std::move(out);
  mean_ *= inv_l;
}

NoiseSpectrum NoiseSpectrum::resampled(std::size_t new_bins) const {
  PSDACC_EXPECTS(new_bins >= 2);
  NoiseSpectrum out(new_bins);
  out.mean_ = mean_;
  const double ratio = static_cast<double>(bins_.size()) /
                       static_cast<double>(new_bins);
  const auto n = static_cast<double>(bins_.size());
  for (std::size_t k = 0; k < new_bins; ++k) {
    const double index = std::fmod(static_cast<double>(k) * ratio, n);
    out.bins_[k] = sample_bins(bins_, index, Interp::kLinear) * ratio;
  }
  return out;
}

}  // namespace psdacc::core
