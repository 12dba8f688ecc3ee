/// @file noise_spectrum.hpp
/// Discrete quantization-noise spectrum — the quantity the proposed method
/// propagates (Fig. 1.b of the paper).
///
/// Deviation from the paper's literal Eq. 10: the paper writes S(0) = mu^2
/// and S(k != 0) = sigma^2 / N, which loses a sigma^2/N sliver of power at
/// DC. psdacc keeps the white variance exactly flat over all N bins and the
/// mean separate, so power bookkeeping is exact for every N.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fixedpoint/noise_model.hpp"

namespace psdacc::core {

/// Mean + discrete PSD of one additive quantization noise.
///
/// A NoiseSpectrum holds:
///  * `mean` — the signed deterministic (DC) component of the noise. Means
///    add coherently at adders (the paper's Eq. 4 cross term L_ij mu_i mu_j)
///    and scale by H(0) through blocks, so tracking the sign matters.
///  * `bins` — an N_PSD-point PSD of the zero-mean stochastic part, bin k
///    covering normalized frequency k/N (periodic). sum(bins) == variance.
///
/// Total noise power (Eq. 9): power() = mean^2 + sum(bins).
class NoiseSpectrum {
 public:
  /// All-zero spectrum over @p n_bins.
  explicit NoiseSpectrum(std::size_t n_bins);
  /// White spectrum with the given PQN moments (Eq. 10).
  /// @param n_bins  number of PSD bins (the paper's N_PSD)
  /// @param moments first two moments of the injected noise
  NoiseSpectrum(std::size_t n_bins, const fxp::NoiseMoments& moments);

  /// Re-initializes to the all-zero spectrum over @p n_bins, reusing the
  /// existing bin storage when possible (for allocation-free hot loops).
  void reset(std::size_t n_bins);

  std::size_t size() const { return bins_.size(); }
  double mean() const { return mean_; }
  void set_mean(double m) { mean_ = m; }
  std::span<const double> bins() const { return bins_; }
  double& bin(std::size_t k) { return bins_[k]; }
  double bin(std::size_t k) const { return bins_[k]; }

  /// Variance = sum of bins.
  double variance() const;
  /// Total power mean^2 + variance (Eq. 9 discretized).
  double power() const;

  /// Eq. 14: incoherent addition of an uncorrelated noise (bins add), but
  /// coherent addition of the deterministic means.
  /// @param other the spectrum joining this one at an adder
  /// @param sign  the adder sign applied to @p other's mean
  void add_uncorrelated(const NoiseSpectrum& other, double sign = 1.0);

  /// Adds an uncorrelated white noise with the given PQN moments (Eqs. 10 +
  /// 14 fused) without materializing a temporary spectrum.
  void add_white(const fxp::NoiseMoments& moments, double sign = 1.0);

  /// Eq. 11: multiplies bins by |H|^2 sampled on the k/N grid, and the mean
  /// by the DC response.
  /// @param power_response |H(k/N)|^2 per bin; must have size() entries
  /// @param dc_response    H(0), applied (signed) to the mean
  void apply_power_response(std::span<const double> power_response,
                            double dc_response);

  /// Scales by a constant gain @p g (bins by g^2, mean by g).
  void apply_gain(double g);

  /// Multirate rules (documented in DESIGN.md):
  /// decimate: S_y(F) = (1/M) sum_r S_x((F + r) / M); mean unchanged.
  /// Off-grid indices use the chosen interpolation.
  enum class Interp { kNearest, kLinear };
  void decimate(std::size_t factor, Interp interp = Interp::kLinear);
  /// expand (zero-insertion): S_y(F) = (1/L) S_x(L F mod 1); the mean
  /// becomes mean/L and its non-DC image lines at F = r/L are folded into
  /// the corresponding bins with power (mean/L)^2 each.
  void expand(std::size_t factor);

  /// Resamples the spectrum to a different bin count, preserving variance
  /// (used when comparing across N_PSD settings).
  /// @return a new spectrum with @p new_bins bins and identical power
  NoiseSpectrum resampled(std::size_t new_bins) const;

 private:
  double mean_ = 0.0;
  std::vector<double> bins_;
};

/// The 1-D multirate rules on one periodic line of N bins, shared by
/// NoiseSpectrum and the separable 2-D spectra built from such lines.
/// Decimation fold: out[k] = (1/M) sum_{r<M} in((k + rN) / M), off-grid
/// indices interpolated per @p interp. @p out must not alias @p in.
void fold_bins(std::span<const double> in, std::size_t factor,
               NoiseSpectrum::Interp interp, std::span<double> out);
/// Spectral compression of zero insertion: out[k] = in[kL mod N] / L. The
/// image lines of a mean are the caller's. @p out must not alias @p in.
void compress_bins(std::span<const double> in, std::size_t factor,
                   std::span<double> out);

}  // namespace psdacc::core
