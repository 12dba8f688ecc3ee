// Analytical quantization-noise estimation for the 2-D DWT codec — the
// proposed PSD method extended to separable 2-D systems, plus the
// PSD-agnostic moment baseline over the identical structure.
//
// A Spectrum2d is the 2-D analogue of core::NoiseSpectrum: the PSD of the
// zero-mean noise over N x N bins of normalized frequencies (ky, kx) =
// (r/N, c/N) relative to the *current* sampling rate of the band being
// propagated, plus a separate coherent mean. Row operations act along kx,
// column operations along ky.
//
// Every operation the codec applies maps a sum of separable row ⊗ column
// terms to another such sum: white injection adds 1 ⊗ 1, a filter, fold or
// compression along one axis transforms that axis's factors, and the image
// lines of an upsampled mean are impulses. So the bins are held as rank-1
// terms, bin(ky, kx) = sum_t c_t · row_t[kx] · col_t[ky], and never as a
// grid. The length-N factors are immutable and shared between terms (and
// between copies), so an axis operation transforms each distinct factor
// once, and both the operations and power() cost O(terms · N) instead of
// O(N^2). The grid is built only when asked for.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "fixedpoint/format.hpp"

namespace psdacc::wav {

class Spectrum2d {
 public:
  explicit Spectrum2d(std::size_t n_bins);

  std::size_t size() const { return n_; }
  double mean() const { return mean_; }
  void set_mean(double m) { mean_ = m; }
  /// One bin, summed over the terms: O(terms).
  double bin(std::size_t ky, std::size_t kx) const;
  /// All N x N bins, row-major (index ky * N + kx).
  std::vector<double> grid() const;
  /// Number of rank-1 terms the bins are held as.
  std::size_t term_count() const { return terms_.size(); }

  double variance() const;
  double power() const;

  /// Adds white noise of the given variance (and coherent mean).
  void add_white(double variance, double mean = 0.0);
  /// Eq. 14 in 2-D: bins add, means add coherently.
  void add_uncorrelated(const Spectrum2d& other);

  /// Eq. 11 along one axis: multiplies bins by |H(k/N)|^2 where k is the
  /// kx (row op) or ky (column op) index; mean scales by dc.
  void apply_row_response(std::span<const double> power_response, double dc) {
    apply_response(&Term::row, power_response, dc);
  }
  void apply_col_response(std::span<const double> power_response, double dc) {
    apply_response(&Term::col, power_response, dc);
  }

  /// Multirate rules along one axis (same math as NoiseSpectrum).
  void decimate_rows(std::size_t factor) {  // downsampling along x
    decimate(&Term::row, factor);
  }
  void decimate_cols(std::size_t factor) {  // downsampling along y
    decimate(&Term::col, factor);
  }
  void expand_rows(std::size_t factor) { expand(&Term::row, factor); }
  void expand_cols(std::size_t factor) { expand(&Term::col, factor); }

 private:
  using Line = std::vector<double>;
  using Factor = std::shared_ptr<const Line>;
  // c · row[kx] · col[ky]
  struct Term {
    double c;
    Factor row;
    Factor col;
  };

  // Replaces every factor on one axis by transform(factor), computed once
  // per distinct factor.
  template <typename Transform>
  void map_factors(Factor Term::*axis, Transform transform);
  void apply_response(Factor Term::*axis,
                      std::span<const double> power_response, double dc);
  void decimate(Factor Term::*axis, std::size_t factor);
  void expand(Factor Term::*axis, std::size_t factor);

  std::size_t n_;
  double mean_ = 0.0;
  Factor ones_;
  std::vector<Term> terms_;
};

struct Dwt2dNoiseConfig {
  std::size_t levels = 2;
  fxp::FixedPointFormat format;
  std::size_t n_bins = 64;  // per axis
  bool quantize_input = true;
};

/// Proposed method: output noise spectrum of the 2-D codec. Power of the
/// returned spectrum estimates E[err^2] per output pixel.
Spectrum2d dwt2d_noise_psd(const Dwt2dNoiseConfig& cfg);

/// PSD-agnostic baseline: same traversal but blind (mu, sigma^2)
/// propagation through per-filter power gains. Returns estimated power.
/// With `blind_multirate` (the paper's Fig. 1.b baseline) the up- and
/// downsamplers are transparent to the moments; with false the exact
/// marginal corrections are applied (ablation A3).
double dwt2d_noise_power_moments(const Dwt2dNoiseConfig& cfg,
                                 bool blind_multirate = true);

}  // namespace psdacc::wav
