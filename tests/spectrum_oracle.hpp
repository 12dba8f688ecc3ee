// Reference implementations the spectrum tests check the library against,
// kept in their original straightforward form:
//  * oracle::fold — the periodic fold with an fmod-wrapped sampler, as
//    NoiseSpectrum::decimate computed it before the shared core::fold_bins;
//  * oracle::GridSpectrum2d / oracle::grid_dwt2d_noise_psd — the 2-D DWT
//    noise estimator over an explicit N x N bin grid, which the separable
//    wav::Spectrum2d replaced.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "core/noise_spectrum.hpp"
#include "filters/transfer_function.hpp"
#include "fixedpoint/noise_model.hpp"
#include "support/assert.hpp"
#include "wavelet/daub97.hpp"
#include "wavelet/dwt2d_noise.hpp"

namespace psdacc::oracle {

using Interp = core::NoiseSpectrum::Interp;

// Periodic interpolation of a bin array at any fractional index.
inline double sample_bins(std::span<const double> bins, double index,
                          Interp interp) {
  const auto n = static_cast<double>(bins.size());
  double idx = std::fmod(index, n);
  if (idx < 0.0) idx += n;
  if (interp == Interp::kNearest) {
    const auto k = static_cast<std::size_t>(std::lround(idx)) % bins.size();
    return bins[k];
  }
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const double frac = idx - static_cast<double>(lo);
  const std::size_t hi = (lo + 1) % bins.size();
  return bins[lo % bins.size()] * (1.0 - frac) + bins[hi] * frac;
}

// Decimation fold: out[k] = (1/M) sum_r in((k + rN)/M).
inline std::vector<double> fold(std::span<const double> in,
                                std::size_t factor,
                                Interp interp = Interp::kLinear) {
  const std::size_t n = in.size();
  std::vector<double> out(n, 0.0);
  const double inv_m = 1.0 / static_cast<double>(factor);
  for (std::size_t k = 0; k < n; ++k) {
    double acc = 0.0;
    for (std::size_t r = 0; r < factor; ++r) {
      const double src_index =
          (static_cast<double>(k) +
           static_cast<double>(r) * static_cast<double>(n)) *
          inv_m;
      acc += sample_bins(in, src_index, interp);
    }
    out[k] = acc * inv_m;
  }
  return out;
}

// Spectral compression (zero insertion): out[k] = in[kL mod N] / L.
inline std::vector<double> compress(std::span<const double> in,
                                    std::size_t factor) {
  const std::size_t n = in.size();
  std::vector<double> out(n);
  const double inv_l = 1.0 / static_cast<double>(factor);
  for (std::size_t k = 0; k < n; ++k)
    out[k] = in[(k * factor) % n] * inv_l;
  return out;
}

// N x N PSD bins (row-major, ky * N + kx) plus a coherent mean, with the
// operations of wav::Spectrum2d applied bin by bin.
class GridSpectrum2d {
 public:
  explicit GridSpectrum2d(std::size_t n_bins)
      : n_(n_bins), bins_(n_bins * n_bins, 0.0) {}

  double mean() const { return mean_; }
  const std::vector<double>& bins() const { return bins_; }

  double variance() const {
    double acc = 0.0;
    for (double v : bins_) acc += v;
    return acc;
  }
  double power() const { return mean_ * mean_ + variance(); }

  void add_white(double variance, double mean = 0.0) {
    const double per_bin = variance / static_cast<double>(n_ * n_);
    for (double& v : bins_) v += per_bin;
    mean_ += mean;
  }
  void add_uncorrelated(const GridSpectrum2d& other) {
    for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
    mean_ += other.mean_;
  }

  void apply_row_response(std::span<const double> power_response,
                          double dc) {
    for (std::size_t ky = 0; ky < n_; ++ky)
      for (std::size_t kx = 0; kx < n_; ++kx)
        bins_[ky * n_ + kx] *= power_response[kx];
    mean_ *= dc;
  }
  void apply_col_response(std::span<const double> power_response,
                          double dc) {
    for (std::size_t ky = 0; ky < n_; ++ky)
      for (std::size_t kx = 0; kx < n_; ++kx)
        bins_[ky * n_ + kx] *= power_response[ky];
    mean_ *= dc;
  }

  void decimate_rows(std::size_t factor) {
    map_rows([&](std::span<const double> l) { return fold(l, factor); });
  }
  void decimate_cols(std::size_t factor) {
    map_cols([&](std::span<const double> l) { return fold(l, factor); });
  }
  void expand_rows(std::size_t factor) {
    map_rows([&](std::span<const double> l) { return compress(l, factor); });
    // Mean image lines along kx at ky = 0 (the mean is constant along y).
    const double image_power = (mean_ / static_cast<double>(factor)) *
                               (mean_ / static_cast<double>(factor));
    for (std::size_t r = 1; r < factor; ++r)
      bins_[0 * n_ + (r * n_) / factor] += image_power;
    mean_ /= static_cast<double>(factor);
  }
  void expand_cols(std::size_t factor) {
    map_cols([&](std::span<const double> l) { return compress(l, factor); });
    const double image_power = (mean_ / static_cast<double>(factor)) *
                               (mean_ / static_cast<double>(factor));
    for (std::size_t r = 1; r < factor; ++r)
      bins_[((r * n_) / factor) * n_ + 0] += image_power;
    mean_ /= static_cast<double>(factor);
  }

 private:
  template <typename LineOp>
  void map_rows(LineOp op) {
    std::vector<double> line(n_);
    for (std::size_t ky = 0; ky < n_; ++ky) {
      for (std::size_t kx = 0; kx < n_; ++kx) line[kx] = bins_[ky * n_ + kx];
      const auto mapped = op(line);
      for (std::size_t kx = 0; kx < n_; ++kx) bins_[ky * n_ + kx] = mapped[kx];
    }
  }
  template <typename LineOp>
  void map_cols(LineOp op) {
    std::vector<double> line(n_);
    for (std::size_t kx = 0; kx < n_; ++kx) {
      for (std::size_t ky = 0; ky < n_; ++ky) line[ky] = bins_[ky * n_ + kx];
      const auto mapped = op(line);
      for (std::size_t ky = 0; ky < n_; ++ky) bins_[ky * n_ + kx] = mapped[ky];
    }
  }

  std::size_t n_;
  double mean_ = 0.0;
  std::vector<double> bins_;
};

struct GridFilterTables {
  std::vector<double> h0_pow, h1_pow, g0_pow, g1_pow;
  double h0_dc, h1_dc, g0_dc, g1_dc;
};

inline GridFilterTables grid_filter_tables(std::size_t n_bins) {
  const filt::TransferFunction h0(wav::analysis_lowpass());
  const filt::TransferFunction h1(wav::analysis_highpass());
  const filt::TransferFunction g0(wav::synthesis_lowpass());
  const filt::TransferFunction g1(wav::synthesis_highpass());
  return {.h0_pow = h0.power_response_grid(n_bins),
          .h1_pow = h1.power_response_grid(n_bins),
          .g0_pow = g0.power_response_grid(n_bins),
          .g1_pow = g1.power_response_grid(n_bins),
          .h0_dc = h0.dc_gain(),
          .h1_dc = h1.dc_gain(),
          .g0_dc = g0.dc_gain(),
          .g1_dc = g1.dc_gain()};
}

// Recursive mirror of wav::dwt2d_roundtrip on grid spectra.
inline GridSpectrum2d grid_codec_noise_level(const GridSpectrum2d& in,
                                             std::size_t level,
                                             std::size_t levels,
                                             const GridFilterTables& t,
                                             double q_var, double q_mean) {
  auto filt_rows_down = [&](const GridSpectrum2d& s,
                            const std::vector<double>& pow, double dc) {
    GridSpectrum2d out = s;
    out.apply_row_response(pow, dc);
    out.add_white(q_var, q_mean);
    out.decimate_rows(2);
    return out;
  };
  auto filt_cols_down = [&](const GridSpectrum2d& s,
                            const std::vector<double>& pow, double dc) {
    GridSpectrum2d out = s;
    out.apply_col_response(pow, dc);
    out.add_white(q_var, q_mean);
    out.decimate_cols(2);
    return out;
  };
  auto up_filt_cols = [&](const GridSpectrum2d& s,
                          const std::vector<double>& pow, double dc) {
    GridSpectrum2d out = s;
    out.expand_cols(2);
    out.apply_col_response(pow, dc);
    out.add_white(q_var, q_mean);
    return out;
  };
  auto up_filt_rows = [&](const GridSpectrum2d& s,
                          const std::vector<double>& pow, double dc) {
    GridSpectrum2d out = s;
    out.expand_rows(2);
    out.apply_row_response(pow, dc);
    out.add_white(q_var, q_mean);
    return out;
  };

  const GridSpectrum2d l = filt_rows_down(in, t.h0_pow, t.h0_dc);
  const GridSpectrum2d h = filt_rows_down(in, t.h1_pow, t.h1_dc);
  GridSpectrum2d ll = filt_cols_down(l, t.h0_pow, t.h0_dc);
  const GridSpectrum2d lh = filt_cols_down(l, t.h1_pow, t.h1_dc);
  const GridSpectrum2d hl = filt_cols_down(h, t.h0_pow, t.h0_dc);
  const GridSpectrum2d hh = filt_cols_down(h, t.h1_pow, t.h1_dc);

  if (level < levels)
    ll = grid_codec_noise_level(ll, level + 1, levels, t, q_var, q_mean);

  GridSpectrum2d lcol = up_filt_cols(ll, t.g0_pow, t.g0_dc);
  lcol.add_uncorrelated(up_filt_cols(lh, t.g1_pow, t.g1_dc));
  GridSpectrum2d hcol = up_filt_cols(hl, t.g0_pow, t.g0_dc);
  hcol.add_uncorrelated(up_filt_cols(hh, t.g1_pow, t.g1_dc));
  GridSpectrum2d out = up_filt_rows(lcol, t.g0_pow, t.g0_dc);
  out.add_uncorrelated(up_filt_rows(hcol, t.g1_pow, t.g1_dc));
  return out;
}

inline GridSpectrum2d grid_dwt2d_noise_psd(const wav::Dwt2dNoiseConfig& cfg) {
  PSDACC_EXPECTS(cfg.levels >= 1);
  const auto t = grid_filter_tables(cfg.n_bins);
  const auto m = fxp::continuous_quantization_noise(cfg.format);
  GridSpectrum2d in(cfg.n_bins);
  if (cfg.quantize_input) in.add_white(m.variance, m.mean);
  return grid_codec_noise_level(in, 1, cfg.levels, t, m.variance, m.mean);
}

}  // namespace psdacc::oracle
