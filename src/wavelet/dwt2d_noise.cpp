#include "wavelet/dwt2d_noise.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/noise_spectrum.hpp"
#include "filters/transfer_function.hpp"
#include "fixedpoint/noise_model.hpp"
#include "support/assert.hpp"
#include "wavelet/daub97.hpp"

namespace psdacc::wav {

Spectrum2d::Spectrum2d(std::size_t n_bins)
    : n_(n_bins), ones_(std::make_shared<const Line>(n_bins, 1.0)) {
  PSDACC_EXPECTS(n_bins >= 2 && n_bins % 2 == 0);
}

double Spectrum2d::bin(std::size_t ky, std::size_t kx) const {
  double acc = 0.0;
  for (const Term& t : terms_) acc += t.c * (*t.col)[ky] * (*t.row)[kx];
  return acc;
}

std::vector<double> Spectrum2d::grid() const {
  std::vector<double> out(n_ * n_, 0.0);
  for (const Term& t : terms_) {
    const Line& row = *t.row;
    for (std::size_t ky = 0; ky < n_; ++ky) {
      const double scale = t.c * (*t.col)[ky];
      double* line = out.data() + ky * n_;
      for (std::size_t kx = 0; kx < n_; ++kx) line[kx] += scale * row[kx];
    }
  }
  return out;
}

double Spectrum2d::variance() const {
  auto sum = [](const Line& f) {
    double acc = 0.0;
    for (double v : f) acc += v;
    return acc;
  };
  double acc = 0.0;
  for (const Term& t : terms_) acc += t.c * sum(*t.row) * sum(*t.col);
  return acc;
}

double Spectrum2d::power() const { return mean_ * mean_ + variance(); }

void Spectrum2d::add_white(double variance, double mean) {
  if (variance != 0.0)
    terms_.push_back({variance / static_cast<double>(n_ * n_), ones_, ones_});
  mean_ += mean;
}

void Spectrum2d::add_uncorrelated(const Spectrum2d& other) {
  PSDACC_EXPECTS(other.n_ == n_);
  terms_.insert(terms_.end(), other.terms_.begin(), other.terms_.end());
  mean_ += other.mean_;
}

template <typename Transform>
void Spectrum2d::map_factors(Factor Term::*axis, Transform transform) {
  // (old, new) pairs: terms that share a factor share its transform.
  std::vector<std::pair<Factor, Factor>> done;
  for (Term& t : terms_) {
    Factor& f = t.*axis;
    auto it = std::find_if(done.begin(), done.end(),
                           [&](const auto& p) { return p.first == f; });
    if (it == done.end()) {
      auto out = std::make_shared<Line>(n_);
      transform(*f, *out);
      done.emplace_back(f, std::move(out));
      it = std::prev(done.end());
    }
    f = it->second;
  }
}

void Spectrum2d::apply_response(Factor Term::*axis,
                                std::span<const double> power_response,
                                double dc) {
  PSDACC_EXPECTS(power_response.size() == n_);
  map_factors(axis, [&](const Line& in, Line& out) {
    for (std::size_t k = 0; k < n_; ++k) out[k] = in[k] * power_response[k];
  });
  mean_ *= dc;
}

void Spectrum2d::decimate(Factor Term::*axis, std::size_t factor) {
  if (factor == 1) return;
  map_factors(axis, [&](const Line& in, Line& out) {
    core::fold_bins(in, factor, core::NoiseSpectrum::Interp::kLinear, out);
  });
}

void Spectrum2d::expand(Factor Term::*axis, std::size_t factor) {
  if (factor == 1) return;
  PSDACC_EXPECTS(n_ % factor == 0);
  map_factors(axis, [&](const Line& in, Line& out) {
    core::compress_bins(in, factor, out);
  });
  // The zero-stuffed mean is constant along the other axis, so its L - 1
  // image lines sit at frequency rN/L on this axis and at 0 on the other.
  const double image = mean_ / static_cast<double>(factor);
  if (image != 0.0) {
    auto delta0 = std::make_shared<Line>(n_, 0.0);
    (*delta0)[0] = 1.0;
    for (std::size_t r = 1; r < factor; ++r) {
      auto delta = std::make_shared<Line>(n_, 0.0);
      (*delta)[(r * n_) / factor] = 1.0;
      Term& t = terms_.emplace_back(Term{image * image, delta0, delta0});
      t.*axis = std::move(delta);
    }
  }
  mean_ /= static_cast<double>(factor);
}

namespace {

struct FilterTables {
  std::vector<double> h0_pow, h1_pow, g0_pow, g1_pow;
  double h0_dc, h1_dc, g0_dc, g1_dc;
  double h0_pg, h1_pg, g0_pg, g1_pg;  // sum h[k]^2, for the moment baseline
};

FilterTables make_tables(std::size_t n_bins) {
  FilterTables t;
  const filt::TransferFunction h0(analysis_lowpass());
  const filt::TransferFunction h1(analysis_highpass());
  const filt::TransferFunction g0(synthesis_lowpass());
  const filt::TransferFunction g1(synthesis_highpass());
  t.h0_pow = h0.power_response_grid(n_bins);
  t.h1_pow = h1.power_response_grid(n_bins);
  t.g0_pow = g0.power_response_grid(n_bins);
  t.g1_pow = g1.power_response_grid(n_bins);
  t.h0_dc = h0.dc_gain();
  t.h1_dc = h1.dc_gain();
  t.g0_dc = g0.dc_gain();
  t.g1_dc = g1.dc_gain();
  t.h0_pg = h0.power_gain();
  t.h1_pg = h1.power_gain();
  t.g0_pg = g0.power_gain();
  t.g1_pg = g1.power_gain();
  return t;
}

// Recursive mirror of dwt2d_roundtrip on spectra (proposed method). Every
// band is taken by value and moved on its last use, so a spectrum is copied
// only where it feeds two bands.
Spectrum2d codec_noise_level(Spectrum2d in, std::size_t level,
                             std::size_t levels, const FilterTables& t,
                             double q_var, double q_mean) {
  auto filt_rows_down = [&](Spectrum2d s, const std::vector<double>& pow,
                            double dc) {
    s.apply_row_response(pow, dc);
    s.add_white(q_var, q_mean);
    s.decimate_rows(2);
    return s;
  };
  auto filt_cols_down = [&](Spectrum2d s, const std::vector<double>& pow,
                            double dc) {
    s.apply_col_response(pow, dc);
    s.add_white(q_var, q_mean);
    s.decimate_cols(2);
    return s;
  };
  auto up_filt_cols = [&](Spectrum2d s, const std::vector<double>& pow,
                          double dc) {
    s.expand_cols(2);
    s.apply_col_response(pow, dc);
    s.add_white(q_var, q_mean);
    return s;
  };
  auto up_filt_rows = [&](Spectrum2d s, const std::vector<double>& pow,
                          double dc) {
    s.expand_rows(2);
    s.apply_row_response(pow, dc);
    s.add_white(q_var, q_mean);
    return s;
  };

  // Analysis.
  Spectrum2d l = filt_rows_down(in, t.h0_pow, t.h0_dc);
  Spectrum2d h = filt_rows_down(std::move(in), t.h1_pow, t.h1_dc);
  Spectrum2d ll = filt_cols_down(l, t.h0_pow, t.h0_dc);
  Spectrum2d lh = filt_cols_down(std::move(l), t.h1_pow, t.h1_dc);
  Spectrum2d hl = filt_cols_down(h, t.h0_pow, t.h0_dc);
  Spectrum2d hh = filt_cols_down(std::move(h), t.h1_pow, t.h1_dc);

  // Recurse on the approximation band.
  if (level < levels)
    ll = codec_noise_level(std::move(ll), level + 1, levels, t, q_var, q_mean);

  // Synthesis (columns then rows, matching dwt2d.cpp).
  Spectrum2d lcol = up_filt_cols(std::move(ll), t.g0_pow, t.g0_dc);
  lcol.add_uncorrelated(up_filt_cols(std::move(lh), t.g1_pow, t.g1_dc));
  Spectrum2d hcol = up_filt_cols(std::move(hl), t.g0_pow, t.g0_dc);
  hcol.add_uncorrelated(up_filt_cols(std::move(hh), t.g1_pow, t.g1_dc));
  Spectrum2d out = up_filt_rows(std::move(lcol), t.g0_pow, t.g0_dc);
  out.add_uncorrelated(up_filt_rows(std::move(hcol), t.g1_pow, t.g1_dc));
  return out;
}

struct Moments {
  double mean = 0.0;
  double variance = 0.0;
};

Moments codec_noise_level_moments(const Moments& in, std::size_t level,
                                  std::size_t levels, const FilterTables& t,
                                  double q_var, double q_mean,
                                  bool blind_multirate) {
  auto filt_down = [&](const Moments& m, double pg, double dc) {
    // Blind variance propagation through the power gain, then the noise of
    // the quantizer; decimation leaves moments unchanged either way.
    return Moments{m.mean * dc + q_mean, m.variance * pg + q_var};
  };
  auto up_filt = [&](const Moments& m, double pg, double dc) {
    if (blind_multirate) {
      // Paper baseline: the upsampler is transparent to the moments.
      return Moments{m.mean * dc + q_mean, m.variance * pg + q_var};
    }
    // Corrected: zero-insertion gives E[y^2] = E[x^2]/2, mean/2; then
    // filter + quantizer.
    const double power = m.mean * m.mean + m.variance;
    const double mean_up = m.mean / 2.0;
    const double var_up = power / 2.0 - mean_up * mean_up;
    return Moments{mean_up * dc + q_mean, var_up * pg + q_var};
  };
  auto add = [](const Moments& a, const Moments& b) {
    return Moments{a.mean + b.mean, a.variance + b.variance};
  };

  const Moments l = filt_down(in, t.h0_pg, t.h0_dc);
  const Moments h = filt_down(in, t.h1_pg, t.h1_dc);
  Moments ll = filt_down(l, t.h0_pg, t.h0_dc);
  const Moments lh = filt_down(l, t.h1_pg, t.h1_dc);
  const Moments hl = filt_down(h, t.h0_pg, t.h0_dc);
  const Moments hh = filt_down(h, t.h1_pg, t.h1_dc);

  if (level < levels)
    ll = codec_noise_level_moments(ll, level + 1, levels, t, q_var, q_mean,
                                   blind_multirate);

  const Moments lcol = add(up_filt(ll, t.g0_pg, t.g0_dc),
                           up_filt(lh, t.g1_pg, t.g1_dc));
  const Moments hcol = add(up_filt(hl, t.g0_pg, t.g0_dc),
                           up_filt(hh, t.g1_pg, t.g1_dc));
  return add(up_filt(lcol, t.g0_pg, t.g0_dc),
             up_filt(hcol, t.g1_pg, t.g1_dc));
}

}  // namespace

Spectrum2d dwt2d_noise_psd(const Dwt2dNoiseConfig& cfg) {
  PSDACC_EXPECTS(cfg.levels >= 1);
  const auto t = make_tables(cfg.n_bins);
  const auto m = fxp::continuous_quantization_noise(cfg.format);
  Spectrum2d in(cfg.n_bins);
  if (cfg.quantize_input) in.add_white(m.variance, m.mean);
  return codec_noise_level(std::move(in), 1, cfg.levels, t, m.variance,
                           m.mean);
}

double dwt2d_noise_power_moments(const Dwt2dNoiseConfig& cfg,
                                 bool blind_multirate) {
  PSDACC_EXPECTS(cfg.levels >= 1);
  const auto t = make_tables(cfg.n_bins);
  const auto m = fxp::continuous_quantization_noise(cfg.format);
  Moments in;
  if (cfg.quantize_input) {
    in.mean = m.mean;
    in.variance = m.variance;
  }
  const auto out = codec_noise_level_moments(in, 1, cfg.levels, t,
                                             m.variance, m.mean,
                                             blind_multirate);
  return out.mean * out.mean + out.variance;
}

}  // namespace psdacc::wav
