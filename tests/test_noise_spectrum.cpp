// NoiseSpectrum invariants: power bookkeeping through every transformation
// the propagation engine applies (Eq. 10/11/14 + multirate rules).
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/noise_spectrum.hpp"
#include "filters/iir_design.hpp"
#include "support/random.hpp"

#include "spectrum_oracle.hpp"

namespace {

using psdacc::core::NoiseSpectrum;
using psdacc::fxp::NoiseMoments;

TEST(Construction, ZeroSpectrum) {
  NoiseSpectrum s(64);
  EXPECT_EQ(s.size(), 64u);
  EXPECT_DOUBLE_EQ(s.power(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Construction, WhiteSpectrumPowerExact) {
  const NoiseMoments m{-0.002, 3.5e-6};
  NoiseSpectrum s(128, m);
  EXPECT_NEAR(s.variance(), m.variance, 1e-18);
  EXPECT_NEAR(s.power(), m.power(), 1e-18);
  EXPECT_DOUBLE_EQ(s.mean(), m.mean);
  // Flat bins.
  for (std::size_t k = 0; k < s.size(); ++k)
    EXPECT_DOUBLE_EQ(s.bin(k), m.variance / 128.0);
}

TEST(Addition, UncorrelatedAddsBinsAndMeansCoherently) {
  NoiseSpectrum a(32, NoiseMoments{0.1, 1.0});
  const NoiseSpectrum b(32, NoiseMoments{-0.04, 2.0});
  a.add_uncorrelated(b);
  EXPECT_NEAR(a.variance(), 3.0, 1e-12);
  EXPECT_NEAR(a.mean(), 0.06, 1e-12);
  // Negative sign flips the added mean but not the power.
  NoiseSpectrum c(32, NoiseMoments{0.1, 1.0});
  c.add_uncorrelated(b, -1.0);
  EXPECT_NEAR(c.mean(), 0.14, 1e-12);
  EXPECT_NEAR(c.variance(), 3.0, 1e-12);
}

TEST(Response, AllpassPreservesPower) {
  NoiseSpectrum s(64, NoiseMoments{0.01, 1.0});
  const std::vector<double> allpass(64, 1.0);
  s.apply_power_response(allpass, 1.0);
  EXPECT_NEAR(s.power(), 1.0 + 1e-4, 1e-12);
}

TEST(Response, GainScalesPowerQuadratically) {
  NoiseSpectrum s(64, NoiseMoments{0.5, 2.0});
  s.apply_gain(-3.0);
  EXPECT_NEAR(s.variance(), 18.0, 1e-12);
  EXPECT_NEAR(s.mean(), -1.5, 1e-12);
}

TEST(Response, FilterShapesSpectrum) {
  const auto tf =
      psdacc::filt::iir_lowpass(psdacc::filt::IirFamily::kButterworth, 4,
                                0.1);
  NoiseSpectrum s(256, NoiseMoments{0.0, 1.0});
  s.apply_power_response(tf.power_response_grid(256), tf.dc_gain());
  // Low-pass: low bins keep power, high bins lose it.
  EXPECT_GT(s.bin(2), 100.0 * s.bin(128));
  // Total variance equals the filter's noise power gain for white input.
  EXPECT_NEAR(s.variance(), tf.power_gain(8192), 1e-3);
}

TEST(Decimate, WhiteNoisePowerPreserved) {
  for (std::size_t m : {2u, 3u, 4u}) {
    NoiseSpectrum s(120, NoiseMoments{0.02, 1.0});
    s.decimate(m);
    EXPECT_NEAR(s.variance(), 1.0, 1e-9) << "factor " << m;
    EXPECT_DOUBLE_EQ(s.mean(), 0.02);
  }
}

TEST(Decimate, ShapedSpectrumPowerPreserved) {
  const auto tf =
      psdacc::filt::iir_lowpass(psdacc::filt::IirFamily::kButterworth, 3,
                                0.15);
  NoiseSpectrum s(256, NoiseMoments{0.0, 1.0});
  s.apply_power_response(tf.power_response_grid(256), tf.dc_gain());
  const double before = s.variance();
  s.decimate(2);
  EXPECT_NEAR(s.variance(), before, 1e-6 + 1e-3 * before);
}

TEST(Decimate, LowpassHalfBandFoldsFlat) {
  // An ideal half-band low-pass spectrum folds back to (roughly) flat after
  // 2:1 decimation.
  NoiseSpectrum s(64);
  for (std::size_t k = 0; k < 64; ++k) {
    const double f = static_cast<double>(k) / 64.0;
    const bool in_band = f < 0.25 || f > 0.75;
    s.bin(k) = in_band ? 1.0 : 0.0;
  }
  s.decimate(2);
  // All power now spread over the full band at half the density. Bins
  // adjacent to the brick-wall transitions (k near 32) see interpolation
  // edge effects and are excluded.
  for (std::size_t k = 1; k < 63; ++k) {
    if (k >= 30 && k <= 34) continue;
    EXPECT_NEAR(s.bin(k), 0.5, 0.26) << "bin " << k;
  }
  // Power is preserved overall (31 bins carried 1.0 before decimation).
  EXPECT_NEAR(s.variance(), 31.0, 0.5);
}

// The shared 1-D fold samples without the original fmod wrap (for k < N and
// r < M the source index (k + rN)/M already lies in [0, N)), and the
// compression walks kL mod N without a division. Both must reproduce the
// wrapped formulas bit for bit.
bool same_bits(const std::vector<double>& a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Decimate, BitIdenticalToTheWrappedFormula) {
  psdacc::Xoshiro256 rng(84);
  std::size_t cases = 0;
  for (const std::size_t n : {2u, 3u, 7u, 64u, 1000u, 1024u, 4096u}) {
    for (const std::size_t m : {2u, 3u, 4u, 5u, 8u, 16u}) {
      for (const auto interp :
           {NoiseSpectrum::Interp::kNearest, NoiseSpectrum::Interp::kLinear}) {
        NoiseSpectrum s(n);
        for (std::size_t k = 0; k < n; ++k) s.bin(k) = rng.uniform();
        const auto want = psdacc::oracle::fold(s.bins(), m, interp);
        s.decimate(m, interp);
        EXPECT_TRUE(same_bits(want, s.bins())) << "n=" << n << " m=" << m;
        ++cases;
      }
      std::vector<double> line(n), got(n);
      for (double& v : line) v = rng.uniform();
      psdacc::core::compress_bins(line, m, got);
      EXPECT_TRUE(same_bits(psdacc::oracle::compress(line, m), got))
          << "n=" << n << " m=" << m;
    }
  }
  EXPECT_EQ(cases, 84u);
}

TEST(Expand, WhitePowerDividesByFactor) {
  NoiseSpectrum s(64, NoiseMoments{0.0, 1.0});
  s.expand(2);
  EXPECT_NEAR(s.variance(), 0.5, 1e-12);
}

TEST(Expand, MeanSplitsIntoDcAndImageLine) {
  const double mu = 0.3;
  NoiseSpectrum s(64, NoiseMoments{mu, 0.0});
  s.expand(2);
  EXPECT_NEAR(s.mean(), mu / 2.0, 1e-15);
  // Image line at Nyquist bin with power (mu/2)^2.
  EXPECT_NEAR(s.bin(32), (mu / 2.0) * (mu / 2.0), 1e-15);
  // Total power mu^2/2 (zero-insertion halves the power of the pattern).
  EXPECT_NEAR(s.power(), mu * mu / 2.0, 1e-15);
}

TEST(Expand, SpectrumCompression) {
  // Put all power in bin 4 of 64; expansion by 2 maps images to bins that
  // satisfy 2k mod 64 == 4, i.e. k = 2 and k = 34.
  NoiseSpectrum s(64);
  s.bin(4) = 1.0;
  s.expand(2);
  EXPECT_NEAR(s.bin(2), 0.5, 1e-15);
  EXPECT_NEAR(s.bin(34), 0.5, 1e-15);
  EXPECT_NEAR(s.variance(), 1.0, 1e-12);
}

TEST(DecimateExpand, RoundTripWhiteNoiseHalvesPower) {
  // down2 then up2 on white noise: power sigma^2 -> sigma^2 -> sigma^2/2,
  // matching zeroing half the samples.
  NoiseSpectrum s(64, NoiseMoments{0.0, 1.0});
  s.decimate(2);
  s.expand(2);
  EXPECT_NEAR(s.variance(), 0.5, 1e-9);
}

TEST(Resample, PreservesVarianceAcrossBinCounts) {
  const auto tf =
      psdacc::filt::iir_lowpass(psdacc::filt::IirFamily::kChebyshev1, 3,
                                0.2);
  NoiseSpectrum s(512, NoiseMoments{0.01, 1.0});
  s.apply_power_response(tf.power_response_grid(512), tf.dc_gain());
  const double var = s.variance();
  for (std::size_t n : {64u, 128u, 1024u}) {
    const auto r = s.resampled(n);
    EXPECT_EQ(r.size(), n);
    EXPECT_NEAR(r.variance(), var, 0.02 * var) << "n=" << n;
    EXPECT_DOUBLE_EQ(r.mean(), s.mean());
  }
}

TEST(Interp, NearestAndLinearAgreeOnSmoothSpectra) {
  NoiseSpectrum a(128, NoiseMoments{0.0, 1.0});
  NoiseSpectrum b = a;
  a.decimate(2, NoiseSpectrum::Interp::kLinear);
  b.decimate(2, NoiseSpectrum::Interp::kNearest);
  for (std::size_t k = 0; k < a.size(); ++k)
    EXPECT_NEAR(a.bin(k), b.bin(k), 1e-12);
}

}  // namespace
