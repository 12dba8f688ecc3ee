// Wavelet tests: CDF 9/7 biorthogonality / perfect reconstruction (1-D SFG
// and 2-D codec), codec delay arithmetic, Spectrum2d invariants, the
// separable 2-D estimator against the N x N grid oracle, and the 2-D
// analytical estimate against fixed-point simulation on images.
#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/psd_analyzer.hpp"
#include "dsp/convolution.hpp"
#include "imaging/textures.hpp"
#include "sim/executor.hpp"
#include "support/random.hpp"
#include "wavelet/daub97.hpp"
#include "wavelet/dwt2d.hpp"
#include "wavelet/dwt2d_noise.hpp"
#include "wavelet/dwt_sfg.hpp"

#include "spectrum_oracle.hpp"

namespace {

using namespace psdacc;

TEST(Daub97, CoefficientSums) {
  double s0 = 0.0, s1 = 0.0, sg0 = 0.0, sg1 = 0.0;
  for (double v : wav::analysis_lowpass()) s0 += v;
  for (double v : wav::analysis_highpass()) s1 += v;
  for (double v : wav::synthesis_lowpass()) sg0 += v;
  for (double v : wav::synthesis_highpass()) sg1 += v;
  EXPECT_NEAR(s0, 1.0, 1e-9);   // DC gain 1
  EXPECT_NEAR(s1, 0.0, 1e-9);   // zero at DC
  EXPECT_NEAR(sg0, 2.0, 1e-9);  // synthesis DC gain 2
  EXPECT_NEAR(sg1, 0.0, 1e-9);
}

TEST(Daub97, FilterLengths) {
  EXPECT_EQ(wav::analysis_lowpass().size(), 9u);
  EXPECT_EQ(wav::analysis_highpass().size(), 7u);
  EXPECT_EQ(wav::synthesis_lowpass().size(), 7u);
  EXPECT_EQ(wav::synthesis_highpass().size(), 9u);
}

TEST(Daub97, DistortionFunctionIsPureDelay) {
  // T(z) = (h0*g0 + h1*g1)/2 must be a unit impulse at kReconstructionDelay.
  const auto p0 = dsp::convolve_direct(wav::analysis_lowpass(),
                                       wav::synthesis_lowpass());
  const auto p1 = dsp::convolve_direct(wav::analysis_highpass(),
                                       wav::synthesis_highpass());
  ASSERT_EQ(p0.size(), p1.size());
  for (std::size_t n = 0; n < p0.size(); ++n) {
    const double t = 0.5 * (p0[n] + p1[n]);
    const double expected = (n == wav::kReconstructionDelay) ? 1.0 : 0.0;
    EXPECT_NEAR(t, expected, 1e-9) << "n=" << n;
  }
}

TEST(Daub97, AliasCancellation) {
  // G0(z)H0(-z) + G1(z)H1(-z) == 0: flip signs of odd-indexed analysis
  // coefficients and convolve.
  auto flip = [](std::vector<double> h) {
    for (std::size_t n = 1; n < h.size(); n += 2) h[n] = -h[n];
    return h;
  };
  const auto a0 = dsp::convolve_direct(flip(wav::analysis_lowpass()),
                                       wav::synthesis_lowpass());
  const auto a1 = dsp::convolve_direct(flip(wav::analysis_highpass()),
                                       wav::synthesis_highpass());
  ASSERT_EQ(a0.size(), a1.size());
  for (std::size_t n = 0; n < a0.size(); ++n)
    EXPECT_NEAR(a0[n] + a1[n], 0.0, 1e-9) << "n=" << n;
}

TEST(DwtSfgCodec, DelayFormula) {
  EXPECT_EQ(wav::dwt1d_codec_delay(1), 7u);
  EXPECT_EQ(wav::dwt1d_codec_delay(2), 21u);
  EXPECT_EQ(wav::dwt1d_codec_delay(3), 49u);
}

class DwtPerfectReconstruction : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(DwtPerfectReconstruction, ReferenceModeReconstructsInput) {
  const std::size_t levels = GetParam();
  const auto g = wav::build_dwt1d_codec({.levels = levels, .format = {}});
  Xoshiro256 rng(20 + levels);
  const std::size_t n = 512;
  const auto x = gaussian_signal(n, rng);
  const auto y = sim::execute_sisos(g, x, sim::Mode::kReference);
  const std::size_t delay = wav::dwt1d_codec_delay(levels);
  ASSERT_EQ(y.size(), n);
  for (std::size_t i = delay; i < n; ++i)
    EXPECT_NEAR(y[i], x[i - delay], 1e-9) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Levels, DwtPerfectReconstruction,
                         ::testing::Values(1, 2, 3));

TEST(DwtSfgCodec, FixedPointErrorWithinEstimateBand) {
  const auto fmt = fxp::q_format(4, 12);
  const auto g = wav::build_dwt1d_codec({.levels = 2, .format = fmt});
  Xoshiro256 rng(21);
  const auto x = uniform_signal(1u << 16, 0.9, rng);
  const auto ref = sim::execute_sisos(g, x, sim::Mode::kReference);
  const auto fx = sim::execute_sisos(g, x, sim::Mode::kFixedPoint);
  double err_power = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 256; i < ref.size(); ++i) {
    const double e = fx[i] - ref[i];
    err_power += e * e;
    ++count;
  }
  err_power /= static_cast<double>(count);

  core::PsdAnalyzer analyzer(g, {.n_psd = 1024});
  const double est = analyzer.output_noise_power();
  const double ed = core::mse_deviation(err_power, est);
  EXPECT_TRUE(core::within_one_bit(ed)) << "E_d = " << ed;
  EXPECT_LT(std::abs(ed), 0.35) << "E_d = " << ed;
}

TEST(CircularFilter, MatchesLinearForShortKernel) {
  Xoshiro256 rng(22);
  const auto x = gaussian_signal(64, rng);
  const std::vector<double> h{0.25, 0.5, 0.25};
  const auto circ = wav::circular_filter(x, h);
  const auto lin = dsp::convolve_direct(x, h);
  // Away from the wrap-around region the outputs agree.
  for (std::size_t i = h.size(); i < x.size(); ++i)
    EXPECT_NEAR(circ[i], lin[i], 1e-12);
}

TEST(Dwt2dCodec, PerfectReconstructionOneLevel) {
  const auto im = img::make_texture(img::TextureKind::kPowerLaw, 64, 64, 3);
  const auto bands = wav::analyze_2d(im);
  EXPECT_EQ(bands.ll.rows(), 32u);
  EXPECT_EQ(bands.hh.cols(), 32u);
  const auto recon = wav::synthesize_2d(bands);
  const auto aligned = wav::align_reconstruction(recon, 1);
  EXPECT_LT(img::mse(aligned, im), 1e-18);
}

TEST(Dwt2dCodec, PerfectReconstructionTwoLevels) {
  const auto im = img::make_texture(img::TextureKind::kGrating, 64, 64, 4);
  const auto recon = wav::dwt2d_roundtrip(im, 2, {});
  const auto aligned = wav::align_reconstruction(recon, 2);
  EXPECT_LT(img::mse(aligned, im), 1e-18);
}

TEST(Dwt2dCodec, FixedPointIntroducesBoundedError) {
  const auto im = img::make_texture(img::TextureKind::kBlobs, 64, 64, 5);
  const auto fmt = fxp::q_format(4, 12);
  const auto ref = wav::dwt2d_roundtrip(im, 2, {});
  const auto fx = wav::dwt2d_roundtrip(im, 2, fmt);
  const double err = img::mse(ref, fx);
  EXPECT_GT(err, 0.0);
  // Error stays within a few orders of q^2.
  const double q2 = fmt.step() * fmt.step();
  EXPECT_LT(err, 1000.0 * q2);
}

TEST(Spectrum2d, WhiteInjectionBookkeeping) {
  wav::Spectrum2d s(16);
  s.add_white(2.0, 0.25);
  EXPECT_NEAR(s.variance(), 2.0, 1e-12);
  EXPECT_NEAR(s.power(), 2.0 + 0.0625, 1e-12);
}

TEST(Spectrum2d, RowResponsePreservesColumnAxis) {
  wav::Spectrum2d s(8);
  s.add_white(1.0);
  std::vector<double> resp(8, 0.0);
  resp[0] = 1.0;  // keep only kx = 0
  s.apply_row_response(resp, 1.0);
  EXPECT_NEAR(s.variance(), 1.0 / 8.0, 1e-12);
  for (std::size_t ky = 0; ky < 8; ++ky)
    for (std::size_t kx = 1; kx < 8; ++kx)
      EXPECT_DOUBLE_EQ(s.bin(ky, kx), 0.0);
}

TEST(Spectrum2d, DecimatePreservesPowerExpandDivides) {
  wav::Spectrum2d s(16);
  s.add_white(1.0);
  s.decimate_rows(2);
  EXPECT_NEAR(s.variance(), 1.0, 1e-9);
  s.decimate_cols(2);
  EXPECT_NEAR(s.variance(), 1.0, 1e-9);
  s.expand_rows(2);
  EXPECT_NEAR(s.variance(), 0.5, 1e-9);
  s.expand_cols(2);
  EXPECT_NEAR(s.variance(), 0.25, 1e-9);
}

TEST(Spectrum2d, BinAndGridAgreeAndExcludeTheMean) {
  wav::Spectrum2d s(8);
  s.add_white(1.0, 0.5);
  std::vector<double> resp(8);
  for (std::size_t k = 0; k < 8; ++k) resp[k] = 1.0 + static_cast<double>(k);
  s.apply_row_response(resp, 2.0);  // mean 1.0
  s.expand_rows(2);  // image line (1.0 / 2)^2 at (ky, kx) = (0, N/2)
  const auto grid = s.grid();
  ASSERT_EQ(grid.size(), 64u);
  double total = 0.0;
  for (std::size_t ky = 0; ky < 8; ++ky)
    for (std::size_t kx = 0; kx < 8; ++kx) {
      EXPECT_EQ(s.bin(ky, kx), grid[ky * 8 + kx]);
      total += grid[ky * 8 + kx];
    }
  EXPECT_NEAR(total, s.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(s.mean(), 0.5);
  EXPECT_DOUBLE_EQ(s.bin(0, 4) - s.bin(1, 4), 0.25);
}

// The separable estimator against the grid oracle it replaced, over levels
// x bins per axis x rounding x input quantization. Truncation has a nonzero
// mean, so the upsamplers' image lines are exercised.
class Dwt2dOracle
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, fxp::RoundingMode, bool>> {};

TEST_P(Dwt2dOracle, MatchesTheGridEstimator) {
  const auto [levels, bins, rounding, quantize_input] = GetParam();
  const wav::Dwt2dNoiseConfig cfg{.levels = levels,
                                  .format = fxp::q_format(4, 12, rounding),
                                  .n_bins = bins,
                                  .quantize_input = quantize_input};
  const auto got = wav::dwt2d_noise_psd(cfg);
  const auto want = oracle::grid_dwt2d_noise_psd(cfg);
  EXPECT_EQ(got.mean(), want.mean());
  EXPECT_NEAR(got.power(), want.power(), 1e-12 * want.power());
  if (bins > 64) return;
  const auto grid = got.grid();
  const double peak =
      *std::max_element(want.bins().begin(), want.bins().end());
  double worst = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i)
    worst = std::max(worst, std::abs(grid[i] - want.bins()[i]));
  EXPECT_LE(worst, 1e-12 * peak);
}

INSTANTIATE_TEST_SUITE_P(
    LevelsBinsRounding, Dwt2dOracle,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 4),
                       ::testing::Values<std::size_t>(8, 16, 32, 64, 128, 256),
                       ::testing::Values(fxp::RoundingMode::kRoundNearest,
                                         fxp::RoundingMode::kTruncate),
                       ::testing::Bool()),
    [](const auto& info) {
      const auto& p = info.param;
      std::string name = "L";
      name += std::to_string(std::get<0>(p));
      name += "_N";
      name += std::to_string(std::get<1>(p));
      name += std::get<2>(p) == fxp::RoundingMode::kTruncate ? "_trunc"
                                                             : "_round";
      name += std::get<3>(p) ? "_qin" : "_noqin";
      return name;
    });

TEST(Dwt2dNoise, TermCountsPerLevel) {
  // Each level adds white terms at its 12 quantizers and, with a nonzero
  // mean, one image line per upsampler; the LH, HL and HH bands carry
  // copies of the terms the level's input already had.
  const std::vector<std::size_t> truncate{24, 53, 88, 129};
  const std::vector<std::size_t> round{18, 41, 70, 105};
  for (std::size_t levels = 1; levels <= 4; ++levels) {
    wav::Dwt2dNoiseConfig cfg{.levels = levels,
                              .format = fxp::q_format(
                                  4, 12, fxp::RoundingMode::kTruncate),
                              .n_bins = 16,
                              .quantize_input = true};
    EXPECT_EQ(wav::dwt2d_noise_psd(cfg).term_count(), truncate[levels - 1]);
    cfg.format.rounding = fxp::RoundingMode::kRoundNearest;
    EXPECT_EQ(wav::dwt2d_noise_psd(cfg).term_count(), round[levels - 1]);
  }
}

TEST(Dwt2dNoise, EstimateMatchesImageSimulation) {
  // Average fixed-point error over a few synthetic images vs the proposed
  // 2-D PSD estimate.
  const auto fmt = fxp::q_format(4, 12);
  const wav::Dwt2dNoiseConfig cfg{
      .levels = 2, .format = fmt, .n_bins = 32, .quantize_input = true};
  const double est = wav::dwt2d_noise_psd(cfg).power();

  const auto bank = img::texture_bank(8, 64, 64, 11);
  double err_acc = 0.0;
  for (const auto& im : bank) {
    const auto ref = wav::dwt2d_roundtrip(im, 2, {});
    const auto fx = wav::dwt2d_roundtrip(im, 2, fmt);
    err_acc += img::mse(ref, fx);
  }
  const double simulated = err_acc / static_cast<double>(bank.size());
  const double ed = core::mse_deviation(simulated, est);
  EXPECT_TRUE(core::within_one_bit(ed)) << "E_d = " << ed;
  EXPECT_LT(std::abs(ed), 0.5) << "E_d = " << ed;
}

TEST(Dwt2dNoise, MomentBaselineProducesEstimate) {
  const auto fmt = fxp::q_format(4, 12);
  const wav::Dwt2dNoiseConfig cfg{
      .levels = 2, .format = fmt, .n_bins = 32, .quantize_input = true};
  const double est = wav::dwt2d_noise_power_moments(cfg);
  EXPECT_GT(est, 0.0);
}

TEST(Dwt2dNoise, PowerScalesWithWordLength) {
  // Four fewer fractional bits => ~256x the noise power.
  const wav::Dwt2dNoiseConfig fine{
      .levels = 2, .format = fxp::q_format(4, 16), .n_bins = 32,
      .quantize_input = true};
  wav::Dwt2dNoiseConfig coarse = fine;
  coarse.format = fxp::q_format(4, 12);
  const double p_fine = wav::dwt2d_noise_psd(fine).power();
  const double p_coarse = wav::dwt2d_noise_psd(coarse).power();
  EXPECT_NEAR(p_coarse / p_fine, 256.0, 1.0);
}

}  // namespace
