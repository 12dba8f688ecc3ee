// The evaluate stage: full sweeps, tau_pp, the 2-D estimator and the
// bit-true simulator, on seeded random systems of tens of nodes (a quarter
// multirate), the paper's frequency-filtering SFG, and one seeded system of
// about 10^4 nodes whose spectra (~72 MB of bins) do not fit in cache.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/accuracy_engine.hpp"
#include "dsp/fft_plan.hpp"
#include "graphs.hpp"
#include "freqfilt/freq_filter.hpp"
#include "reference.hpp"
#include "sfg/random_graph.hpp"
#include "support/random.hpp"
#include "wavelet/dwt2d_noise.hpp"

namespace perfbench {
namespace {

using namespace psdacc;

constexpr std::size_t kNpsd = 1024;
constexpr std::size_t kSmallSystems = 48;  // a quarter multirate
constexpr int kSmallDepth = 12;
constexpr std::size_t kSmallNodes = 24;
constexpr std::size_t kSmallSources = 10;
constexpr int kLargeDepth = 5000;  // about 8,750 nodes
constexpr std::size_t kSimSamples = std::size_t{1} << 15;
constexpr std::size_t kDwtLevels = 2;
constexpr std::size_t kDwtBins = 128;
constexpr int kPaperBits = 16;
constexpr std::size_t kMomentBatch = 64;
constexpr std::size_t kPsdBurst = 4;  // timed psd evaluations per system
constexpr std::size_t kMinOps = 3;    // a round's p50 needs three samples
constexpr std::size_t kLargeMinOps = 6;

const core::EngineOptions kOpts{.n_psd = kNpsd};

/// One system and its two alternating word-length states. Every timed
/// evaluation follows a move to the other state, so no engine answers
/// from its revision memo; the expected value of each state comes from a
/// freshly built engine (or the pinned reference data).
struct System {
  sfg::Graph g;
  sfg::NodeId move = 0;
  int bits[2] = {0, 0};
  int state = 0;
  bool single_rate = true;
  double psd_ref[2] = {0.0, 0.0};
  double flat_ref[2] = {0.0, 0.0};
  double moment_ref[2] = {0.0, 0.0};
  std::unique_ptr<core::AccuracyEngine> psd, flat, moment;

  explicit System(sfg::Graph graph) : g(std::move(graph)) {
    move = g.noise_sources().front();
    bits[0] = format_of(g, move).fractional_bits;
    bits[1] = bits[0] + 1;
  }
  void toggle() { set_state(state ^ 1); }
  void set_state(int s) {
    state = s;
    set_fraction_bits(g, move, bits[s]);
  }
  /// The engine of @p kind built at state 0 (its first evaluation is a
  /// fresh engine's) plus a fresh engine at state 1 for the other value.
  std::unique_ptr<core::AccuracyEngine> bind(core::EngineKind kind,
                                             double (&ref)[2],
                                             const core::EngineOptions& opts) {
    set_state(1);
    ref[1] = core::make_engine(kind, g, opts)->output_noise_power();
    set_state(0);
    auto engine = core::make_engine(kind, g, opts);
    ref[0] = engine->output_noise_power();
    return engine;
  }
};

class EvaluateStage final : public Stage {
 public:
  explicit EvaluateStage(const StageConfig& cfg) : cfg_(cfg) {
    Xoshiro256 rng(cfg.seed ^ 0x6576616c75617465ull);  // "evaluate"
    while (small_.size() < kSmallSystems) {
      // A multirate system decimates twice and expands once: samplers cost
      // several times a single-rate node, so their number is fixed too.
      const bool multirate = small_.size() % 4 == 3;
      auto sys = std::make_unique<System>(
          draw_graph(rng, kSmallDepth, multirate, kSmallNodes, kSmallSources,
                     multirate ? 2 : 0, multirate ? 1 : 0));
      sys->single_rate = core::engine_supports(core::EngineKind::kFlat,
                                               sys->g);
      try {
        sys->psd = sys->bind(core::EngineKind::kPsd, sys->psd_ref, kOpts);
        if (sys->single_rate) {
          sys->flat =
              sys->bind(core::EngineKind::kFlat, sys->flat_ref, kOpts);
          if (cfg.traced)
            sys->moment =
                sys->bind(core::EngineKind::kMoment, sys->moment_ref, kOpts);
        }
      } catch (const std::exception&) {
        continue;  // outside the engines' model; draw another system
      }
      small_.push_back(std::move(sys));
    }

    ff::FreqFilterConfig ff_cfg;
    ff_cfg.format = fxp::q_format(8, kPaperBits);
    freqfilt_ = std::make_unique<System>(ff::build_freqfilt_sfg(ff_cfg));
    freqfilt_->psd =
        freqfilt_->bind(core::EngineKind::kPsd, freqfilt_->psd_ref, kOpts);
    freqfilt_->flat =
        freqfilt_->bind(core::EngineKind::kFlat, freqfilt_->flat_ref, kOpts);
    // The seed-independent input answers to the pinned values.
    for (int s = 0; s < 2; ++s)
      freqfilt_->psd_ref[s] = reference::kFreqfiltPsd[s];

    sim_ = std::make_unique<System>(ff::build_freqfilt_sfg(ff_cfg));
    core::EngineOptions sim_opts = kOpts;
    sim_opts.sim_samples = kSimSamples;
    sim_->psd = sim_->bind(core::EngineKind::kSimulation, sim_->psd_ref,
                           sim_opts);

    // 5000 independent trunk stages: the node count and the node mix vary
    // by about 1% from seed to seed, so the first draw is taken.
    sfg::RandomGraphOptions big;
    big.depth = kLargeDepth;
    large_ = std::make_unique<System>(sfg::random_graph(rng(), big));
    large_->psd = large_->bind(core::EngineKind::kPsd, large_->psd_ref, kOpts);

    if (cfg.corrupt_reference) small_.front()->psd_ref[1] *= 1.0 + 1e-6;
    for (auto& s : small_) psd_systems_.push_back(s.get());
    psd_systems_.push_back(freqfilt_.get());
    for (auto& s : small_)
      if (s->single_rate) flat_systems_.push_back(s.get());
    flat_systems_.push_back(freqfilt_.get());
  }

  const char* name() const override { return "evaluate"; }

  std::vector<OpKind*> kinds() override {
    return {&tau_pp_, &psd_, &psd_large_, &flat_, &dwt2d_, &sim_op_};
  }

  void run(double seconds) override {
    // Weights give the slow kinds (about 30 ms for psd_large, 5 ms for a
    // 128^2 DWT grid) a fair share of samples in every round; psd_large,
    // which streams its ~130 MB through the host's shared L3, gets the
    // most.
    run_block(seconds * 0.10, kMinOps, [&] { tau_pp_op(); });
    run_block(seconds * 0.10, kMinOps, [&] { psd_op(); });
    psd_large_op(false);
    run_block(seconds * 0.45, kLargeMinOps, [&] { psd_large_op(true); });
    run_block(seconds * 0.10, kMinOps, [&] { flat_op(); });
    run_block(seconds * 0.10, kMinOps, [&] { dwt2d_op(); });
    run_block(seconds * 0.15, kMinOps, [&] { sim_op(); });
  }

  void end_to_end(std::vector<Metric>& out) const override {
    out.push_back({"tau_pp_p50_us", "us", tau_pp_.best_round()});
    out.push_back({"psd_eval_p50_us", "us", psd_.best_round()});
    out.push_back({"flat_eval_p50_us", "us", flat_.best_round()});
    out.push_back({"dwt2d_eval_p50_us", "us", dwt2d_.best_round()});
    out.push_back({"sim_msamples_per_s", "Msamples/s",
                   static_cast<double>(kSimSamples) / sim_op_.best_round()});
  }

  void per_layer(std::vector<Metric>& out) const override {
    const Recorder& r = recorder();
    const auto p50 = [&r](const char* span) {
      return percentile(r.durations(span), 50.0).value_or(0.0);
    };
    out.push_back({"core.pp_psd_us", "us", p50("core.make_engine.psd")});
    out.push_back({"core.pp_flat_us", "us", p50("core.make_engine.flat")});
    out.push_back({"core.psd_eval_us", "us", p50("core.psd_eval")});
    out.push_back(
        {"core.psd_large_eval_us", "us", p50("core.psd_eval_large")});
    // Bins touched per second over every small and large psd sweep.
    double bins = 0.0;
    double us = 0.0;
    for (const auto& [span, nodes] :
         {std::pair{"core.psd_eval", small_nodes_mean()},
          std::pair{"core.psd_eval_large",
                    static_cast<double>(large_->g.node_count())}}) {
      for (const double d : r.durations(span)) {
        bins += nodes * static_cast<double>(kNpsd);
        us += d;
      }
    }
    out.push_back({"core.psd_bins_per_s", "1/s", us > 0 ? bins / us * 1e6
                                                         : 0.0});
    out.push_back({"core.flat_eval_us", "us", p50("core.flat_eval")});
    out.push_back({"core.moment_eval_ns", "ns",
                   p50("core.moment_eval_batch") * 1e3 /
                       static_cast<double>(kMomentBatch)});
    out.push_back({"wavelet.grid_bins_per_s", "1/s",
                   static_cast<double>(kDwtLevels * kDwtBins * kDwtBins) /
                       p50("wavelet.dwt2d_noise_psd") * 1e6});
    out.push_back({"sim.node_samples_per_s", "1/s",
                   static_cast<double>(sim_->g.node_count() * kSimSamples) /
                       p50("core.sim_eval") * 1e6});
    out.push_back({"dsp.plan_cache_entries", "count",
                   static_cast<double>(dsp::PlanCache::instance().size())});
  }

 private:
  double small_nodes_mean() const {
    double n = 0.0;
    for (const auto& s : small_) n += static_cast<double>(s->g.node_count());
    return (n + static_cast<double>(freqfilt_->g.node_count())) /
           static_cast<double>(small_.size() + 1);
  }

  // tau_pp, psd and flat cycle over unlike systems: one sample is the mean
  // latency over a pass of the whole set, so the mix of systems cannot
  // move the percentile.
  void tau_pp_op() {
    double total = 0.0;
    bool all_ok = true;
    for (const auto& sp : small_) {
      System& s = *sp;
      std::unique_ptr<core::AccuracyEngine> engine;
      total += time_us([&] {
        ScopedSpan span("core.make_engine.psd", "core", ++op_);
        engine = core::make_engine(core::EngineKind::kPsd, s.g, kOpts);
      });
      const bool ok = close(engine->output_noise_power(), s.psd_ref[s.state]);
      tau_pp_.count(ok);
      all_ok = all_ok && ok;
      if (cfg_.traced && s.single_rate) replay_flat_and_moment(s);
    }
    if (all_ok) tau_pp_.us.push_back(total / static_cast<double>(small_.size()));
  }

  // Traced run only: flat construction, and moment evaluations, which take
  // well under a microsecond each and so are timed as a batch.
  void replay_flat_and_moment(System& s) {
    {
      ScopedSpan span("core.make_engine.flat", "core", op_);
      core::make_engine(core::EngineKind::kFlat, s.g, kOpts);
    }
    ScopedSpan span("core.moment_eval_batch", "core", op_);
    for (std::size_t i = 0; i < kMomentBatch; ++i) {
      s.toggle();
      s.moment->output_noise_power();
    }
  }

  /// Move, then evaluate: the latency of one real probe.
  double eval_op(System& s, core::AccuracyEngine& engine,
                 const double (&ref)[2], const char* span_name, bool& ok) {
    double got = 0.0;
    const double us = time_us([&] {
      s.toggle();
      ScopedSpan span(span_name, "core", ++op_);
      got = engine.output_noise_power();
    });
    ok = close(got, ref[s.state]);
    return us;
  }

  /// Evaluates each system @p warm times untimed, then @p timed times
  /// timed; the sample is the mean timed latency over the pass.
  void eval_pass(const std::vector<System*>& systems,
                 std::unique_ptr<core::AccuracyEngine> System::*engine,
                 double (System::*ref)[2], const char* span_name,
                 OpKind& kind, std::size_t warm, std::size_t timed) {
    double total = 0.0;
    bool all_ok = true;
    for (System* s : systems) {
      for (std::size_t i = 0; i < warm + timed; ++i) {
        bool ok = false;
        const double us = eval_op(*s, *(s->*engine), s->*ref, span_name, ok);
        if (i >= warm) total += us;
        kind.count(ok);
        all_ok = all_ok && ok;
      }
    }
    if (all_ok)
      kind.us.push_back(total / static_cast<double>(systems.size() * timed));
  }

  // One untimed psd evaluation brings a system's spectra into L2, then
  // kPsdBurst timed ones run there: the small-system regime this kind
  // stands for. Read from the L3, which the host's other tenants share,
  // the same pass swung between two levels from round to round.
  void psd_op() {
    eval_pass(psd_systems_, &System::psd, &System::psd_ref, "core.psd_eval",
              psd_, 1, kPsdBurst);
  }
  void flat_op() {
    eval_pass(flat_systems_, &System::flat, &System::flat_ref,
              "core.flat_eval", flat_, 0, 1);
  }
  // A block's first psd_large evaluation reads the system's ~130 MB from
  // wherever the other blocks left it and runs untimed, so the samples are
  // back-to-back sweeps of the large system, not the refill after another
  // block.
  void psd_large_op(bool timed) {
    bool ok = false;
    const double us = eval_op(*large_, *large_->psd, large_->psd_ref,
                              "core.psd_eval_large", ok);
    if (timed)
      psd_large_.record(us, ok);
    else
      psd_large_.count(ok);
  }
  void sim_op() {
    bool ok = false;
    const double us =
        eval_op(*sim_, *sim_->psd, sim_->psd_ref, "core.sim_eval", ok);
    sim_op_.record(us, ok);
  }

  void dwt2d_op() {
    dwt_state_ ^= 1;
    const wav::Dwt2dNoiseConfig dwt{
        .levels = kDwtLevels,
        .format = fxp::q_format(4, kPaperBits + dwt_state_),
        .n_bins = kDwtBins,
        .quantize_input = true};
    double got = 0.0;
    const double us = time_us([&] {
      ScopedSpan span("wavelet.dwt2d_noise_psd", "wavelet", ++op_);
      got = wav::dwt2d_noise_psd(dwt).power();
    });
    dwt2d_.record(us, close(got, reference::kDwt2dPower[dwt_state_]));
  }

  StageConfig cfg_;
  std::vector<std::unique_ptr<System>> small_;
  std::unique_ptr<System> freqfilt_, sim_, large_;
  std::vector<System*> psd_systems_, flat_systems_;
  int dwt_state_ = 0;
  std::uint64_t op_ = 0;
  OpKind tau_pp_{"tau_pp"}, psd_{"psd"}, psd_large_{"psd_large"},
      flat_{"flat"}, dwt2d_{"dwt2d"}, sim_op_{"sim"};
};

}  // namespace

std::unique_ptr<Stage> make_evaluate_stage(const StageConfig& cfg) {
  return std::make_unique<EvaluateStage>(cfg);
}

/// Prints the pinned values of reference.hpp as they compute today.
void print_reference() {
  ff::FreqFilterConfig ff_cfg;
  ff_cfg.format = fxp::q_format(8, kPaperBits);
  System ff(ff::build_freqfilt_sfg(ff_cfg));
  double psd[2];
  ff.bind(core::EngineKind::kPsd, psd, kOpts);
  double dwt[2];
  for (int s = 0; s < 2; ++s)
    dwt[s] = wav::dwt2d_noise_psd({.levels = kDwtLevels,
                                   .format = fxp::q_format(4, kPaperBits + s),
                                   .n_bins = kDwtBins,
                                   .quantize_input = true})
                 .power();
  std::printf("kFreqfiltPsd = {%.17g, %.17g}\nkDwt2dPower = {%.17g, %.17g}\n",
              psd[0], psd[1], dwt[0], dwt[1]);
}

}  // namespace perfbench
