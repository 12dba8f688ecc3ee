// The search stage: greedy word-length searches with the `psdacc-opt run`
// defaults (psd engine, delta probes, one worker, bits 2-24, N_PSD 1024)
// and 4-budget Pareto sweeps fanned over two workers
// (`psdacc-opt sweep --workers 2`). Delta probes, per-source caches,
// optimizer bookkeeping, graph clones and pool fan-out do the work here.
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/accuracy_engine.hpp"
#include "graphs.hpp"
#include "opt/search/pareto.hpp"
#include "opt/wordlength_optimizer.hpp"
#include "runtime/thread_pool.hpp"
#include "support/random.hpp"

namespace perfbench {
namespace {

using namespace psdacc;

constexpr std::size_t kSystems = 6;
constexpr int kDepth = 22;
constexpr std::size_t kNodes = 43;
constexpr std::size_t kVars = 18;  // free variables per system
constexpr int kUniformBits = 12;
// The budget is the uniform-12-bit noise times an irrational factor, so no
// reachable assignment sits exactly on it and delta and full probes
// cannot disagree about feasibility by a rounding.
constexpr double kBudgetScale = 1.3819660112501051;  // (5 - sqrt(5)) / 2
constexpr double kSweepScales[] = {0.25, 0.5, 1.0, 2.0};
constexpr std::size_t kMinOps = 3;  // a round's p50 needs three samples
constexpr std::size_t kMinSweepPasses = 3;  // a pass is 6 sweeps, ~60 ms

opt::OptimizerConfig search_config(double budget) {
  opt::OptimizerConfig cfg;
  cfg.noise_budget = budget;
  cfg.min_bits = 2;
  cfg.max_bits = 24;
  cfg.n_psd = 1024;
  cfg.engine = core::EngineKind::kPsd;
  cfg.workers = 1;
  return cfg;
}

opt::search::SweepConfig sweep_config(double budget, std::size_t workers) {
  opt::search::SweepConfig cfg;
  for (const double s : kSweepScales) cfg.budgets.push_back(budget * s);
  cfg.base = search_config(budget);
  cfg.workers = workers;
  return cfg;
}

bool same_points(const std::vector<opt::search::ParetoPoint>& got,
                 const std::vector<opt::search::ParetoPoint>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i].bits != want[i].bits || got[i].cost != want[i].cost ||
        got[i].cancelled)
      return false;
  return true;
}

struct SearchSystem {
  sfg::Graph g;
  std::vector<sfg::NodeId> vars;
  double budget = 0.0;
  opt::OptimizerResult ref;  ///< full-probe (incremental = false) search
  std::vector<opt::search::ParetoPoint> sweep_ref;  ///< one-worker sweep
  // Traced run: the last search's public counters, and a warm engine on a
  // private copy for batched probe timing.
  core::AccuracyEngine::EvalCounters probes;
  opt::OptimizerResult last;
  sfg::Graph warm_graph;
  std::unique_ptr<core::AccuracyEngine> warm;
};

class SearchStage final : public Stage {
 public:
  explicit SearchStage(const StageConfig& cfg) : cfg_(cfg) {
    Xoshiro256 rng(cfg.seed ^ 0x736561726368ull);  // "search"
    while (systems_.size() < kSystems) {
      auto sys = std::make_unique<SearchSystem>();
      sys->g = draw_graph(rng, kDepth, false, kNodes, kVars);
      sys->vars = sys->g.noise_sources();
      {
        sfg::Graph uniform = sys->g;
        opt::WordlengthOptimizer o12(uniform, sys->vars, search_config(1.0));
        o12.apply(std::vector<int>(sys->vars.size(), kUniformBits));
        sys->budget = o12.evaluate() * kBudgetScale;
      }
      {
        sfg::Graph work = sys->g;
        auto full = search_config(sys->budget);
        full.incremental = false;
        opt::WordlengthOptimizer o(work, sys->vars, full);
        sys->ref = o.greedy_descent();
      }
      {
        // Delta probes are exact only up to floating-point reordering, so
        // where two candidates tie exactly the delta search may keep the
        // other one (same cost and noise, other bits). Such a system could
        // never pass the full-probe check; draw another instead.
        sfg::Graph work = sys->g;
        opt::WordlengthOptimizer o(work, sys->vars,
                                   search_config(sys->budget));
        if (o.greedy_descent().bits != sys->ref.bits) {
          ++tie_breaks_;
          continue;
        }
      }
      sys->sweep_ref = opt::search::ParetoSweep(sys->g, sys->vars,
                                                sweep_config(sys->budget, 1))
                           .run_points();
      if (cfg.traced) {
        sys->warm_graph = sys->g;
        opt::WordlengthOptimizer o12(sys->warm_graph, sys->vars,
                                     search_config(1.0));
        o12.apply(std::vector<int>(sys->vars.size(), kUniformBits));
        sys->warm = core::make_engine(core::EngineKind::kPsd,
                                      sys->warm_graph, {.n_psd = 1024});
        sys->warm->output_noise_power();
      }
      systems_.push_back(std::move(sys));
    }
    if (cfg.corrupt_reference) systems_.front()->ref.cost += 1.0;
    if (tie_breaks_ > 0)
      std::printf("search: redrew %zu system(s) whose delta search broke a "
                  "tie unlike the full-probe search\n",
                  tie_breaks_);
  }

  const char* name() const override { return "search"; }

  std::vector<OpKind*> kinds() override { return {&search_, &sweep_}; }

  void run(double seconds) override {
    run_block(seconds * 0.4, kMinOps, [&] { search_op(); });
    run_block(seconds * 0.6, kMinSweepPasses, [&] { sweep_op(); });
  }

  void end_to_end(std::vector<Metric>& out) const override {
    out.push_back({"search_p50_us", "us", search_.best_round()});
    out.push_back({"sweep_p50_us", "us", sweep_.best_round()});
  }

  void per_layer(std::vector<Metric>& out) const override {
    const Recorder& r = recorder();
    const auto p50 = [&r](const char* span) {
      return percentile(r.durations(span), 50.0).value_or(0.0);
    };
    // Per-search counts are exact per system; average them over systems.
    double full = 0, cached = 0, delta = 0, evals = 0, accepted = 0;
    for (const auto& s : systems_) {
      full += static_cast<double>(s->probes.full);
      cached += static_cast<double>(s->probes.cached);
      delta += static_cast<double>(s->probes.delta);
      evals += static_cast<double>(s->last.evaluations);
      double removed = 0;
      for (const int b : s->last.bits) removed += 24 - b;
      if (s->last.evaluations > 0)
        accepted += removed / static_cast<double>(s->last.evaluations);
    }
    const double n = static_cast<double>(systems_.size());
    const double delta_ns = p50("core.delta_probe_batch") * 1e3 /
                            static_cast<double>(delta_batch_);
    const double full_us = p50("core.full_probe_batch") /
                           static_cast<double>(full_batch_);
    const double run_us = p50("opt.run");
    out.push_back({"core.delta_probe_ns", "ns", delta_ns});
    out.push_back({"core.probes_delta", "count", delta / n});
    out.push_back({"core.probes_full", "count", full / n});
    out.push_back({"core.probes_cached", "count", cached / n});
    out.push_back({"opt.ctor_us", "us", p50("opt.ctor")});
    out.push_back({"opt.run_us", "us", run_us});
    out.push_back({"opt.evaluations_per_search", "count", evals / n});
    out.push_back({"opt.accepted_per_probe", "ratio", accepted / n});
    out.push_back({"opt.unattributed_us", "us",
                   run_us - (delta / n) * delta_ns * 1e-3 -
                       (full / n) * full_us});
    out.push_back({"opt.sweep_point_us", "us",
                   percentile(sweep_point_us_, 50.0).value_or(0.0)});
    const double sweep2 = p50("opt.sweep");
    out.push_back({"runtime.sweep_speedup", "ratio",
                   sweep2 > 0 ? p50("opt.sweep_1worker") / sweep2 : 0.0});
    out.push_back({"sfg.graph_copies_per_search", "count",
                   searches_ > 0 ? static_cast<double>(copies_) /
                                       static_cast<double>(searches_)
                                 : 0.0});
  }

 private:
  // Both kinds cycle over unlike systems: one sample is the mean latency
  // over a pass of the set, so the mix of systems cannot move the
  // percentile.
  void search_op() {
    double total = 0.0;
    bool all_ok = true;
    for (const auto& sp : systems_) {
      SearchSystem& s = *sp;
      sfg::Graph work = s.g;  // a fresh copy per search, made untimed
      const std::size_t copies_before = sfg::Graph::copies_made();
      opt::OptimizerResult result;
      std::unique_ptr<opt::WordlengthOptimizer> o;
      total += time_us([&] {
        ScopedSpan op("search", "opt", ++op_);
        {
          ScopedSpan span("opt.ctor", "opt", op_);
          o = std::make_unique<opt::WordlengthOptimizer>(
              work, s.vars, search_config(s.budget));
        }
        ScopedSpan span("opt.run", "opt", op_);
        result = o->greedy_descent();
      });
      copies_ += sfg::Graph::copies_made() - copies_before;
      ++searches_;
      const bool ok = result.bits == s.ref.bits &&
                      result.cost == s.ref.cost &&
                      result.noise <= s.budget && result.feasible;
      search_.count(ok);
      all_ok = all_ok && ok;
      if (cfg_.traced) {
        s.probes = o->probe_counters();
        s.last = result;
        probe_batches(s);
      }
    }
    if (all_ok)
      search_.us.push_back(total / static_cast<double>(systems_.size()));
  }

  // Replays the probe work of a search in batches on the warm engine: one
  // delta probe per variable and direction, then full evaluations after a
  // move, so opt.run_us can be split into probes and the rest.
  void probe_batches(SearchSystem& s) {
    delta_batch_ = 2 * s.vars.size();
    {
      ScopedSpan span("core.delta_probe_batch", "core", op_);
      for (const sfg::NodeId v : s.vars)
        for (const int b : {kUniformBits - 1, kUniformBits + 1})
          s.warm->evaluate_delta(
              v, with_bits(format_of(s.warm_graph, v), b));
    }
    full_batch_ = 8;
    ScopedSpan span("core.full_probe_batch", "core", op_);
    for (std::size_t i = 0; i < full_batch_; ++i) {
      set_fraction_bits(s.warm_graph, s.vars.front(),
                        kUniformBits + static_cast<int>(i % 2));
      s.warm->output_noise_power();
    }
  }

  void sweep_op() {
    double total = 0.0;
    bool all_ok = true;
    for (const auto& sp : systems_) {
      SearchSystem& s = *sp;
      std::vector<opt::search::ParetoPoint> points;
      total += time_us([&] {
        ScopedSpan span("opt.sweep", "opt", ++op_);
        auto cfg = sweep_config(s.budget, 2);
        cfg.pool = &pool_;
        points = opt::search::ParetoSweep(s.g, s.vars, cfg).run_points();
      });
      const bool ok = same_points(points, s.sweep_ref);
      sweep_.count(ok);
      all_ok = all_ok && ok;
      if (cfg_.traced) replay_serial_sweep(s);
    }
    if (all_ok)
      sweep_.us.push_back(total / static_cast<double>(systems_.size()));
  }

  // The same sweep at one worker, with each point's completion time.
  void replay_serial_sweep(SearchSystem& s) {
    auto cfg = sweep_config(s.budget, 1);
    double last = now_us();
    cfg.on_point = [&](std::size_t, const opt::search::ParetoPoint&) {
      const double t = now_us();
      sweep_point_us_.push_back(t - last);
      last = t;
    };
    ScopedSpan span("opt.sweep_1worker", "runtime", op_);
    opt::search::ParetoSweep(s.g, s.vars, cfg).run_points();
  }

  StageConfig cfg_;
  std::vector<std::unique_ptr<SearchSystem>> systems_;
  std::size_t copies_ = 0, searches_ = 0, tie_breaks_ = 0;
  std::size_t delta_batch_ = 1, full_batch_ = 1;
  std::vector<double> sweep_point_us_;
  std::uint64_t op_ = 0;
  // The sweeps' two workers (the calling thread and one pool thread), kept
  // for the whole run as a long-lived `psdacc-opt` process or the serving
  // tier keeps its pool: a sweep then times its fan-out, not the creation
  // and teardown of a thread.
  runtime::ThreadPool pool_{2};
  OpKind search_{"search"}, sweep_{"sweep"};
};

}  // namespace

std::unique_ptr<Stage> make_search_stage(const StageConfig& cfg) {
  return std::make_unique<SearchStage>(cfg);
}

}  // namespace perfbench
