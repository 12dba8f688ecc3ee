// The serve stage: an in-process serve::Server with the daemon's defaults
// and two job workers, driven in a closed loop by two client connections.
// Each client follows its own seeded schedule: ~60% EVALs from a hot set
// that fits the 256-entry result cache (always hits), ~35% EVALs from a
// per-client cold pool larger than the cache, cycled in order (always
// misses: parse, hash, admission, then psd, moment and flat at N_PSD 1024),
// and ~5% greedy OPTJ jobs whose replies stream PROG frames.
#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/accuracy_engine.hpp"
#include "graphs.hpp"
#include "opt/search/strategies.hpp"
#include "opt/wordlength_optimizer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sfg/serialize.hpp"
#include "sfg/verify.hpp"
#include "support/random.hpp"

namespace perfbench {
namespace {

using namespace psdacc;

constexpr std::size_t kClients = 2;
constexpr std::size_t kBases = 48;  // cold and OPTJ base systems per seed
constexpr std::size_t kHot = 24;
constexpr std::size_t kCold = 260;  // per client; the cache holds 256
constexpr std::size_t kOptDocs = 6;
// Cold and OPTJ documents: 31 nodes and 13 noise sources, so a miss runs
// its three engines for several milliseconds.
constexpr int kDocDepth = 16;
constexpr std::size_t kDocNodes = 31;
constexpr std::size_t kDocSources = 13;
// Hot documents: 52 nodes and 22 sources. A hit parses and hashes its
// document (~0.2 ms here), so the round trip is mostly that work rather
// than the two thread wake-ups around it, whose cost swings with the
// host's load.
constexpr int kHotDepth = 28;
constexpr std::size_t kHotNodes = 52;
constexpr std::size_t kHotSources = 22;
constexpr std::size_t kScheduleLength = 20000;
constexpr double kWarmUpSeconds = 2.5;
constexpr int kUniformBits = 12;
constexpr double kBudgetScale = 1.3819660112501051;  // see search.cpp

enum class ReqType { kHot, kCold, kOpt };
struct Request {
  ReqType type = ReqType::kHot;
  std::uint32_t index = 0;
};

/// Every generated input of the stage: the base systems (kBases cold ones,
/// then kHot hot ones), the documents made from them, and per-client
/// schedules.
struct ServeInputs {
  std::vector<sfg::Graph> bases;
  std::vector<std::string> hot;
  std::vector<std::string> cold[kClients];
  std::vector<std::string> opt;
  std::vector<Request> schedule[kClients];
};

sim::EvaluationConfig doc_config() {
  sim::EvaluationConfig c;
  c.n_psd = 1024;
  c.engines = {core::EngineKind::kPsd, core::EngineKind::kMoment,
               core::EngineKind::kFlat};
  return c;
}

std::string make_document(const sfg::Graph& g) {
  sfg::Scenario s;
  s.graph = g;
  s.config = doc_config();
  return sfg::serialize(s);
}

/// Moves @p g to variant @p v: its noise sources at 10-12 fractional
/// bits, the digits of @p v in base 3. Variants of one base hash apart
/// but cost the same to evaluate, so which documents a round serves
/// cannot move the round's latency.
void set_variant(sfg::Graph& g, std::size_t v) {
  for (const sfg::NodeId id : g.noise_sources()) {
    set_fraction_bits(g, id, 10 + static_cast<int>(v % 3));
    v /= 3;
  }
}

std::string make_variant(sfg::Graph g, std::size_t v) {
  set_variant(g, v);
  return make_document(g);
}

/// Cold document @p j of the pool both clients' pools are cut from:
/// variant 1 + j / kBases of base j % kBases, so every run of consecutive
/// cold documents covers the bases evenly.
std::size_t cold_base(std::size_t j) { return j % kBases; }
std::size_t cold_variant(std::size_t j) { return 1 + j / kBases; }

ServeInputs make_inputs(std::uint64_t seed) {
  ServeInputs in;
  Xoshiro256 rng(seed ^ 0x7365727665ull);  // "serve"
  for (std::size_t b = 0; b < kBases; ++b)
    in.bases.push_back(
        draw_graph(rng, kDocDepth, false, kDocNodes, kDocSources));
  for (std::size_t i = 0; i < kHot; ++i)
    in.bases.push_back(
        draw_graph(rng, kHotDepth, false, kHotNodes, kHotSources));
  // Hot document i is variant 0 of hot base i; client c's cold pool is
  // documents c * kCold ... (c + 1) * kCold - 1 of the shared cold list.
  for (std::size_t i = 0; i < kHot; ++i)
    in.hot.push_back(make_variant(in.bases[kBases + i], 0));
  std::size_t j = 0;
  for (auto& pool : in.cold)
    for (std::size_t i = 0; i < kCold; ++i, ++j)
      pool.push_back(make_variant(in.bases[cold_base(j)], cold_variant(j)));
  for (std::size_t i = 0; i < kOptDocs; ++i)
    in.opt.push_back(make_document(in.bases[i]));
  for (std::size_t c = 0; c < kClients; ++c) {
    Xoshiro256 crng = rng.substream(c + 1);
    // Hot documents in a per-client seeded order, cycled, so every hot
    // entry is touched long before enough inserts could evict it.
    std::vector<std::uint32_t> order(kHot);
    for (std::uint32_t i = 0; i < kHot; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), crng);
    // Every 20 requests hold exactly 12 hot, 7 cold and 1 OPTJ in a seeded
    // order, so the mix, and with it jobs_per_s, is the same in every
    // stretch of a run.
    std::vector<ReqType> block(20, ReqType::kHot);
    std::fill(block.begin() + 12, block.begin() + 19, ReqType::kCold);
    block.back() = ReqType::kOpt;
    std::size_t hot = 0, cold = 0, opt = 0;
    while (in.schedule[c].size() < kScheduleLength) {
      std::shuffle(block.begin(), block.end(), crng);
      for (const ReqType t : block) {
        const std::size_t index = t == ReqType::kHot    ? order[hot++ % kHot]
                                  : t == ReqType::kCold ? cold++ % kCold
                                                        : opt++ % kOptDocs;
        in.schedule[c].push_back({t, static_cast<std::uint32_t>(index)});
      }
    }
  }
  return in;
}

using EngineValues = std::vector<std::pair<core::EngineKind, double>>;

opt::OptimizerConfig opt_config(const sfg::Scenario& s, double budget) {
  opt::OptimizerConfig cfg;
  cfg.noise_budget = budget;
  cfg.n_psd = s.config.n_psd;
  cfg.engine_opts = sfg::engine_options_for(s.config);
  return cfg;
}

/// The greedy run the server does for an OPTJ, done in-process.
opt::OptimizerResult optimize_in_process(const std::string& doc,
                                         double budget) {
  sfg::Scenario s = sfg::parse_scenario(doc);
  opt::WordlengthOptimizer o(s.graph, s.graph.noise_sources(),
                             opt_config(s, budget));
  return opt::search::run_strategy(o, {});
}

bool same_values(const serve::Response& r, const EngineValues& want) {
  if (r.engines.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (r.engines[i].kind != want[i].first ||
        !close(r.engines[i].power, want[i].second))
      return false;
  return true;
}

/// Samples gathered by one client thread in one block, merged after join.
struct ClientSamples {
  OpKind hit{"hit"}, miss{"miss"}, stream{"stream"};
  std::vector<double> hit_overhead, miss_overhead, stream_overhead;
  std::size_t prog_frames = 0, completed = 0;
};

void merge(OpKind& into, const OpKind& from) {
  into.us.insert(into.us.end(), from.us.begin(), from.us.end());
  into.attempted += from.attempted;
  into.failed += from.failed;
}

class ServeStage final : public Stage {
 public:
  explicit ServeStage(const StageConfig& cfg)
      : cfg_(cfg), in_(make_inputs(cfg.seed)) {
    compute_eval_references();
    for (const auto& d : in_.opt) {
      sfg::Scenario s = sfg::parse_scenario(d);
      opt::WordlengthOptimizer o(s.graph, s.graph.noise_sources(),
                                 opt_config(s, 1.0));
      o.apply(std::vector<int>(o.variable_count(), kUniformBits));
      const double budget = o.evaluate() * kBudgetScale;
      opt_spec_.push_back({});
      opt_spec_.back().noise_budget = budget;
      opt_ref_.push_back(optimize_in_process(d, budget));
    }
    if (cfg.corrupt_reference) cold_ref_[0].front().front().second *= 1.0 + 1e-6;

    serve::ServerConfig scfg;
    scfg.job_workers = 2;
    server_ = std::make_unique<serve::Server>(scfg);
    server_->start();
    for (std::size_t c = 0; c < kClients; ++c)
      clients_.push_back(std::make_unique<serve::Client>(server_->port()));
    // Warm the cache: the first reply of a hot document is computed, the
    // second is a hit whose bytes every later hit must reproduce.
    bool warm_ok = true;
    for (std::size_t i = 0; i < kHot; ++i) {
      const auto first = clients_[0]->submit_eval(in_.hot[i]);
      const auto second = clients_[0]->submit_eval(in_.hot[i]);
      warm_ok = warm_ok && first.ok && !first.cache_hit &&
                same_values(first, hot_ref_[i]) && second.ok &&
                second.cache_hit && same_values(second, hot_ref_[i]);
      hot_raw_.push_back(second.raw);
    }
    if (!warm_ok) hit_.record(0.0, false);
    base_ = server_->stats();
  }

  ~ServeStage() override {
    clients_.clear();
    server_->stop();
  }

  const char* name() const override { return "serve"; }

  std::vector<OpKind*> kinds() override { return {&hit_, &miss_, &stream_}; }

  // A fresh server answers hits in ~50 us; once the result cache is full
  // and evicting, after about two seconds of this mix, hits settle near
  // 90 us. Timing starts in that steady state. Samples of the warm-up are
  // dropped; its failures still count.
  void warm_up() override {
    run(kWarmUpSeconds);
    for (OpKind* k : kinds()) k->us.clear();
    hit_overhead_.clear();
    miss_overhead_.clear();
    stream_overhead_.clear();
    wall_s_ = 0.0;
    prog_frames_ = completed_ = 0;
    base_ = server_->stats();
  }

  void run(double seconds) override {
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<ClientSamples> samples(kClients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] { client_loop(c, deadline, samples[c]); });
    for (auto& t : threads) t.join();
    wall_s_ += seconds_between(start, Clock::now());
    for (const auto& s : samples) {
      merge(hit_, s.hit);
      merge(miss_, s.miss);
      merge(stream_, s.stream);
      for (auto [into, from] :
           {std::pair{&hit_overhead_, &s.hit_overhead},
            std::pair{&miss_overhead_, &s.miss_overhead},
            std::pair{&stream_overhead_, &s.stream_overhead}})
        into->insert(into->end(), from->begin(), from->end());
      prog_frames_ += s.prog_frames;
      completed_ += s.completed;
    }
  }

  void end_to_end(std::vector<Metric>& out) const override {
    out.push_back({"hit_rtt_p50_us", "us", hit_.best_round()});
    out.push_back({"miss_rtt_p50_us", "us", miss_.best_round()});
    out.push_back({"miss_rtt_p90_us", "us", miss_.best_round(90.0, 20)});
    out.push_back({"stream_rtt_p50_us", "us", stream_.best_round()});
    out.push_back({"jobs_per_s", "1/s",
                   static_cast<double>(completed_) / wall_s_});
  }

  void per_layer(std::vector<Metric>& out) const override {
    const Recorder& r = recorder();
    const auto p50 = [](const std::vector<double>& v) {
      return percentile(v, 50.0).value_or(0.0);
    };
    out.push_back({"sfg.parse_us", "us",
                   p50(r.durations("sfg.parse_scenario"))});
    out.push_back({"sfg.hash_us", "us", p50(r.durations("sfg.content_hash"))});
    out.push_back({"serve.hit_overhead_us", "us", p50(hit_overhead_)});
    out.push_back({"serve.miss_overhead_us", "us", p50(miss_overhead_)});
    out.push_back({"serve.stream_overhead_us", "us", p50(stream_overhead_)});
    const serve::ServerStats now = server_->stats();
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b);
    };
    const double hits = delta(now.cache_hits, base_.cache_hits);
    const double misses = delta(now.cache_misses, base_.cache_misses);
    out.push_back({"serve.cache_hit_ratio", "ratio",
                   hits + misses > 0 ? hits / (hits + misses) : 0.0});
    out.push_back({"serve.prog_frames_per_job", "count",
                   stream_.attempted > 0
                       ? static_cast<double>(prog_frames_) /
                             static_cast<double>(stream_.attempted)
                       : 0.0});
    out.push_back({"serve.jobs_failed", "count",
                   delta(now.jobs_failed, base_.jobs_failed)});
    out.push_back({"serve.jobs_rejected", "count",
                   delta(now.jobs_rejected, base_.jobs_rejected)});
    out.push_back({"serve.jobs_timeout", "count",
                   delta(now.jobs_timeout, base_.jobs_timeout)});
  }

 private:
  // The values every EVAL document must be served with, base by base: the
  // engines the server runs (psd, moment, flat at N_PSD 1024), built once
  // on a copy of the base and moved to each document's word-lengths in
  // turn. A moved engine agrees with a fresh one to 1e-9, the tolerance of
  // every check here.
  void compute_eval_references() {
    const sim::EvaluationConfig config = doc_config();
    const core::EngineOptions opts = sfg::engine_options_for(config);
    hot_ref_.resize(kHot);
    for (auto& refs : cold_ref_) refs.resize(kCold);
    for (std::size_t b = 0; b < in_.bases.size(); ++b) {
      sfg::Graph g = in_.bases[b];
      std::vector<std::pair<core::EngineKind,
                            std::unique_ptr<core::AccuracyEngine>>>
          engines;
      for (const core::EngineKind kind : config.engines)
        if (core::engine_supports(kind, g))
          engines.emplace_back(kind, core::make_engine(kind, g, opts));
      const auto values_at = [&](std::size_t variant) {
        set_variant(g, variant);
        EngineValues out;
        for (auto& [kind, engine] : engines)
          out.emplace_back(kind, engine->output_noise_power());
        return out;
      };
      if (b >= kBases) {
        hot_ref_[b - kBases] = values_at(0);
        continue;
      }
      for (std::size_t j = b; j < kClients * kCold; j += kBases)
        cold_ref_[j / kCold][j % kCold] = values_at(cold_variant(j));
    }
  }

  void client_loop(std::size_t c, Clock::time_point deadline,
                   ClientSamples& out) {
    serve::Client& client = *clients_[c];
    const auto& schedule = in_.schedule[c];
    while (Clock::now() < deadline) {
      const Request req = schedule[cursor_[c]++ % schedule.size()];
      const std::string& doc = req.type == ReqType::kHot ? in_.hot[req.index]
                               : req.type == ReqType::kCold
                                   ? in_.cold[c][req.index]
                                   : in_.opt[req.index];
      serve::Response resp;
      const double rtt = time_us([&] {
        resp = req.type == ReqType::kOpt
                   ? client.submit_opt(doc, opt_spec_[req.index])
                   : client.submit_eval(doc);
      });
      bool ok = resp.ok;
      if (req.type == ReqType::kHot) {
        ok = ok && resp.raw == hot_raw_[req.index];
        out.hit.record(rtt, ok);
      } else if (req.type == ReqType::kCold) {
        ok = ok && !resp.cache_hit &&
             same_values(resp, cold_ref_[c][req.index]);
        out.miss.record(rtt, ok);
      } else {
        const auto& want = opt_ref_[req.index];
        ok = ok && resp.bits == want.bits && resp.cost == want.cost &&
             resp.noise <= opt_spec_[req.index].noise_budget;
        out.stream.record(rtt, ok);
        out.prog_frames += resp.progress.size();
      }
      if (ok) ++out.completed;
      if (cfg_.traced) replay(req, doc, rtt, out);
    }
  }

  // The same work done in-process, so a round trip splits into the work
  // and what the serving tier adds around it.
  void replay(const Request& req, const std::string& doc, double rtt,
              ClientSamples& out) {
    sfg::Scenario s;
    double inproc = time_us([&] {
      ScopedSpan span("sfg.parse_scenario", "sfg");
      s = sfg::parse_scenario(doc);
    });
    if (req.type != ReqType::kOpt)
      inproc += time_us([&] {
        ScopedSpan span("sfg.content_hash", "sfg");
        sfg::content_hash(s.graph, s.config);
      });
    if (req.type == ReqType::kHot) {
      out.hit_overhead.push_back(rtt - inproc);
    } else if (req.type == ReqType::kCold) {
      inproc += time_us([&] {
        ScopedSpan span("serve.replay_eval", "core");
        const core::EngineOptions opts = sfg::engine_options_for(s.config);
        for (const core::EngineKind kind : s.config.engines)
          if (core::engine_supports(kind, s.graph))
            core::make_engine(kind, s.graph, opts)->output_noise_power();
      });
      out.miss_overhead.push_back(rtt - inproc);
    } else {
      inproc += time_us([&] {
        ScopedSpan span("serve.replay_opt", "opt");
        opt::WordlengthOptimizer o(
            s.graph, s.graph.noise_sources(),
            opt_config(s, opt_spec_[req.index].noise_budget));
        opt::search::run_strategy(o, {});
      });
      out.stream_overhead.push_back(rtt - inproc);
    }
  }

  StageConfig cfg_;
  ServeInputs in_;
  std::vector<EngineValues> hot_ref_;
  std::vector<EngineValues> cold_ref_[kClients];
  std::vector<serve::OptimizerSpec> opt_spec_;
  std::vector<opt::OptimizerResult> opt_ref_;
  std::vector<std::string> hot_raw_;
  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  serve::ServerStats base_;
  std::size_t cursor_[kClients] = {0, 0};
  double wall_s_ = 0.0;
  std::size_t prog_frames_ = 0, completed_ = 0;
  std::vector<double> hit_overhead_, miss_overhead_, stream_overhead_;
  OpKind hit_{"hit"}, miss_{"miss"}, stream_{"stream"};
};

}  // namespace

std::unique_ptr<Stage> make_serve_stage(const StageConfig& cfg) {
  return std::make_unique<ServeStage>(cfg);
}

std::string serve_inputs_digest(std::uint64_t seed) {
  const ServeInputs in = make_inputs(seed);
  std::string all;
  for (const auto& d : in.hot) all += d;
  for (const auto& pool : in.cold)
    for (const auto& d : pool) all += d;
  for (const auto& d : in.opt) all += d;
  for (const auto& schedule : in.schedule)
    for (const Request& r : schedule)
      all += std::to_string(static_cast<int>(r.type)) + ':' +
             std::to_string(r.index) + ';';
  return sfg::content_hash_bytes(all).to_string();
}

}  // namespace perfbench
