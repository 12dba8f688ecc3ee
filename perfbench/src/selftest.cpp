// Self-tests of the benchmark program: the percentile rule, seed
// determinism, metric independence across op kinds, metric names and
// units, and the output checker (a corrupted expected value must fail).
#include <cstdio>
#include <regex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

std::string serve_inputs_digest(std::uint64_t seed);

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentiles() {
  expect(percentile(one_to(20), 50) == 10.0,
         "p50 of 1..20 is 10, with ten samples beyond it");
  expect(!percentile(one_to(19), 50), "p50 of 19 samples is refused");
  expect(percentile(one_to(100), 90) == 90.0, "p90 of 1..100 is 90");
  expect(!percentile(one_to(100), 99), "p99 of 100 samples is refused");
  const auto top = highest_supported(one_to(1000));
  expect(top && top->p == 99.0 && top->value == 990.0,
         "highest supported percentile of 1000 samples is p99");
  expect(!highest_supported(one_to(5)), "5 samples support no percentile");
  OpKind thin("thin");  // one sample per round: rounds merge in threes
  for (int r = 0; r < 7; ++r) {
    thin.start_round();
    thin.us.push_back(10.0 - r);
  }
  expect(thin.best_round(50.0, 3) == 6.0,
         "best round merges rounds holding too few samples");
}

void test_seed_determinism() {
  const std::string a = serve_inputs_digest(7);
  expect(a == serve_inputs_digest(7),
         "one seed gives byte-identical documents and schedules");
  expect(a != serve_inputs_digest(8), "another seed gives other inputs");
}

using Maker = std::unique_ptr<Stage> (*)(const StageConfig&);
constexpr Maker kMakers[] = {&make_evaluate_stage, &make_search_stage,
                             &make_serve_stage};

void run_rounds(Stage& s) {
  for (int r = 0; r < 6; ++r) s.run_round(0.4);
}

std::size_t failed_ops(Stage& s) {
  std::size_t n = 0;
  for (const OpKind* k : s.kinds()) n += k->failed;
  return n;
}

// Scaling one kind's samples must move only the metrics read from it.
void test_kinds_do_not_mix(Stage& s) {
  std::vector<Metric> base;
  s.end_to_end(base);
  std::vector<int> movers(base.size(), 0);
  for (OpKind* k : s.kinds()) {
    const auto saved = k->us;
    for (double& v : k->us) v *= 2.0;
    std::vector<Metric> moved;
    s.end_to_end(moved);
    k->us = saved;
    for (std::size_t i = 0; i < base.size(); ++i)
      if (moved[i].value != base[i].value) ++movers[i];
  }
  for (std::size_t i = 0; i < base.size(); ++i)
    expect(movers[i] <= 1, std::string(s.name()) + ": " + base[i].name +
                               " reads one op kind");
}

void check_names(const std::vector<Metric>& metrics, const char* kind) {
  static const std::regex name_re("[A-Za-z0-9_.-]+");
  std::string json = "{";
  for (const Metric& m : metrics) {
    expect(std::regex_match(m.name, name_re) && !m.unit.empty(),
           std::string(kind) + " metric " + m.name + " [" + m.unit + "]");
    json += (json.size() > 1 ? ", \"" : "\"") + m.name + "\": \"" + m.unit +
            "\"";
  }
  std::printf("metrics %s %s}\n", kind, json.c_str());
}

void test_stages() {
  std::vector<Metric> e2e = process_metrics(1.0);
  std::vector<Metric> layer;
  for (const Maker make : kMakers) {
    auto corrupt = make({.seed = 5, .corrupt_reference = true});
    corrupt->run_round(0.2);
    expect(failed_ops(*corrupt) > 0,
           std::string(corrupt->name()) +
               ": a corrupted expected value fails its operations");
    corrupt.reset();

    auto clean = make({.seed = 5});
    run_rounds(*clean);
    expect(failed_ops(*clean) == 0,
           std::string(clean->name()) + ": no operation fails");
    test_kinds_do_not_mix(*clean);
    clean->end_to_end(e2e);
    clean.reset();

    auto traced = make({.seed = 5, .traced = true});
    recorder().set_enabled(true);
    run_rounds(*traced);
    recorder().set_enabled(false);
    traced->per_layer(layer);
  }
  check_names(e2e, "e2e");
  check_names(layer, "layer");
}

}  // namespace

int run_selftests() {
  test_percentiles();
  test_seed_determinism();
  test_stages();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
