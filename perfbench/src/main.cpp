// perfbench: the repository benchmark.
//
//   perfbench --workload evaluate|serve --seed N --seconds S
//             --trace 0|1 [--trace-out trace.json]
//   perfbench --selftest
//   perfbench --print-reference
//
// Every run sets up all three stages (the evaluate, search and serve op
// kinds; see README.md), then runs them in rounds of blocks: the stage the
// workload is named after takes most of the time and the other two run
// short blocks, so every end-to-end metric is printed on every workload.
// The last stdout line is the JSON result; --trace 0 prints the end-to-end
// metrics, --trace 1 the per-layer metrics of a traced run.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

void print_reference();

namespace {

constexpr int kSetups = 3;     // setup_s is the median of these
constexpr int kRounds = 24;    // block rotations per measured phase
constexpr double kHomeShare = 0.6;

// Each workload is named after its home stage. The search stage has no
// workload of its own: it runs as a guest in both (see README.md).
const char* const kWorkloads[] = {"evaluate", "serve"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
};

using Stages = std::vector<std::unique_ptr<Stage>>;

Stages make_stages(const StageConfig& cfg) {
  Stages s;
  for (auto* make :
       {&make_evaluate_stage, &make_search_stage, &make_serve_stage}) {
    const auto t0 = Clock::now();
    s.push_back(make(cfg));
    std::printf("set-up %-8s %.3f s\n", s.back()->name(),
                seconds_between(t0, Clock::now()));
  }
  return s;
}

/// Runs @p seconds of rounds: the home stage takes kHomeShare of each
/// round, the other stages split the rest.
void run_phase(Stages& stages, std::size_t home, double seconds) {
  const double guest = (1.0 - kHomeShare) / (stages.size() - 1);
  for (int r = 0; r < kRounds; ++r)
    for (std::size_t i = 0; i < stages.size(); ++i)
      stages[i]->run_round(seconds * (i == home ? kHomeShare : guest) /
                           kRounds);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_kinds(Stages& stages) {
  std::printf("%-10s %-10s %8s %7s %12s %12s %14s\n", "stage", "op kind",
              "samples", "failed", "best round", "p50 (us)", "tail (us)");
  for (auto& s : stages)
    for (const OpKind* k : s->kinds()) {
      const auto tail = highest_supported(k->us);
      char tail_text[64] = "-";
      if (tail)
        std::snprintf(tail_text, sizeof tail_text, "p%g=%.1f", tail->p,
                      tail->value);
      std::printf("%-10s %-10s %8zu %7zu %12.1f %12.1f %14s\n", s->name(),
                  k->name.c_str(), k->us.size(), k->failed, k->best_round(),
                  tail ? percentile(k->us, 50.0).value() : 0.0, tail_text);
    }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

int run(const Args& a) {
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
      std::end(kWorkloads)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  StageConfig cfg{.seed = a.seed, .traced = a.trace};
  Stages stages;
  std::vector<double> setups;
  for (int i = 0; i < (a.trace ? 1 : kSetups); ++i) {
    stages.clear();  // one set of inputs alive at a time
    const auto t0 = Clock::now();
    stages = make_stages(cfg);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  for (auto& s : stages) s->warm_up();
  std::size_t home = 0;
  while (stages[home]->name() != a.workload) ++home;

  std::size_t attempted = 0, failed = 0;
  const auto tally = [&] {
    for (auto& s : stages)
      for (const OpKind* k : s->kinds()) {
        attempted += k->attempted;
        failed += k->failed;
      }
  };
  std::vector<Metric> metrics;
  if (!a.trace) {
    run_phase(stages, home, a.seconds);
    tally();
    print_kinds(stages);
    metrics = process_metrics(median(setups));
    for (auto& s : stages) s->end_to_end(metrics);
  } else {
    // Same workload and seed: an untraced half, then a traced half. The
    // p50 difference per op kind is the tracing overhead.
    run_phase(stages, home, a.seconds / 2);
    tally();
    std::vector<double> untraced;
    for (auto& s : stages)
      for (const OpKind* k : s->kinds()) untraced.push_back(k->p50());
    for (auto& s : stages) s->reset_samples();
    recorder().set_enabled(true);
    run_phase(stages, home, a.seconds / 2);
    recorder().set_enabled(false);
    tally();
    print_kinds(stages);
    std::printf("\ntracing overhead (%s): traced vs untraced p50\n",
                a.workload.c_str());
    std::size_t i = 0;
    for (auto& s : stages)
      for (const OpKind* k : s->kinds())
        std::printf("  %-10s %+7.1f%%\n", k->name.c_str(),
                    (k->p50() / untraced[i++] - 1.0) * 100.0);
    for (auto& s : stages) s->per_layer(metrics);
    std::printf("\n%-30s %16s %s\n", "layer metric", "value", "unit");
    for (const Metric& m : metrics)
      std::printf("%-30s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    if (!recorder().write_chrome_json(a.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.trace_out.c_str());
      return 1;
    }
    std::printf("\n%zu spans written to %s\n", recorder().size(),
                a.trace_out.c_str());
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Keep freed memory in the process: returning it to the kernel makes the
  // next allocation refault pages, whose cost on a shared VM host swings
  // with the host's memory pressure (2x on the DWT grid and the simulator).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  Args a;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--selftest") == 0) return run_selftests();
    if (std::strcmp(argv[i], "--print-reference") == 0) {
      print_reference();
      return 0;
    }
    if (std::strcmp(argv[i], "--workload") == 0)
      a.workload = value();
    else if (std::strcmp(argv[i], "--seed") == 0)
      a.seed = std::strtoull(value(), nullptr, 10);
    else if (std::strcmp(argv[i], "--seconds") == 0)
      a.seconds = std::strtod(value(), nullptr);
    else if (std::strcmp(argv[i], "--trace") == 0)
      a.trace = std::strcmp(value(), "1") == 0;
    else if (std::strcmp(argv[i], "--trace-out") == 0)
      a.trace_out = value();
    else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
