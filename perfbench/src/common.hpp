// Shared pieces of the benchmark program: per-op-kind sample sets, the
// percentile rule, the span recorder behind the traced run, and the stage
// interface the three workloads are composed from.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds on the monotonic clock since the process started timing.
double now_us();
/// Seconds between two steady-clock points.
double seconds_between(Clock::time_point a, Clock::time_point b);

/// Nearest-rank percentile @p p (0 < p < 100) of @p samples. Refused
/// (empty) unless at least ten samples lie beyond it, so a reported tail
/// always has support in the data.
std::optional<double> percentile(std::vector<double> samples, double p);

struct Quantile {
  double p = 0.0;
  double value = 0.0;
};
/// The highest of p50, p90, p99, p99.9 and p99.99 that percentile()
/// supports on @p samples; empty when not even p50 is supported.
std::optional<Quantile> highest_supported(const std::vector<double>& samples);

/// Relative agreement to @p rel (the golden corpus's 1e-9 by default).
bool close(double got, double want, double rel = 1e-9);

/// One operation kind's own samples. Every end-to-end metric reads exactly
/// one of these, so unlike operations never pool into one percentile.
/// A sample is one operation's latency, or for kinds that cycle over a set
/// of unlike systems, the mean latency over one pass of the set.
struct OpKind {
  explicit OpKind(std::string kind_name) : name(std::move(kind_name)) {}

  std::string name;
  std::vector<double> us;  ///< samples, microseconds
  std::vector<std::size_t> round_starts;  ///< index in `us` of each round
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void start_round() { round_starts.push_back(us.size()); }
  /// Samples of round @p r.
  std::vector<double> round(std::size_t r) const;

  /// Counts one checked operation.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Counts one operation; only a correct one contributes a sample.
  void record(double latency_us, bool ok) {
    count(ok);
    if (ok) us.push_back(latency_us);
  }
  /// The run's best round: the lowest per-round percentile @p p. A round
  /// holding fewer than @p min_samples samples is merged with the rounds
  /// after it until the group holds enough (a kind that runs only a few
  /// operations per guest block still gets its statistic); a short group
  /// left at the end is dropped. The shared host slows whole rounds by
  /// 1.3-1.6x at random; the best round is the one it left alone. Throws
  /// when the whole run holds fewer than @p min_samples samples.
  double best_round(double p = 50.0, std::size_t min_samples = 3) const;
  /// p50 over every sample of the run (printed, not gated).
  double p50() const;
};

/// A named value with its unit, as printed in the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One recorded span: a call into a layer made from the benchmark's files.
struct Span {
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;        ///< index of the enclosing span on this thread
  std::uint64_t op = 0;   ///< operation the span belongs to
  std::uint32_t tid = 0;  ///< small per-thread number
};

/// In-memory span store, written out as Chrome trace-event JSON at exit.
/// Off by default; a disabled recorder costs one branch per span.
class Recorder {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  int begin(const char* name, const char* layer, std::uint64_t op);
  void end(int id);
  /// Durations (us) of every closed span called @p name, in start order.
  std::vector<double> durations(const std::string& name) const;
  std::size_t size() const;
  /// Writes `{"traceEvents": [...]}` with one complete ("X") event per
  /// span; viewable in Perfetto or chrome://tracing.
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  bool enabled_ = false;
};

Recorder& recorder();

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, std::uint64_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_ = -1;
};

/// Knobs every stage is built from. Inputs derive from `seed` only.
struct StageConfig {
  std::uint64_t seed = 1;
  bool traced = false;
  /// Checker self-test: perturb one expected value by 1e-6 relative, so
  /// the operations checked against it must fail.
  bool corrupt_reference = false;
};

/// One workload's operations. Construction is set-up: inputs, engines,
/// reference results and (for serve) the server. run() executes the
/// stage's op kinds in blocks, one kind at a time.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  /// Runs every op kind of this stage once, in blocks whose lengths split
  /// @p seconds by the kinds' weights (each block runs at least a few
  /// operations, so every kind gathers samples in every round).
  virtual void run(double seconds) = 0;
  /// Untimed operations after set-up that bring the stage to the steady
  /// state timing should see.
  virtual void warm_up() {}
  virtual std::vector<OpKind*> kinds() = 0;
  /// End-to-end metrics, each from one op kind of the untraced samples.
  virtual void end_to_end(std::vector<Metric>& out) const = 0;
  /// Per-layer metrics from spans and public counters of the traced run.
  virtual void per_layer(std::vector<Metric>& out) const = 0;
  /// One round: marks where each kind's samples of the round begin, then
  /// runs the stage for @p seconds.
  void run_round(double seconds) {
    for (OpKind* k : kinds()) k->start_round();
    run(seconds);
  }
  /// Forget every sample so far (the traced half starts afresh).
  void reset_samples() {
    for (OpKind* k : kinds()) *k = OpKind(k->name);
  }
};

std::unique_ptr<Stage> make_evaluate_stage(const StageConfig& cfg);
std::unique_ptr<Stage> make_search_stage(const StageConfig& cfg);
std::unique_ptr<Stage> make_serve_stage(const StageConfig& cfg);

/// Runs @p op until @p seconds have passed and it ran at least @p min_ops
/// times. The block is the unit that keeps kinds from evicting each
/// other's caches: no other kind runs inside it.
template <class F>
void run_block(double seconds, std::size_t min_ops, F&& op) {
  const auto start = Clock::now();
  for (std::size_t n = 0;; ++n) {
    if (n >= min_ops && seconds_between(start, Clock::now()) >= seconds)
      break;
    op();
  }
}

/// Latency of @p f in microseconds.
template <class F>
double time_us(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

/// The process-level end-to-end metrics: set-up time and peak memory.
std::vector<Metric> process_metrics(double setup_s);

/// Self-tests of the benchmark program; returns the number of failures.
int run_selftests();

}  // namespace perfbench
