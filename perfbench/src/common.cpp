#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {
namespace {

const Clock::time_point kEpoch = Clock::now();

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next++;
  return id;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_spans;

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::optional<double> percentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p < 100.0) || samples.empty()) return std::nullopt;
  const auto n = samples.size();
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < 10) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

std::optional<Quantile> highest_supported(const std::vector<double>& samples) {
  std::optional<Quantile> best;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const auto v = percentile(samples, p);
    if (!v) break;
    best = Quantile{p, *v};
  }
  return best;
}

bool close(double got, double want, double rel) {
  if (!std::isfinite(got) || !std::isfinite(want)) return false;
  return std::abs(got - want) <= rel * std::max(std::abs(want), 1e-300);
}

std::vector<double> OpKind::round(std::size_t r) const {
  const std::size_t begin = round_starts[r];
  const std::size_t end =
      r + 1 < round_starts.size() ? round_starts[r + 1] : us.size();
  return {us.begin() + static_cast<std::ptrdiff_t>(begin),
          us.begin() + static_cast<std::ptrdiff_t>(end)};
}

double OpKind::best_round(double p, std::size_t min_samples) const {
  double best = 0.0;
  bool found = false;
  std::vector<double> v;
  for (std::size_t r = 0; r < round_starts.size(); ++r) {
    const std::vector<double> samples = round(r);
    v.insert(v.end(), samples.begin(), samples.end());
    if (v.size() < std::max<std::size_t>(min_samples, 1)) continue;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(index),
                     v.end());
    if (!found || v[index] < best) best = v[index];
    found = true;
    v.clear();
  }
  if (!found)
    throw std::runtime_error("op kind '" + name + "' has fewer than " +
                             std::to_string(min_samples) + " samples");
  return best;
}

double OpKind::p50() const {
  const auto v = percentile(us, 50.0);
  if (!v)
    throw std::runtime_error("op kind '" + name + "' has " +
                             std::to_string(us.size()) +
                             " samples, too few for a p50");
  return *v;
}

int Recorder::begin(const char* name, const char* layer, std::uint64_t op) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = open_spans.empty() ? -1 : open_spans.back();
  s.op = op;
  s.tid = thread_number();
  int id = 0;
  {
    std::lock_guard lock(mutex_);
    id = static_cast<int>(spans_.size());
    s.start_us = now_us();
    spans_.push_back(std::move(s));
  }
  open_spans.push_back(id);
  return id;
}

void Recorder::end(int id) {
  const double t = now_us();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = t;
}

std::vector<double> Recorder::durations(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.end_us >= s.start_us)
      out.push_back(s.end_us - s.start_us);
  return out;
}

std::size_t Recorder::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

bool Recorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mutex_);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fputs(i == 0 ? "{\"name\":" : ",\n{\"name\":", f);
    json_string(f, s.name);
    std::fputs(",\"cat\":", f);
    json_string(f, s.layer);
    std::fprintf(f,
                 ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"op\":%llu}}",
                 s.start_us, std::max(0.0, s.end_us - s.start_us), s.tid, i,
                 s.parent, static_cast<unsigned long long>(s.op));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

Recorder& recorder() {
  static Recorder r;
  return r;
}

ScopedSpan::ScopedSpan(const char* name, const char* layer,
                       std::uint64_t op) {
  if (recorder().enabled()) id_ = recorder().begin(name, layer, op);
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) recorder().end(id_);
}

std::vector<Metric> process_metrics(double setup_s) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {{"setup_s", "s", setup_s},
          {"peak_rss_mib", "MiB",
           static_cast<double>(usage.ru_maxrss) / 1024.0}};  // KiB on Linux
}

}  // namespace perfbench
