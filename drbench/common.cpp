#include "common.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace drb {

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double h = (static_cast<double>(v.size()) - 1) * p;
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double harrellDavisMedian(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Weight of the i-th order statistic: the Beta((n+1)/2, (n+1)/2)
  // probability of ((i-1)/n, i/n], by the midpoint rule on the density;
  // the weights are normalised, which absorbs the rule's error.
  const double n = static_cast<double>(v.size());
  const double a = (n + 1) / 2;
  const double logNorm = std::lgamma(2 * a) - 2 * std::lgamma(a);
  constexpr int kSteps = 64;
  double sum = 0, weights = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    double w = 0;
    for (int k = 0; k < kSteps; ++k) {
      const double x = (static_cast<double>(i) + (k + 0.5) / kSteps) / n;
      w += std::exp(logNorm + (a - 1) * (std::log(x) + std::log1p(-x)));
    }
    sum += w * v[i];
    weights += w;
  }
  return sum / weights;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-12));
  return std::exp(s / static_cast<double>(v.size()));
}

Tail ladderTail(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0 - 1e-9 ||
        p == 50.0) {
      t.percentile = p;
      t.value = quantile(v, p / 100.0);
      return t;
    }
  }
  return t;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void lowerTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_)
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  items_.push_back({name, {value, unit}});
}

i64 Tally::attempted() const {
  i64 n = 0;
  for (const auto& [cls, af] : byClass_) n += af.first;
  return n;
}

i64 Tally::failed() const {
  i64 n = 0;
  for (const auto& [cls, af] : byClass_) n += af.second;
  return n;
}

void Tally::print() const {
  for (const auto& [cls, af] : byClass_)
    std::printf("class %-12s failed %lld of %lld attempted\n", cls.c_str(),
                static_cast<long long>(af.second),
                static_cast<long long>(af.first));
}

void printResult(bool correct, i64 attempted, i64 failed, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, vu] : m.items()) {
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

namespace {
thread_local std::vector<int> tlsOpen;  // open span ids of this thread
}

int Tracer::begin(std::string name, Clock::time_point start) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = std::move(name);
  s.parent = tlsOpen.empty() ? -1 : tlsOpen.back();
  s.start = start;
  s.end = start;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  tlsOpen.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = now;
  if (!tlsOpen.empty() && tlsOpen.back() == id) tlsOpen.pop_back();
}

void Tracer::record(std::string name, Clock::time_point start,
                    Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = std::move(name);
  s.parent = tlsOpen.empty() ? -1 : tlsOpen.back();
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::selfUs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> childUs(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      childUs[static_cast<std::size_t>(s.parent)] += usBetween(s.start, s.end);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += usBetween(spans_[i].start, spans_[i].end) - childUs[i];
  return out;
}

std::map<std::string, double> Tracer::totalUs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += usBetween(s.start, s.end);
  return out;
}

std::map<std::string, i64> Tracer::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, i64> out;
  for (const Span& s : spans_) ++out[s.name];
  return out;
}

const std::vector<std::pair<std::string, std::string>>& perLayerTable() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"explorer.prepare_us", "us"},
      {"analytic.points_us", "us"},
      {"analytic.multilevel_us", "us"},
      {"analytic.knees_us", "us"},
      {"analytic.knees_points_walked", "count"},
      {"analytic.symbolic_us", "us"},
      {"analytic.symbolic_accepted", "count"},
      {"analytic.symbolic_rejected", "count"},
      {"simcore.curve_us", "us"},
      {"simcore.events_total", "count"},
      {"simcore.events_simulated", "count"},
      {"simcore.simulated_ratio", "ratio"},
      {"hierarchy.chains_us", "us"},
      {"hierarchy.pareto_us", "us"},
      {"hierarchy.chains_enumerated", "count"},
      {"hierarchy.pareto_kept", "count"},
      {"hierarchy.pareto_ratio", "ratio"},
      {"explorer.glue_us", "us"},
      {"partition.solve_us", "us"},
      {"advise.cache_hit_ratio", "ratio"},
      {"frontend.compile_us", "us"},
      {"explorer.hash_us", "us"},
      {"report.csv_us", "us"},
      {"report.csv_bytes", "bytes"},
      {"client.hot_us", "us"},
      {"client.cold_us", "us"},
      {"client.advise_us", "us"},
      {"client.malformed_us", "us"},
      {"client.hot_p99_ms", "ms"},
      {"client.retries", "count"},
      {"server.handle_mean_us", "us"},
      {"service.wire_us", "us"},
      {"server.degraded_replies", "count"},
      {"server.curves_symbolic", "count"},
      {"server.curves_fold", "count"},
      {"server.curves_stream", "count"},
      {"admission.queue_hwm", "count"},
      {"admission.shed", "count"},
      {"admission.tightened", "count"},
      {"admission.expired", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.warm_hits", "count"},
      {"cache.misses", "count"},
      {"cache.evictions", "count"},
      {"cache.bytes", "bytes"},
      {"singleflight.joins", "count"},
      {"router.hop_us", "us"},
      {"router.hedges_launched", "count"},
      {"router.hedge_win_ratio", "ratio"},
      {"router.failovers", "count"},
      {"shard.utilisation", "ratio"},
      {"gen.late_p50_ms", "ms"},
      {"gen.late_p99_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.self_sum_ratio", "ratio"},
  };
  return table;
}

void fillPerLayer(Metrics& m, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : perLayerTable()) {
    auto it = values.find(name);
    m.set(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace drb
