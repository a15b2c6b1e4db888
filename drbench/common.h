#pragma once

// Shared plumbing of the end-to-end benchmark: sample statistics, the
// result line, the in-memory span tracer and the seeded random stream.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace drb {

using i64 = std::int64_t;
using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double usBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolation quantile (numpy's default) of unsorted samples;
/// 0 for an empty sample.
double quantile(std::vector<double> v, double p);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// Harrell-Davis estimate of the median: a weighted mean of all order
/// statistics, the weights peaking at the middle. When two samples near the
/// middle swap places it moves smoothly, where the sample median jumps
/// across the gap between them. 0 for an empty sample.
double harrellDavisMedian(std::vector<double> v);
double mean(const std::vector<double>& v);
double geomean(const std::vector<double>& v);

/// The highest percentile of a fixed ladder (50, 75, 90, 95, 99, 99.9)
/// that still has at least ten samples beyond it.
struct Tail {
  double percentile = 50;
  double value = 0;
  std::size_t samples = 0;
};
Tail ladderTail(const std::vector<double>& v);

/// Peak resident set of this process (getrusage high-water mark), MiB.
double peakRssMb();

/// Lower this thread's timer slack so absolute sleeps wake on time.
void lowerTimerSlack();

/// Seeded random stream (splitmix64): identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  i64 below(i64 n) { return static_cast<i64>(next() % static_cast<std::uint64_t>(n)); }
  i64 range(i64 lo, i64 hi) { return lo + below(hi - lo + 1); }

 private:
  std::uint64_t state_;
};

/// Named metrics in print order, with units.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Request outcome tally per class, for the correctness report.
class Tally {
 public:
  void record(const std::string& cls, bool ok) {
    auto& [attempted, failed] = byClass_[cls];
    ++attempted;
    if (!ok) ++failed;
  }
  i64 attempted() const;
  i64 failed() const;
  void print() const;  ///< "class: failed/attempted" lines on stdout

 private:
  std::map<std::string, std::pair<i64, i64>> byClass_;
};

/// Prints the result line: {"correct","attempted","failed","metrics"}.
void printResult(bool correct, i64 attempted, i64 failed, const Metrics& m);

/// In-memory span recorder. Spans nest per thread; they are kept until
/// the run ends and summarised there. A null Tracer* disables recording.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start, end;
  };
  /// Opens a span (a child of this thread's innermost open span) that
  /// started at `start`.
  int begin(std::string name, Clock::time_point start = Clock::now());
  void end(int id);
  /// Records a finished child span of this thread's innermost open span.
  void record(std::string name, Clock::time_point start, Clock::time_point end);
  /// Self time per span name (duration minus the part covered by child
  /// spans), microseconds, summed over all spans of that name.
  std::map<std::string, double> selfUs() const;
  /// Total duration per span name, microseconds.
  std::map<std::string, double> totalUs() const;
  /// Span count per name.
  std::map<std::string, i64> counts() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, std::string name, Clock::time_point start = Clock::now())
      : t_(t), id_(t ? t->begin(std::move(name), start) : -1) {}
  ~ScopedSpan() {
    if (t_) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Command-line settings of one run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string digestsPath;  ///< expected-digest file (explore_zoo)
  bool emitDigests = false; ///< print fresh digests instead of checking
};

/// The per-layer metric table: every name a traced run prints, with its
/// unit. A workload fills the entries its requests define; the rest stay 0.
const std::vector<std::pair<std::string, std::string>>& perLayerTable();

/// Sets every per-layer metric, taking values from `values` (0 if absent).
void fillPerLayer(Metrics& m, const std::map<std::string, double>& values);

int runExploreZoo(const RunArgs& args, Clock::time_point processStart);
int runRoutedMix(const RunArgs& args, Clock::time_point processStart);

}  // namespace drb
