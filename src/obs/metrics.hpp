// Metrics registry: named counters, gauges, and histograms that the
// engine's ledger (`RunStats`) is derived from, so cost accounting has one
// source of truth.
//
// Concurrency model: a registry is single-threaded by construction — the
// driver owns one registry per rank, each rank thread touches only its own
// (folding per-step deltas once per RC step, never from inner loops), and
// the driver merges them after `World::run` has joined every thread.
// Merging iterates ranks in order and instruments sums in std::map name
// order, so derived floating-point totals are bit-stable run to run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace aacc::obs {

/// Monotone integer count (bytes, messages, relaxations, ...).
struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n) { value += n; }
};

/// Floating-point accumulator / last-value holder (CPU seconds, wait
/// seconds, byte gauges).
struct Gauge {
  double value = 0.0;
  void add(double v) { value += v; }
  void set(double v) { value = v; }
};

/// Power-of-two bucketed distribution (queue depths, message sizes).
/// Bucket b counts samples in [2^(b-1), 2^b); bucket 0 counts zeros and
/// ones.
struct Histogram {
  static constexpr int kBuckets = 32;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t buckets[kBuckets] = {};

  void record(std::uint64_t v);
  void merge(const Histogram& o);
};

/// Quantile estimate from the power-of-two buckets: finds the bucket that
/// contains the q-th sample and interpolates linearly inside it, clamped
/// to the exact [min, max] the histogram tracked. q in [0, 1]; returns 0
/// for an empty histogram. Exact for single-bucket distributions, within
/// one bucket width (a factor of two) otherwise.
[[nodiscard]] double histogram_quantile(const Histogram& h, double q);

/// Name-keyed registry. Lookup is by string and returns a stable
/// reference; hot paths resolve names once and keep the pointer.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// Value of a counter, 0 when absent (reader-side convenience).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  /// Value of a gauge, 0.0 when absent.
  [[nodiscard]] double gauge_value(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Folds `o` into this registry: counters and gauges add, histograms
  /// merge. Instruments are visited in name order; callers control rank
  /// order, which together fixes the floating-point summation order.
  void merge(const MetricsRegistry& o);

  /// Deterministic JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{...}} with keys in
  /// name order and gauges printed with %.17g (round-trippable).
  void to_json(std::ostream& os) const;

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace aacc::obs
