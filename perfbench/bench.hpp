// Shared pieces of the wall-clock benchmark: clocks, order statistics, the
// metric sheet a workload fills in, the benchmark-side span log, and the
// per-layer extraction from a RunResult.
//
// Everything here talks to the program through its public API only
// (aacc/aacc.hpp and obs/causal.hpp); nothing under src/ knows about it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "aacc/aacc.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Seed of case `k` of a run: every case draws fresh inputs, and the same
/// (seed, k) always draws the same ones (splitmix64 finalizer).
inline std::uint64_t case_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + k + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Middle value (mean of the two middle values for even counts); 0 when
/// empty.
double median(std::vector<double> v);

/// Nearest-rank quantile, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> v, double q);

/// What the command line asked for.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;  ///< benchmark-side span file (traced runs only)
};

/// The threads a workload keeps busy, checked against the host's cores.
struct ThreadBudget {
  int ranks = 0;
  int threads_per_rank = 1;
  int generator_threads = 0;
};

/// One workload's measured numbers, keyed by metric name. `attempted` and
/// `failed` count operations (runs, queries, ingests, closes); a failure is
/// a result mismatch, an exception, a query that misses a live vertex, a
/// refused ingest, or a traced run that breaks the trace-hygiene checks.
struct Sheet {
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< printed beside the metrics

  void set(const std::string& name, double v) { values[name] = v; }
  void fail(const std::string& why) {
    ++failed;
    if (notes.size() < 20) notes.push_back("FAIL: " + why);
  }
};

/// Benchmark-side spans around the public calls (engine construction,
/// run, session open, ingest, close, QueryView calls). Each thread keeps
/// its own log; logs are merged and written once the workload has ended.
class SpanLog {
 public:
  /// `stream` separates the id spaces of logs kept by different threads.
  SpanLog(bool enabled, std::uint32_t stream)
      : enabled_(enabled), next_id_((std::uint64_t{stream} << 40) + 1) {}

  /// Reserves an id for a span whose children are recorded before it ends.
  std::uint64_t reserve() { return enabled_ ? next_id_++ : 0; }
  /// Records a finished span; `id` 0 takes a fresh id. Returns the id.
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t id = 0);
  void append(const SpanLog& other);
  /// Chrome trace-event JSON ("X" events; args carry id and parent).
  void write_json(std::ostream& os) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool enabled_;
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Per-layer numbers a traced run's RunResult carries: RunStats, the merged
/// metrics registry, and the critical path stitched by obs::analyze_causal.
/// Returns false (with `why`) when the run breaks the trace hygiene rules:
/// dropped trace events, or an RC epoch whose critical path covers less
/// than 0.999 of its makespan.
bool layer_metrics(const aacc::RunResult& r,
                   std::map<std::string, double>& out, std::string& why);

/// Prints case `k`'s `inputs` line, whose fingerprint the self-test
/// compares across seeds.
void print_inputs(const Options& opt, std::uint64_t k, std::uint64_t fp);

/// The passes over one case's inputs, true = traced: untraced only, or with
/// --trace both, alternating which runs first so neither always runs warm.
std::vector<bool> passes(const Options& opt, std::uint64_t k);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// FNV-1a fingerprint of a graph's edge list and of a mutation stream, so
/// the self-test can tell that a seed changed the inputs.
std::uint64_t fingerprint(const aacc::Graph& g, std::uint64_t h = 0);
std::uint64_t fingerprint(const std::vector<aacc::Event>& events,
                          std::uint64_t h);

/// Workload entry points. Each fills `sheet` with every metric it measures
/// (end-to-end from untraced runs, per-layer from traced runs) and prints
/// one `inputs` line per case.
void run_static_ba(const Options& opt, Sheet& sheet, SpanLog& spans);
void run_churn_capped(const Options& opt, Sheet& sheet, SpanLog& spans);
void run_serve_mixed(const Options& opt, Sheet& sheet, SpanLog& spans);

ThreadBudget static_ba_threads();
ThreadBudget churn_capped_threads();
ThreadBudget serve_mixed_threads();

}  // namespace perfbench
