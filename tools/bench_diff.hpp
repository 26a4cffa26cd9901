// bench_diff — history-aware benchmark comparator (docs/EXPERIMENTS.md §M6,
// wired into CI by .github/workflows/ci.yml).
//
// Ingests two or more BENCH_*.json files (any JSON whose leaves are numbers
// or booleans), flattens every numeric leaf to a dotted path
// ("configs[2].drain_cpu_seconds"), and compares the newest file (the
// candidate) against the best of the older ones (the history). The gate is
// noise-aware, benchstat style: a metric only counts as a regression when
//   * its path matches the gate regex (timings, not counters),
//   * the relative delta vs the *best* historical sample exceeds
//     max(threshold, observed historical spread), and
//   * the absolute delta is above a tiny floor (sub-microsecond jitter on a
//     near-zero baseline is noise, not signal).
// Header-only so the unit test exercises the same code the CLI ships; the
// JSON reader is the std-only aacc_json library (common/json.hpp).
#pragma once

#include <algorithm>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace aacc::tools {

namespace detail {

inline void flatten_value(const json::Value& v, const std::string& path,
                          std::map<std::string, double>& out) {
  if (const auto* members = v.object()) {
    for (const auto& [key, child] : *members) {
      flatten_value(child, path.empty() ? key : path + "." + key, out);
    }
  } else if (const auto* items = v.array()) {
    for (std::size_t i = 0; i < items->size(); ++i) {
      flatten_value((*items)[i], path + "[" + std::to_string(i) + "]", out);
    }
  } else if (const bool* b = v.boolean()) {
    out[path] = *b ? 1.0 : 0.0;
  } else if (const auto x = v.number()) {
    out[path] = *x;
  }
}

}  // namespace detail

/// Flattens every numeric/boolean leaf of `text` (a JSON document) into
/// `out` keyed by dotted path; arrays index as "[i]". Strings and nulls are
/// skipped — benchmarks compare numbers. Returns false (and sets *err when
/// given) on malformed JSON (common/json.hpp's reader).
inline bool flatten_json(const std::string& text,
                         std::map<std::string, double>& out,
                         std::string* err = nullptr) {
  json::Value doc;
  const json::Error e = json::parse(text, doc);
  if (e != json::Error::kNone) {
    if (err != nullptr) *err = json::describe(e);
    return false;
  }
  // Recursion depth is bounded by json::kMaxDepth.
  detail::flatten_value(doc, "", out);
  return true;
}

struct DiffOptions {
  /// Minimum relative regression (percent) before a gated metric fails.
  double threshold_pct = 10.0;
  /// Only metrics whose dotted path matches this ECMAScript regex (via
  /// std::regex_search) can fail the gate; everything else is report-only.
  /// Default matches the timing/makespan families across the BENCH_* files.
  /// Only lower-is-better metrics belong in it: the gate fails on
  /// increases.
  std::string gate_regex = "(seconds|makespan|wall|cpu)";
};

struct MetricDelta {
  std::string path;
  double baseline = 0.0;   ///< best (min) historical sample
  double candidate = 0.0;
  double delta_pct = 0.0;  ///< (candidate - baseline) / baseline * 100
  double noise_pct = 0.0;  ///< historical spread (max-min)/min * 100
  bool gated = false;      ///< path matches the gate regex
  bool regression = false;
};

struct DiffReport {
  std::vector<MetricDelta> rows;  ///< paths present in candidate AND history
  std::size_t regressions = 0;
  std::size_t improvements = 0;  ///< gated metrics faster than baseline
};

/// Compares `candidate` against `history` (1+ older runs). Baseline per
/// metric is the *minimum* over history (fastest observed — benchstat's
/// stance that the best run is closest to the machine's true capability);
/// noise is the historical spread. A gated metric regresses when its delta
/// beats max(threshold, noise) and the absolute change is non-trivial.
inline DiffReport diff_bench(
    const std::vector<std::map<std::string, double>>& history,
    const std::map<std::string, double>& candidate,
    const DiffOptions& opts = {}) {
  const std::regex gate(opts.gate_regex,
                        std::regex::ECMAScript | std::regex::icase);
  // Sub-microsecond absolute changes are timer granularity, not signal.
  constexpr double kAbsFloor = 1e-6;
  // Baselines at (or below) double noise level cannot express a meaningful
  // relative delta; report but never gate them.
  constexpr double kZeroBaseline = 1e-12;

  DiffReport rep;
  for (const auto& [path, cand] : candidate) {
    double lo = 0.0;
    double hi = 0.0;
    std::size_t samples = 0;
    for (const auto& run : history) {
      const auto it = run.find(path);
      if (it == run.end()) continue;
      if (samples == 0) {
        lo = hi = it->second;
      } else {
        lo = std::min(lo, it->second);
        hi = std::max(hi, it->second);
      }
      ++samples;
    }
    if (samples == 0) continue;  // new metric: nothing to compare against

    MetricDelta d;
    d.path = path;
    d.baseline = lo;
    d.candidate = cand;
    d.gated = std::regex_search(path, gate);
    if (lo > kZeroBaseline) {
      d.delta_pct = (cand - lo) / lo * 100.0;
      d.noise_pct = samples >= 2 ? (hi - lo) / lo * 100.0 : 0.0;
      const double bar = std::max(opts.threshold_pct, d.noise_pct);
      if (d.gated && d.delta_pct > bar && cand - lo > kAbsFloor) {
        d.regression = true;
        ++rep.regressions;
      } else if (d.gated && d.delta_pct < 0.0) {
        ++rep.improvements;
      }
    }
    rep.rows.push_back(std::move(d));
  }
  return rep;
}

}  // namespace aacc::tools
