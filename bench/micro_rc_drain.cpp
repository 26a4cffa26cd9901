// M5 micro benchmark: the column-sharded parallel recombination drain
// (DESIGN.md §"Column-sharded parallel recombination drain").
//
// Runs the full engine (DD + IA + RC to quiescence) on a scale-free graph
// at several rc_threads settings and reports, per setting, the RC step
// count and drain_cpu_seconds: CPU actually burnt inside drain() across
// all ranks and shard workers (the work). Sharded runs must be
// bit-identical to serial; the bench asserts it on the closeness doubles
// and the step count before reporting any number. Wall-clock drain cost is
// measured by perfbench (core.cp.drain_s), not here.
//
// Prints a table and writes AACC_OUT_DIR/micro_rc_drain.json (schema:
// EXPERIMENTS.md §M5). Knobs: AACC_N (vertices, default 8000 — the paper
// scale is AACC_N=50000), AACC_P (ranks, default 4), AACC_SEED.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"

namespace {

using namespace aacc;

struct Case {
  std::size_t rc_threads;
  double drain_cpu;
  std::size_t rc_steps;
  bool identical;
};

}  // namespace

int main() {
  const auto n = static_cast<VertexId>(env_int("AACC_N", 8000));
  const auto ranks = static_cast<Rank>(env_int("AACC_P", 4));
  const auto seed = static_cast<std::uint64_t>(env_int("AACC_SEED", 1));

  Rng rng(seed);
  const Graph g = barabasi_albert(n, 3, rng);

  std::vector<Case> cases;
  std::vector<double> ref_closeness;
  std::size_t ref_steps = 0;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    EngineConfig cfg;
    cfg.num_ranks = ranks;
    cfg.seed = seed;
    cfg.rc_threads = t;
    // The default 120 s recv watchdog assumes ranks progress concurrently;
    // on an oversubscribed box a large-AACC_N step keeps one rank computing
    // for longer than that while its peers block in the collective, and the
    // misfired timeout is escalated to a rank failure. Fault tolerance is
    // not under test here — the shared bench default disables the watchdog
    // (AACC_RECV_TIMEOUT_MS overrides).
    cfg.transport.recv_timeout = bench::watchdog_timeout();
    AnytimeEngine engine(g, cfg);
    const RunResult r = engine.run();

    Case c;
    c.rc_threads = t;
    c.drain_cpu = r.stats.rc_drain_cpu_seconds;
    c.rc_steps = r.stats.rc_steps;
    if (t == 1) {
      ref_closeness = r.closeness;
      ref_steps = c.rc_steps;
      c.identical = true;
    } else {
      c.identical =
          r.closeness == ref_closeness && r.stats.rc_steps == ref_steps;
    }
    cases.push_back(c);
    if (!c.identical) {
      std::fprintf(stderr,
                   "FATAL: rc_threads=%zu diverged from the serial drain\n", t);
      return 1;
    }
  }

  // ---- tracing-overhead section (CI gate, docs/OBSERVABILITY.md) ----
  // There is no un-instrumented binary to compare against, so the
  // "disabled" overhead is measured as reproducibility of trace-off runs:
  // if the null-track branches cost anything measurable, the drain CPU
  // could not reproduce within the gate. The metric is
  // rc_drain_cpu_seconds — thread-CPU spent inside drain() — and the
  // spread is taken between the two fastest of five runs (benchstat-style),
  // because a single preempted run would otherwise dominate (max-min) with
  // cache-eviction noise that has nothing to do with the hooks. Thread-CPU
  // still grows when threads share a core (cache and frequency effects), so
  // the section runs at ranks × rc_threads ≤ hardware_concurrency(), and
  // off and on runs alternate (off first in even pairs, on first in odd
  // ones) so a drift in host load lands on both sides.
  // enabled_overhead_pct compares the best trace-on run against the best
  // trace-off run.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const Rank trace_ranks = std::min<Rank>(ranks, static_cast<Rank>(hw));
  const std::size_t trace_threads = std::clamp<std::size_t>(
      hw / static_cast<unsigned>(trace_ranks), 1, 2);
  const auto traced_run = [&](bool trace_on) {
    EngineConfig cfg;
    cfg.num_ranks = trace_ranks;
    cfg.seed = seed;
    cfg.rc_threads = trace_threads;
    cfg.transport.recv_timeout = bench::watchdog_timeout();
    cfg.trace.enabled = trace_on;
    // Trace-on runs carry the full observability cost, flow stamping
    // included, so the enabled/disabled gates cover the stamped wire
    // format too (docs/OBSERVABILITY.md §Causal flows).
    cfg.trace.flow_stamping = trace_on;
    AnytimeEngine engine(g, cfg);
    return engine.run().stats.rc_drain_cpu_seconds;
  };
  std::vector<double> off;
  std::vector<double> on;
  for (int i = 0; i < 5; ++i) {
    const bool on_first = i % 2 == 1;
    if (on_first) on.push_back(traced_run(true));
    off.push_back(traced_run(false));
    if (!on_first) on.push_back(traced_run(true));
  }
  std::sort(off.begin(), off.end());
  const double off_min = off[0];
  const double off_second = off[1];
  const double on_min = *std::min_element(on.begin(), on.end());
  const double disabled_overhead_pct =
      off_min > 0.0 ? 100.0 * (off_second - off_min) / off_min : 0.0;
  const double enabled_overhead_pct =
      off_min > 0.0 ? 100.0 * std::max(0.0, on_min - off_min) / off_min : 0.0;

  // ---- progress-feed overhead section (report-only, EXPERIMENTS.md §M6) --
  // Same methodology as the trace section: the feed disabled is a single
  // boolean test per step (covered by the trace-off spread above, since
  // those runs have the feed off too); enabled adds one bounded gather per
  // RC step plus estimator work on the driver, measured on drain CPU
  // against the best feed-off run. Not a CI gate — the enabled cost is an
  // honest feature cost, not an instrumentation leak.
  std::uint64_t progress_events = 0;
  const auto progress_run = [&] {
    EngineConfig cfg;
    cfg.num_ranks = trace_ranks;
    cfg.seed = seed;
    cfg.rc_threads = trace_threads;
    cfg.transport.recv_timeout = bench::watchdog_timeout();
    progress_events = 0;
    cfg.progress.callback = [&](const obs::ProgressEvent&) {
      ++progress_events;
    };
    AnytimeEngine engine(g, cfg);
    return engine.run().stats.rc_drain_cpu_seconds;
  };
  double prog_min = 0.0;
  for (int i = 0; i < 2; ++i) {
    const double c = progress_run();
    prog_min = i == 0 ? c : std::min(prog_min, c);
  }
  const double progress_overhead_pct =
      off_min > 0.0 ? 100.0 * std::max(0.0, prog_min - off_min) / off_min : 0.0;

  std::printf("\n== micro_rc_drain (n=%u vertices, P=%d ranks) ==\n", n, ranks);
  std::printf("%10s %9s %15s %10s\n", "rc_threads", "rc_steps",
              "drain_cpu_s", "identical");
  for (const Case& c : cases) {
    std::printf("%10zu %9zu %15.3f %10s\n", c.rc_threads, c.rc_steps,
                c.drain_cpu, c.identical ? "yes" : "NO");
  }
  std::printf("trace overhead: disabled %.2f%% (spread of 2 fastest of 5 off"
              " runs), enabled %.2f%% (drain CPU, best off vs best of 5 on;"
              " P=%d x rc_threads=%zu on %u cores, alternating)\n",
              disabled_overhead_pct, enabled_overhead_pct, trace_ranks,
              trace_threads, hw);
  std::printf("progress feed:  enabled %.2f%% drain CPU (%llu events/run; "
              "disabled cost is the boolean-test spread above)\n",
              progress_overhead_pct,
              static_cast<unsigned long long>(progress_events));

  const std::string dir = env_str("AACC_OUT_DIR", "/tmp/aacc_bench");
  (void)std::system(("mkdir -p " + dir).c_str());
  std::ofstream json(dir + "/micro_rc_drain.json");
  json << "{\"bench\":\"micro_rc_drain\",\"vertices\":" << n
       << ",\"ranks\":" << static_cast<int>(ranks) << ",\"cases\":[";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    if (i != 0) json << ',';
    json << "{\"rc_threads\":" << c.rc_threads << ",\"rc_steps\":" << c.rc_steps
         << ",\"drain_cpu_seconds\":" << c.drain_cpu
         << ",\"identical\":" << (c.identical ? "true" : "false") << '}';
  }
  json << "],\"trace_overhead\":{\"ranks\":" << static_cast<int>(trace_ranks)
       << ",\"rc_threads\":" << trace_threads
       << ",\"drain_cpu_off_min\":" << off_min
       << ",\"drain_cpu_off_second\":" << off_second
       << ",\"drain_cpu_on_min\":" << on_min
       << ",\"disabled_overhead_pct\":" << disabled_overhead_pct
       << ",\"enabled_overhead_pct\":" << enabled_overhead_pct
       << "},\"progress_overhead\":{\"drain_cpu_on_min\":" << prog_min
       << ",\"enabled_overhead_pct\":" << progress_overhead_pct
       << ",\"events_per_run\":" << progress_events << "}}\n";
  std::printf("[json] %s/micro_rc_drain.json\n", dir.c_str());
  return 0;
}
