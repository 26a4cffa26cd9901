// Wall-clock benchmark of the anytime anywhere closeness engine.
//
//   perfbench --workload static_ba|churn_capped|serve_mixed --seed N
//             --seconds S --trace 0|1 [--spans-out FILE]
//
// Prints the host's thread budget, one `inputs` line per case, one
// `metric <name> <value> <unit>` line per measured number, and as its last
// line one JSON object {"correct","attempted","failed","metrics"}: with
// --trace 0 the gated end-to-end metrics, with --trace 1 the per-layer
// metrics. Exits 1 when any result failed verification. perfbench/run.py
// builds this program and checks its metric set against BENCHMARK.json.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Def {
  const char* name;
  const char* unit;
};

/// Gated end-to-end metrics: measured untraced, reported by every workload.
constexpr Def kEndToEnd[] = {
    {"converge_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// End-to-end numbers only serve_mixed has. Printed, not gated: every gated
/// metric must be reported, nonzero, by every workload.
constexpr Def kServeOnly[] = {
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"sustained_qps", "1/s"},
    {"ingest_visible_s", "s"},
    {"drain_s", "s"},
};

/// Per-layer metrics from the traced runs; 0 where a layer does no work.
constexpr Def kPerLayer[] = {
    {"partition.dd_s", "s"},
    {"partition.cut_edges", "count"},
    {"partition.imbalance", "ratio"},
    {"core.ia_cpu_s", "s"},
    {"core.cp.ia_s", "s"},
    {"core.rc_steps", "count"},
    {"core.relaxations", "count"},
    {"core.drain_cpu_s", "s"},
    {"core.drain_queue_p99", "count"},
    {"core.cp.drain_s", "s"},
    {"core.cp.send_assembly_s", "s"},
    {"core.cp.exchange_s", "s"},
    {"core.poisons", "count"},
    {"core.repairs", "count"},
    {"core.repairs_per_poison", "ratio"},
    {"core.cp.poison_sync_s", "s"},
    {"core.cp.ingest_s", "s"},
    {"core.cp.unattributed_s", "s"},
    {"core.dv_promotions", "count"},
    {"core.dv_demotions", "count"},
    {"core.dv_decode_s", "s"},
    {"core.dv_cold_bytes", "bytes"},
    {"core.dv_resident_bytes", "bytes"},
    {"runtime.bytes_sent", "bytes"},
    {"runtime.messages_sent", "count"},
    {"runtime.exchange_wait_s", "s"},
    {"runtime.blocked_on_s", "s"},
    {"runtime.cp.wire_s", "s"},
    {"serve.point_ns_p50", "ns"},
    {"serve.point_ns_p99", "ns"},
    {"serve.top_k_ns_p99", "ns"},
    {"serve.rank_of_ns_p99", "ns"},
    {"serve.publishes", "count"},
    {"serve.publish_s", "s"},
    {"serve.snapshot_age_p99", "steps"},
    {"serve.ingest_call_us", "us"},
    {"serve.generator_lag_ms", "ms"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.trace_dropped", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "static_ba|churn_capped|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool seed = false, seconds = false, trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
        seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
        seconds = o.seconds > 0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
        trace = true;
      } else if (a == "--spans-out") {
        o.spans_out = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty() || !seed || !seconds || !trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return o;
}

void print_metric(const Sheet& sheet, const Def& d) {
  const auto it = sheet.values.find(d.name);
  std::printf("metric %s %.17g %s\n", d.name,
              it == sheet.values.end() ? 0.0 : it->second, d.unit);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  void (*run)(const Options&, Sheet&, SpanLog&) = nullptr;
  ThreadBudget budget;
  if (opt.workload == "static_ba") {
    run = run_static_ba;
    budget = static_ba_threads();
  } else if (opt.workload == "churn_capped") {
    run = run_churn_capped;
    budget = churn_capped_threads();
  } else if (opt.workload == "serve_mixed") {
    run = run_serve_mixed;
    budget = serve_mixed_threads();
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }

  // Thread counts are fixed, not derived from the host, so results compare
  // across hosts; the budget is recorded with every result and flagged when
  // it exceeds nproc - 1 (one core left for the OS and the harness).
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int busy = budget.ranks * budget.threads_per_rank +
                   budget.generator_threads;
  std::printf("host nproc=%ld ranks=%d threads_per_rank=%d "
              "generator_threads=%d busy_threads=%d oversubscribed=%s\n",
              nproc, budget.ranks, budget.threads_per_rank,
              budget.generator_threads, busy,
              busy > nproc - 1 ? "yes" : "no");

  Sheet sheet;
  SpanLog spans(opt.trace, 0);
  run(opt, sheet, spans);
  // End-to-end metrics must be measured and nonzero on every workload.
  for (const Def& d : kEndToEnd) {
    const auto it = sheet.values.find(d.name);
    if (it == sheet.values.end() || !(it->second > 0)) {
      sheet.fail(std::string("no measurement of ") + d.name);
    }
  }

  for (const Def& d : kEndToEnd) print_metric(sheet, d);
  if (opt.workload == "serve_mixed") {
    for (const Def& d : kServeOnly) print_metric(sheet, d);
  }
  if (opt.trace) {
    for (const Def& d : kPerLayer) print_metric(sheet, d);
  }
  std::printf("metric fail_ratio %.17g ratio\n",
              static_cast<double>(sheet.failed) /
                  static_cast<double>(sheet.attempted));
  for (const std::string& n : sheet.notes) std::printf("note %s\n", n.c_str());

  if (!opt.spans_out.empty() && opt.trace) {
    std::ofstream os(opt.spans_out);
    spans.write_json(os);
    if (!os) std::fprintf(stderr, "perfbench: cannot write %s\n",
                          opt.spans_out.c_str());
  }

  const bool correct = sheet.failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              correct ? "true" : "false",
              static_cast<unsigned long long>(sheet.attempted),
              static_cast<unsigned long long>(sheet.failed));
  bool first = true;
  const auto emit = [&](const Def& d) {
    const auto it = sheet.values.find(d.name);
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                d.name, it == sheet.values.end() ? 0.0 : it->second, d.unit);
    first = false;
  };
  if (opt.trace) {
    for (const Def& d : kPerLayer) emit(d);
  } else {
    for (const Def& d : kEndToEnd) emit(d);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
