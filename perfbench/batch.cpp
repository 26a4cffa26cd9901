// Batch workloads through AnytimeEngine: static_ba (the paper's DD -> IA ->
// RC pipeline, no mutations) and churn_capped (mixed deletion/addition
// batches against a tiered DV store under a tight per-rank budget).
//
// A run is a sequence of cases, each with fresh inputs drawn from
// (seed, case index). Per case, outside every timed window: generate the
// graph and schedule, and compute reference closeness of the final graph
// by sequential APSP. Timed: engine construction (repeated, median) and
// run() to the exact RunResult, which must equal the reference exactly.
// Traced runs run each case twice, untraced and traced in alternating
// order, so the trace overhead compares runs of the same inputs.
#include <cstdio>
#include <functional>
#include <optional>

#include "bench.hpp"

namespace perfbench {
namespace {

using namespace aacc;

/// Constructions timed per case; setup_s is their median. The constructor
/// is cheap next to run(), so one sample would be mostly timer noise.
constexpr int kSetupReps = 15;

struct BatchCase {
  Graph graph;
  EventSchedule schedule;
  std::vector<double> reference;  ///< closeness_exact of the final graph
};

void run_batch(const Options& opt, const EngineConfig& base,
               const std::function<BatchCase(std::uint64_t)>& make,
               Sheet& sheet, SpanLog& spans) {
  std::vector<double> setup, untraced, traced;
  std::map<std::string, std::vector<double>> layers;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::uint64_t k = 0; k == 0 || now_ns() < deadline; ++k) {
    const std::uint64_t cs = case_seed(opt.seed, k);
    const BatchCase c = make(cs);
    std::uint64_t fp = fingerprint(c.graph);
    for (const EventBatch& b : c.schedule) fp = fingerprint(b.events, fp);
    print_inputs(opt, k, fp);

    const std::uint64_t case_span = spans.reserve();
    const std::int64_t case_start = now_ns();
    for (const bool tr : passes(opt, k)) {
      EngineConfig cfg = base;
      cfg.seed = cs;
      cfg.trace.enabled = tr;
      cfg.trace.flow_stamping = tr;
      ++sheet.attempted;
      try {
        std::optional<AnytimeEngine> engine;
        for (int i = 0; i < kSetupReps; ++i) {
          engine.reset();
          const std::int64_t t0 = now_ns();
          engine.emplace(c.graph, cfg);
          const std::int64_t t1 = now_ns();
          if (!tr) setup.push_back(static_cast<double>(t1 - t0) / 1e9);
          spans.add("engine_ctor", case_span, t0, t1);
        }
        const std::int64_t t0 = now_ns();
        const RunResult r = engine->run(c.schedule);
        const std::int64_t t1 = now_ns();
        spans.add("run", case_span, t0, t1);
        (tr ? traced : untraced).push_back(static_cast<double>(t1 - t0) / 1e9);

        std::size_t mismatches = 0;
        for (std::size_t v = 0; v < c.reference.size(); ++v) {
          if (v >= r.closeness.size() || r.closeness[v] != c.reference[v]) {
            ++mismatches;
          }
        }
        if (mismatches != 0 || r.closeness.size() != c.reference.size()) {
          sheet.fail("case " + std::to_string(k) + ": " +
                     std::to_string(mismatches) +
                     " closeness values differ from reference APSP");
        }
        if (tr) {
          std::map<std::string, double> lm;
          std::string why;
          if (!layer_metrics(r, lm, why)) {
            sheet.fail("case " + std::to_string(k) + " traced: " + why);
          }
          for (const auto& [name, v] : lm) layers[name].push_back(v);
        }
      } catch (const std::exception& e) {
        sheet.fail("case " + std::to_string(k) + ": " + e.what());
      }
    }
    spans.add("case", 0, case_start, now_ns(), case_span);
  }

  sheet.set("setup_s", median(setup));
  sheet.set("converge_s", median(untraced));
  sheet.set("peak_rss_mb", peak_rss_mb());
  sheet.notes.push_back(std::to_string(untraced.size()) +
                        " untraced runs, " + std::to_string(setup.size()) +
                        " timed constructions");
  if (opt.trace) {
    for (const auto& [name, v] : layers) sheet.set(name, median(v));
    const double base_s = median(untraced);
    sheet.set("obs.trace_overhead_ratio",
              base_s > 0 ? median(traced) / base_s : 0.0);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "obs.trace_overhead_ratio base: untraced converge_s %.4f s "
                  "over %zu runs (traced: %zu runs)",
                  base_s, untraced.size(), traced.size());
    sheet.notes.emplace_back(buf);
  }
}

EngineConfig pinned_config(Rank ranks) {
  EngineConfig cfg;
  cfg.num_ranks = ranks;
  cfg.ia_threads = 1;
  cfg.rc_threads = 1;
  return cfg;
}

// Sizes. Each run() takes one to two seconds on a 4-core host, so a run
// window holds ten to thirty cases and the reported medians are steady.
// churn_capped's budget is ~1/20 of the resident DV footprint (about
// 21 MiB per rank at n=1500), so most rows a deletion touches are cold. One
// batch: each further batch pinned at the next step multiplies the capped
// path's time and its case-to-case spread beyond any usable bound (see
// NOTES.md).
constexpr VertexId kStaticN = 3000;
constexpr Rank kStaticRanks = 3;
constexpr VertexId kChurnN = 1500;
constexpr Rank kChurnRanks = 3;
constexpr std::uint64_t kChurnBudget = 1u << 20;
constexpr int kChurnBatches = 1;
constexpr int kChurnDeletes = 32;
constexpr int kChurnAdds = 16;
constexpr int kChurnVertexAdds = 8;

BatchCase make_static(std::uint64_t cs) {
  Rng rng(cs);
  BatchCase c;
  c.graph = barabasi_albert(kStaticN, 3, rng);
  c.reference = closeness_exact(c.graph);
  return c;
}

/// Mixed batches pinned at RC steps 1..kChurnBatches. Every event is valid
/// against the graph as the batches before it left it: deletions pick
/// existing edges, additions absent pairs, vertex adds the next dense id.
BatchCase make_churn(std::uint64_t cs) {
  Rng rng(cs);
  BatchCase c;
  c.graph = barabasi_albert(kChurnN, 3, rng);
  Graph g = c.graph;
  for (int b = 0; b < kChurnBatches; ++b) {
    EventBatch batch;
    batch.at_step = static_cast<std::size_t>(b) + 1;
    const auto push = [&](Event e) {
      apply_event(g, e);
      batch.events.push_back(std::move(e));
    };
    const auto edges = g.edges();
    for (int i = 0; i < kChurnDeletes;) {
      const auto& [u, v, w] = edges[rng.next_below(edges.size())];
      if (!g.has_edge(u, v)) continue;  // already deleted in this batch
      push(EdgeDeleteEvent{u, v});
      ++i;
    }
    for (int i = 0; i < kChurnAdds;) {
      const auto u = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const auto v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      if (u == v || g.has_edge(u, v)) continue;
      push(EdgeAddEvent{u, v, 1});
      ++i;
    }
    for (int i = 0; i < kChurnVertexAdds; ++i) {
      VertexAddEvent add;
      add.id = g.num_vertices();
      while (add.edges.size() < 3) {
        const auto u = static_cast<VertexId>(rng.next_below(add.id));
        bool dup = false;
        for (const auto& e : add.edges) dup = dup || e.first == u;
        if (!dup) add.edges.emplace_back(u, 1);
      }
      push(std::move(add));
    }
    c.schedule.push_back(std::move(batch));
  }
  c.reference = closeness_exact(g);
  return c;
}

}  // namespace

ThreadBudget static_ba_threads() { return {kStaticRanks, 1, 0}; }
ThreadBudget churn_capped_threads() { return {kChurnRanks, 1, 0}; }

void run_static_ba(const Options& opt, Sheet& sheet, SpanLog& spans) {
  run_batch(opt, pinned_config(kStaticRanks), make_static, sheet, spans);
}

void run_churn_capped(const Options& opt, Sheet& sheet, SpanLog& spans) {
  EngineConfig cfg = pinned_config(kChurnRanks);
  cfg.dv_budget_bytes = kChurnBudget;
  run_batch(opt, cfg, make_churn, sheet, spans);
}

}  // namespace perfbench
