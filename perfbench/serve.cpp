// serve_mixed: reads beside writes on a live EngineSession.
//
// Per case (fresh graph and ingest stream from (seed, case index)):
//   open      EngineSession constructed -> the first snapshot of every rank
//             is published (setup_s: the anytime "first answer", for every
//             vertex).
//   live      one open-loop generator thread sends 98 % point, 1 % top_k(10)
//             and 1 % rank_of on a fixed schedule: first the base rate, then
//             a ladder of higher rates. It spins to each due time (sleeping
//             would add wake-up slack to every sample) and times each query
//             from its due time, so a stall is charged to every query queued
//             behind it. Meanwhile the main thread ingests edge-add batches
//             at fixed intervals.
//   close     right after the last ingest: close() -> exact RunResult
//             (drain_s), checked against reference APSP, and every
//             post-close point answer checked against that result.
// Then a second session on the same inputs ingests every batch as fast as
// the caller can and closes: open -> exact RunResult is converge_s. The
// live drain is too short (about 0.12 s, much of it cross-thread hand-offs)
// to stay steady on a shared host; this catch-up run is about 1 s of mostly
// RC work.
// Traced runs run each case twice (untraced and traced, alternating order).
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

using namespace aacc;

constexpr VertexId kServeN = 2000;
constexpr Rank kServeRanks = 2;
constexpr int kBatches = 6;
constexpr int kEdgesPerBatch = 16;
/// Offered rates (queries/s) and how long each is held. The first is the
/// base rate that query_p50_us / query_p99_us report; the rest form the
/// ladder sustained_qps climbs.
struct Rung {
  double rate;
  double seconds;
};
constexpr Rung kRungs[] = {{20e3, 0.6},   {50e3, 0.12},  {100e3, 0.12},
                           {200e3, 0.12}, {400e3, 0.12}, {800e3, 0.12},
                           {1.6e6, 0.12}, {3.2e6, 0.12}};
/// A rung is sustained when its p99 latency (from due time) and the
/// generator's lag at its last query both stay under this limit.
constexpr double kLatencyLimitUs = 1000.0;
constexpr std::int64_t kOpenTimeoutNs = 60'000'000'000;

double live_seconds() {
  double s = 0;
  for (const Rung& r : kRungs) s += r.seconds;
  return s;
}

struct ServeCase {
  Graph graph;
  std::vector<std::vector<Event>> batches;
  std::vector<double> reference;
};

ServeCase make_serve(std::uint64_t cs) {
  Rng rng(cs);
  ServeCase c;
  c.graph = barabasi_albert(kServeN, 3, rng);
  Graph g = c.graph;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Event> batch;
    while (batch.size() < kEdgesPerBatch) {
      const auto u = static_cast<VertexId>(rng.next_below(kServeN));
      const auto v = static_cast<VertexId>(rng.next_below(kServeN));
      if (u == v || g.has_edge(u, v)) continue;
      const Event e = EdgeAddEvent{u, v, 1};
      apply_event(g, e);
      batch.push_back(e);
    }
    c.batches.push_back(std::move(batch));
  }
  c.reference = closeness_exact(g);
  return c;
}

struct RungLog {
  std::vector<double> latency_us;  ///< completion - due
  std::vector<double> lag_us;      ///< send - due
};

struct GeneratorLog {
  std::vector<RungLog> rungs;
  std::vector<std::pair<std::int64_t, std::size_t>> responses;  ///< (done, meta.step)
  std::uint64_t queries = 0;
  std::uint64_t misses = 0;  ///< point/rank_of not found, short top_k
  std::uint64_t errors = 0;
  std::string first_error;
  SpanLog spans{false, 1};
};

void generate(const serve::QueryView& view, std::uint64_t seed,
              std::int64_t start_ns, std::uint64_t parent_span,
              GeneratorLog& log) {
  Rng rng(seed);
  std::size_t total = 0;
  for (const Rung& rung : kRungs) {
    total += static_cast<std::size_t>(rung.rate * rung.seconds);
  }
  log.responses.reserve(total);
  std::int64_t planned = start_ns;
  for (const Rung& rung : kRungs) {
    const auto count = static_cast<std::size_t>(rung.rate * rung.seconds);
    const double gap_ns = 1e9 / rung.rate;
    // A rung that starts behind (the previous one overloaded) starts now,
    // so each rung's numbers are its own.
    const std::int64_t rung_start = std::max(planned, now_ns());
    RungLog& rl = log.rungs.emplace_back();
    rl.latency_us.reserve(count);
    rl.lag_us.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto due =
          rung_start + static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
      while (now_ns() < due) {
      }
      const std::int64_t sent = now_ns();
      const std::uint64_t pick = rng.next_below(100);
      const auto v = static_cast<VertexId>(rng.next_below(kServeN));
      std::size_t step = 0;
      const char* kind = "point";
      try {
        if (pick < 98) {
          const serve::PointResponse p = view.point(v);
          log.misses += p.found ? 0 : 1;
          step = p.meta.step;
        } else if (pick == 98) {
          kind = "top_k";
          const serve::TopkResponse t = view.top_k(10);
          log.misses += t.entries.size() == 10 ? 0 : 1;
          step = t.meta.step;
        } else {
          kind = "rank_of";
          const serve::VertexRankResponse r = view.rank_of(v);
          log.misses += r.found ? 0 : 1;
          step = r.meta.step;
        }
      } catch (const std::exception& e) {
        if (log.errors++ == 0) log.first_error = e.what();
      }
      const std::int64_t done = now_ns();
      ++log.queries;
      rl.latency_us.push_back(static_cast<double>(done - due) / 1e3);
      rl.lag_us.push_back(static_cast<double>(sent - due) / 1e3);
      log.responses.emplace_back(done, step);
      // Every 8th base-rate query: enough to see stalls, small enough to
      // keep in memory and write out.
      if (log.rungs.size() == 1 && i % 8 == 0) {
        log.spans.add(kind, parent_span, sent, done);
      }
    }
    planned = rung_start + static_cast<std::int64_t>(
                               static_cast<double>(count) * gap_ns);
  }
}

/// Samples recorded between two cuts of one histogram. The exact min/max
/// of the interval are unknown; the later cut's bounds still clamp every
/// quantile correctly.
obs::Histogram minus(const obs::Histogram& after, const obs::Histogram& before) {
  obs::Histogram d = after;
  d.count -= before.count;
  d.sum -= before.sum;
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    d.buckets[b] -= before.buckets[b];
  }
  return d;
}

/// Numbers one session contributes.
struct SessionOut {
  double setup_s = 0;
  double close_s = 0;
  double sustained_qps = 0;
  std::vector<double> base_latency_us;
  std::vector<double> base_lag_us;
  std::vector<double> visible_s;
  std::vector<double> ingest_call_us;
  serve::SloSnapshot slo;
  std::map<std::string, double> layers;
};

EngineConfig session_config(std::uint64_t cs, bool traced) {
  EngineConfig cfg;
  cfg.num_ranks = kServeRanks;
  cfg.ia_threads = 1;
  cfg.rc_threads = 1;
  cfg.seed = cs;
  cfg.publish_every = 1;
  cfg.trace.enabled = traced;
  cfg.trace.flow_stamping = traced;
  return cfg;
}

std::string case_tag(std::uint64_t k, bool traced) {
  return "case " + std::to_string(k) + (traced ? " traced" : "") + ": ";
}

/// The catch-up session: open, ingest every batch back to back, close.
/// Returns open -> exact result in seconds, or a negative value on failure.
double catch_up(const ServeCase& c, std::uint64_t cs, bool traced,
                std::uint64_t k, Sheet& sheet, SpanLog& spans) {
  const std::string tag = case_tag(k, traced) + "catch-up ";
  const std::uint64_t span = traced ? spans.reserve() : 0;
  sheet.attempted += c.batches.size() + 1;
  const std::int64_t t0 = now_ns();
  try {
    serve::EngineSession session(c.graph, session_config(cs, traced));
    for (const auto& b : c.batches) session.ingest(b);
    const RunResult r = session.close();
    const std::int64_t t1 = now_ns();
    if (traced) spans.add("catch_up", 0, t0, t1, span);
    if (r.closeness != c.reference) {
      sheet.fail(tag + "closeness differs from reference APSP");
    }
    return static_cast<double>(t1 - t0) / 1e9;
  } catch (const std::exception& e) {
    sheet.fail(tag + e.what());
    return -1;
  }
}

bool run_session(const ServeCase& c, std::uint64_t cs, bool traced,
                 std::uint64_t k, Sheet& sheet, SpanLog& spans,
                 SessionOut& out) {
  const std::string tag = case_tag(k, traced);
  const std::uint64_t session_span = traced ? spans.reserve() : 0;

  const std::int64_t t_open = now_ns();
  serve::EngineSession session(c.graph, session_config(cs, traced));
  const serve::QueryView view = session.view();
  // Ready once every rank has published, i.e. every vertex has an answer.
  while (view.top_k(kServeN).entries.size() < kServeN) {
    if (now_ns() - t_open > kOpenTimeoutNs) {
      sheet.fail(tag + "no snapshot from every rank within 60 s of open");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const std::int64_t t_ready = now_ns();
  out.setup_s = static_cast<double>(t_ready - t_open) / 1e9;
  if (traced) spans.add("session_open", session_span, t_open, t_ready);

  // The generator starts a little after open so its first due times are not
  // already in the past. SLO histograms are cut at both ends of the live
  // phase, so the readiness polls above and the post-close checks below
  // stay out of them.
  const serve::SloSnapshot slo_before = session.slo();
  const std::int64_t t_live = now_ns() + 1'000'000;
  GeneratorLog gen;
  gen.spans = SpanLog(traced, 1);
  std::thread generator([&] {
    generate(view, cs ^ 0x5eed, t_live, session_span, gen);
  });

  const double interval_ns = live_seconds() * 1e9 / kBatches;
  std::vector<std::pair<std::int64_t, std::size_t>> ingests;  // (returned, engine_step)
  for (int b = 0; b < kBatches; ++b) {
    const auto due = t_live + static_cast<std::int64_t>((b + 1) * interval_ns);
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
    ++sheet.attempted;
    const std::int64_t t0 = now_ns();
    try {
      session.ingest(c.batches[static_cast<std::size_t>(b)]);
    } catch (const std::exception& e) {
      sheet.fail(tag + "ingest refused: " + e.what());
      continue;
    }
    const std::int64_t t1 = now_ns();
    if (traced) spans.add("ingest", session_span, t0, t1);
    out.ingest_call_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    ingests.emplace_back(t1, view.point(0).meta.engine_step);
  }

  ++sheet.attempted;
  const std::int64_t t_close = now_ns();
  RunResult r;
  bool closed = true;
  try {
    r = session.close();
  } catch (const std::exception& e) {
    sheet.fail(tag + "close failed: " + e.what());
    closed = false;
  }
  const std::int64_t t_closed = now_ns();
  generator.join();
  out.close_s = static_cast<double>(t_closed - t_close) / 1e9;
  const serve::SloSnapshot slo_after = session.slo();
  out.slo = {minus(slo_after.point, slo_before.point),
             minus(slo_after.top_k, slo_before.top_k),
             minus(slo_after.rank_of, slo_before.rank_of)};
  if (traced) {
    spans.add("close", session_span, t_close, t_closed);
    spans.append(gen.spans);
    spans.add("session", 0, t_open, now_ns(), session_span);
  }

  sheet.attempted += gen.queries;
  sheet.failed += gen.misses + gen.errors;
  if (gen.misses != 0) {
    sheet.notes.push_back(tag + std::to_string(gen.misses) +
                          " live queries missed a live vertex");
  }
  if (gen.errors != 0) {
    sheet.notes.push_back(tag + std::to_string(gen.errors) +
                          " queries threw: " + gen.first_error);
  }

  out.base_latency_us = gen.rungs.front().latency_us;
  out.base_lag_us = gen.rungs.front().lag_us;
  for (std::size_t i = 0; i < gen.rungs.size(); ++i) {
    const RungLog& rl = gen.rungs[i];
    if (quantile(rl.latency_us, 0.99) > kLatencyLimitUs ||
        rl.lag_us.back() > kLatencyLimitUs) {
      break;
    }
    out.sustained_qps = kRungs[i].rate;
  }
  // Visibility: from ingest() returning to the first response backed by a
  // snapshot newer than the engine step seen at ingest. Batches with no
  // such response before the generator stopped (the last one, closed
  // right after its ingest) are not counted.
  for (const auto& [t_ing, step] : ingests) {
    auto it = std::lower_bound(
        gen.responses.begin(), gen.responses.end(),
        std::make_pair(t_ing, std::size_t{0}));
    for (; it != gen.responses.end(); ++it) {
      if (it->second > step) {
        out.visible_s.push_back(static_cast<double>(it->first - t_ing) / 1e9);
        break;
      }
    }
  }
  if (!closed) return false;

  std::size_t mismatches = r.closeness == c.reference ? 0 : 1;
  for (VertexId v = 0; v < c.reference.size(); ++v) {
    const serve::PointResponse p = view.point(v);
    if (!p.found || p.closeness != r.closeness[v]) ++mismatches;
  }
  if (mismatches != 0) {
    sheet.fail(tag + std::to_string(mismatches) +
               " mismatches against reference APSP / post-close answers");
  }
  if (traced) {
    std::string why;
    if (!layer_metrics(r, out.layers, why)) sheet.fail(tag + why);
  }
  return true;
}

}  // namespace

ThreadBudget serve_mixed_threads() { return {kServeRanks, 1, 1}; }

void run_serve_mixed(const Options& opt, Sheet& sheet, SpanLog& spans) {
  std::vector<double> setup, drain, untraced, traced;
  std::vector<double> sustained, base_lat, visible;
  std::map<std::string, std::vector<double>> layers;
  obs::Histogram point, top_k, rank_of;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::uint64_t k = 0; k == 0 || now_ns() < deadline; ++k) {
    const std::uint64_t cs = case_seed(opt.seed, k);
    const ServeCase c = make_serve(cs);
    std::uint64_t fp = fingerprint(c.graph);
    for (const auto& b : c.batches) fp = fingerprint(b, fp);
    print_inputs(opt, k, fp);
    for (const bool tr : passes(opt, k)) {
      SessionOut s;
      bool ok = false;
      ++sheet.attempted;  // the open
      try {
        ok = run_session(c, cs, tr, k, sheet, spans, s);
      } catch (const std::exception& e) {
        sheet.fail(case_tag(k, tr) + e.what());
      }
      const double converge = catch_up(c, cs, tr, k, sheet, spans);
      if (converge > 0) (tr ? traced : untraced).push_back(converge);
      if (s.base_latency_us.empty()) continue;  // never went live
      if (tr) {
        point.merge(s.slo.point);
        top_k.merge(s.slo.top_k);
        rank_of.merge(s.slo.rank_of);
        for (const auto& [name, v] : s.layers) layers[name].push_back(v);
        layers["serve.ingest_call_us"].push_back(median(s.ingest_call_us));
        layers["serve.generator_lag_ms"].push_back(
            quantile(s.base_lag_us, 0.99) / 1e3);
        continue;
      }
      setup.push_back(s.setup_s);
      if (ok) drain.push_back(s.close_s);
      sustained.push_back(s.sustained_qps);
      base_lat.insert(base_lat.end(), s.base_latency_us.begin(),
                      s.base_latency_us.end());
      visible.insert(visible.end(), s.visible_s.begin(), s.visible_s.end());
    }
  }

  sheet.set("setup_s", median(setup));
  sheet.set("converge_s", median(untraced));
  sheet.set("drain_s", median(drain));
  sheet.set("peak_rss_mb", peak_rss_mb());
  sheet.set("query_p50_us", quantile(base_lat, 0.50));
  sheet.set("query_p99_us", quantile(base_lat, 0.99));
  sheet.set("sustained_qps", median(sustained));
  sheet.set("ingest_visible_s", median(visible));
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%zu untraced sessions; %zu base-rate queries at %.0f/s "
                "(open loop); %zu ingests with a visible answer; p99 limit "
                "%.0f us",
                setup.size(), base_lat.size(), kRungs[0].rate, visible.size(),
                kLatencyLimitUs);
  sheet.notes.emplace_back(buf);
  if (!opt.trace) return;

  for (const auto& [name, v] : layers) sheet.set(name, median(v));
  sheet.set("serve.point_ns_p50", obs::histogram_quantile(point, 0.50));
  sheet.set("serve.point_ns_p99", obs::histogram_quantile(point, 0.99));
  sheet.set("serve.top_k_ns_p99", obs::histogram_quantile(top_k, 0.99));
  sheet.set("serve.rank_of_ns_p99", obs::histogram_quantile(rank_of, 0.99));
  const double base_s = median(untraced);
  sheet.set("obs.trace_overhead_ratio",
            base_s > 0 ? median(traced) / base_s : 0.0);
  std::snprintf(buf, sizeof buf,
                "obs.trace_overhead_ratio base: untraced converge_s (catch-up "
                "open -> exact) %.4f s over %zu sessions (traced: %zu)",
                base_s, untraced.size(), traced.size());
  sheet.notes.emplace_back(buf);
}

}  // namespace perfbench
