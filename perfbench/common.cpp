#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "obs/causal.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t SpanLog::add(const char* name, std::uint64_t parent,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = next_id_++;
  spans_.push_back(Span{name, id, parent, start_ns, end_ns});
  return id;
}

void SpanLog::append(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

void SpanLog::write_json(std::ostream& os) const {
  std::int64_t t0 = 0;
  if (!spans_.empty()) {
    t0 = std::min_element(spans_.begin(), spans_.end(),
                          [](const Span& a, const Span& b) {
                            return a.start_ns < b.start_ns;
                          })
             ->start_ns;
  }
  os << "{\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu}}",
                  s.name, static_cast<unsigned long long>(s.id >> 40),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    os << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

namespace {

double hist_q(const aacc::obs::MetricsRegistry& m, const std::string& name,
              double q) {
  const aacc::obs::Histogram* h = m.find_histogram(name);
  return h == nullptr ? 0.0 : aacc::obs::histogram_quantile(*h, q);
}

/// Longest IA span on any rank's main track. Every rank waits for the
/// slowest IA at the first exchange, so this is IA's share of the path
/// that blocks the result (the RC-epoch walk starts after it).
double critical_ia_seconds(const aacc::obs::Trace& trace) {
  std::map<std::int32_t, std::uint64_t> open;
  double longest = 0;
  for (const auto& e : trace.events) {
    if (e.pid == aacc::obs::kDriverPid || e.tid != 0) continue;
    if (std::string_view(e.ev.name) != "ia") continue;
    if (e.ev.kind == aacc::obs::EventKind::kBegin) {
      open[e.pid] = e.ev.ts_ns;
    } else if (e.ev.kind == aacc::obs::EventKind::kEnd && open.count(e.pid)) {
      longest = std::max(longest,
                         static_cast<double>(e.ev.ts_ns - open[e.pid]) / 1e9);
      open.erase(e.pid);
    }
  }
  return longest;
}

}  // namespace

bool layer_metrics(const aacc::RunResult& r,
                   std::map<std::string, double>& out, std::string& why) {
  const aacc::RunStats& s = r.stats;
  const aacc::obs::MetricsRegistry& m = r.metrics;
  const auto cpu_phase = [&s](const char* phase) {
    const auto it = s.cpu_by_phase.find(phase);
    return it == s.cpu_by_phase.end() ? 0.0 : it->second;
  };
  out["partition.dd_s"] = s.dd_seconds;
  out["partition.cut_edges"] = static_cast<double>(s.cut_edges_initial);
  out["partition.imbalance"] = s.imbalance_final;
  out["core.ia_cpu_s"] = cpu_phase("ia");
  out["core.rc_steps"] = static_cast<double>(s.rc_steps);
  out["core.relaxations"] =
      static_cast<double>(m.counter_value("rc/relaxations"));
  out["core.drain_cpu_s"] = s.rc_drain_cpu_seconds;
  out["core.drain_queue_p99"] = hist_q(m, "rc/drain_queue_depth", 0.99);
  const double poisons = static_cast<double>(m.counter_value("rc/poisons"));
  const double repairs = static_cast<double>(m.counter_value("rc/repairs"));
  out["core.poisons"] = poisons;
  out["core.repairs"] = repairs;
  out["core.repairs_per_poison"] = poisons > 0 ? repairs / poisons : 0.0;
  out["core.dv_promotions"] = static_cast<double>(s.dv_promotions);
  out["core.dv_demotions"] = static_cast<double>(s.dv_demotions);
  out["core.dv_decode_s"] = s.dv_decode_seconds;
  out["core.dv_cold_bytes"] = static_cast<double>(s.dv_cold_bytes);
  out["core.dv_resident_bytes"] = static_cast<double>(s.dv_resident_bytes);
  out["runtime.bytes_sent"] = static_cast<double>(s.total_bytes);
  out["runtime.messages_sent"] = static_cast<double>(s.total_messages);
  out["runtime.exchange_wait_s"] = s.rc_exchange_wait_seconds;
  out["runtime.blocked_on_s"] = s.rc_blocked_on_seconds;
  out["serve.publishes"] =
      static_cast<double>(m.counter_value("serve/publishes"));
  out["serve.publish_s"] = m.gauge_value("serve/publish_seconds");
  out["serve.snapshot_age_p99"] = hist_q(m, "serve/snapshot_age_steps", 0.99);

  out["obs.trace_dropped"] = static_cast<double>(r.trace.dropped);
  if (r.trace.dropped != 0) {
    why = std::to_string(r.trace.dropped) + " trace events dropped";
    return false;
  }
  out["core.cp.ia_s"] = critical_ia_seconds(r.trace);
  // Per-phase critical-path seconds summed over RC epochs. Phases the
  // engine does not name (rc_step self time, idle, anything new) land in
  // unattributed, so the named phases plus it add up to the makespan.
  static const std::map<std::string, std::string> kPhase = {
      {"drain", "core.cp.drain_s"},
      {"send_assembly", "core.cp.send_assembly_s"},
      {"exchange", "core.cp.exchange_s"},
      {"poison_sync", "core.cp.poison_sync_s"},
      {"ingest", "core.cp.ingest_s"},
      {"wire", "runtime.cp.wire_s"},
  };
  for (const auto& [phase, name] : kPhase) out[name] = 0.0;
  out["core.cp.unattributed_s"] = 0.0;
  const aacc::obs::CausalAnalysis a = aacc::obs::analyze_causal(r.trace);
  for (const aacc::obs::StepAttribution& step : a.steps) {
    if (step.critical_path_seconds < 0.999 * step.makespan_seconds) {
      why = "critical path of RC step " + std::to_string(step.step) +
            " covers " + std::to_string(step.critical_path_seconds) +
            " s of a " + std::to_string(step.makespan_seconds) +
            " s makespan";
      return false;
    }
    for (const aacc::obs::PhaseCost& c : step.blocked_on) {
      const auto it = kPhase.find(c.phase);
      out[it == kPhase.end() ? "core.cp.unattributed_s" : it->second] +=
          c.seconds;
    }
  }
  return true;
}

void print_inputs(const Options& opt, std::uint64_t k, std::uint64_t fp) {
  std::printf("inputs %s seed=%llu case=%llu fingerprint=%016llx\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(k),
              static_cast<unsigned long long>(fp));
}

std::vector<bool> passes(const Options& opt, std::uint64_t k) {
  if (!opt.trace) return {false};
  return k % 2 == 0 ? std::vector<bool>{false, true}
                    : std::vector<bool>{true, false};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}
}  // namespace

std::uint64_t fingerprint(const aacc::Graph& g, std::uint64_t h) {
  if (h == 0) h = 0xcbf29ce484222325ULL;
  h = fnv(h, g.num_vertices());
  for (const auto& [u, v, w] : g.edges()) {
    h = fnv(fnv(fnv(h, u), v), static_cast<std::uint64_t>(w));
  }
  return h;
}

std::uint64_t fingerprint(const std::vector<aacc::Event>& events,
                          std::uint64_t h) {
  for (const aacc::Event& e : events) {
    h = fnv(h, e.index());
    if (const auto* a = std::get_if<aacc::EdgeAddEvent>(&e)) {
      h = fnv(fnv(h, a->u), a->v);
    } else if (const auto* d = std::get_if<aacc::EdgeDeleteEvent>(&e)) {
      h = fnv(fnv(h, d->u), d->v);
    } else if (const auto* va = std::get_if<aacc::VertexAddEvent>(&e)) {
      h = fnv(h, va->id);
      for (const auto& [u, w] : va->edges) h = fnv(h, u);
    }
  }
  return h;
}

}  // namespace perfbench
