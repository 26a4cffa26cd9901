// Observability subsystem: metrics registry semantics, the span tracer's
// Chrome trace-event export (golden file), and the engine-level guarantees
// — structurally valid deterministic traces, and bit-identical results and
// deterministic stats whether tracing is on or off.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aacc {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CountersAndGauges) {
  obs::MetricsRegistry reg;
  reg.counter("a").add(2);
  reg.counter("a").add(3);
  reg.gauge("g").add(0.5);
  reg.gauge("g").add(0.25);
  EXPECT_EQ(reg.counter_value("a"), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 0.75);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("missing"), 0.0);
  reg.gauge("g").set(9.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 9.0);
}

TEST(Metrics, HistogramBuckets) {
  obs::Histogram h;
  h.record(0);  // bucket 0
  h.record(1);  // bucket 0
  h.record(2);  // bucket 2: [2, 4)
  h.record(3);  // bucket 2
  h.record(1024);  // bucket 11: [1024, 2048)
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 1030u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[11], 1u);
}

TEST(Metrics, MergeAddsAndCombines) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("c").add(1);
  b.counter("c").add(2);
  b.counter("only_b").add(7);
  a.gauge("g").add(1.5);
  b.gauge("g").add(2.5);
  a.histogram("h").record(4);
  b.histogram("h").record(100);
  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 3u);
  EXPECT_EQ(a.counter_value("only_b"), 7u);
  EXPECT_DOUBLE_EQ(a.gauge_value("g"), 4.0);
  const obs::Histogram* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->min, 4u);
  EXPECT_EQ(h->max, 100u);
}

TEST(Metrics, ToJsonIsDeterministic) {
  obs::MetricsRegistry reg;
  reg.counter("z").add(1);
  reg.counter("a").add(2);
  reg.gauge("mid").set(0.5);
  reg.histogram("h").record(3);
  std::ostringstream s1;
  std::ostringstream s2;
  reg.to_json(s1);
  reg.to_json(s2);
  EXPECT_EQ(s1.str(), s2.str());
  // Keys serialize in name order regardless of insertion order.
  const std::string j = s1.str();
  EXPECT_LT(j.find("\"a\""), j.find("\"z\""));
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
}

TEST(Metrics, GoldenJson) {
  // Pinned bytes (escaped names, %.17g gauges, percentiles, buckets):
  // consumers diff this output, so a change must be deliberate.
  obs::MetricsRegistry reg;
  reg.counter("a").add(7);
  reg.counter("esc\"\\\x01").add(18446744073709551615ull);
  reg.gauge("g").set(0.1);
  reg.gauge("tiny").set(-2.5e-300);
  reg.histogram("lat").record(0);
  reg.histogram("lat").record(3);
  reg.histogram("lat").record(1024);
  reg.histogram("lat").record(std::uint64_t{1} << 40);
  reg.histogram("empty");
  std::ostringstream os;
  reg.to_json(os);
  EXPECT_EQ(os.str(),
            "{\"counters\":{\"a\":7,\"esc\\\"\\\\\\u0001\":1844674407370955161"
            "5},\"gauges\":{\"g\":0.10000000000000001,\"tiny\":-2.5e-300},\"hi"
            "stograms\":{\"empty\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,"
            "\"p50\":0,\"p95\":0,\"p99\":0,\"buckets\":[0]},\"lat\":{\"count\""
            ":4,\"sum\":1099511628803,\"min\":0,\"max\":1099511627776,\"p50\":"
            "4,\"p95\":1932735283.1999998,\"p99\":2104533975.04,\"buckets\":[1"
            ",0,1,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]}}"
            "}");
}

// ----------------------------------------------------------------- tracer

obs::TraceConfig logical_cfg() {
  obs::TraceConfig cfg;
  cfg.enabled = true;
  cfg.logical_clock = true;
  cfg.track_capacity = 1024;
  return cfg;
}

TEST(Tracer, GoldenChromeTrace) {
  obs::Tracer tracer(2, 1, logical_cfg());
  tracer.track(0).begin("ia", "rows", 3);
  tracer.track(0).end("ia");
  tracer.subtrack(0, 0).begin("drain_shard");
  tracer.subtrack(0, 0).end("drain_shard");
  tracer.track(1).instant("repairs", "count", 7);
  tracer.driver().begin("dd");
  tracer.driver().end("dd");

  std::ostringstream os;
  obs::write_chrome_trace(os, tracer.merge());
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,"
      "\"args\":{\"name\":\"rank 0\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,"
      "\"args\":{\"name\":\"main\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"ts\":0,"
      "\"args\":{\"name\":\"shard 0\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,"
      "\"args\":{\"name\":\"rank 1\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,"
      "\"args\":{\"name\":\"main\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2147483647,\"tid\":0,"
      "\"ts\":0,\"args\":{\"name\":\"driver\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2147483647,\"tid\":0,"
      "\"ts\":0,\"args\":{\"name\":\"driver\"}},\n"
      "{\"name\":\"ia\",\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1.000,"
      "\"args\":{\"rows\":3}},\n"
      "{\"name\":\"ia\",\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":2.000},\n"
      "{\"name\":\"drain_shard\",\"ph\":\"B\",\"pid\":0,\"tid\":1,"
      "\"ts\":1.000},\n"
      "{\"name\":\"drain_shard\",\"ph\":\"E\",\"pid\":0,\"tid\":1,"
      "\"ts\":2.000},\n"
      "{\"name\":\"repairs\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":1.000,"
      "\"s\":\"t\",\"args\":{\"count\":7}},\n"
      "{\"name\":\"dd\",\"ph\":\"B\",\"pid\":2147483647,\"tid\":0,"
      "\"ts\":1.000},\n"
      "{\"name\":\"dd\",\"ph\":\"E\",\"pid\":2147483647,\"tid\":0,"
      "\"ts\":2.000}\n"
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":0}}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(Tracer, GoldenFlowTrace) {
  // Flow instants (and their Perfetto lines), a name that needs escaping,
  // a shard subtrack, a span left open and the driver track, as pinned
  // bytes.
  obs::TraceConfig cfg;
  cfg.enabled = true;
  cfg.logical_clock = true;
  cfg.track_capacity = 64;
  obs::Tracer tracer(2, 1, cfg);
  const std::uint64_t id = obs::pack_flow_id(0, 1, 1, 1);
  tracer.track(0).begin("rc_step", "step", 1);
  tracer.track(0).instant("flow:send", "flow", id);
  tracer.subtrack(0, 0).begin("drain_shard");
  tracer.subtrack(0, 0).end("drain_shard");
  tracer.track(0).end("rc_step");
  tracer.track(1).instant("flow:recv", "flow", id);
  tracer.track(1).begin("esc \"q\" \\ \x02");
  tracer.track(1).instant("flow:other", "flow", 9);
  tracer.driver().instant("recovery:rollback", "step",
                          18446744073709551615ull);
  std::ostringstream os;
  obs::write_chrome_trace(os, tracer.merge());
  EXPECT_EQ(os.str(),
            "{\"traceEvents\":[\n"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\""
            ":0,\"args\":{\"name\":\"rank 0\"}},\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\""
            ":0,\"args\":{\"name\":\"main\"}},\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"ts\""
            ":0,\"args\":{\"name\":\"shard 0\"}},\n"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\""
            ":0,\"args\":{\"name\":\"rank 1\"}},\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\""
            ":0,\"args\":{\"name\":\"main\"}},\n"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2147483647,\"tid\""
            ":0,\"ts\":0,\"args\":{\"name\":\"driver\"}},\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2147483647,\"tid\""
            ":0,\"ts\":0,\"args\":{\"name\":\"driver\"}},\n"
            "{\"name\":\"rc_step\",\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1.0"
            "00,\"args\":{\"step\":1}},\n"
            "{\"name\":\"flow:send\",\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":2"
            ".000,\"s\":\"t\",\"args\":{\"flow\":17592202821633}},\n"
            "{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":175922028"
            "21633,\"pid\":0,\"tid\":0,\"ts\":2.000},\n"
            "{\"name\":\"rc_step\",\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":3.0"
            "00},\n"
            "{\"name\":\"drain_shard\",\"ph\":\"B\",\"pid\":0,\"tid\":1,\"ts\""
            ":1.000},\n"
            "{\"name\":\"drain_shard\",\"ph\":\"E\",\"pid\":0,\"tid\":1,\"ts\""
            ":2.000},\n"
            "{\"name\":\"flow:recv\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":1"
            ".000,\"s\":\"t\",\"args\":{\"flow\":17592202821633}},\n"
            "{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"i"
            "d\":17592202821633,\"pid\":1,\"tid\":0,\"ts\":1.000},\n"
            "{\"name\":\"esc \\\"q\\\" \\\\ \\u0002\",\"ph\":\"B\",\"pid\":1,\""
            "tid\":0,\"ts\":2.000},\n"
            "{\"name\":\"flow:other\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":"
            "3.000,\"s\":\"t\",\"args\":{\"flow\":9}},\n"
            "{\"name\":\"esc \\\"q\\\" \\\\ \\u0002\",\"ph\":\"E\",\"pid\":1,\""
            "tid\":0,\"ts\":3.000},\n"
            "{\"name\":\"recovery:rollback\",\"ph\":\"i\",\"pid\":2147483647,\""
            "tid\":0,\"ts\":1.000,\"s\":\"t\",\"args\":{\"step\":1844674407370"
            "9551615}}\n"
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":0}"
            "}\n");
}

TEST(Tracer, ClosesSpansLeftOpen) {
  obs::Tracer tracer(1, 0, logical_cfg());
  tracer.track(0).begin("rc_step");
  tracer.track(0).begin("drain");
  tracer.track(0).instant("mark");
  // No end events: the rank "crashed". The exporter must balance both.
  std::ostringstream os;
  obs::write_chrome_trace(os, tracer.merge());
  const std::string j = os.str();
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (std::size_t p = 0; (p = j.find("\"ph\":\"B\"", p)) != std::string::npos;
       ++p) {
    ++begins;
  }
  for (std::size_t p = 0; (p = j.find("\"ph\":\"E\"", p)) != std::string::npos;
       ++p) {
    ++ends;
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  // Synthesized ends carry the track's final timestamp (the instant's).
  EXPECT_NE(j.find("{\"name\":\"drain\",\"ph\":\"E\",\"pid\":0,\"tid\":0,"
                   "\"ts\":3.000}"),
            std::string::npos);
}

TEST(Tracer, DropsNewestOnOverflowAndCounts) {
  obs::TraceConfig cfg = logical_cfg();
  cfg.track_capacity = 4;
  obs::Tracer tracer(1, 0, cfg);
  for (int i = 0; i < 10; ++i) tracer.track(0).instant("e");
  EXPECT_EQ(tracer.track(0).size(), 4u);
  EXPECT_EQ(tracer.track(0).dropped(), 6u);
  const obs::Trace t = tracer.merge();
  EXPECT_EQ(t.events.size(), 4u);
  EXPECT_EQ(t.dropped, 6u);
}

TEST(ScopedSpan, NullTrackIsNoOp) {
  const obs::ScopedSpan span(nullptr, "nothing");
  // Destruction must also be a no-op; reaching here is the test.
  SUCCEED();
}

// ----------------------------------------------------------- engine-level

EngineConfig traced_cfg(Rank ranks) {
  EngineConfig cfg;
  cfg.num_ranks = ranks;
  cfg.rc_threads = 2;
  cfg.trace.enabled = true;
  cfg.trace.logical_clock = true;
  return cfg;
}

EventSchedule small_schedule(const Graph& g) {
  EventSchedule schedule;
  VertexAddEvent ev;
  ev.id = g.num_vertices();
  ev.edges = {{0, 1}, {1, 1}};
  schedule.push_back({2, {ev}});
  return schedule;
}

TEST(EngineTrace, StructurallyValidAndComplete) {
  Rng rng(5);
  const Graph g = barabasi_albert(300, 2, rng);
  EngineConfig cfg = traced_cfg(4);
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(small_schedule(g));

  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.dropped, 0u);

  // Per-track: timestamps monotone nondecreasing, begin/end balanced.
  std::map<std::pair<int, int>, std::uint64_t> last_ts;
  std::map<std::pair<int, int>, int> depth;
  std::map<std::string, int> names;
  for (const obs::Trace::Entry& e : r.trace.events) {
    const std::pair<int, int> track{e.pid, e.tid};
    const auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ev.ts_ns, it->second);
    }
    last_ts[track] = e.ev.ts_ns;
    if (e.ev.kind == obs::EventKind::kBegin) {
      ++depth[track];
      ++names[e.ev.name];
    } else if (e.ev.kind == obs::EventKind::kEnd) {
      --depth[track];
      EXPECT_GE(depth[track], 0);
    }
  }
  for (const auto& [track, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on pid " << track.first << " tid "
                    << track.second;
  }

  // Every phase of the run shows up as a span.
  for (const char* expected :
       {"dd", "attempt", "ia", "rc_step", "exchange", "drain", "poison_sync",
        "ingest", "result_assembly"}) {
    EXPECT_GT(names[expected], 0) << "missing span " << expected;
  }
}

TEST(EngineTrace, LogicalClockTraceIsReproducible) {
  Rng rng(5);
  const Graph g = barabasi_albert(200, 2, rng);
  std::string exported[2];
  for (int i = 0; i < 2; ++i) {
    EngineConfig cfg = traced_cfg(3);
    AnytimeEngine engine(g, cfg);
    const RunResult r = engine.run(small_schedule(g));
    std::ostringstream os;
    obs::write_chrome_trace(os, r.trace);
    exported[i] = os.str();
  }
  EXPECT_EQ(exported[0], exported[1]);
}

TEST(EngineTrace, ResultsIdenticalWithTracingOnOrOff) {
  Rng rng(9);
  const Graph g = barabasi_albert(250, 2, rng);
  RunResult results[2];
  for (int i = 0; i < 2; ++i) {
    EngineConfig cfg;
    cfg.num_ranks = 4;
    cfg.rc_threads = 2;
    cfg.trace.enabled = i == 1;
    AnytimeEngine engine(g, cfg);
    results[i] = engine.run(small_schedule(g));
  }
  const RunStats& off = results[0].stats;
  const RunStats& on = results[1].stats;
  // Bit-identical algorithm outputs and deterministic ledger fields; CPU
  // seconds and wall time legitimately differ run to run.
  EXPECT_EQ(results[0].closeness, results[1].closeness);
  EXPECT_EQ(results[0].harmonic, results[1].harmonic);
  EXPECT_EQ(off.total_bytes, on.total_bytes);
  EXPECT_EQ(off.total_messages, on.total_messages);
  EXPECT_EQ(off.rc_steps, on.rc_steps);
  EXPECT_EQ(off.cut_edges_initial, on.cut_edges_initial);
  EXPECT_EQ(off.cut_edges_final, on.cut_edges_final);
  ASSERT_EQ(off.steps.size(), on.steps.size());
  for (std::size_t s = 0; s < off.steps.size(); ++s) {
    EXPECT_EQ(off.steps[s].relaxations, on.steps[s].relaxations);
    EXPECT_EQ(off.steps[s].poisons, on.steps[s].poisons);
    EXPECT_EQ(off.steps[s].repairs, on.steps[s].repairs);
    EXPECT_EQ(off.steps[s].bytes, on.steps[s].bytes);
  }
  EXPECT_TRUE(results[0].trace.empty());
  EXPECT_FALSE(results[1].trace.empty());
}

TEST(EngineMetrics, RegistryAgreesWithStats) {
  Rng rng(3);
  const Graph g = barabasi_albert(300, 2, rng);
  EngineConfig cfg;
  cfg.num_ranks = 4;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(small_schedule(g));

  // RunStats ledger fields are derived from the registry; check both views
  // agree and the algorithm counters match the per-step aggregates.
  EXPECT_EQ(r.metrics.counter_value("transport/bytes_sent"),
            r.stats.total_bytes);
  EXPECT_EQ(r.metrics.counter_value("transport/messages_sent"),
            r.stats.total_messages);
  EXPECT_EQ(r.metrics.counter_value("transport/frame_overhead_bytes"),
            r.stats.frame_overhead_bytes);
  EXPECT_EQ(r.metrics.counter_value("transport/retransmits"),
            r.stats.retransmits);
  EXPECT_DOUBLE_EQ(r.metrics.gauge_value("cpu/total"),
                   r.stats.total_cpu_seconds);
  EXPECT_DOUBLE_EQ(r.metrics.gauge_value("cpu/max_rank"),
                   r.stats.max_rank_cpu_seconds);

  std::uint64_t relaxations = 0;
  std::uint64_t poisons = 0;
  std::uint64_t repairs = 0;
  for (const StepStats& s : r.stats.steps) {
    relaxations += s.relaxations;
    poisons += s.poisons;
    repairs += s.repairs;
  }
  EXPECT_EQ(r.metrics.counter_value("rc/relaxations"), relaxations);
  EXPECT_EQ(r.metrics.counter_value("rc/poisons"), poisons);
  EXPECT_EQ(r.metrics.counter_value("rc/repairs"), repairs);
  EXPECT_EQ(r.metrics.counter_value("rc/steps"),
            static_cast<std::uint64_t>(cfg.num_ranks) * r.stats.steps.size());
  const obs::Histogram* depth =
      r.metrics.find_histogram("rc/drain_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->count, 0u);
}

RunStats golden_stats() {
  RunStats s;
  s.wall_seconds = 1.25;
  s.dd_seconds = 0.1;
  s.total_cpu_seconds = 1.0 / 3.0;
  s.max_rank_cpu_seconds = 2e-7;
  s.cpu_by_phase = {{"ia", 0.5}, {"rc \"drain\"\\\n", 0.25}};
  s.total_bytes = (std::uint64_t{1} << 53) + 1;
  s.total_messages = 42;
  s.frame_overhead_bytes = 7;
  s.retransmits = 3;
  s.rc_steps = 9;
  s.rc_drain_cpu_seconds = 0.75;
  s.rc_exchange_wait_seconds = 0.0625;
  s.rc_blocked_on_seconds = 0.125;
  s.rc_blocked_on_by_rank = {{-1, 0.5}, {2, 0.03}};
  s.recoveries = 1;
  s.recovery_log = {{"rollback", 4, -1.0}, {"adopt", 6, 0.2}};
  s.cut_edges_initial = 100;
  s.cut_edges_final = 90;
  s.imbalance_final = 1.0625;
  s.dv_resident_bytes = 4096;
  s.dv_cold_bytes = 512;
  s.dv_promotions = 2;
  s.dv_demotions = 5;
  s.dv_decode_seconds = 1e-4;
  s.histogram_summary["serve/point_ns"] = {10, 1234, 100.5, 200.25, 300.125};
  StepStats st;
  st.step = 1;
  st.bytes = 999;
  st.max_cpu_seconds = 0.2;
  st.sum_cpu_seconds = 0.7;
  st.relaxations = 123456789012345;
  st.poisons = 4;
  st.repairs = 5;
  st.sum_drain_cpu_seconds = 0.3;
  st.sum_exchange_wait_seconds = 0.05;
  st.max_blocked_seconds = 0.01;
  st.blocked_on_rank = 2;
  s.steps = {st, StepStats{}};
  return s;
}

TEST(RunStatsJson, GoldenBytes) {
  // Pinned bytes: benches and CI diff this schema (EXPERIMENTS.md), so a
  // change to the encoding must be deliberate.
  const RunStats s = golden_stats();
  EXPECT_EQ(s.to_json(/*include_steps=*/true),
            "{\"wall_seconds\":1.25,\"dd_seconds\":0.10000000000000001,\"total_"
            "cpu_seconds\":0.33333333333333331,\"max_rank_cpu_seconds\":1.99999"
            "99999999999e-07,\"cpu_by_phase\":{\"ia\":0.5,\"rc \\\"drain\\\"\\"
            "\\\\u000a\":0.25},\"total_bytes\":9007199254740993,\"total_message"
            "s\":42,\"frame_overhead_bytes\":7,\"retransmits\":3,\"rc_steps\":9"
            ",\"rc_drain_cpu_seconds\":0.75,\"rc_exchange_wait_seconds\":0.0625"
            ",\"rc_blocked_on_seconds\":0.125,\"rc_blocked_on\":[{\"rank\":-1,"
            "\"seconds\":0.5},{\"rank\":2,\"seconds\":0.029999999999999999}],\""
            "histograms\":{\"serve/point_ns\":{\"count\":10,\"sum\":1234,\"p50"
            "\":100.5,\"p95\":200.25,\"p99\":300.125}},\"recoveries\":1,\"recov"
            "ery_log\":[{\"kind\":\"rollback\",\"at_step\":4,\"mttr_seconds\":-"
            "1},{\"kind\":\"adopt\",\"at_step\":6,\"mttr_seconds\":0.2000000000"
            "0000001}],\"invariant_violations\":0,\"cut_edges_initial\":100,\"c"
            "ut_edges_final\":90,\"imbalance_final\":1.0625,\"dv_resident_bytes"
            "\":4096,\"dv_cold_bytes\":512,\"dv_promotions\":2,\"dv_demotions\""
            ":5,\"dv_decode_seconds\":0.0001,\"steps\":[{\"step\":1,\"bytes\":9"
            "99,\"max_cpu_seconds\":0.20000000000000001,\"sum_cpu_seconds\":0.6"
            "9999999999999996,\"relaxations\":123456789012345,\"poisons\":4,\"r"
            "epairs\":5,\"sum_drain_cpu_seconds\":0.29999999999999999,\"sum_exc"
            "hange_wait_seconds\":0.050000000000000003,\"blocked_on_rank\":2,\""
            "blocked_seconds\":0.01},{\"step\":0,\"bytes\":0,\"max_cpu_seconds"
            "\":0,\"sum_cpu_seconds\":0,\"relaxations\":0,\"poisons\":0,\"repai"
            "rs\":0,\"sum_drain_cpu_seconds\":0,\"sum_exchange_wait_seconds\":0"
            ",\"blocked_on_rank\":-1,\"blocked_seconds\":0}]}");
  EXPECT_EQ(s.to_json(/*include_steps=*/false),
            "{\"wall_seconds\":1.25,\"dd_seconds\":0.10000000000000001,\"total_"
            "cpu_seconds\":0.33333333333333331,\"max_rank_cpu_seconds\":1.99999"
            "99999999999e-07,\"cpu_by_phase\":{\"ia\":0.5,\"rc \\\"drain\\\"\\"
            "\\\\u000a\":0.25},\"total_bytes\":9007199254740993,\"total_message"
            "s\":42,\"frame_overhead_bytes\":7,\"retransmits\":3,\"rc_steps\":9"
            ",\"rc_drain_cpu_seconds\":0.75,\"rc_exchange_wait_seconds\":0.0625"
            ",\"rc_blocked_on_seconds\":0.125,\"rc_blocked_on\":[{\"rank\":-1,"
            "\"seconds\":0.5},{\"rank\":2,\"seconds\":0.029999999999999999}],\""
            "histograms\":{\"serve/point_ns\":{\"count\":10,\"sum\":1234,\"p50"
            "\":100.5,\"p95\":200.25,\"p99\":300.125}},\"recoveries\":1,\"recov"
            "ery_log\":[{\"kind\":\"rollback\",\"at_step\":4,\"mttr_seconds\":-"
            "1},{\"kind\":\"adopt\",\"at_step\":6,\"mttr_seconds\":0.2000000000"
            "0000001}],\"invariant_violations\":0,\"cut_edges_initial\":100,\"c"
            "ut_edges_final\":90,\"imbalance_final\":1.0625,\"dv_resident_bytes"
            "\":4096,\"dv_cold_bytes\":512,\"dv_promotions\":2,\"dv_demotions\""
            ":5,\"dv_decode_seconds\":0.0001}");
}

TEST(RunStatsJson, SchemaAndDeterminism) {
  Rng rng(2);
  const Graph g = barabasi_albert(120, 2, rng);
  EngineConfig cfg;
  cfg.num_ranks = 2;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  const std::string with_steps = r.stats.to_json();
  const std::string without = r.stats.to_json(/*include_steps=*/false);
  EXPECT_EQ(with_steps, r.stats.to_json());
  for (const char* key :
       {"\"wall_seconds\"", "\"total_cpu_seconds\"", "\"cpu_by_phase\"",
        "\"total_bytes\"", "\"rc_drain_cpu_seconds\"", "\"rc_steps\"",
        "\"recoveries\"", "\"imbalance_final\""}) {
    EXPECT_NE(with_steps.find(key), std::string::npos) << key;
    EXPECT_NE(without.find(key), std::string::npos) << key;
  }
  EXPECT_NE(with_steps.find("\"steps\""), std::string::npos);
  EXPECT_EQ(without.find("\"steps\""), std::string::npos);
  EXPECT_FALSE(r.stats.summary().empty());
}

}  // namespace
}  // namespace aacc
