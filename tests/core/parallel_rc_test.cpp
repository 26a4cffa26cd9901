// Bit-identity of the column-sharded parallel recombination drain: for any
// rc_threads value the engine must produce exactly the state the serial
// drain produces — same DV matrices (APSP rows + next hops), same closeness
// doubles, same wire traffic, same per-step ledger counters. Columns never
// cross shards and each shard replays the serial schedule restricted to its
// columns (DESIGN.md §"Column-sharded parallel recombination drain"), so
// this holds across additions, deletions, repartitioning, and fault
// recovery, not just on static runs.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace aacc {
namespace {

using test::expect_apsp_exact;
using test::grow_vertices;
using test::make_ba;
using test::make_er;

RunResult run_threads(const Graph& g, const EventSchedule& sched,
                      EngineConfig cfg, std::size_t rc_threads) {
  cfg.gather_apsp = true;
  cfg.rc_threads = rc_threads;
  AnytimeEngine engine(g, cfg);
  return engine.run(sched);
}

/// Everything deterministic must match bit for bit. CPU/wall timings are
/// excluded by construction: a sharded drain burns its CPU on workers, so
/// only the counters and results are comparable across thread counts.
void expect_identical(const RunResult& ref, const RunResult& r,
                      std::size_t threads) {
  EXPECT_EQ(r.closeness, ref.closeness) << "rc_threads=" << threads;
  EXPECT_EQ(r.harmonic, ref.harmonic) << "rc_threads=" << threads;
  EXPECT_EQ(r.final_owner, ref.final_owner) << "rc_threads=" << threads;
  EXPECT_EQ(r.stats.rc_steps, ref.stats.rc_steps) << "rc_threads=" << threads;
  EXPECT_EQ(r.stats.total_bytes, ref.stats.total_bytes)
      << "rc_threads=" << threads;
  EXPECT_EQ(r.stats.total_messages, ref.stats.total_messages)
      << "rc_threads=" << threads;
  EXPECT_EQ(r.stats.invariant_violations, 0u) << "rc_threads=" << threads;
  ASSERT_EQ(r.stats.steps.size(), ref.stats.steps.size());
  for (std::size_t s = 0; s < ref.stats.steps.size(); ++s) {
    const StepStats& a = ref.stats.steps[s];
    const StepStats& b = r.stats.steps[s];
    EXPECT_EQ(b.bytes, a.bytes) << "rc_threads=" << threads << " step " << s;
    EXPECT_EQ(b.relaxations, a.relaxations)
        << "rc_threads=" << threads << " step " << s;
    EXPECT_EQ(b.poisons, a.poisons)
        << "rc_threads=" << threads << " step " << s;
    EXPECT_EQ(b.repairs, a.repairs)
        << "rc_threads=" << threads << " step " << s;
  }
  ASSERT_EQ(r.apsp.size(), ref.apsp.size());
  for (VertexId u = 0; u < ref.apsp.size(); ++u) {
    ASSERT_EQ(r.apsp[u], ref.apsp[u])
        << "rc_threads=" << threads << " row " << u;
    ASSERT_EQ(r.first_hop[u], ref.first_hop[u])
        << "rc_threads=" << threads << " row " << u;
  }
}

void sweep_threads(const Graph& g, const EventSchedule& sched,
                   const EngineConfig& cfg) {
  const RunResult ref = run_threads(g, sched, cfg, 1);
  EXPECT_EQ(ref.stats.invariant_violations, 0u);
  for (const std::size_t t : {2, 7}) {
    const RunResult r = run_threads(g, sched, cfg, t);
    expect_identical(ref, r, t);
  }
}

TEST(ParallelRc, AdditionsAndGrowthAreBitIdentical) {
  // Big enough that the per-rank drains clear the shard grain and the
  // parallel path actually runs (the IA seeds n_p * n worklist entries).
  const Graph g = make_er(260, 780, 71, WeightRange{1, 5});
  Rng rng(72);
  Graph grown = g;
  EventSchedule sched;
  EventBatch b;
  b.at_step = 1;
  for (const Event& e : grow_vertices(grown, 14, 2, rng)) {
    apply_event(grown, e);
    b.events.push_back(e);
  }
  sched.push_back(std::move(b));

  EngineConfig cfg;
  cfg.num_ranks = 3;
  cfg.validate_each_step = true;
  sweep_threads(g, sched, cfg);

  // Ground truth once (the sweep already proved all thread counts agree).
  const RunResult r = run_threads(g, sched, cfg, 4);
  expect_apsp_exact(grown, r);
}

TEST(ParallelRc, DeletionsAndWeightChangesAreBitIdentical) {
  // Deletions drive the poison/repair machinery through the sharded drain:
  // deferred repairs must stay in their column's shard and run before that
  // shard's worklist, exactly as the serial repairs-first rule orders them.
  const Graph g = make_ba(240, 3, 73, WeightRange{1, 6});
  Rng rng(74);
  Graph truth = g;
  EventSchedule sched;
  {
    EventBatch b;
    b.at_step = 1;
    for (int i = 0; i < 8; ++i) {
      const auto edges = truth.edges();
      const auto& [u, v, w] = edges[rng.next_below(edges.size())];
      (void)w;
      truth.remove_edge(u, v);
      b.events.emplace_back(EdgeDeleteEvent{u, v});
    }
    sched.push_back(std::move(b));
  }
  {
    EventBatch b;
    b.at_step = 3;
    for (int i = 0; i < 6; ++i) {
      const auto edges = truth.edges();
      const auto& [u, v, w] = edges[rng.next_below(edges.size())];
      const Weight nw = 1 + static_cast<Weight>(rng.next_below(9));
      if (nw == w) continue;
      truth.set_weight(u, v, nw);
      b.events.emplace_back(WeightChangeEvent{u, v, nw});
    }
    sched.push_back(std::move(b));
  }

  EngineConfig cfg;
  cfg.num_ranks = 3;
  cfg.validate_each_step = true;
  sweep_threads(g, sched, cfg);

  const RunResult r = run_threads(g, sched, cfg, 4);
  expect_apsp_exact(truth, r);
}

TEST(ParallelRc, RepartitionIsBitIdentical) {
  // Repartition-S rebuilds rows and re-enqueues every finite entry — the
  // largest drains the engine ever sees, all through the sharded path.
  const Graph g = make_er(220, 660, 75, WeightRange{1, 4});
  Rng rng(76);
  Graph grown = g;
  EventSchedule sched;
  EventBatch b;
  b.at_step = 2;
  for (const Event& e : grow_vertices(grown, 10, 2, rng)) {
    apply_event(grown, e);
    b.events.push_back(e);
  }
  sched.push_back(std::move(b));

  EngineConfig cfg;
  cfg.num_ranks = 3;
  cfg.assign = AssignStrategy::kRepartition;
  sweep_threads(g, sched, cfg);

  const RunResult r = run_threads(g, sched, cfg, 4);
  expect_apsp_exact(grown, r);
}

TEST(ParallelRc, FaultRecoveryIsBitIdentical) {
  // Chaos on top of sharding: message faults plus a mid-run crash with
  // periodic checkpoints. Replay after rollback re-executes sharded drains,
  // so recovery must land on the same bits for every thread count.
  const Graph g = make_er(200, 600, 77, WeightRange{1, 4});
  Rng rng(78);
  Graph grown = g;
  EventSchedule sched;
  EventBatch b;
  b.at_step = 1;
  for (const Event& e : grow_vertices(grown, 8, 2, rng)) {
    apply_event(grown, e);
    b.events.push_back(e);
  }
  {
    const auto edges = grown.edges();
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    grown.remove_edge(u, v);
    b.events.emplace_back(EdgeDeleteEvent{u, v});
  }
  sched.push_back(std::move(b));

  EngineConfig cfg;
  cfg.num_ranks = 3;
  cfg.transport.retry_backoff = std::chrono::microseconds(1);
  cfg.transport.recv_timeout = std::chrono::seconds(60);
  cfg.checkpoint_every = 2;
  cfg.faults.seed = 505;
  cfg.faults.drop = 0.05;
  cfg.faults.duplicate = 0.03;
  cfg.faults.delay = 0.05;
  cfg.faults.corrupt = 0.05;
  cfg.faults.crashes.push_back({1, 3});

  const RunResult ref = run_threads(g, sched, cfg, 1);
  EXPECT_EQ(ref.stats.recoveries, 1u);
  expect_apsp_exact(grown, ref);
  for (const std::size_t t : {2, 7}) {
    const RunResult r = run_threads(g, sched, cfg, t);
    EXPECT_EQ(r.stats.recoveries, 1u) << "rc_threads=" << t;
    // Retransmit timing (and thus retried traffic) varies run to run under
    // injected faults, so the wire totals are not comparable here — the
    // converged state and the step/recovery counters are.
    EXPECT_EQ(r.closeness, ref.closeness) << "rc_threads=" << t;
    EXPECT_EQ(r.harmonic, ref.harmonic) << "rc_threads=" << t;
    EXPECT_EQ(r.final_owner, ref.final_owner) << "rc_threads=" << t;
    EXPECT_EQ(r.stats.rc_steps, ref.stats.rc_steps) << "rc_threads=" << t;
    ASSERT_EQ(r.apsp.size(), ref.apsp.size());
    for (VertexId u = 0; u < ref.apsp.size(); ++u) {
      ASSERT_EQ(r.apsp[u], ref.apsp[u]) << "rc_threads=" << t << " row " << u;
    }
  }
}

TEST(ParallelRc, UnitWeightBaTiesAreBitIdentical) {
  // The perfbench graph shape (BA, m = 3, unit weights): equal-length
  // routes are everywhere, so the next hop an entry keeps is whichever
  // relaxation reached it first. The drain's schedule restricted to one
  // column depends only on that column's own state, so next hops and the
  // per-step counters must not move with the shard count — statically and
  // across one batch of deletions and additions.
  const Graph g = make_ba(400, 3, 79);
  EngineConfig cfg;
  cfg.num_ranks = 3;
  cfg.validate_each_step = true;
  const RunResult ref = run_threads(g, {}, cfg, 1);
  expect_apsp_exact(g, ref);
  for (const std::size_t t : {2, 7}) {
    expect_identical(ref, run_threads(g, {}, cfg, t), t);
  }

  Rng rng(80);
  Graph truth = g;
  EventSchedule sched;
  EventBatch b;
  b.at_step = 1;
  for (int i = 0; i < 12; ++i) {
    const auto edges = truth.edges();
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    truth.remove_edge(u, v);
    b.events.emplace_back(EdgeDeleteEvent{u, v});
  }
  for (int added = 0; added < 12;) {
    const auto u = static_cast<VertexId>(rng.next_below(truth.num_vertices()));
    const auto v = static_cast<VertexId>(rng.next_below(truth.num_vertices()));
    if (u == v || truth.has_edge(u, v)) continue;
    truth.add_edge(u, v);
    b.events.emplace_back(EdgeAddEvent{u, v, 1});
    ++added;
  }
  sched.push_back(std::move(b));
  const RunResult dyn = run_threads(g, sched, cfg, 1);
  std::uint64_t poisons = 0;
  for (const StepStats& st : dyn.stats.steps) poisons += st.poisons;
  EXPECT_GT(poisons, 0u);  // the deletions reach the poison/repair path
  expect_apsp_exact(truth, dyn);
  for (const std::size_t t : {2, 7}) {
    expect_identical(dyn, run_threads(g, sched, cfg, t), t);
  }
}

TEST(ParallelRc, RandomizedScheduleFuzz) {
  // Seeded fuzz over mixed random schedules (growth, deletions, weight
  // changes): serial vs sharded must agree bit for bit, and both must match
  // the sequential APSP reference on the mutated graph.
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    Rng rng(seed);
    const Graph g = make_er(170, 510, 1000 + seed, WeightRange{1, 5});
    Graph truth = g;
    EventSchedule sched;
    EventBatch b;
    b.at_step = 1;
    for (const Event& e :
         grow_vertices(truth, 4 + rng.next_below(6), 2, rng)) {
      apply_event(truth, e);
      b.events.push_back(e);
    }
    const std::size_t dels = 2 + rng.next_below(5);
    for (std::size_t i = 0; i < dels; ++i) {
      const auto edges = truth.edges();
      const auto& [u, v, w] = edges[rng.next_below(edges.size())];
      (void)w;
      truth.remove_edge(u, v);
      b.events.emplace_back(EdgeDeleteEvent{u, v});
    }
    const std::size_t changes = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < changes; ++i) {
      const auto edges = truth.edges();
      const auto& [u, v, w] = edges[rng.next_below(edges.size())];
      const Weight nw = 1 + static_cast<Weight>(rng.next_below(9));
      if (nw == w) continue;
      truth.set_weight(u, v, nw);
      b.events.emplace_back(WeightChangeEvent{u, v, nw});
    }
    sched.push_back(std::move(b));

    EngineConfig cfg;
    cfg.num_ranks = 2 + static_cast<Rank>(seed % 3);
    const RunResult ref = run_threads(g, sched, cfg, 1);
    const RunResult r = run_threads(g, sched, cfg, 5);
    expect_identical(ref, r, 5);
    expect_apsp_exact(truth, r);
  }
}

}  // namespace
}  // namespace aacc
