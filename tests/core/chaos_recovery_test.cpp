// Chaos harness for the fault-injected runtime (docs/FAULTS.md): message
// faults must not change a single bit of the result, and an injected crash
// must recover to the fault-free answer — from the newest periodic
// snapshot, or from scratch when there is none.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "test_util.hpp"

namespace aacc {
namespace {

using test::expect_apsp_exact;
using test::grow_vertices;
using test::make_ba;
using test::make_er;

EngineConfig base_cfg(Rank P) {
  EngineConfig cfg;
  cfg.num_ranks = P;
  cfg.gather_apsp = true;
  // Keep chaos tests snappy: faulted frames retry almost immediately, and a
  // wedged run fails with TimeoutError instead of hitting the ctest timeout.
  cfg.transport.retry_backoff = std::chrono::microseconds(1);
  cfg.transport.recv_timeout = std::chrono::seconds(60);
  return cfg;
}

/// A dynamic schedule exercising adds, deletions, and growth.
EventSchedule mixed_schedule(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  EventSchedule sched;
  {
    EventBatch b;
    b.at_step = 1;
    VertexId fresh = g.num_vertices() / 2;
    while (fresh == 0 || g.has_edge(0, fresh)) ++fresh;
    b.events.push_back(EdgeAddEvent{0, fresh, 1});
    const auto edges = g.edges();
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    b.events.push_back(EdgeDeleteEvent{u, v});
    sched.push_back(std::move(b));
  }
  {
    EventBatch b;
    b.at_step = 3;
    Graph grown = g;
    for (const Event& e : sched[0].events) apply_event(grown, e);
    b.events = grow_vertices(grown, 6, 2, rng);
    sched.push_back(std::move(b));
  }
  return sched;
}

rt::FaultPlan message_faults(std::uint64_t seed) {
  rt::FaultPlan plan;
  plan.seed = seed;
  plan.drop = 0.08;
  plan.duplicate = 0.04;
  plan.delay = 0.08;
  plan.corrupt = 0.08;
  return plan;
}

// ------------------------------------------------------------- chaos fuzz

TEST(ChaosFuzz, MessageFaultsNeverChangeTheResult) {
  // Reliable delivery is exact: dropped/duplicated/delayed/corrupted frames
  // are repaired by the transport, so the converged state is bit-identical
  // to the fault-free run — same distances, same closeness doubles.
  const Graph g = make_er(140, 420, 11, WeightRange{1, 4});
  const EventSchedule sched = mixed_schedule(g, 21);
  const EngineConfig cfg = base_cfg(4);

  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run(sched);

  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    EngineConfig chaos_cfg = cfg;
    chaos_cfg.faults = message_faults(seed);
    AnytimeEngine engine(g, chaos_cfg);
    const RunResult chaotic = engine.run(sched);

    EXPECT_EQ(chaotic.stats.rc_steps, clean.stats.rc_steps) << "seed " << seed;
    ASSERT_EQ(chaotic.closeness.size(), clean.closeness.size());
    for (VertexId v = 0; v < clean.closeness.size(); ++v) {
      ASSERT_EQ(chaotic.closeness[v], clean.closeness[v])
          << "seed " << seed << " vertex " << v;
    }
    EXPECT_EQ(chaotic.apsp, clean.apsp) << "seed " << seed;
  }
}

TEST(ChaosFuzz, FaultFreeRunPaysNothingForTheMachinery) {
  // Acceptance gate: with no faults configured the hardened build must be
  // byte-for-byte the PR 1 runtime — same traffic, same steps, no frames.
  const Graph g = make_ba(150, 2, 5);
  const EventSchedule sched = mixed_schedule(g, 9);
  const EngineConfig cfg = base_cfg(4);

  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(sched);
  EXPECT_EQ(r.stats.recoveries, 0u);
  expect_apsp_exact(engine.graph(), r);
}

// --------------------------------------------------- checkpoint recovery

TEST(Recovery, CrashWithPeriodicCheckpointsIsBitIdentical) {
  const Graph g = make_er(130, 390, 13, WeightRange{1, 3});
  const EventSchedule sched = mixed_schedule(g, 31);
  const EngineConfig cfg = base_cfg(4);

  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run(sched);
  ASSERT_GE(clean.stats.rc_steps, 4u);

  // Crash rank 1 mid-run *and* fault the wire during both the original
  // attempt and the replay; the supervisor rolls back to the newest common
  // snapshot and the replay converges to the identical answer.
  EngineConfig chaos_cfg = cfg;
  chaos_cfg.checkpoint_every = 2;
  chaos_cfg.faults = message_faults(404);
  chaos_cfg.faults.crashes.push_back({1, 3});

  AnytimeEngine engine(g, chaos_cfg);
  const RunResult recovered = engine.run(sched);

  EXPECT_EQ(recovered.stats.recoveries, 1u);
  ASSERT_EQ(recovered.closeness.size(), clean.closeness.size());
  for (VertexId v = 0; v < clean.closeness.size(); ++v) {
    ASSERT_EQ(recovered.closeness[v], clean.closeness[v]) << "vertex " << v;
  }
  EXPECT_EQ(recovered.apsp, clean.apsp);
  EXPECT_EQ(recovered.final_owner, clean.final_owner);
}

TEST(Recovery, CrashBeforeAnySnapshotRestartsFromScratch) {
  // Rank 2 dies at the very first RC step, before any periodic snapshot
  // exists: the supervisor restarts the whole run (still bit-identical).
  const Graph g = make_ba(120, 2, 17);
  const EngineConfig cfg = base_cfg(3);

  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run();

  EngineConfig chaos_cfg = cfg;
  chaos_cfg.checkpoint_every = 4;
  chaos_cfg.faults.crashes.push_back({2, 0});

  AnytimeEngine engine(g, chaos_cfg);
  const RunResult recovered = engine.run();
  EXPECT_EQ(recovered.stats.recoveries, 1u);
  EXPECT_EQ(recovered.apsp, clean.apsp);
}

TEST(Recovery, TrafficOpIdsStayUniqueAcrossAttempts) {
  // A rollback replays on the same World with fresh Comms. Their
  // collectives must number on past the failed attempt's, or a cost model
  // replaying RunResult::traffic would merge collectives of two attempts
  // into one. Crash-only plan: no drops, so no retransmitted duplicates.
  const Graph g = make_er(130, 390, 13, WeightRange{1, 3});
  EngineConfig cfg = base_cfg(4);
  cfg.checkpoint_every = 2;
  cfg.recovery_policy = {{RecoveryPolicy::kRollback, 0}};
  cfg.faults.crashes.push_back({1, 3});

  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(mixed_schedule(g, 31));
  ASSERT_EQ(r.stats.recoveries, 1u);
  std::set<std::tuple<std::uint32_t, Rank, Rank>> seen;
  std::size_t all_to_all = 0;
  std::size_t repeated = 0;
  for (const rt::MsgRecord& m : r.traffic) {
    if (m.kind != rt::OpKind::kAllToAll) continue;
    ++all_to_all;
    if (!seen.emplace(m.op, m.src, m.dst).second) ++repeated;
  }
  EXPECT_GT(all_to_all, 0u);
  EXPECT_EQ(repeated, 0u);
}

TEST(Recovery, CrashAtEveryStepSweep) {
  // Kill a rank at every step of the run, one run per crash point: each
  // must recover (rollback or full restart) and converge to the fault-free
  // answer. This sweeps the checkpoint/rollback boundary conditions —
  // crash on a snapshot step, just after one, and on the final step.
  const Graph g = make_er(90, 270, 19, WeightRange{1, 3});
  const EventSchedule sched = mixed_schedule(g, 41);
  const EngineConfig cfg = base_cfg(3);

  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run(sched);
  const std::size_t steps = clean.stats.rc_steps;
  ASSERT_GE(steps, 3u);

  for (std::size_t s = 0; s < steps; ++s) {
    EngineConfig chaos_cfg = cfg;
    chaos_cfg.checkpoint_every = 2;
    chaos_cfg.faults.crashes.push_back({1, s});

    AnytimeEngine engine(g, chaos_cfg);
    const RunResult recovered = engine.run(sched);
    EXPECT_EQ(recovered.stats.recoveries, 1u) << "crash at step " << s;
    EXPECT_EQ(recovered.apsp, clean.apsp) << "crash at step " << s;
  }
}

TEST(Recovery, RepeatedCrashesWithinTheBudget) {
  // Two distinct crash points in one run: the supervisor recovers twice.
  const Graph g = make_ba(110, 2, 23);
  const EventSchedule sched = mixed_schedule(g, 51);
  EngineConfig cfg = base_cfg(4);

  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run(sched);
  ASSERT_GE(clean.stats.rc_steps, 4u);

  EngineConfig chaos_cfg = cfg;
  chaos_cfg.checkpoint_every = 1;
  chaos_cfg.faults.crashes.push_back({0, 2});
  chaos_cfg.faults.crashes.push_back({3, 3});

  AnytimeEngine engine(g, chaos_cfg);
  const RunResult recovered = engine.run(sched);
  EXPECT_EQ(recovered.stats.recoveries, 2u);
  EXPECT_EQ(recovered.apsp, clean.apsp);
}

TEST(Recovery, BudgetExhaustionSurfacesTheRootCause) {
  const Graph g = make_ba(80, 2, 29);
  EngineConfig cfg = base_cfg(3);
  cfg.checkpoint_every = 0;  // rollback from scratch would serve, but...
  cfg.max_recoveries = 0;    // ...the budget forbids any relaunch
  cfg.faults.crashes.push_back({1, 1});

  AnytimeEngine engine(g, cfg);
  EXPECT_THROW((void)engine.run(), rt::InjectedCrash);
}

// ------------------------------------------- no snapshots: from scratch

TEST(Recovery, WithoutSnapshotsTheDefaultLadderRestartsFromScratch) {
  // checkpoint_every = 0 and the default ladder {rollback}: a death restarts
  // the whole run from scratch, which replays deterministically to the
  // fault-free answer. Covers a mid-run death under a mutation schedule and
  // the death of rank 0 (the feed broadcaster and progress emitter) on a
  // static run.
  struct Case {
    Graph g;
    EventSchedule sched;
    Rank ranks;
    rt::CrashPoint crash;
  };
  const Graph er = make_er(120, 360, 37, WeightRange{1, 3});
  const Case cases[] = {
      {er, mixed_schedule(er, 61), 4, {2, 2}},
      {make_ba(100, 2, 43), {}, 3, {0, 1}},
  };
  for (const Case& c : cases) {
    const EngineConfig cfg = base_cfg(c.ranks);
    AnytimeEngine clean_engine(c.g, cfg);
    const RunResult clean = clean_engine.run(c.sched);

    EngineConfig chaos_cfg = cfg;
    chaos_cfg.faults.crashes.push_back(c.crash);
    AnytimeEngine engine(c.g, chaos_cfg);
    const RunResult r = engine.run(c.sched);
    const std::string ctx = "rank " + std::to_string(c.crash.rank) +
                            " at step " + std::to_string(c.crash.at_step);
    EXPECT_EQ(r.stats.recoveries, 1u) << ctx;
    ASSERT_EQ(r.stats.recovery_log.size(), 1u) << ctx;
    EXPECT_EQ(r.stats.recovery_log[0].kind, "rollback") << ctx;
    EXPECT_EQ(r.closeness, clean.closeness) << ctx;
    EXPECT_EQ(r.apsp, clean.apsp) << ctx;
    EXPECT_EQ(r.final_owner, clean.final_owner) << ctx;
  }
}

}  // namespace
}  // namespace aacc
