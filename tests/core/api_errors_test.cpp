// Typed API errors: EngineConfig::validate() / ConfigError rules and the
// one-shot AnytimeEngine::run lifecycle (EngineStateError). See
// docs/API.md.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "serve/session.hpp"

namespace aacc {
namespace {

Graph tiny_graph() {
  Rng rng(1);
  return barabasi_albert(40, 2, rng);
}

std::string config_error_message(const EngineConfig& cfg) {
  try {
    cfg.validate();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return {};
}

TEST(ConfigValidate, DefaultConfigIsValid) {
  const EngineConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, NumRanksBounds) {
  EngineConfig cfg;
  cfg.num_ranks = 0;
  EXPECT_NE(config_error_message(cfg).find("num_ranks"), std::string::npos);
  cfg.num_ranks = 5000;
  EXPECT_NE(config_error_message(cfg).find("num_ranks"), std::string::npos);
  cfg.num_ranks = 4096;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, ThreadCapsCatchSignBugs) {
  EngineConfig cfg;
  cfg.ia_threads = static_cast<std::size_t>(-1);  // the bug the cap exists for
  EXPECT_NE(config_error_message(cfg).find("ia_threads"), std::string::npos);
  cfg = EngineConfig{};
  cfg.rc_threads = 4097;
  EXPECT_NE(config_error_message(cfg).find("rc_threads"), std::string::npos);
}

TEST(ConfigValidate, RebalanceThreshold) {
  EngineConfig cfg;
  cfg.rebalance_threshold = 0.5;  // max/ideal load is never below 1
  EXPECT_NE(config_error_message(cfg).find("rebalance_threshold"),
            std::string::npos);
  cfg.rebalance_threshold = 1.25;
  EXPECT_NO_THROW(cfg.validate());
  cfg.rebalance_threshold = 0.0;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, DvBudgetFloor) {
  EngineConfig cfg;
  cfg.dv_budget_bytes = kMinDvBudgetBytes - 1;  // cannot hold one hot row
  EXPECT_NE(config_error_message(cfg).find("dv_budget_bytes"),
            std::string::npos);
  cfg.dv_budget_bytes = 1;
  EXPECT_NE(config_error_message(cfg).find("dv_budget_bytes"),
            std::string::npos);
  cfg.dv_budget_bytes = kMinDvBudgetBytes;  // smallest tiered budget
  EXPECT_NO_THROW(cfg.validate());
  cfg.dv_budget_bytes = 0;  // fully resident (the default)
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, TransportRetries) {
  EngineConfig cfg;
  cfg.transport.max_retries = 0;
  EXPECT_NE(config_error_message(cfg).find("max_retries"), std::string::npos);
}

TEST(ConfigValidate, FaultProbabilities) {
  EngineConfig cfg;
  cfg.faults.drop = 1.5;
  EXPECT_NE(config_error_message(cfg).find("drop"), std::string::npos);
  cfg.faults.drop = -0.1;
  EXPECT_NE(config_error_message(cfg).find("drop"), std::string::npos);
  cfg.faults.drop = 0.6;
  cfg.faults.corrupt = 0.6;  // each valid, sum > 1
  EXPECT_NE(config_error_message(cfg).find("sum"), std::string::npos);
}

TEST(ConfigValidate, CrashPointRankRange) {
  EngineConfig cfg;
  cfg.num_ranks = 4;
  cfg.faults.crashes.push_back({7, 1});
  EXPECT_NE(config_error_message(cfg).find("crash point"), std::string::npos);
  cfg.faults.crashes[0].rank = 3;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, TraceCapacity) {
  EngineConfig cfg;
  cfg.trace.track_capacity = 0;
  EXPECT_NO_THROW(cfg.validate());  // irrelevant while tracing is off
  cfg.trace.enabled = true;
  EXPECT_NE(config_error_message(cfg).find("track_capacity"),
            std::string::npos);
}

TEST(ConfigValidate, RecoveryLadderMustHaveARung) {
  EngineConfig cfg;
  cfg.recovery_policy.clear();
  EXPECT_NE(config_error_message(cfg).find("recovery_policy"),
            std::string::npos);
}

TEST(ConfigValidate, DefaultRecoveryLadderIsRollbackThenDegrade) {
  // docs/FAULTS.md §Recovery policy ladder documents this default; adoption
  // is opt-in.
  const EngineConfig cfg{};
  ASSERT_EQ(cfg.recovery_policy.size(), 2u);
  EXPECT_EQ(cfg.recovery_policy[0].policy, RecoveryPolicy::kRollback);
  EXPECT_EQ(cfg.recovery_policy[0].budget, 0u);
  EXPECT_EQ(cfg.recovery_policy[1].policy, RecoveryPolicy::kDegrade);
  EXPECT_EQ(cfg.recovery_policy[1].budget, 0u);
}

TEST(ConfigValidate, RecoveryLadderRejectsRepeatedPolicies) {
  EngineConfig cfg;
  cfg.recovery_policy = {{RecoveryPolicy::kRollback, 0},
                         {RecoveryPolicy::kRollback, 2}};
  EXPECT_NE(config_error_message(cfg).find("repeat"), std::string::npos);
  cfg.recovery_policy = {{RecoveryPolicy::kAdopt, 0},
                         {RecoveryPolicy::kRollback, 0},
                         {RecoveryPolicy::kDegrade, 0}};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, HealthDeadlinesMustEscalateInOrder) {
  EngineConfig cfg;
  cfg.health.enabled = true;
  cfg.health.straggler_after = std::chrono::milliseconds(200);
  cfg.health.suspect_after = std::chrono::milliseconds(100);  // < straggler
  cfg.health.dead_after = std::chrono::milliseconds(400);
  EXPECT_NE(config_error_message(cfg).find("health"), std::string::npos);
  cfg.health.suspect_after = std::chrono::milliseconds(300);
  cfg.transport.recv_timeout = std::chrono::milliseconds(300);  // <= dead
  EXPECT_NE(config_error_message(cfg).find("dead_after"), std::string::npos);
}

TEST(ConfigValidate, PublishEveryBounds) {
  EngineConfig cfg;
  cfg.publish_every = 0;  // a live session must publish
  EXPECT_NE(config_error_message(cfg).find("publish_every"),
            std::string::npos);
  cfg.publish_every = 5000;  // sign-bug cap, same as the thread caps
  EXPECT_NE(config_error_message(cfg).find("publish_every"),
            std::string::npos);
  cfg.publish_every = 4;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, MaxSnapshotLagMustCoverThePublishCadence) {
  EngineConfig cfg;
  cfg.publish_every = 4;
  cfg.max_snapshot_lag = 2;  // would flag every response between publishes
  EXPECT_NE(config_error_message(cfg).find("max_snapshot_lag"),
            std::string::npos);
  cfg.max_snapshot_lag = 4;
  EXPECT_NO_THROW(cfg.validate());
  cfg.max_snapshot_lag = 0;  // never flag
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ServeLifecycle, SessionRejectsHealthSupervisionAndCheckpointDrill) {
  // An idle feed parks ranks inside a collective; health deadlines would
  // declare them dead, so sessions refuse the combination up front.
  EngineConfig cfg;
  cfg.num_ranks = 2;
  cfg.health.enabled = true;
  EXPECT_THROW(serve::EngineSession(tiny_graph(), cfg), ConfigError);
  cfg = EngineConfig{};
  cfg.num_ranks = 2;
  cfg.checkpoint_at_step = 3;  // batch-mode drill, no schedule to resume
  EXPECT_THROW(serve::EngineSession(tiny_graph(), cfg), ConfigError);
}

TEST(ServeLifecycle, IngestRejectsMisnumberedVertexAdds) {
  // The engine assigns added-vertex ids by append; a feed that invents its
  // own ids must fail at ingest with the contract spelled out, not deep in
  // the rank loop at close. Acceptance advances the expected id, rejection
  // does not (the fixed batch can be resubmitted).
  EngineConfig cfg;
  cfg.num_ranks = 2;
  serve::EngineSession session(tiny_graph(), cfg);  // 40 vertices: next is 40
  EXPECT_THROW(session.ingest({VertexAddEvent{500, {}}}), EngineStateError);
  EXPECT_THROW(session.ingest({VertexAddEvent{39, {}}}), EngineStateError);
  session.ingest({VertexAddEvent{40, {{0, 1}}}, VertexAddEvent{41, {{40, 1}}}});
  EXPECT_THROW(session.ingest({VertexAddEvent{40, {}}}), EngineStateError);
  session.ingest({VertexAddEvent{42, {{1, 1}}}});
  const RunResult r = session.close();
  EXPECT_EQ(r.closeness.size(), 43u);
}

TEST(RecoveryLadder, ExhaustedLadderSurfacesTypedRecoveryError) {
  // A config the degraded fallback cannot serve (eager adds rewrite the
  // partition under the ghosts' feet), a ladder with only that rung, and a
  // crash: the supervisor must surface the rung's typed precondition
  // failure, not a bare assertion.
  EngineConfig cfg;
  cfg.num_ranks = 3;
  cfg.add_mode = EdgeAddMode::kEager;
  cfg.recovery_policy = {{RecoveryPolicy::kDegrade, 0}};
  cfg.transport.retry_backoff = std::chrono::microseconds(1);
  cfg.faults.crashes.push_back({1, 1, rt::CrashPhase::kStepStart});
  EXPECT_NO_THROW(cfg.validate());  // the clash is a runtime property
  AnytimeEngine engine(tiny_graph(), cfg);
  EXPECT_THROW((void)engine.run(), RecoveryError);
}

TEST(ConfigValidate, ConstructorsValidate) {
  EngineConfig cfg;
  cfg.num_ranks = 0;
  EXPECT_THROW(AnytimeEngine(tiny_graph(), cfg), ConfigError);
}

TEST(ConfigValidate, ErrorTypeIsRuntimeError) {
  EngineConfig cfg;
  cfg.num_ranks = 0;
  // Callers may catch std::runtime_error without naming the library type.
  EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(EngineLifecycle, SecondRunThrowsEngineStateError) {
  EngineConfig cfg;
  cfg.num_ranks = 2;
  AnytimeEngine engine(tiny_graph(), cfg);
  EXPECT_NO_THROW((void)engine.run());
  EXPECT_THROW((void)engine.run(), EngineStateError);
  EXPECT_THROW((void)engine.run(), std::logic_error);  // the documented base
}

TEST(EngineLifecycle, FreshInstanceRunsAgain) {
  EngineConfig cfg;
  cfg.num_ranks = 2;
  const Graph g = tiny_graph();
  AnytimeEngine a(g, cfg);
  AnytimeEngine b(g, cfg);
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(ra.closeness, rb.closeness);
}

}  // namespace
}  // namespace aacc
