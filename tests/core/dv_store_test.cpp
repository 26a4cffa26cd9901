// Tiered DV row store (DESIGN.md §"Tiered DV storage"): the cold codec
// must round-trip every observable bit of a row, the LRU admission policy
// must respect the byte budget and the boundary/recency ordering, and —
// the load-bearing contract — a tiered run must be bit-identical to the
// resident oracle across every exchange mode, dynamic scenario and budget,
// including the checkpoint blobs it writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/dv_store.hpp"
#include "test_util.hpp"

namespace aacc {
namespace {

using test::grow_vertices;
using test::make_ba;
using test::make_er;

// ------------------------------------------------------------ codec fuzz

/// Random row with holes, a random dirty subset, and a few poison markers
/// (dirty columns whose distance is back to kInfDist).
DvRow random_row(VertexId n, Rng& rng) {
  const auto self = static_cast<VertexId>(rng.next_below(n));
  DvRow row(self, n);
  for (VertexId t = 0; t < n; ++t) {
    if (t == self || rng.next_bool(0.4)) continue;
    row.set(t, static_cast<Dist>(1 + rng.next_below(1000)),
            static_cast<VertexId>(rng.next_below(n)));
    if (rng.next_bool(0.3)) row.mark_dirty(t);
  }
  for (int k = 0; k < 3; ++k) {
    const auto t = static_cast<VertexId>(rng.next_below(n));
    if (t != self && row.dist(t) == kInfDist) row.mark_dirty(t);
  }
  return row;
}

void expect_rows_equal(const DvRow& a, const DvRow& b) {
  ASSERT_EQ(a.self(), b.self());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.dists(), b.dists());
  EXPECT_EQ(a.next_hops(), b.next_hops());
  EXPECT_EQ(a.finite_count(), b.finite_count());
  EXPECT_EQ(a.finite_sum(), b.finite_sum());
  EXPECT_EQ(a.dirty_count(), b.dirty_count());
  std::vector<VertexId> da;
  std::vector<VertexId> db;
  a.sorted_dirty(da);
  b.sorted_dirty(db);
  EXPECT_EQ(da, db);
}

TEST(ColdCodec, RoundTripFuzz) {
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    const auto n = static_cast<VertexId>(2 + rng.next_below(120));
    const DvRow row = random_row(n, rng);
    const ColdDvRow cold = encode_cold_row(row);
    EXPECT_EQ(cold.self, row.self());
    EXPECT_EQ(cold.columns, row.size());
    EXPECT_EQ(cold.finite, row.finite_count());
    EXPECT_EQ(cold.sum, row.finite_sum());
    expect_rows_equal(decode_cold_row(cold), row);
  }
}

TEST(ColdCodec, ArrayOverloadMatchesDenseEncode) {
  // The checkpoint-restore fast path encodes straight from the packed value
  // arrays; it must produce the same blob + aggregates as the dense path.
  Rng rng(8);
  for (int iter = 0; iter < 50; ++iter) {
    const auto n = static_cast<VertexId>(2 + rng.next_below(90));
    const DvRow row = random_row(n, rng);
    const ColdDvRow a = encode_cold_row(row);
    std::vector<VertexId> dirty;
    row.sorted_dirty(dirty);
    const ColdDvRow b = encode_cold_row(row.self(), row.dists(),
                                        row.next_hops(), std::move(dirty));
    EXPECT_EQ(a.blob, b.blob);
    EXPECT_EQ(a.dirty, b.dirty);
    EXPECT_EQ(a.finite, b.finite);
    EXPECT_EQ(a.sum, b.sum);
  }
}

TEST(ColdCodec, SerializeRowIsResidencyOblivious) {
  // The checkpoint layout of a row must be byte-identical whether the slot
  // is hot or cold (cold rows transcode without a dense round-trip).
  Rng rng(9);
  for (int iter = 0; iter < 50; ++iter) {
    const auto n = static_cast<VertexId>(2 + rng.next_below(90));
    DvRow row = random_row(n, rng);

    TieredDvStore store(kMinDvBudgetBytes);
    store.grow_columns(n);
    store.append(DvRow(row.self(), n));
    rt::ByteWriter hot_w;
    store.put(0, DvRow(row));  // hot
    store.serialize_row(0, hot_w);

    store.put_cold(0, encode_cold_row(row));
    ASSERT_FALSE(store.is_hot(0));
    rt::ByteWriter cold_w;
    store.serialize_row(0, cold_w);
    EXPECT_EQ(hot_w.take(), cold_w.take());
  }
}

// --------------------------------------------------- residency invariants

TEST(TieredLru, MaintainDemotesDownToBudget) {
  const VertexId n = 64;
  Rng rng(11);
  TieredDvStore store(3 * 4096);
  store.grow_columns(n);
  for (VertexId v = 0; v < n; ++v) store.append_fresh(v);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(n));
  // Fresh rows are born cold: no dense state materialized.
  for (std::size_t r = 0; r < store.size(); ++r) EXPECT_FALSE(store.is_hot(r));

  // Touch every row (promotes all), then maintain: residency must fall
  // back under the budget and the gauges must account for every slot.
  for (std::size_t r = 0; r < store.size(); ++r) (void)store.row(r);
  const std::vector<std::uint8_t> interior(n, 0);
  store.maintain(interior);
  EXPECT_LE(store.resident_bytes(), store.budget_bytes());
  EXPECT_GT(store.demotions(), 0u);
  std::size_t hot = 0;
  for (std::size_t r = 0; r < store.size(); ++r) hot += store.is_hot(r) ? 1 : 0;
  EXPECT_GT(hot, 0u);  // budget holds at least a couple of fresh rows
  EXPECT_LT(hot, store.size());
}

TEST(TieredLru, RecentlyTouchedAndBoundaryRowsSurvive) {
  const VertexId n = 48;
  TieredDvStore store(6 * 4096);
  store.grow_columns(n);
  for (VertexId v = 0; v < n; ++v) store.append_fresh(v);
  std::vector<std::uint8_t> boundary(n, 0);
  boundary[5] = 1;
  // Epoch 1: promote everything, settle residency.
  for (std::size_t r = 0; r < store.size(); ++r) (void)store.row(r);
  store.maintain(boundary);
  // Epoch 2: touch only rows 7 and 9.
  (void)store.row(7);
  (void)store.row(9);
  store.maintain(boundary);
  // The budget is comfortably bigger than three fresh rows, so the two
  // recently-touched rows and the boundary row must all still be hot.
  EXPECT_TRUE(store.is_hot(7));
  EXPECT_TRUE(store.is_hot(9));
  EXPECT_TRUE(store.is_hot(5));
}

TEST(TieredLru, ColdRowsAnswerMetadataWithoutPromotion) {
  Rng rng(13);
  const VertexId n = 40;
  TieredDvStore store(kMinDvBudgetBytes);
  store.grow_columns(n);
  std::vector<DvRow> reference;
  for (VertexId v = 0; v < n; ++v) {
    DvRow row = random_row(n, rng);
    reference.push_back(DvRow(row));
    store.append(std::move(row));
  }
  store.maintain(std::vector<std::uint8_t>(n, 0));
  bool saw_cold = false;
  for (std::size_t r = 0; r < store.size(); ++r) {
    const DvRow& ref = reference[r];
    saw_cold |= !store.is_hot(r);
    EXPECT_EQ(store.self(r), ref.self());
    EXPECT_EQ(store.finite_count(r), ref.finite_count());
    EXPECT_EQ(store.finite_sum(r), ref.finite_sum());
    EXPECT_EQ(store.dirty_count(r), ref.dirty_count());
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(store.probe_dist(r, t), ref.dist(t)) << r << ":" << t;
      ASSERT_EQ(store.probe_next_hop(r, t), ref.next_hop(t)) << r << ":" << t;
    }
    // None of the metadata reads may have promoted the row.
    EXPECT_EQ(store.is_hot(r), store.is_hot(r));
  }
  EXPECT_TRUE(saw_cold);
  EXPECT_EQ(store.promotions(), 0u);
}

TEST(TieredLru, CollectDirtyEntriesAgreesHotAndCold) {
  // Hot rows answer from DvRow::sorted_dirty (sorting a sparse list or
  // scanning the flags of a dense one); cold rows merge their compressed
  // dirty list. Both must list the same entries, poison markers included.
  Rng rng(23);
  const VertexId n = 900;
  for (const double p_dirty : {0.01, 0.3, 1.0}) {
    DvRow row(5, n);
    for (VertexId t = 0; t < n; ++t) {
      if (t == 5) continue;
      if (rng.next_bool(0.8)) {
        row.set(t, static_cast<Dist>(1 + rng.next_below(50)), 5);
      }
      if (rng.next_bool(p_dirty)) row.mark_dirty(t);  // infinite ⇒ poison
    }
    for (VertexId t = 0; t < n; t += 7) (void)row.clear_dirty(t);  // stale

    TieredDvStore store(kMinDvBudgetBytes);
    store.grow_columns(n);
    store.append(DvRow(row));
    std::vector<VertexId> cols;
    std::vector<std::pair<VertexId, Dist>> hot;
    store.collect_dirty_entries(0, cols, hot);
    ASSERT_TRUE(store.is_hot(0));
    store.maintain(std::vector<std::uint8_t>(1, 0));
    ASSERT_FALSE(store.is_hot(0));
    std::vector<std::pair<VertexId, Dist>> cold;
    store.collect_dirty_entries(0, cols, cold);

    EXPECT_EQ(hot, cold) << "p_dirty=" << p_dirty;
    ASSERT_EQ(hot.size(), row.dirty_count());
    for (std::size_t i = 0; i < hot.size(); ++i) {
      EXPECT_TRUE(row.test_flag(hot[i].first, DvRow::kDirty));
      EXPECT_EQ(hot[i].second, row.dist(hot[i].first));
      if (i > 0) EXPECT_LT(hot[i - 1].first, hot[i].first);
    }
  }
}

TEST(TieredLru, DirtyOpsWorkInPlaceOnColdRows) {
  Rng rng(17);
  // One row bigger than the whole budget, so maintain() must demote it.
  const VertexId n = 600;
  TieredDvStore store(kMinDvBudgetBytes);
  store.grow_columns(n);
  DvRow row = random_row(n, rng);
  const DvRow ref(row);
  store.append(std::move(row));
  store.maintain(std::vector<std::uint8_t>(1, 0));
  ASSERT_FALSE(store.is_hot(0));

  std::vector<VertexId> cols;
  std::vector<std::pair<VertexId, Dist>> entries;
  store.collect_dirty_entries(0, cols, entries);
  std::vector<VertexId> want_dirty;
  ref.sorted_dirty(want_dirty);
  ASSERT_EQ(entries.size(), want_dirty.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].first, want_dirty[i]);
    EXPECT_EQ(entries[i].second, ref.dist(want_dirty[i]));
  }

  std::vector<VertexId> cleared;
  EXPECT_EQ(store.retire_dirty(0, &cleared), ref.dirty_count());
  EXPECT_EQ(cleared, want_dirty);
  EXPECT_EQ(store.dirty_count(0), 0u);
  if (!want_dirty.empty()) {
    EXPECT_TRUE(store.remark_dirty(0, want_dirty[0]));
    EXPECT_FALSE(store.remark_dirty(0, want_dirty[0]));
    EXPECT_TRUE(store.retire_dirty_one(0, want_dirty[0]));
    EXPECT_FALSE(store.retire_dirty_one(0, want_dirty[0]));
  }
  EXPECT_EQ(store.mark_finite_dirty(0), ref.finite_count());
  ASSERT_FALSE(store.is_hot(0));  // everything stayed in compressed form

  // Promotion after in-place mutation must still reconstruct the values.
  const DvRow& dense = store.row(0);
  EXPECT_EQ(dense.dists(), ref.dists());
  EXPECT_EQ(dense.next_hops(), ref.next_hops());
  EXPECT_EQ(store.promotions(), 1u);
}

// ------------------------------------------- resident vs tiered equivalence

EngineConfig matrix_cfg(ExchangeMode mode, std::uint64_t budget) {
  EngineConfig cfg;
  cfg.num_ranks = 4;
  cfg.exchange_mode = mode;
  if (mode != ExchangeMode::kDeterministic) cfg.exchange_window = 3;
  cfg.dv_budget_bytes = budget;
  cfg.transport.retry_backoff = std::chrono::microseconds(1);
  cfg.transport.recv_timeout = std::chrono::seconds(60);
  return cfg;
}

/// Budgets spanning the residency spectrum on the small matrix graphs:
/// 0 = resident oracle, 8 MB keeps everything hot (0% cold), 64 KB mixes
/// (~50% cold), and the floor forces ~95% cold.
const std::uint64_t kBudgets[] = {8u << 20, 64u << 10, kMinDvBudgetBytes};

const ExchangeMode kModes[] = {ExchangeMode::kDeterministic,
                               ExchangeMode::kPipelined, ExchangeMode::kAsync};

/// Residency changes *where* rows live, never what the engine computes:
/// the converged values must match bit for bit in every mode. The full
/// cost ledger (wire bytes, relaxation/poison counts) is only comparable
/// under ExchangeMode::kDeterministic — the overlapped schedules vary
/// their intermediate traffic with arrival timing even store-vs-itself
/// (async_exchange_test only pins the ledger for the deterministic mode).
void expect_identical(const RunResult& want, const RunResult& got,
                      const std::string& label, bool strict_ledger = true) {
  ASSERT_EQ(want.closeness.size(), got.closeness.size()) << label;
  for (VertexId v = 0; v < want.closeness.size(); ++v) {
    ASSERT_EQ(want.closeness[v], got.closeness[v]) << label << " vertex " << v;
    ASSERT_EQ(want.harmonic[v], got.harmonic[v]) << label << " vertex " << v;
  }
  if (!strict_ledger) return;
  EXPECT_EQ(want.stats.rc_steps, got.stats.rc_steps) << label;
  EXPECT_EQ(want.stats.total_bytes, got.stats.total_bytes) << label;
  EXPECT_EQ(want.stats.total_messages, got.stats.total_messages) << label;
  std::uint64_t want_relax = 0;
  std::uint64_t got_relax = 0;
  std::uint64_t want_poison = 0;
  std::uint64_t got_poison = 0;
  for (const StepStats& s : want.stats.steps) {
    want_relax += s.relaxations;
    want_poison += s.poisons;
  }
  for (const StepStats& s : got.stats.steps) {
    got_relax += s.relaxations;
    got_poison += s.poisons;
  }
  EXPECT_EQ(want_relax, got_relax) << label;
  EXPECT_EQ(want_poison, got_poison) << label;
}

EventSchedule dynamic_schedule(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  EventSchedule sched;
  EventBatch b1;
  b1.at_step = 1;
  const auto edges = g.edges();
  for (int i = 0; i < 4; ++i) {
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    b1.events.push_back(EdgeDeleteEvent{u, v});
  }
  sched.push_back(std::move(b1));
  EventBatch b2;
  b2.at_step = 3;
  Graph after = g;
  for (const Event& e : sched[0].events) apply_event(after, e);
  b2.events = grow_vertices(after, 8, 2, rng);
  sched.push_back(std::move(b2));
  return sched;
}

TEST(TieredEquivalence, StaticAndDynamicAcrossModesAndBudgets) {
  const Graph g = make_er(110, 330, 31, WeightRange{1, 5});
  const EventSchedule sched = dynamic_schedule(g, 41);
  for (const ExchangeMode mode : kModes) {
    RunResult oracle;
    {
      AnytimeEngine engine(g, matrix_cfg(mode, 0));
      oracle = engine.run(sched);
    }
    for (const std::uint64_t budget : kBudgets) {
      AnytimeEngine engine(g, matrix_cfg(mode, budget));
      const RunResult tiered = engine.run(sched);
      expect_identical(oracle, tiered,
                       "mode=" + std::to_string(static_cast<int>(mode)) +
                           " budget=" + std::to_string(budget),
                       mode == ExchangeMode::kDeterministic);
      if (budget == kMinDvBudgetBytes) {
        EXPECT_GT(tiered.stats.dv_demotions, 0u) << "floor budget stayed hot";
        EXPECT_GT(tiered.stats.dv_cold_bytes, 0u);
      }
    }
  }
}

TEST(TieredEquivalence, RepartitionMigratesResidency) {
  // A rebalance-triggering run migrates rows between ranks; cold rows must
  // migrate correctly (take() promotes, put() re-admits).
  const Graph g = make_ba(130, 2, 37);
  Rng rng(43);
  EventSchedule sched;
  EventBatch b;
  b.at_step = 1;
  b.events = grow_vertices(g, 20, 2, rng);  // skews load, triggers rebalance
  sched.push_back(std::move(b));

  for (const std::uint64_t budget : {std::uint64_t{0}, kMinDvBudgetBytes}) {
    EngineConfig cfg = matrix_cfg(ExchangeMode::kDeterministic, budget);
    cfg.rebalance_threshold = 1.2;
    AnytimeEngine engine(g, cfg);
    const RunResult r = engine.run(sched);
    static RunResult oracle;
    if (budget == 0) {
      oracle = r;
    } else {
      expect_identical(oracle, r, "repartition budget=" + std::to_string(budget));
    }
  }
}

TEST(TieredEquivalence, CheckpointBlobsAreResidencyOblivious) {
  // The mid-run checkpoint written by a tiered run must be byte-identical
  // to the resident one (serialize_row transcodes cold rows), and resuming
  // from it — under either store — must land on the same answer.
  const Graph g = make_er(100, 300, 47, WeightRange{1, 4});
  const EventSchedule sched = dynamic_schedule(g, 53);

  EngineConfig cfg = matrix_cfg(ExchangeMode::kDeterministic, 0);
  cfg.checkpoint_at_step = 2;
  RunResult resident_cp;
  {
    AnytimeEngine engine(g, cfg);
    resident_cp = engine.run(sched);
  }
  ASSERT_TRUE(resident_cp.checkpoint.valid());

  cfg.dv_budget_bytes = kMinDvBudgetBytes;
  RunResult tiered_cp;
  {
    AnytimeEngine engine(g, cfg);
    tiered_cp = engine.run(sched);
  }
  ASSERT_TRUE(tiered_cp.checkpoint.valid());
  ASSERT_EQ(resident_cp.checkpoint.rank_blobs.size(),
            tiered_cp.checkpoint.rank_blobs.size());
  for (std::size_t r = 0; r < resident_cp.checkpoint.rank_blobs.size(); ++r) {
    EXPECT_EQ(resident_cp.checkpoint.rank_blobs[r],
              tiered_cp.checkpoint.rank_blobs[r])
        << "rank " << r << " checkpoint blob differs";
  }

  // Cross-resume: tiered checkpoint into a resident engine and vice versa.
  EngineConfig resume_resident = matrix_cfg(ExchangeMode::kDeterministic, 0);
  EngineConfig resume_tiered =
      matrix_cfg(ExchangeMode::kDeterministic, kMinDvBudgetBytes);
  AnytimeEngine a(g, tiered_cp.checkpoint, resume_resident);
  const RunResult ra = a.run(sched);
  AnytimeEngine b(g, resident_cp.checkpoint, resume_tiered);
  const RunResult rb = b.run(sched);
  expect_identical(ra, rb, "cross-resume");
}

TEST(TieredEquivalence, ChaosRecoveryAndAdoption) {
  // Crash a rank mid-run under the adopt rung: survivors deserialize and
  // re-shard the dead rank's rows. Tiered stores must adopt into cold form
  // budgets and still converge to the oracle's bits.
  const Graph g = make_er(100, 300, 59, WeightRange{1, 4});
  const EventSchedule sched = dynamic_schedule(g, 61);

  EngineConfig cfg = matrix_cfg(ExchangeMode::kDeterministic, 0);
  cfg.checkpoint_every = 1;
  cfg.recovery_policy = {{RecoveryPolicy::kAdopt, 0},
                         {RecoveryPolicy::kRollback, 0}};
  cfg.faults.crashes.push_back({1, 2});
  cfg.transport.retry_backoff = std::chrono::microseconds(1);

  RunResult oracle;
  {
    AnytimeEngine engine(g, cfg);
    oracle = engine.run(sched);
  }
  EXPECT_GE(oracle.stats.recoveries, 1u);

  for (const std::uint64_t budget : {std::uint64_t{64} << 10,
                                     std::uint64_t{kMinDvBudgetBytes}}) {
    EngineConfig tcfg = cfg;
    tcfg.dv_budget_bytes = budget;
    AnytimeEngine engine(g, tcfg);
    const RunResult r = engine.run(sched);
    EXPECT_EQ(r.stats.recoveries, oracle.stats.recoveries);
    expect_identical(oracle, r, "chaos budget=" + std::to_string(budget));
  }
}

}  // namespace
}  // namespace aacc
