// RankEngine in isolation (driven directly on a World): IA exactness
// against an independent local-subgraph Dijkstra for both sweep kernels
// (BFS on unit weights, heap otherwise), invariant auditing, and state
// serialization round-trips.
#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <unordered_map>

#include "analysis/shortest_paths.hpp"
#include "core/rank_engine.hpp"
#include "graph/generators.hpp"
#include "partition/partition.hpp"
#include "runtime/comm.hpp"
#include "test_util.hpp"

namespace aacc {
namespace {

struct Fixture {
  Graph g;
  Partition part;
  std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
  EngineConfig cfg;
};

Fixture partitioned(Graph g, Rank P, std::uint64_t seed) {
  Fixture f;
  f.g = std::move(g);
  Rng rng(seed);
  f.part = partition_graph(f.g, P, PartitionerKind::kMultilevel, rng);
  f.edges = f.g.edges();
  f.cfg.num_ranks = P;
  return f;
}

Fixture make_fixture(VertexId n, Rank P, std::uint64_t seed) {
  return partitioned(test::make_er(n, n * 3, seed, WeightRange{1, 4}), P,
                     seed);
}

RankEngine::Init init_for(const Fixture& f, Rank me,
                          const EventSchedule* sched = nullptr) {
  RankEngine::Init init;
  init.me = me;
  init.world = f.cfg.num_ranks;
  init.owner = f.part.assignment;
  init.edges = &f.edges;
  init.schedule = sched;
  init.cfg = f.cfg;
  return init;
}

/// The IA reference: Dijkstra from `src` over the whole graph that expands
/// only vertices owned by `me`; every other vertex (a portal) is a leaf.
/// Built from the Graph and the partition, independent of LocalGraph.
std::vector<Dist> local_subgraph_dijkstra(const Graph& g,
                                          const std::vector<Rank>& owner,
                                          Rank me, VertexId src) {
  std::vector<Dist> dist(g.num_vertices(), kInfDist);
  using Item = std::pair<Dist, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[src] = 0;
  pq.emplace(0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u] || owner[u] != me) continue;
    for (const Edge& e : g.neighbors(u)) {
      if (dist_add(d, e.w) < dist[e.to]) {
        dist[e.to] = dist_add(d, e.w);
        pq.emplace(dist[e.to], e.to);
      }
    }
  }
  return dist;
}

struct IaAudit {
  std::size_t dist_mismatches = 0;
  std::size_t bad_hops = 0;
  std::size_t invariant_violations = 0;
  bool unit_weights = true;  ///< every local weight (portal edges too) is 1
};

/// Runs IA alone on every rank, under the resident store and under a
/// tiered store whose budget keeps almost every row cold, and audits each
/// row against the reference: every entry (infinite ones included) equals
/// the local-subgraph distance, and every finite entry's next hop is a
/// neighbour of the source on a shortest local path — a local neighbour
/// whose own local distance closes the gap exactly, or the target itself
/// when the target is a portal.
std::vector<IaAudit> audit_ia(Fixture f) {
  const Rank P = f.cfg.num_ranks;
  const std::vector<Rank>& owner = f.part.assignment;
  std::vector<IaAudit> audit(static_cast<std::size_t>(P));
  rt::World world(P);
  for (const std::uint64_t budget : {std::uint64_t{0}, kMinDvBudgetBytes}) {
    f.cfg.dv_budget_bytes = budget;
    world.run([&](rt::Comm& comm) {
      const Rank me = comm.rank();
      IaAudit& a = audit[static_cast<std::size_t>(me)];
      RankEngine engine(init_for(f, me), comm);
      engine.run_ia();
      const LocalGraph& lg = engine.local_graph();
      for (std::size_t r = 0; r < lg.num_local(); ++r) {
        for (const Edge& e : lg.adj(r)) a.unit_weights &= (e.w == 1);
      }
      std::unordered_map<VertexId, std::vector<Dist>> ref;
      for (std::size_t r = 0; r < lg.num_local(); ++r) {
        const VertexId v = lg.vertex_of(r);
        ref[v] = local_subgraph_dijkstra(f.g, owner, me, v);
      }
      const DvStore& store = engine.store();
      for (std::size_t r = 0; r < store.size(); ++r) {
        const DvRow& row = store.row(r);
        const VertexId s = row.self();
        const std::vector<Dist>& want = ref.at(s);
        for (VertexId t = 0; t < row.size(); ++t) {
          if (row.dist(t) != want[t]) ++a.dist_mismatches;
          if (t == s || row.dist(t) == kInfDist) continue;
          const VertexId nh = row.next_hop(t);
          if (nh == kNoVertex || !f.g.has_edge(s, nh)) {
            ++a.bad_hops;
            continue;
          }
          const Dist w = f.g.edge_weight(s, nh);
          const bool shortest =
              owner[nh] == me ? dist_add(w, ref.at(nh)[t]) == row.dist(t)
                              : nh == t && w == row.dist(t);
          if (!shortest) ++a.bad_hops;
        }
      }
      a.invariant_violations += engine.check_invariants().size();
    });
  }
  return audit;
}

void expect_ia_exact(const std::vector<IaAudit>& audit) {
  for (std::size_t r = 0; r < audit.size(); ++r) {
    EXPECT_EQ(audit[r].dist_mismatches, 0u) << "rank " << r;
    EXPECT_EQ(audit[r].bad_hops, 0u) << "rank " << r;
    EXPECT_EQ(audit[r].invariant_violations, 0u) << "rank " << r;
  }
}

TEST(RankEngineIa, MatchesLocalSubgraphSemanticsUnitWeights) {
  // Unit weights everywhere: every rank sweeps with BFS.
  const Fixture f = partitioned(test::make_ba(150, 3, 21), 4, 21);
  const auto audit = audit_ia(f);
  for (const IaAudit& a : audit) EXPECT_TRUE(a.unit_weights);
  expect_ia_exact(audit);
}

TEST(RankEngineIa, MatchesLocalSubgraphSemantics) {
  // Weights in [1, 4]: every rank sweeps with the heap Dijkstra.
  const Fixture f = make_fixture(120, 4, 7);
  const auto audit = audit_ia(f);
  std::size_t unit = 0;
  for (const IaAudit& a : audit) unit += a.unit_weights ? 1 : 0;
  EXPECT_EQ(unit, 0u);
  expect_ia_exact(audit);
}

TEST(RankEngineIa, MatchesLocalSubgraphSemanticsOneHeavyEdge) {
  // Unit weights except one weight-2 edge inside rank 0's part: rank 0
  // falls back to the heap Dijkstra, every other rank runs BFS.
  Fixture f = partitioned(test::make_ba(150, 3, 23), 4, 23);
  const std::vector<Rank>& owner = f.part.assignment;
  bool placed = false;
  for (const auto& [u, v, w] : f.g.edges()) {
    if (owner[u] == 0 && owner[v] == 0) {
      f.g.set_weight(u, v, 2);
      placed = true;
      break;
    }
  }
  ASSERT_TRUE(placed);
  f.edges = f.g.edges();
  const auto audit = audit_ia(f);
  EXPECT_FALSE(audit[0].unit_weights);
  for (std::size_t r = 1; r < audit.size(); ++r) {
    EXPECT_TRUE(audit[r].unit_weights) << "rank " << r;
  }
  expect_ia_exact(audit);
}

TEST(RankEngineIa, RowsCoverExactlyLocalVertices) {
  const Fixture f = make_fixture(90, 3, 9);
  rt::World world(3);
  std::vector<std::size_t> row_counts(3, 0);
  world.run([&](rt::Comm& comm) {
    RankEngine engine(init_for(f, comm.rank()), comm);
    const DvStore& store = engine.store();
    row_counts[static_cast<std::size_t>(comm.rank())] = store.size();
    for (std::size_t r = 0; r < store.size(); ++r) {
      EXPECT_EQ(f.part.assignment[store.self(r)], comm.rank());
      EXPECT_EQ(store.probe_dist(r, store.self(r)), 0u);
    }
  });
  std::size_t total = 0;
  for (const std::size_t c : row_counts) total += c;
  EXPECT_EQ(total, f.g.num_alive());
}

TEST(RankEngineState, SerializeRestoreRoundTrip) {
  const Fixture f = make_fixture(100, 4, 11);
  rt::World world(4);
  std::vector<int> mismatches(4, 0);
  world.run([&](rt::Comm& comm) {
    RankEngine engine(init_for(f, comm.rank()), comm);
    engine.run_ia();
    (void)engine.run_rc();

    rt::ByteWriter w;
    engine.serialize_state(w);
    const auto blob = w.take();

    RankEngine::Init init = init_for(f, comm.rank());
    init.restore_blob = &blob;
    RankEngine twin(init, comm);

    // Same rows, same values, same next hops.
    const DvStore& a = engine.store();
    const DvStore& b = twin.store();
    if (b.size() != a.size()) {
      mismatches[static_cast<std::size_t>(comm.rank())] = 1;
      return;
    }
    for (std::size_t r = 0; r < b.size(); ++r) {
      if (b.self(r) != a.self(r) || b.row(r).dists() != a.row(r).dists() ||
          b.row(r).next_hops() != a.row(r).next_hops() ||
          b.dirty_count(r) != a.dirty_count(r)) {
        ++mismatches[static_cast<std::size_t>(comm.rank())];
      }
    }
    if (!twin.check_invariants().empty()) {
      mismatches[static_cast<std::size_t>(comm.rank())] += 1000;
    }
  });
  for (const int m : mismatches) EXPECT_EQ(m, 0);
}

TEST(RankEngineInvariants, DetectsCorruptedState) {
  // Sanity for the auditor itself: a healthy engine reports nothing; the
  // auditor is exercised against corrupted states indirectly through the
  // chaos tests, so here we just pin the healthy-run contract on all ranks.
  const Fixture f = make_fixture(80, 2, 13);
  rt::World world(2);
  std::vector<std::size_t> violations(2, 99);
  world.run([&](rt::Comm& comm) {
    RankEngine engine(init_for(f, comm.rank()), comm);
    engine.run_ia();
    (void)engine.run_rc();
    violations[static_cast<std::size_t>(comm.rank())] =
        engine.check_invariants().size();
  });
  EXPECT_EQ(violations[0], 0u);
  EXPECT_EQ(violations[1], 0u);
}

}  // namespace
}  // namespace aacc
