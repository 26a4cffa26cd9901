// Ablation A4 — automatic rebalancing (this repository's implementation of
// the paper's stated future work: "graph rebalancing strategies to deal
// with load imbalances caused by [deletions]").
//
// Workload: delete an id-contiguous slab of vertices (hollowing out the
// block partition's first ranks), then keep analysing while a batch of new
// vertices arrives. Compares no-rebalancing against threshold-triggered
// repartitioning: final imbalance, traffic, time.
#include "bench_util.hpp"

int main() {
  using namespace aacc;
  using namespace aacc::bench;
  const Scale s = read_scale(/*default_n=*/1500);
  const Graph g = base_graph(s);
  std::printf("a4: n=%u m=%zu P=%d (extra column: final imbalance x1000)\n",
              s.n, g.num_edges(), s.p);

  // Slab deletion + later growth.
  EventSchedule sched;
  {
    EventBatch slab;
    slab.at_step = 1;
    for (VertexId v = 0; v < s.n / 4; ++v) {
      slab.events.emplace_back(VertexDeleteEvent{v});
    }
    sched.push_back(std::move(slab));
    Graph cursor = g;
    apply_schedule(cursor, sched);
    Rng rng(s.seed);
    EventBatch growth;
    growth.at_step = 4;
    growth.events = community_vertex_batch(cursor, s.n / 20, 4, rng);
    sched.push_back(std::move(growth));
  }

  Table table("a4_rebalance", "threshold", "imbalance_x1000");
  for (const double threshold : {0.0, 1.5, 1.2}) {
    EngineConfig cfg = make_cfg(s, AssignStrategy::kRoundRobin);
    cfg.dd_partitioner = PartitionerKind::kBlock;  // slab hits few ranks
    cfg.rebalance_threshold = threshold;
    Timer t;
    AnytimeEngine engine(g, cfg);
    const RunResult r = engine.run(sched);
    Row row;
    row.label = threshold == 0.0 ? "off" : "thr=" + std::to_string(threshold).substr(0, 3);
    row.x = threshold;
    row.wall_seconds = t.seconds();
    row.modeled_seconds = modeled_makespan_seconds(r);
    row.mbytes = static_cast<double>(r.stats.total_bytes) / 1e6;
    row.rc_steps = r.stats.rc_steps;
    row.extra = r.stats.imbalance_final * 1000.0;
    table.add(row);
  }
  table.print_and_save();
  return 0;
}
