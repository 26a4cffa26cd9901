// Ablation A2 — DD partitioner quality.
//
// Swaps the domain-decomposition partitioner (multilevel vs BFS vs hash vs
// block vs round-robin) and measures the downstream effect on the whole
// pipeline: initial cut, RC traffic, time to converge.
//
// Expected shape: cut size drives RC bytes almost linearly; multilevel and
// BFS (locality-aware) beat the blind partitioners.
#include "bench_util.hpp"

int main() {
  using namespace aacc;
  using namespace aacc::bench;
  const Scale s = read_scale(/*default_n=*/1500);
  const Graph g = base_graph(s);
  std::printf("a2: n=%u m=%zu P=%d (extra column: initial cut edges)\n", s.n,
              g.num_edges(), s.p);

  Table table("a2_partitioner_ablation", "kind_index", "initial_cut");
  int idx = 0;
  for (const PartitionerKind kind :
       {PartitionerKind::kMultilevel, PartitionerKind::kBfs,
        PartitionerKind::kBlock, PartitionerKind::kHash,
        PartitionerKind::kRoundRobin}) {
    EngineConfig cfg = make_cfg(s, AssignStrategy::kRoundRobin);
    cfg.dd_partitioner = kind;

    Timer t;
    AnytimeEngine engine(g, cfg);
    const RunResult r = engine.run();
    Row row;
    row.label = partitioner_name(kind);
    row.x = idx++;
    row.wall_seconds = t.seconds();
    row.modeled_seconds = modeled_makespan_seconds(r);
    row.mbytes = static_cast<double>(r.stats.total_bytes) / 1e6;
    row.rc_steps = r.stats.rc_steps;
    row.extra = static_cast<double>(r.stats.cut_edges_initial);
    table.add(row);
  }
  table.print_and_save();
  return 0;
}
