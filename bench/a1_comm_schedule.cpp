// Ablation A1 — communication schedule.
//
// The paper serializes its personalized all-to-all ("only one message
// traverses the network at any given time") to avoid flooding, accepting
// O(P^2) steps. This ablation replays the same recorded exchange under the
// three LogGP schedule policies and sweeps the processor count.
//
// Expected shape: serialized ≫ shifted; flood cheapest on modeled time for
// uniform traffic but with the worst instantaneous network load (which is
// what the paper's schedule is designed to bound).
#include "bench_util.hpp"

int main() {
  using namespace aacc;
  using namespace aacc::bench;
  const Scale s = read_scale(/*default_n=*/1500);

  Table table("a1_comm_schedule", "ranks");
  for (const Rank p : {4, 8, 16, 32}) {
    Rng rng(s.seed);
    const Graph g = base_graph(s);
    EngineConfig cfg = make_cfg(s, AssignStrategy::kRoundRobin);
    cfg.num_ranks = p;

    Timer t;
    AnytimeEngine engine(g, cfg);
    const RunResult r = engine.run();
    Row serialized;
    serialized.label = "serialized";
    serialized.x = p;
    serialized.wall_seconds = t.seconds();
    serialized.modeled_seconds =
        modeled_network_seconds(r, rt::SchedulePolicy::kSerialized);
    serialized.mbytes = static_cast<double>(r.stats.total_bytes) / 1e6;
    serialized.rc_steps = r.stats.rc_steps;
    table.add(serialized);

    Row shifted = serialized;
    shifted.label = "shifted";
    shifted.modeled_seconds =
        modeled_network_seconds(r, rt::SchedulePolicy::kShifted);
    table.add(shifted);

    Row flood = serialized;
    flood.label = "flood";
    flood.modeled_seconds =
        modeled_network_seconds(r, rt::SchedulePolicy::kFlood);
    table.add(flood);
  }
  table.print_and_save();
  return 0;
}
