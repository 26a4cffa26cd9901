#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/json.hpp"
#include "core/engine.hpp"

namespace aacc {

void RunStats::to_json(std::ostream& os, bool include_steps) const {
  using json::Double;
  using json::Quoted;
  os << "{\"wall_seconds\":" << Double{wall_seconds}
     << ",\"dd_seconds\":" << Double{dd_seconds}
     << ",\"total_cpu_seconds\":" << Double{total_cpu_seconds}
     << ",\"max_rank_cpu_seconds\":" << Double{max_rank_cpu_seconds}
     << ",\"cpu_by_phase\":{";
  bool first = true;
  for (const auto& [phase, secs] : cpu_by_phase) {
    if (!first) os << ",";
    first = false;
    os << Quoted{phase} << ":" << Double{secs};
  }
  os << "},\"total_bytes\":" << total_bytes
     << ",\"total_messages\":" << total_messages
     << ",\"frame_overhead_bytes\":" << frame_overhead_bytes
     << ",\"retransmits\":" << retransmits
     << ",\"rc_steps\":" << rc_steps
     << ",\"rc_drain_cpu_seconds\":" << Double{rc_drain_cpu_seconds}
     << ",\"rc_exchange_wait_seconds\":" << Double{rc_exchange_wait_seconds}
     << ",\"rc_blocked_on_seconds\":" << Double{rc_blocked_on_seconds}
     << ",\"rc_blocked_on\":[";
  first = true;
  for (const auto& [rank, secs] : rc_blocked_on_by_rank) {
    if (!first) os << ",";
    first = false;
    os << "{\"rank\":" << rank << ",\"seconds\":" << Double{secs} << "}";
  }
  os << "],\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histogram_summary) {
    if (!first) os << ",";
    first = false;
    os << Quoted{name} << ":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"p50\":" << Double{h.p50} << ",\"p95\":" << Double{h.p95}
       << ",\"p99\":" << Double{h.p99} << "}";
  }
  os << "},\"recoveries\":" << recoveries << ",\"recovery_log\":[";
  for (std::size_t i = 0; i < recovery_log.size(); ++i) {
    const RecoveryRecord& r = recovery_log[i];
    if (i != 0) os << ",";
    os << "{\"kind\":" << Quoted{r.kind} << ",\"at_step\":" << r.at_step
       << ",\"mttr_seconds\":" << Double{r.mttr_seconds} << "}";
  }
  os << "],\"invariant_violations\":" << invariant_violations
     << ",\"cut_edges_initial\":" << cut_edges_initial
     << ",\"cut_edges_final\":" << cut_edges_final
     << ",\"imbalance_final\":" << Double{imbalance_final}
     << ",\"dv_resident_bytes\":" << dv_resident_bytes
     << ",\"dv_cold_bytes\":" << dv_cold_bytes
     << ",\"dv_promotions\":" << dv_promotions
     << ",\"dv_demotions\":" << dv_demotions
     << ",\"dv_decode_seconds\":" << Double{dv_decode_seconds};
  if (include_steps) {
    os << ",\"steps\":[";
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const StepStats& s = steps[i];
      if (i != 0) os << ",";
      os << "{\"step\":" << s.step << ",\"bytes\":" << s.bytes
         << ",\"max_cpu_seconds\":" << Double{s.max_cpu_seconds}
         << ",\"sum_cpu_seconds\":" << Double{s.sum_cpu_seconds}
         << ",\"relaxations\":" << s.relaxations
         << ",\"poisons\":" << s.poisons << ",\"repairs\":" << s.repairs
         << ",\"sum_drain_cpu_seconds\":" << Double{s.sum_drain_cpu_seconds}
         << ",\"sum_exchange_wait_seconds\":"
         << Double{s.sum_exchange_wait_seconds}
         << ",\"blocked_on_rank\":" << s.blocked_on_rank
         << ",\"blocked_seconds\":" << Double{s.max_blocked_seconds} << "}";
    }
    os << "]";
  }
  os << "}";
}

std::string RunStats::to_json(bool include_steps) const {
  std::ostringstream os;
  to_json(os, include_steps);
  return os.str();
}

std::string RunStats::summary() const {
  std::uint64_t relaxations = 0;
  std::uint64_t poisons = 0;
  std::uint64_t repairs = 0;
  for (const StepStats& s : steps) {
    relaxations += s.relaxations;
    poisons += s.poisons;
    repairs += s.repairs;
  }
  char buf[512];
  std::ostringstream os;
  std::snprintf(buf, sizeof(buf),
                "wall %.3f s  (dd %.3f s)  cpu %.3f s\n", wall_seconds,
                dd_seconds, total_cpu_seconds);
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "rc steps %zu  relaxations %llu  poisons %llu  repairs %llu\n",
                rc_steps, static_cast<unsigned long long>(relaxations),
                static_cast<unsigned long long>(poisons),
                static_cast<unsigned long long>(repairs));
  os << buf;
  std::snprintf(buf, sizeof(buf), "traffic %.2f MB in %llu msgs\n",
                static_cast<double>(total_bytes) / 1e6,
                static_cast<unsigned long long>(total_messages));
  os << buf;
  if (retransmits > 0 || frame_overhead_bytes > 0 || recoveries > 0) {
    std::snprintf(buf, sizeof(buf),
                  "transport: frame overhead %llu B  retransmits %llu  "
                  "recoveries %zu\n",
                  static_cast<unsigned long long>(frame_overhead_bytes),
                  static_cast<unsigned long long>(retransmits), recoveries);
    os << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "cut edges %zu -> %zu  imbalance %.3f  drain cpu %.3f s",
                cut_edges_initial, cut_edges_final, imbalance_final,
                rc_drain_cpu_seconds);
  os << buf;
  return os.str();
}

bool write_stats_json(const std::string& path, const RunStats& stats) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  stats.to_json(os);
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace aacc
