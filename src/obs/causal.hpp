// Causal trace stitching (docs/OBSERVABILITY.md §Causal flows).
//
// Flow ids ride the wire: every transport frame carries a packed 64-bit id
// `{src_rank, attempt, step, seq}`; the sender records a `flow:send`
// instant and the receiver a `flow:recv` instant with the same id. This
// module stitches the merged per-rank trace into a causal DAG — flow edges
// between ranks, program order within a rank — and computes the critical
// path of each RC epoch: the single chain of (compute, wire) segments that
// determined the step's makespan, attributed as "blocked on rank r /
// phase p for t seconds".
//
// Timestamps: the critical-path walk needs cross-track comparable clocks.
// Wall-clock traces share one CLOCK_MONOTONIC epoch, so attribution times
// are real seconds. Logical-clock traces tick per track — flow *edges*
// (matching, attempt isolation, re-homing) are still exact, but step
// attribution is skipped because tick counts are not comparable across
// ranks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace aacc::obs {

class Trace;

// ------------------------------------------------------------- flow ids
//
// Packed layout (additive wire v2.2; 0 is reserved for "unstamped"):
//   bits 52..63  src rank   (12 bits, P <= 4096)
//   bits 44..51  attempt    (8 bits; bumps on every contained run, so a
//                            rollback replay can never match pre-rollback
//                            sends — attempt isolation is structural)
//   bits 24..43  step       (20 bits, RC step the sender was in)
//   bits  0..23  seq        (24 bits, per-sender monotone, starts at 1)

struct FlowParts {
  std::int32_t src = 0;
  std::uint32_t attempt = 0;
  std::uint32_t step = 0;
  std::uint32_t seq = 0;
};

constexpr std::uint64_t pack_flow_id(std::int32_t src, std::uint32_t attempt,
                                     std::uint32_t step, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src) & 0xfffu)
          << 52) |
         (static_cast<std::uint64_t>(attempt & 0xffu) << 44) |
         (static_cast<std::uint64_t>(step & 0xfffffu) << 24) |
         static_cast<std::uint64_t>(seq & 0xffffffu);
}

constexpr FlowParts unpack_flow_id(std::uint64_t id) {
  FlowParts p;
  p.src = static_cast<std::int32_t>((id >> 52) & 0xfffu);
  p.attempt = static_cast<std::uint32_t>((id >> 44) & 0xffu);
  p.step = static_cast<std::uint32_t>((id >> 24) & 0xfffffu);
  p.seq = static_cast<std::uint32_t>(id & 0xffffffu);
  return p;
}

// --------------------------------------------------------- causal model

/// One trace event in the stitcher's neutral representation — either
/// converted from an in-memory Trace or parsed back out of a Chrome trace
/// JSON file (`load_chrome_trace`).
struct CausalEvent {
  std::int32_t pid = 0;  ///< rank, or kDriverPid
  std::int32_t tid = 0;  ///< 0 = rank main track
  std::string name;
  char ph = 'i';  ///< 'B', 'E', or 'i'
  double ts_us = 0.0;
  bool has_arg = false;
  std::string arg_name;
  std::uint64_t arg = 0;
};

/// A matched flow:send -> flow:recv pair: one cross-rank DAG edge.
struct FlowEdge {
  std::int32_t src_rank = 0;
  std::int32_t dst_rank = 0;
  std::uint32_t attempt = 0;
  std::uint32_t step = 0;
  std::uint32_t seq = 0;
  double send_ts_us = 0.0;
  double recv_ts_us = 0.0;
};

/// One (rank, phase, seconds) segment of a step's critical path. `phase`
/// is the innermost open span at that time on the rank's main track
/// ("idle" when none), or the synthetic phase "wire" for the in-flight
/// interval of a flow edge (attributed to the sending rank).
struct PhaseCost {
  std::int32_t rank = -1;
  std::string phase;
  double seconds = 0.0;
};

/// Critical-path attribution of one RC epoch. The makespan window is
/// [earliest rank begin, latest rank end] of the step's `rc_step` spans;
/// the backward walk from the straggler's end partitions that window
/// exactly, so critical_path_seconds == makespan_seconds by construction.
struct StepAttribution {
  std::size_t step = 0;
  double makespan_seconds = 0.0;
  double critical_path_seconds = 0.0;
  std::int32_t straggler = -1;  ///< rank whose rc_step span ended last
  /// Aggregated per (rank, phase), largest first.
  std::vector<PhaseCost> blocked_on;
  /// The chain in walk order: straggler backward to the window start.
  std::vector<PhaseCost> chain;
};

/// The stitched result: flow-edge accounting plus per-step attribution.
struct CausalAnalysis {
  std::size_t events = 0;
  std::size_t flow_sends = 0;
  std::size_t flow_recvs = 0;
  std::size_t matched_edges = 0;
  /// Unmatched sends in a trace that contains recovery instants: the
  /// message's receiver died (or the sender's attempt was abandoned) and
  /// the shard was re-homed — expected, not a stitching bug.
  std::size_t rehomed_sends = 0;
  /// Unmatched sends with no recovery in the trace — a genuinely dangling
  /// message (dropped past retry, or a trace-ring overflow ate the recv).
  std::size_t dangling_sends = 0;
  /// Recvs whose send instant is missing (trace-ring overflow).
  std::size_t unmatched_recvs = 0;
  bool wall_clock = true;  ///< false = logical ticks; attribution skipped
  std::vector<FlowEdge> edges;
  std::vector<StepAttribution> steps;
};

/// Stitches an in-memory merged trace (RunResult::trace). Pass
/// `wall_clock = false` for logical-clock traces (TraceConfig knows).
[[nodiscard]] CausalAnalysis analyze_causal(const Trace& trace,
                                            bool wall_clock = true);

/// Stitches a neutral event list (the Chrome-trace-JSON path).
[[nodiscard]] CausalAnalysis analyze_causal(
    const std::vector<CausalEvent>& events, bool wall_clock = true);

/// Parses a Chrome trace JSON document (as written by write_chrome_trace;
/// any layout and key order) back into the neutral event list, appended to
/// `out` in traceEvents order. Metadata and Perfetto flow events are
/// skipped. Returns false, appending nothing, when the document is
/// malformed, a B/E/i event lacks a string name, integer pid/tid or a
/// numeric ts, or no such event is present.
bool load_chrome_trace(std::istream& is, std::vector<CausalEvent>& out);

/// Deterministic JSON report: flow accounting + the attribution table.
void write_attribution_json(std::ostream& os, const CausalAnalysis& a);

/// Human-readable report naming the top-k straggler chains (steps with
/// the largest makespan), for `aacc analyze --critical-path`.
void write_attribution_report(std::ostream& os, const CausalAnalysis& a,
                              std::size_t top_k);

}  // namespace aacc::obs
