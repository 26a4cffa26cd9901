// NDJSON mutation stream codec for `aacc serve` (docs/API.md §"Serving
// sessions", README §Serving quickstart).
//
// One JSON object per line, one of:
//   {"op":"add_edge","u":1,"v":2,"w":1}
//   {"op":"del_edge","u":1,"v":2}
//   {"op":"set_weight","u":1,"v":2,"w":3}
//   {"op":"add_vertex","id":7,"edges":[[1,1],[2,4]]}
//   {"op":"del_vertex","v":7}
//   {"op":"commit"}
// `commit` is a batch boundary: everything since the previous commit is
// ingested as one EventBatch.
//
// Line contract: each line is one RFC 8259 JSON object, read by the strict
// reader in common/json.hpp (standard string escapes, no nan/inf/hex, no
// repeated keys, bounded nesting). Ids are integer literals below kNoVertex;
// weights are integer literals >= 1 that fit Weight (common/types.hpp); a
// fraction or exponent is rejected, not truncated. A known field with a bad
// value rejects the line whatever the op. Unknown fields of any JSON type
// are ignored; unknown ops are rejected.
#pragma once

#include <string>

#include "core/events.hpp"

namespace aacc::serve {

/// One parsed line: a batch boundary or an event.
struct StreamCommand {
  bool commit = false;
  Event event;  ///< valid only when !commit
};

/// Parses one mutation line. Returns false on malformed input, an unknown
/// op, or out-of-range numbers (the line is then skipped by callers that
/// tolerate noise, or reported — the parser itself never throws).
bool parse_mutation_line(const std::string& line, StreamCommand& out);

/// Serializes one event as a mutation line (no trailing newline);
/// round-trips through parse_mutation_line.
[[nodiscard]] std::string event_to_ndjson(const Event& e);

/// The batch-boundary line.
[[nodiscard]] std::string commit_ndjson();

}  // namespace aacc::serve
