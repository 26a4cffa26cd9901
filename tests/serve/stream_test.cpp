// NDJSON mutation codec: round-trips, batch boundaries, malformed input.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>

#include "serve/stream.hpp"

namespace aacc {
namespace {

using serve::StreamCommand;
using serve::commit_ndjson;
using serve::event_to_ndjson;
using serve::parse_mutation_line;

StreamCommand parse_ok(const std::string& line) {
  StreamCommand cmd;
  EXPECT_TRUE(parse_mutation_line(line, cmd)) << line;
  return cmd;
}

TEST(StreamCodec, RoundTripsEveryEventKind) {
  const std::vector<Event> events = {
      EdgeAddEvent{3, 9, 2},
      EdgeDeleteEvent{4, 7},
      WeightChangeEvent{1, 2, 5},
      VertexAddEvent{12, {{0, 1}, {3, 4}}},
      VertexAddEvent{13, {}},
      VertexDeleteEvent{6},
  };
  for (const Event& e : events) {
    const std::string line = event_to_ndjson(e);
    const StreamCommand cmd = parse_ok(line);
    ASSERT_FALSE(cmd.commit) << line;
    EXPECT_EQ(event_to_ndjson(cmd.event), line);
  }
}

TEST(StreamCodec, ParsesHandwrittenLines) {
  StreamCommand cmd = parse_ok(R"({"op":"add_edge","u":1,"v":2})");
  const auto& add = std::get<EdgeAddEvent>(cmd.event);
  EXPECT_EQ(add.u, 1u);
  EXPECT_EQ(add.v, 2u);
  EXPECT_EQ(add.w, 1u);  // weight defaults to 1

  cmd = parse_ok(R"(  { "op" : "del_vertex" , "v" : 9 }  )");
  EXPECT_EQ(std::get<VertexDeleteEvent>(cmd.event).v, 9u);

  cmd = parse_ok(R"({"op":"add_vertex","id":5,"edges":[[1,2]]})");
  const auto& va = std::get<VertexAddEvent>(cmd.event);
  EXPECT_EQ(va.id, 5u);
  ASSERT_EQ(va.edges.size(), 1u);
  EXPECT_EQ(va.edges[0].first, 1u);
  EXPECT_EQ(va.edges[0].second, 2u);

  // Unknown scalar fields are tolerated (forward compatibility).
  cmd = parse_ok(R"({"op":"del_edge","u":1,"v":2,"note":"x","ts":123})");
  EXPECT_EQ(std::get<EdgeDeleteEvent>(cmd.event).u, 1u);

  // ... as are unknown fields of every other JSON type, and strings with
  // standard escapes (stream.hpp's contract).
  for (const char* line : {
           R"({"op":"del_edge","u":1,"v":2,"meta":{"src":[1,{"k":null}]}})",
           R"({"op":"del_edge","u":1,"v":2,"ts":1.5})",
           R"({"op":"del_edge","u":1,"v":2,"ok":true})",
           R"({"op":"del_edge","u":1,"v":2,"tag":null})",
           R"({"op":"del_edge","u":1,"v":2,"note":"a\/b"})",
       }) {
    cmd = parse_ok(line);
    const auto& del = std::get<EdgeDeleteEvent>(cmd.event);
    EXPECT_EQ(del.u, 1u) << line;
    EXPECT_EQ(del.v, 2u) << line;
  }
}

TEST(StreamCodec, GoldenLines) {
  // Pinned bytes: feeds written by one build are read by another, so a
  // change to the encoding must be deliberate.
  const std::pair<Event, const char*> cases[] = {
      {EdgeAddEvent{3, 9, 2}, R"({"op":"add_edge","u":3,"v":9,"w":2})"},
      {EdgeDeleteEvent{4, 7}, R"({"op":"del_edge","u":4,"v":7})"},
      {WeightChangeEvent{1, 2, 5}, R"({"op":"set_weight","u":1,"v":2,"w":5})"},
      {VertexAddEvent{12, {{0, 1}, {3, 4}}},
       R"({"op":"add_vertex","id":12,"edges":[[0,1],[3,4]]})"},
      {VertexAddEvent{13, {}}, R"({"op":"add_vertex","id":13,"edges":[]})"},
      {VertexDeleteEvent{4294967294u}, R"({"op":"del_vertex","v":4294967294})"},
  };
  for (const auto& [event, line] : cases) {
    EXPECT_EQ(event_to_ndjson(event), line);
  }
  EXPECT_EQ(commit_ndjson(), R"({"op":"commit"})");
}

TEST(StreamCodec, CommitIsABatchBoundary) {
  EXPECT_TRUE(parse_ok(commit_ndjson()).commit);
  EXPECT_TRUE(parse_ok(R"({"op":"commit"})").commit);
}

TEST(StreamCodec, RejectsMalformedLines) {
  StreamCommand cmd;
  const char* bad[] = {
      "",                                        // empty
      "add_edge 1 2",                            // not JSON
      R"({"op":"warp","u":1,"v":2})",            // unknown op
      R"({"op":"add_edge","u":1})",              // missing endpoint
      R"({"op":"add_edge","u":1,"v":2,"w":0})",  // weight < 1
      R"({"op":"set_weight","u":1,"v":2})",      // missing weight
      R"({"op":"add_vertex"})",                  // missing id
      R"({"op":"del_edge","u":-1,"v":2})",       // negative id
      R"({"op":"add_edge","u":1,"v":2} extra)",  // trailing garbage
      R"({"u":1,"v":2})",                        // no op at all
      R"({"op":"add_edge","u":1.5,"v":2})",      // fractional id
      R"({"op":"add_edge","u":1,"v":2,"w":1e0})",  // exponent weight
      R"({"op":"del_vertex","v":4294967295})",   // the kNoVertex sentinel
      R"({"op":"add_vertex","id":5,"edges":[[1]]})",  // edge without weight
      R"({"op":"commit","op":"del_vertex","v":1})",   // repeated key
  };
  for (const char* line : bad) {
    EXPECT_FALSE(parse_mutation_line(line, cmd)) << line;
  }
  // An unknown field nested past the reader's depth bound.
  const std::string deep = R"({"op":"commit","meta":)" +
                           std::string(100, '[') + std::string(100, ']') + "}";
  EXPECT_FALSE(parse_mutation_line(deep, cmd));
}

}  // namespace
}  // namespace aacc
