// The shared JSON codec (common/json.hpp): the strict reader's grammar,
// exact integers, typed errors and nesting bound, the writer primitives,
// and a seeded hostile-input mutation test over every decoder built on it
// (progress events, NDJSON mutation lines, bench_diff's flattener and the
// Chrome-trace loader).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/causal.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "serve/stream.hpp"
#include "tools/bench_diff.hpp"

namespace aacc {
namespace {

json::Value parse_ok(const std::string& text) {
  json::Value v;
  EXPECT_EQ(json::parse(text, v), json::Error::kNone) << text;
  return v;
}

// ------------------------------------------------------------------ reader

TEST(JsonReader, AcceptsRfc8259Documents) {
  const json::Value doc = parse_ok(
      " \t\r\n{\"a\" : [1, -2, 0.5, 1E+2, -0.0e0, true, false, null, {}, []],"
      "\"s\":\"q\\\"b\\\\s\\/ \\b\\f\\n\\r\\t \\u00e9 \\ud83d\\ude00 "
      "raw\xc3\xa9\","
      "\"\":{\"nested\":{\"k\":\"v\"}}} \n");
  const json::Value* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(a->array(), nullptr);
  const json::Value::Array& items = *a->array();
  ASSERT_EQ(items.size(), 10u);
  EXPECT_EQ(items[0].integer<int>(), 1);
  EXPECT_EQ(items[1].integer<int>(), -2);
  EXPECT_EQ(items[2].number(), 0.5);
  EXPECT_EQ(items[3].number(), 100.0);
  EXPECT_FALSE(items[3].integer<int>().has_value());  // exponent: a double
  EXPECT_TRUE(std::signbit(*items[4].number()));
  EXPECT_EQ(*items[5].boolean(), true);
  EXPECT_EQ(*items[6].boolean(), false);
  EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(items[7].data));
  EXPECT_TRUE(items[8].object()->empty());
  EXPECT_TRUE(items[9].array()->empty());
  EXPECT_EQ(*doc.find("s")->string(),
            "q\"b\\s/ \b\f\n\r\t \xc3\xa9 \xf0\x9f\x98\x80 raw\xc3\xa9");
  EXPECT_EQ(*doc.find("")->find("nested")->find("k")->string(), "v");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(a->find("a"), nullptr);  // find on a non-object
  // Members keep document order.
  EXPECT_EQ(doc.object()->front().first, "a");
  EXPECT_EQ(doc.object()->back().first, "");
  // Scalars are documents too.
  EXPECT_EQ(*parse_ok("\"x\"").string(), "x");
  EXPECT_EQ(parse_ok("7").integer<int>(), 7);
}

TEST(JsonReader, RejectsWithTypedErrors) {
  using json::Error;
  const std::pair<const char*, Error> cases[] = {
      {"", Error::kSyntax},
      {"   ", Error::kSyntax},
      {"{", Error::kSyntax},
      {"[1,]", Error::kSyntax},
      {"[1 2]", Error::kSyntax},
      {"{\"a\":1,}", Error::kSyntax},
      {"{\"a\" 1}", Error::kSyntax},
      {"{a:1}", Error::kSyntax},
      {"{'a':1}", Error::kSyntax},
      {"[1] x", Error::kSyntax},
      {"[1]]", Error::kSyntax},
      {"tru", Error::kSyntax},
      {"nul", Error::kSyntax},
      {"nan", Error::kSyntax},
      {"-inf", Error::kSyntax},
      {"Infinity", Error::kSyntax},
      {"0x10", Error::kSyntax},
      {"01", Error::kSyntax},
      {"+1", Error::kSyntax},
      {"1.", Error::kSyntax},
      {".5", Error::kSyntax},
      {"1e", Error::kSyntax},
      {"1e+", Error::kSyntax},
      {"-", Error::kSyntax},
      {"\"open", Error::kSyntax},
      {"[1] // comment", Error::kSyntax},
      {"\v1", Error::kSyntax},  // not RFC 8259 whitespace
      {"1e400", Error::kBadNumber},
      {"-1e400", Error::kBadNumber},
      {"1e-400", Error::kBadNumber},
      {"\"tab\there\"", Error::kBadString},
      {"\"\\x41\"", Error::kBadString},
      {"\"\\u12\"", Error::kBadString},
      {"\"\\ud83d\"", Error::kBadString},         // lone high surrogate
      {"\"\\ude00\"", Error::kBadString},         // lone low surrogate
      {"\"\\ud83d\\u0041\"", Error::kBadString},  // high + non-low
      {"{\"a\":1,\"b\":2,\"a\":3}", Error::kDuplicateKey},
  };
  for (const auto& [text, want] : cases) {
    json::Value v;
    EXPECT_EQ(json::parse(text, v), want) << text;
    EXPECT_STRNE(json::describe(want), "");
  }
  // A NUL byte inside a string is a raw control byte.
  json::Value v;
  EXPECT_EQ(json::parse(std::string("\"a\0b\"", 5), v), Error::kBadString);
}

TEST(JsonReader, IntegersStayExact) {
  EXPECT_EQ(parse_ok("9007199254740993").integer<std::uint64_t>(),
            (std::uint64_t{1} << 53) + 1);
  EXPECT_EQ(parse_ok("18446744073709551615").integer<std::uint64_t>(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_ok("-9223372036854775808").integer<std::int64_t>(),
            std::numeric_limits<std::int64_t>::min());
  // Range is per target type.
  EXPECT_EQ(parse_ok("2147483647").integer<std::int32_t>(), 2147483647);
  EXPECT_FALSE(parse_ok("2147483648").integer<std::int32_t>().has_value());
  EXPECT_FALSE(parse_ok("-1").integer<std::uint32_t>().has_value());
  EXPECT_FALSE(parse_ok("18446744073709551615").integer<std::int64_t>());
  // Past 64 bits, with a fraction or an exponent: a double, not an integer.
  const json::Value big = parse_ok("18446744073709551616");
  EXPECT_FALSE(big.integer<std::uint64_t>().has_value());
  EXPECT_EQ(big.number(), 18446744073709551616.0);
  EXPECT_FALSE(parse_ok("-9223372036854775809").integer<std::int64_t>());
  EXPECT_FALSE(parse_ok("1.0").integer<int>().has_value());
  EXPECT_FALSE(parse_ok("1e0").integer<int>().has_value());
  EXPECT_FALSE(parse_ok("-0").integer<int>().has_value());
  EXPECT_FALSE(parse_ok("\"1\"").integer<int>().has_value());
  EXPECT_FALSE(parse_ok("true").number().has_value());
}

TEST(JsonReader, NestingIsBoundedNotRecursedIntoUnboundedly) {
  const auto nest = [](std::size_t depth, bool objects) {
    std::string s;
    for (std::size_t i = 0; i < depth; ++i) s += objects ? "{\"k\":" : "[";
    s += "0";
    for (std::size_t i = 0; i < depth; ++i) s += objects ? "}" : "]";
    return s;
  };
  constexpr auto kMax = static_cast<std::size_t>(json::kMaxDepth);
  json::Value v;
  for (const bool objects : {false, true}) {
    EXPECT_EQ(json::parse(nest(kMax, objects), v), json::Error::kNone);
    EXPECT_EQ(json::parse(nest(kMax + 1, objects), v), json::Error::kTooDeep);
  }
  // Far past the bound (and unbalanced) still fails fast with kTooDeep.
  EXPECT_EQ(json::parse(std::string(2'000'000, '['), v),
            json::Error::kTooDeep);
}

// ------------------------------------------------------------------ writer

std::string write_quoted(std::string_view s) {
  std::ostringstream os;
  os << json::Quoted{s};
  return os.str();
}

TEST(JsonWriter, QuotedEscapesAndRoundTrips) {
  EXPECT_EQ(write_quoted("plain"), "\"plain\"");
  EXPECT_EQ(write_quoted("q\"b\\s/"), "\"q\\\"b\\\\s/\"");
  EXPECT_EQ(write_quoted(std::string("\n\t\x01\x1f", 4)),
            "\"\\u000a\\u0009\\u0001\\u001f\"");
  // Bytes >= 0x20 pass through unchanged.
  EXPECT_EQ(write_quoted("\xc3\xa9\x7f"), "\"\xc3\xa9\x7f\"");
  std::string every_byte;
  for (int c = 1; c < 256; ++c) every_byte.push_back(static_cast<char>(c));
  every_byte.push_back('\0');
  EXPECT_EQ(*parse_ok(write_quoted(every_byte)).string(), every_byte);
}

TEST(JsonWriter, DoublesRoundTripBitExactly) {
  for (const double v :
       {0.0, -0.0, 0.1, 1.0 / 3.0, -2.5e-300, 5e-324, 1e300,
        std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
        12345.678, 9007199254740993.0, -1.0}) {
    std::ostringstream os;
    os << json::Double{v};
    const auto back = parse_ok(os.str()).number();
    ASSERT_TRUE(back.has_value()) << os.str();
    EXPECT_EQ(std::memcmp(&*back, &v, sizeof v), 0) << os.str();
  }
  std::ostringstream os;
  os << json::Double{0.1} << ' ' << json::Double{-1.0} << ' '
     << json::Double{1e-7};
  EXPECT_EQ(os.str(), "0.10000000000000001 -1 9.9999999999999995e-08");
}

// ------------------------------------------------- hostile-input mutation

enum class Outcome { kRejected, kRoundTrips, kBroken };

Outcome outcome(bool round_trips) {
  return round_trips ? Outcome::kRoundTrips : Outcome::kBroken;
}

/// One decoder under test: decode `text`; when it is accepted, re-encode
/// the value, decode that again and check the second encoding reproduces
/// itself.
using DecodeCheck = Outcome (*)(const std::string& text);

Outcome check_progress(const std::string& text) {
  obs::ProgressEvent ev;
  if (!obs::parse_progress_event(text, ev)) return Outcome::kRejected;
  const std::string line = obs::to_ndjson(ev);
  obs::ProgressEvent back;
  return outcome(obs::parse_progress_event(line, back) &&
                 obs::to_ndjson(back) == line);
}

Outcome check_mutation(const std::string& text) {
  serve::StreamCommand cmd;
  if (!serve::parse_mutation_line(text, cmd)) return Outcome::kRejected;
  const auto encode = [](const serve::StreamCommand& c) {
    return c.commit ? serve::commit_ndjson() : serve::event_to_ndjson(c.event);
  };
  const std::string line = encode(cmd);
  serve::StreamCommand back;
  return outcome(serve::parse_mutation_line(line, back) &&
                 encode(back) == line);
}

Outcome check_flatten(const std::string& text) {
  std::map<std::string, double> flat;
  if (!tools::flatten_json(text, flat)) return Outcome::kRejected;
  std::ostringstream os;
  os << '{';
  for (auto it = flat.begin(); it != flat.end(); ++it) {
    os << (it == flat.begin() ? "" : ",") << json::Quoted{it->first} << ':'
       << json::Double{it->second};
  }
  os << '}';
  std::map<std::string, double> back;
  return outcome(tools::flatten_json(os.str(), back) && back == flat);
}

std::string encode_trace(const std::vector<obs::CausalEvent>& events) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::CausalEvent& e = events[i];
    os << (i == 0 ? "" : ",") << "{\"name\":" << json::Quoted{e.name}
       << ",\"ph\":\"" << e.ph << "\",\"pid\":" << e.pid
       << ",\"tid\":" << e.tid << ",\"ts\":" << json::Double{e.ts_us};
    if (e.has_arg) {
      os << ",\"args\":{" << json::Quoted{e.arg_name} << ':' << e.arg << '}';
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

Outcome check_trace(const std::string& text) {
  std::vector<obs::CausalEvent> events;
  std::istringstream in(text);
  if (!obs::load_chrome_trace(in, events)) return Outcome::kRejected;
  const std::string doc = encode_trace(events);
  std::vector<obs::CausalEvent> back;
  std::istringstream again(doc);
  return outcome(obs::load_chrome_trace(again, back) &&
                 encode_trace(back) == doc);
}

std::vector<std::string> progress_corpus() {
  obs::ProgressEvent ev;
  ev.phase = "rc_step";
  ev.step = 4;
  ev.ranks = 3;
  ev.dirty = 12;
  ev.dirty_fraction = 0.125;
  ev.bytes = 9007199254740993ull;
  ev.blocked_on_rank = 1;
  ev.blocked_on_seconds = 1e-6;
  ev.has_serve = true;
  ev.serve_queries = 10;
  ev.has_estimators = true;
  ev.topk_overlap = 0.5;
  ev.kendall_tau = -0.25;
  ev.top = {4, 0, 2};
  obs::ProgressEvent rec;
  rec.phase = "recovery";
  rec.detail = "rollback";
  return {obs::to_ndjson(ev), obs::to_ndjson(rec),
          "{\"v\":1,\"phase\":\"ia\",\"future\":{\"a\":[1,{\"b\":null}]}}"};
}

std::vector<std::string> mutation_corpus() {
  return {serve::event_to_ndjson(EdgeAddEvent{3, 9, 2}),
          serve::event_to_ndjson(WeightChangeEvent{1, 2, 5}),
          serve::event_to_ndjson(VertexAddEvent{12, {{0, 1}, {3, 4}}}),
          serve::event_to_ndjson(VertexDeleteEvent{6}), serve::commit_ndjson(),
          R"({"op":"del_edge","u":1,"v":2,"meta":{"ts":1.5,"ok":true}})"};
}

std::vector<std::string> bench_corpus() {
  return {R"({"cases":[{"name":"ba","wall_s":1.5,"ok":true,"n":null},)"
          R"({"name":"er","wall_s":2.25e-3,"ok":false}],"host":{"cores":4}})",
          R"([1,-2,3.5e2,{"a":[[]]}])"};
}

std::vector<std::string> trace_corpus() {
  obs::TraceConfig cfg;
  cfg.enabled = true;
  cfg.logical_clock = true;
  cfg.track_capacity = 16;
  obs::Tracer tracer(2, 0, cfg);
  const std::uint64_t id = obs::pack_flow_id(0, 0, 1, 1);
  tracer.track(0).begin("rc_step", "step", 1);
  tracer.track(0).instant("flow:send", "flow", id);
  tracer.track(0).end("rc_step");
  tracer.track(1).instant("flow:recv", "flow", id);
  tracer.track(1).begin("drain");
  std::ostringstream os;
  obs::write_chrome_trace(os, tracer.merge());
  return {os.str()};
}

/// One random edit: byte flips, a truncation, a splice from `donor`, or a
/// number swapped for a hostile one.
std::string mutate(std::string s, const std::string& donor, Rng& rng) {
  static const char* const kNumbers[] = {
      "1e300", "-1", "1e12", "18446744073709551616", "9007199254740993",
      "-0", "1.5", "nan", "inf", "1e400", "0x10", "00", "-9223372036854775809",
      "4294967295", "2147483648", "1e-400", "1E2", "0.0"};
  static const char kSignificant[] = "{}[]:,\"\\-0123456789.eEtfnu \x01\xff";
  if (s.empty()) return donor;
  switch (rng.next_below(4)) {
    case 0: {  // flip 1..4 bytes
      const std::uint64_t flips = rng.next_in(1, 4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        char& c = s[rng.next_below(s.size())];
        c = rng.next_bool(0.5)
                ? static_cast<char>(rng.next_below(256))
                : kSignificant[rng.next_below(sizeof(kSignificant) - 1)];
      }
      return s;
    }
    case 1:  // truncate
      return s.substr(0, rng.next_below(s.size()));
    case 2: {  // splice a slice of the donor over a slice of s
      const std::size_t at = rng.next_below(s.size() + 1);
      const std::size_t cut = rng.next_below(s.size() - at + 1);
      const std::size_t from = rng.next_below(donor.size() + 1);
      const std::size_t len = rng.next_below(donor.size() - from + 1);
      return s.replace(at, cut, donor, from, len);
    }
    default: {  // swap one number token
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i < s.size(); ++i) {
        const bool digit = (s[i] >= '0' && s[i] <= '9') || s[i] == '-';
        const bool after = i > 0 && ((s[i - 1] >= '0' && s[i - 1] <= '9') ||
                                     s[i - 1] == '-' || s[i - 1] == '.');
        if (digit && !after) starts.push_back(i);
      }
      if (starts.empty()) return s;
      const std::size_t at = starts[rng.next_below(starts.size())];
      std::size_t end = at + 1;
      while (end < s.size() &&
             std::string_view("0123456789.eE+-").find(s[end]) !=
                 std::string_view::npos) {
        ++end;
      }
      const char* swap = kNumbers[rng.next_below(std::size(kNumbers))];
      return s.replace(at, end - at, swap);
    }
  }
}

TEST(HostileInput, SeededMutationsOverEveryDecoder) {
  // Every decoder that reads JSON from outside the process must return
  // false or a value that re-encodes to a document it reads back to the
  // same encoding — never crash, hang or hit undefined behaviour (this test
  // runs in the ASan/UBSan build too). Fixed seed and iteration count.
  struct Target {
    const char* name;
    DecodeCheck check;
    std::vector<std::string> corpus;
  };
  const Target targets[] = {
      {"progress", check_progress, progress_corpus()},
      {"mutation", check_mutation, mutation_corpus()},
      {"flatten", check_flatten, bench_corpus()},
      {"chrome", check_trace, trace_corpus()},
  };
  std::vector<std::string> donors;
  for (const Target& t : targets) {
    donors.insert(donors.end(), t.corpus.begin(), t.corpus.end());
  }
  constexpr int kIterations = 10000;  // per decoder
  Rng rng(0x15a0c0de);
  for (const Target& t : targets) {
    for (const std::string& seed : t.corpus) {
      ASSERT_EQ(t.check(seed), Outcome::kRoundTrips) << t.name << ": " << seed;
    }
    std::size_t accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
      std::string input = t.corpus[rng.next_below(t.corpus.size())];
      const std::uint64_t rounds = rng.next_in(1, 3);
      for (std::uint64_t r = 0; r < rounds; ++r) {
        input = mutate(std::move(input),
                       donors[rng.next_below(donors.size())], rng);
      }
      const Outcome o = t.check(input);
      ASSERT_NE(o, Outcome::kBroken) << t.name << ": " << input;
      accepted += o == Outcome::kRoundTrips ? 1 : 0;
    }
    // Some mutants must survive, or the round-trip half never ran.
    EXPECT_GT(accepted, 0u) << t.name;
  }
}

}  // namespace
}  // namespace aacc
