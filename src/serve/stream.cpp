#include "serve/stream.hpp"

#include <sstream>

#include "common/json.hpp"

namespace aacc::serve {

bool parse_mutation_line(const std::string& line, StreamCommand& out) {
  json::Value doc;
  if (json::parse(line, doc) != json::Error::kNone) return false;
  // Known fields are validated whatever the op; which ones are required
  // depends on the op. Any other member is ignored.
  const auto has = [&doc](const char* key) { return doc.find(key) != nullptr; };
  std::string op;  // absent: rejected below as an unknown op
  VertexId u = 0, v = 0, id = 0;
  Weight w = 1;  // add_edge's default
  if (!json::read_field(doc, "op", op) || !json::read_field(doc, "u", u) ||
      !json::read_field(doc, "v", v) ||
      !json::read_field(doc, "id", id) || !json::read_field(doc, "w", w) ||
      u == kNoVertex || v == kNoVertex || id == kNoVertex || w < 1) {
    return false;
  }
  std::vector<std::pair<VertexId, Weight>> edges;
  if (const json::Value* list = doc.find("edges"); list != nullptr) {
    if (list->array() == nullptr) return false;
    for (const json::Value& pair : *list->array()) {  // [[v,w],...]
      const json::Value::Array* vw = pair.array();
      if (vw == nullptr || vw->size() != 2) return false;
      const auto ev = (*vw)[0].integer<VertexId>();
      const auto ew = (*vw)[1].integer<Weight>();
      if (!ev || !ew || *ev == kNoVertex || *ew < 1) return false;
      edges.emplace_back(*ev, *ew);
    }
  }
  out = StreamCommand{};
  if (op == "commit") {
    out.commit = true;
    return true;
  }
  if (op == "add_edge") {
    if (!has("u") || !has("v")) return false;
    out.event = EdgeAddEvent{u, v, w};
    return true;
  }
  if (op == "del_edge") {
    if (!has("u") || !has("v")) return false;
    out.event = EdgeDeleteEvent{u, v};
    return true;
  }
  if (op == "set_weight") {
    if (!has("u") || !has("v") || !has("w")) return false;
    out.event = WeightChangeEvent{u, v, w};
    return true;
  }
  if (op == "add_vertex") {
    if (!has("id")) return false;
    out.event = VertexAddEvent{id, std::move(edges)};
    return true;
  }
  if (op == "del_vertex") {
    if (!has("v")) return false;
    out.event = VertexDeleteEvent{v};
    return true;
  }
  return false;  // unknown op
}

std::string event_to_ndjson(const Event& e) {
  std::ostringstream os;
  std::visit(
      [&](const auto& ev) {
        using T = std::decay_t<decltype(ev)>;
        if constexpr (std::is_same_v<T, EdgeAddEvent>) {
          os << "{\"op\":\"add_edge\",\"u\":" << ev.u << ",\"v\":" << ev.v
             << ",\"w\":" << ev.w << '}';
        } else if constexpr (std::is_same_v<T, EdgeDeleteEvent>) {
          os << "{\"op\":\"del_edge\",\"u\":" << ev.u << ",\"v\":" << ev.v
             << '}';
        } else if constexpr (std::is_same_v<T, WeightChangeEvent>) {
          os << "{\"op\":\"set_weight\",\"u\":" << ev.u << ",\"v\":" << ev.v
             << ",\"w\":" << ev.w_new << '}';
        } else if constexpr (std::is_same_v<T, VertexAddEvent>) {
          os << "{\"op\":\"add_vertex\",\"id\":" << ev.id << ",\"edges\":[";
          for (std::size_t i = 0; i < ev.edges.size(); ++i) {
            if (i != 0) os << ',';
            os << '[' << ev.edges[i].first << ',' << ev.edges[i].second
               << ']';
          }
          os << "]}";
        } else {
          static_assert(std::is_same_v<T, VertexDeleteEvent>);
          os << "{\"op\":\"del_vertex\",\"v\":" << ev.v << '}';
        }
      },
      e);
  return os.str();
}

std::string commit_ndjson() { return "{\"op\":\"commit\"}"; }

}  // namespace aacc::serve
