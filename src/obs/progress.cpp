#include "obs/progress.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "common/json.hpp"

namespace aacc::obs {

std::string to_ndjson(const ProgressEvent& ev) {
  using json::Double;
  std::ostringstream os;
  os << "{\"v\":" << kProgressSchemaVersion
     << ",\"phase\":" << json::Quoted{ev.phase} << ",\"step\":" << ev.step
     << ",\"ranks\":" << ev.ranks << ",\"dirty\":" << ev.dirty
     << ",\"dirty_fraction\":" << Double{ev.dirty_fraction}
     << ",\"settled\":" << ev.settled << ",\"columns\":" << ev.columns
     << ",\"relaxations\":" << ev.relaxations << ",\"poisons\":" << ev.poisons
     << ",\"repairs\":" << ev.repairs << ",\"queue_sum\":" << ev.queue_sum
     << ",\"queue_max\":" << ev.queue_max << ",\"bytes\":" << ev.bytes
     << ",\"retransmits\":" << ev.retransmits
     << ",\"exchange_wait_seconds\":" << Double{ev.exchange_wait_seconds}
     << ",\"blocked_on_rank\":" << ev.blocked_on_rank
     << ",\"blocked_on_seconds\":" << Double{ev.blocked_on_seconds}
     << ",\"recoveries\":" << ev.recoveries
     << ",\"dv_resident_bytes\":" << ev.dv_resident_bytes
     << ",\"dv_cold_bytes\":" << ev.dv_cold_bytes
     << ",\"dv_promotions\":" << ev.dv_promotions
     << ",\"dv_demotions\":" << ev.dv_demotions;
  if (ev.has_serve) {
    os << ",\"serve_queries\":" << ev.serve_queries
       << ",\"snapshot_age_steps\":" << ev.snapshot_age_steps;
  }
  if (ev.has_estimators) {
    os << ",\"topk_overlap\":" << Double{ev.topk_overlap}
       << ",\"kendall_tau\":" << Double{ev.kendall_tau};
  }
  if (!ev.top.empty()) {
    os << ",\"top\":[";
    for (std::size_t i = 0; i < ev.top.size(); ++i) {
      if (i != 0) os << ',';
      os << ev.top[i];
    }
    os << ']';
  }
  if (!ev.detail.empty()) os << ",\"detail\":" << json::Quoted{ev.detail};
  os << '}';
  return os.str();
}

bool parse_progress_event(const std::string& line, ProgressEvent& out) {
  json::Value doc;
  if (json::parse(line, doc) != json::Error::kNone) return false;
  // An absent field keeps its default; a present one of the wrong kind or
  // range fails the line. Integer fields take only integer literals the
  // field holds exactly, so nothing is cast (json::read_field).
  const auto read = [&doc](const char* key, auto& field) {
    return json::read_field(doc, key, field);
  };
  ProgressEvent ev;
  unsigned version = 0;
  if (doc.find("v") == nullptr || !read("v", version) ||
      version > kProgressSchemaVersion) {
    return false;
  }
  if (const json::Value* top = doc.find("top"); top != nullptr) {
    if (top->array() == nullptr) return false;
    for (const json::Value& id : *top->array()) {
      const auto v = id.integer<VertexId>();
      if (!v) return false;
      ev.top.push_back(*v);
    }
  }
  ev.has_serve = doc.find("serve_queries") != nullptr ||
                 doc.find("snapshot_age_steps") != nullptr;
  ev.has_estimators = doc.find("topk_overlap") != nullptr &&
                      doc.find("kendall_tau") != nullptr;
  const bool ok =
      read("phase", ev.phase) && read("detail", ev.detail) &&
      read("step", ev.step) && read("ranks", ev.ranks) && ev.ranks >= 0 &&
      read("dirty", ev.dirty) && read("dirty_fraction", ev.dirty_fraction) &&
      read("settled", ev.settled) && read("columns", ev.columns) &&
      read("relaxations", ev.relaxations) && read("poisons", ev.poisons) &&
      read("repairs", ev.repairs) && read("queue_sum", ev.queue_sum) &&
      read("queue_max", ev.queue_max) && read("bytes", ev.bytes) &&
      read("retransmits", ev.retransmits) &&
      read("exchange_wait_seconds", ev.exchange_wait_seconds) &&
      read("blocked_on_seconds", ev.blocked_on_seconds) &&
      read("blocked_on_rank", ev.blocked_on_rank) &&
      read("recoveries", ev.recoveries) &&
      read("dv_resident_bytes", ev.dv_resident_bytes) &&
      read("dv_cold_bytes", ev.dv_cold_bytes) &&
      read("dv_promotions", ev.dv_promotions) &&
      read("dv_demotions", ev.dv_demotions) &&
      read("serve_queries", ev.serve_queries) &&
      read("snapshot_age_steps", ev.snapshot_age_steps) &&
      read("topk_overlap", ev.topk_overlap) &&
      read("kendall_tau", ev.kendall_tau);
  if (!ok || ev.phase.empty()) return false;
  out = std::move(ev);
  return true;
}

// ------------------------------------------------------------------ sinks

NdjsonFileSink::NdjsonFileSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {}

NdjsonFileSink::~NdjsonFileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void NdjsonFileSink::on_event(const ProgressEvent& ev) {
  if (file_ == nullptr) return;
  const std::string line = to_ndjson(ev);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);  // live tailing and crash post-mortems see every line
}

ProgressEmitter::ProgressEmitter(const ProgressConfig& cfg)
    : top_k_(cfg.top_k) {
  if (!cfg.path.empty()) {
    file_sink_ = std::make_shared<NdjsonFileSink>(cfg.path);
    sinks_.push_back(file_sink_);
  }
  if (cfg.callback) sinks_.push_back(std::make_shared<CallbackSink>(cfg.callback));
  if (cfg.sink) sinks_.push_back(cfg.sink);
}

void ProgressEmitter::emit(const ProgressEvent& ev) {
  for (const auto& sink : sinks_) sink->on_event(ev);
}

bool ProgressEmitter::file_ok() const {
  return file_sink_ == nullptr || file_sink_->ok();
}

}  // namespace aacc::obs
