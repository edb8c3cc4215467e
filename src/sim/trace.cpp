#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "sim/metrics.hpp"

namespace sim {

namespace {

std::string us(Time t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", t.to_us());
  return buf;
}

}  // namespace

void Trace::record_span(Time start, std::string component, std::string stage,
                        std::uint64_t tag, std::uint64_t tok) {
  const Time end = eng_.now();
  if (tok != 0) open_.erase(tok);
  if (registry_ != nullptr) {
    registry_->summary(component + "." + stage + ".us").add(end - start);
  }
  if (enabled_) {
    push_event(TraceEvent{start, end, std::move(component), std::move(stage),
                          tag});
  }
}

std::uint64_t Trace::open_begin(Time start, const std::string& component,
                                const std::string& stage, std::uint64_t tag) {
  const std::uint64_t tok = ++open_seq_;
  open_.emplace(tok, TraceEvent{start, start, component, stage, tag});
  return tok;
}

std::vector<TraceEvent> Trace::open_spans() const {
  std::vector<TraceEvent> out;
  out.reserve(open_.size());
  for (const auto& [tok, e] : open_) {
    TraceEvent copy = e;
    copy.end = eng_.now();
    out.push_back(std::move(copy));
  }
  return out;
}

MsgRecord& Trace::touch_msg(std::uint64_t id) {
  auto it = msgs_.find(id);
  if (it == msgs_.end()) {
    if (msgs_.size() >= event_cap_) ++dropped_events_;
    it = msgs_.try_emplace(id).first;
    it->second.id = id;
  }
  return it->second;
}

MsgRecord* Trace::msg_begin(std::uint64_t id, std::string label, int src,
                            int dst, std::size_t bytes) {
  if (!enabled_) return nullptr;
  MsgRecord& m = touch_msg(id);
  m.label = std::move(label);
  m.src = src;
  m.dst = dst;
  m.bytes = bytes;
  m.begin = eng_.now();
  m.started = true;
  if (auto it = pending_credit_wait_.find(src);
      it != pending_credit_wait_.end()) {
    m.credit_wait += it->second;
    pending_credit_wait_.erase(it);
  }
  return &m;
}

void Trace::msg_link(std::uint64_t parent, std::uint64_t child) {
  if (!enabled_ || parent == child) return;
  MsgRecord& p = touch_msg(parent);
  if (std::find(p.children.begin(), p.children.end(), child) ==
      p.children.end()) {
    p.children.push_back(child);
  }
  touch_msg(child).parent = parent;
}

void Trace::msg_retransmit(std::uint64_t id) {
  if (!enabled_) return;
  if (auto it = msgs_.find(id); it != msgs_.end()) ++it->second.retransmits;
}

void Trace::msg_end(std::uint64_t id, bool ok) {
  if (!enabled_) return;
  auto it = msgs_.find(id);
  if (it == msgs_.end()) return;
  it->second.end = eng_.now();
  it->second.done = true;
  it->second.ok = ok;
}

const MsgRecord* Trace::msg_find(std::uint64_t id) const {
  auto it = msgs_.find(id);
  return it == msgs_.end() ? nullptr : &it->second;
}

Time Trace::stage_total(const std::string& stage, std::uint64_t tag) const {
  Time total = Time::zero();
  for (const auto& e : events_) {
    if (e.tag == tag && e.stage == stage) total += e.end - e.start;
  }
  return total;
}

std::string Trace::to_chrome_json() const {
  std::map<std::string, int> tids;
  const auto tid_of = [&tids](const std::string& comp) {
    return tids.try_emplace(comp, static_cast<int>(tids.size()) + 1)
        .first->second;
  };
  std::string out = "[\n";
  bool first = true;
  const auto emit = [&out, &first](const std::string& obj) {
    out += first ? " " : ",\n ";
    out += obj;
    first = false;
  };
  for (const auto& e : events_) {
    emit("{\"name\":\"" + json_escape(e.stage) + "\",\"cat\":\"" +
         json_escape(e.component) + "\",\"ph\":\"X\",\"ts\":" + us(e.start) +
         ",\"dur\":" + us(e.end - e.start) +
         ",\"pid\":1,\"tid\":" + std::to_string(tid_of(e.component)) +
         ",\"args\":{\"msg\":" + std::to_string(e.tag) + "}}");
  }
  // Spans never end()ed (op aborted, peer failed, dump taken mid-flight):
  // emit with a synthetic end at the current time so they stay visible.
  for (const auto& [tok, e] : open_) {
    emit("{\"name\":\"" + json_escape(e.stage) + "\",\"cat\":\"" +
         json_escape(e.component) + "\",\"ph\":\"X\",\"ts\":" + us(e.start) +
         ",\"dur\":" + us(eng_.now() - e.start) +
         ",\"pid\":1,\"tid\":" + std::to_string(tid_of(e.component)) +
         ",\"args\":{\"msg\":" + std::to_string(e.tag) +
         ",\"synthetic_end\":1}}");
  }
  for (const auto& c : counter_events_) {
    emit("{\"name\":\"" + json_escape(c.track) + "\",\"ph\":\"C\",\"ts\":" +
         us(c.t) + ",\"pid\":1,\"args\":{\"" + json_escape(c.series) +
         "\":" + format_metric_value(c.value) + "}}");
  }
  for (const auto& f : flow_events_) {
    std::string obj = "{\"name\":\"" + json_escape(f.name) +
                      "\",\"cat\":\"flow\",\"ph\":\"";
    obj += f.phase;
    obj += "\",\"ts\":" + us(f.t) +
           ",\"pid\":1,\"tid\":" + std::to_string(tid_of(f.component)) +
           ",\"id\":" + std::to_string(f.id);
    if (f.phase == 'f') obj += ",\"bp\":\"e\"";
    obj += "}";
    emit(obj);
  }
  // Track names.
  for (const auto& [comp, tid] : tids) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(tid) + ",\"args\":{\"name\":\"" + json_escape(comp) +
         "\"}}");
  }
  out += "\n]\n";
  return out;
}

std::vector<TraceEvent> Trace::timeline(std::uint64_t tag) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.tag == tag) out.push_back(e);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start < b.start;
                   });
  return out;
}

}  // namespace sim
