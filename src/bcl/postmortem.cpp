#include "bcl/postmortem.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "bcl/stack.hpp"
#include "sim/metrics.hpp"

namespace bcl {

namespace {

using sim::json_escape;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

bool is_retx_kind(NicEvent k) {
  return k == NicEvent::kRetransmit || k == NicEvent::kTimeout ||
         k == NicEvent::kFastRetransmit;
}

// Diagnoses one destination's rate state (see Postmortem::CcRate), given
// whether the controller counts it as throttled.  "storming" is reserved
// for a sender that resent without ever cutting — a throttled sender that
// recovered to line after a handful of resends responded to the
// congestion and must not carry the storm verdict.
const char* classify_cc(const cc::RateState& r, std::uint64_t retx,
                        bool throttled) {
  if (r.decreases > 0 && throttled) return "throttled-recovering";
  if (retx > 0 && r.decreases == 0 && !throttled) return "storming";
  return "clean";
}

}  // namespace

std::string Postmortem::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"reason\": \"" << json_escape(reason) << "\",\n";
  os << "  \"time_us\": " << num(time_us) << ",\n";
  os << "  \"node\": " << node << ",\n";
  os << "  \"peer\": " << peer << ",\n";
  os << "  \"victim\": \"" << json_escape(victim) << "\",\n";

  os << "  \"top_links\": [";
  for (std::size_t i = 0; i < top_links.size(); ++i) {
    const auto& l = top_links[i];
    os << (i ? ",\n" : "\n");
    os << "    {\"name\": \"" << json_escape(l.name) << "\", \"util\": "
       << num(l.util) << ", \"busy_us\": " << num(l.busy_us)
       << ", \"queue_wait_us\": " << num(l.queue_wait_us)
       << ", \"blocked_us\": " << num(l.blocked_us)
       << ", \"queue_hwm\": " << l.queue_hwm << ", \"packets\": "
       << l.packets << ", \"retx_packets\": " << l.retx_packets
       << ", \"dropped\": " << l.dropped << ", \"ecn_marks\": "
       << l.ecn_marks << ", \"blocked_marks\": " << l.blocked_marks
       << ", \"failed_drops\": " << l.failed_drops << "}";
  }
  os << (top_links.empty() ? "]" : "\n  ]") << ",\n";

  os << "  \"suspect_links\": [";
  for (std::size_t i = 0; i < suspect_links.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(suspect_links[i]) << "\"";
  }
  os << "],\n";

  os << "  \"sessions\": [";
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto& s = sessions[i];
    os << (i ? ",\n" : "\n");
    os << "    {\"peer\": " << s.peer << ", \"srtt_us\": " << num(s.srtt_us)
       << ", \"rto_us\": " << num(s.rto_us) << ", \"backoff\": " << s.backoff
       << ", \"in_flight\": " << s.in_flight << ", \"retransmissions\": "
       << s.retransmissions << ", \"timeouts\": " << s.timeouts
       << ", \"fast_retransmits\": " << s.fast_retransmits
       << ", \"window_stalls\": " << s.window_stalls << ", \"unreachable\": "
       << (s.unreachable ? "true" : "false")
       << ", \"incarnation\": " << s.incarnation
       << ", \"peer_incarnation\": " << s.peer_incarnation << "}";
  }
  os << (sessions.empty() ? "]" : "\n  ]") << ",\n";

  const char* sep = "\n";
  os << "  \"path_table\": [";
  for (const auto& [dst, d] : path_table) {
    os << std::exchange(sep, ",\n");
    os << "    {\"dst\": " << dst << ", \"current\": "
       << static_cast<int>(d.current) << ", \"partitioned\": "
       << (d.partitioned ? "true" : "false") << ", \"paths\": [";
    for (std::size_t j = 0; j < d.paths.size(); ++j) {
      const auto& p = d.paths[j];
      os << (j ? ", " : "") << "{\"id\": " << static_cast<int>(p.id)
         << ", \"strikes\": " << p.strikes << ", \"total_strikes\": "
         << p.total_strikes << ", \"quarantined\": "
         << (p.quarantined ? "true" : "false") << ", \"last_good_us\": "
         << num(p.last_good.to_us()) << ", \"quarantined_at_us\": "
         << num(p.quarantined_at.to_us()) << "}";
    }
    os << "]}";
  }
  os << (path_table.empty() ? "]" : "\n  ]") << ",\n";

  os << "  \"cc_rates\": [";
  for (std::size_t i = 0; i < cc_rates.size(); ++i) {
    const auto& c = cc_rates[i];
    os << (i ? ",\n" : "\n");
    os << "    {\"dst\": " << c.dst << ", \"state\": \""
       << json_escape(c.state) << "\", \"rate_mbps\": "
       << num(c.rate.rate / 1e6) << ", \"alpha\": " << num(c.rate.alpha)
       << ", \"feedback\": " << num(c.rate.feedback)
       << ", \"echoes\": " << c.rate.echoes << ", \"decreases\": "
       << c.rate.decreases << ", \"increases\": " << c.rate.increases
       << ", \"paced_packets\": " << c.rate.paced_packets
       << ", \"paced_wait_us\": " << num(c.rate.paced_wait.to_us()) << "}";
  }
  os << (cc_rates.empty() ? "]" : "\n  ]") << ",\n";

  sep = "";
  os << "  \"send_credits\": [";
  for (const auto& [dst, c] : send_credits) {
    os << std::exchange(sep, ", ") << "{\"node\": " << dst.node
       << ", \"port\": " << dst.port << ", \"limit\": " << c.limit
       << ", \"used\": " << c.used << "}";
  }
  os << "],\n";

  sep = "";
  os << "  \"recv_credits\": [";
  for (const auto& [key, c] : recv_credits) {
    os << std::exchange(sep, ", ") << "{\"port\": " << key.first
       << ", \"src\": " << key.second << ", \"limit\": " << c.limit
       << ", \"delivered\": " << c.delivered << "}";
  }
  os << "],\n";

  os << "  \"retransmit_storm\": {\"start_us\": " << num(storm.start_us)
     << ", \"end_us\": " << num(storm.end_us) << ", \"events\": "
     << storm.events << "},\n";

  os << "  \"timeline\": [";
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const auto& e = timeline[i];
    os << (i ? ",\n" : "\n");
    os << "    {\"t_us\": " << num(e.t.to_us()) << ", \"event\": \""
       << flight_name(e.kind) << "\", \"peer\": " << e.peer
       << ", \"msg_id\": " << e.msg_id << ", \"seq\": " << e.seq
       << ", \"aux\": " << e.aux << "}";
  }
  os << (timeline.empty() ? "]" : "\n  ]") << "\n";
  os << "}";
  return os.str();
}

Postmortem build_postmortem(BclCluster& cluster, hw::NodeId node,
                            const std::string& reason, int peer,
                            const std::string& victim, std::size_t top_n) {
  Postmortem pm;
  pm.reason = reason;
  pm.time_us = cluster.engine().now().to_us();
  pm.node = node;
  pm.peer = peer;
  pm.victim = victim;

  // Congestion table: hottest links first.  Retransmit and drop traffic is
  // the strongest failure signal; ECN marks rank next (a link can be the
  // congestion point without carrying the resends it provokes — the marks
  // are set where the backlog is, the retransmits ride the whole path);
  // queueing and blocking time break remaining ties.
  auto links = cluster.fabric().congestion_report();
  std::sort(links.begin(), links.end(),
            [](const hw::Fabric::LinkStats& a, const hw::Fabric::LinkStats& b) {
              const auto ka = std::make_tuple(a.retx_packets + a.dropped,
                                              a.ecn_marks,
                                              a.queue_wait_us + a.blocked_us,
                                              a.util);
              const auto kb = std::make_tuple(b.retx_packets + b.dropped,
                                              b.ecn_marks,
                                              b.queue_wait_us + b.blocked_us,
                                              b.util);
              if (ka != kb) return ka > kb;
              return a.name < b.name;  // deterministic order among idle links
            });
  if (links.size() > top_n) links.resize(top_n);
  pm.top_links = std::move(links);

  std::set<std::string> suspects;
  for (auto& s : cluster.fabric().links_of(node)) suspects.insert(s);
  if (peer >= 0) {
    for (auto& s :
         cluster.fabric().links_of(static_cast<hw::NodeId>(peer))) {
      suspects.insert(s);
    }
  }
  pm.suspect_links.assign(suspects.begin(), suspects.end());

  Mcp& mcp = cluster.node(node).mcp();
  pm.sessions = mcp.session_snapshot();
  pm.path_table = mcp.path_table().dests();

  // Rate-controller verdict per destination: correlate the cc snapshot
  // with the go-back-N ledgers so a reader can tell a sender that was
  // throttled (and is recovering) from one that stormed unthrottled.
  std::map<hw::NodeId, std::uint64_t> retx_by_peer;
  for (const auto& s : pm.sessions) retx_by_peer[s.peer] = s.retransmissions;
  for (const auto& [dst, r] : mcp.cc().rates()) {
    const auto it = retx_by_peer.find(dst);
    const std::uint64_t retx = it == retx_by_peer.end() ? 0 : it->second;
    pm.cc_rates.push_back(
        {dst, r, classify_cc(r, retx, mcp.cc().throttled(r))});
  }

  pm.send_credits = mcp.flow().senders();
  pm.recv_credits = mcp.flow().ledgers();
  pm.timeline = mcp.recorder().snapshot();

  bool first = true;
  for (const auto& e : pm.timeline) {
    if (!is_retx_kind(e.kind)) continue;
    const double t = e.t.to_us();
    if (first) {
      pm.storm.start_us = t;
      first = false;
    }
    pm.storm.end_us = t;
    ++pm.storm.events;
  }
  return pm;
}

std::string postmortems_json(const std::vector<Postmortem>& dumps,
                             std::uint64_t dropped) {
  std::ostringstream os;
  os << "{\n\"postmortems\": [";
  for (std::size_t i = 0; i < dumps.size(); ++i) {
    os << (i ? ",\n" : "\n") << dumps[i].to_json();
  }
  os << (dumps.empty() ? "]" : "\n]") << ",\n\"suppressed\": " << dropped
     << "\n}\n";
  return os.str();
}

}  // namespace bcl
