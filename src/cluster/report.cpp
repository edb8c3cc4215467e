#include "cluster/report.hpp"

#include <cstdio>

namespace cluster {

namespace {

ResourceUsage usage_of(sim::Resource& r, sim::Time elapsed) {
  return ResourceUsage{r.name(), r.busy_time().to_us(),
                       r.utilization(elapsed), r.uses()};
}

}  // namespace

ClusterReport collect_report(bcl::BclCluster& cluster) {
  ClusterReport rep;
  const sim::Time elapsed = cluster.engine().now();
  rep.elapsed_us = elapsed.to_us();
  for (std::uint32_t n = 0; n < cluster.nodes(); ++n) {
    auto& stack = cluster.node(n);
    for (int c = 0; c < stack.node().cpu_count(); ++c) {
      rep.resources.push_back(usage_of(stack.node().cpu(c).core(), elapsed));
    }
    rep.resources.push_back(usage_of(stack.node().pci().bus(), elapsed));
    rep.resources.push_back(usage_of(stack.node().nic().lanai(), elapsed));
    const bcl::FlightRecorder& events = stack.mcp().recorder();
    rep.messages_sent += events.count(bcl::NicEvent::kMessageSent);
    rep.packets_in += events.count(bcl::NicEvent::kRxPacket);
    rep.acks_sent += events.count(bcl::NicEvent::kAckTx);
    rep.retransmissions += events.count(bcl::NicEvent::kRetransmit);
    rep.kernel_traps += stack.kernel().traps();
    rep.security_rejects += stack.driver().security_rejects();
  }
  return rep;
}

std::string ClusterReport::to_string() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line,
                "elapsed %.1fus | msgs %llu | pkts %llu | acks %llu | "
                "retrans %llu | traps %llu | rejects %llu\n",
                elapsed_us, (unsigned long long)messages_sent,
                (unsigned long long)packets_in,
                (unsigned long long)acks_sent,
                (unsigned long long)retransmissions,
                (unsigned long long)kernel_traps,
                (unsigned long long)security_rejects);
  out += line;
  std::snprintf(line, sizeof line, "%-22s %12s %8s %8s\n", "resource",
                "busy(us)", "util", "uses");
  out += line;
  for (const auto& r : resources) {
    if (r.uses == 0) continue;  // idle resources add noise only
    std::snprintf(line, sizeof line, "%-22s %12.1f %7.1f%% %8llu\n",
                  r.name.c_str(), r.busy_us, r.utilization * 100.0,
                  (unsigned long long)r.uses);
    out += line;
  }
  return out;
}

}  // namespace cluster
