// The metric catalogue: every name bcl_perf prints, with its unit and the
// direction that counts as better.  Units prefixed "sim_" are simulated
// (modelled) quantities; bare time units are host time.
#include <algorithm>

#include "perf.hpp"

namespace perf {

namespace {

constexpr auto E = Scope::kEndToEnd;
constexpr auto L = Scope::kPerLayer;
constexpr auto H = Kind::kHost;
constexpr auto S = Kind::kSim;
constexpr auto Best = Report::kBest;

}  // namespace

const std::vector<MetricDef>& catalogue() {
  static const std::vector<MetricDef> defs = {
      // -- end to end: host cost ----------------------------------------------
      {"setup_s", "s", "lower", E, H},
      {"wall_s", "s", "lower", E, H, Best},
      {"host_ops_per_s", "ops/s", "higher", E, H, Best},
      {"peak_rss_mb", "MiB", "lower", E, H},
      // -- end to end: the modelled stack's results ---------------------------
      {"sim_op_us_p50", "sim_us", "lower", E, S},
      {"sim_op_us_p99", "sim_us", "lower", E, S},
      {"sim_goodput_mbps", "sim_MB/s", "higher", E, S},
      {"sim_makespan_ms", "sim_ms", "lower", E, S},
      {"failed_op_frac", "ratio", "lower", E, S},
      // -- sim: the discrete-event engine -------------------------------------
      {"sim.op_samples", "count", "higher", L, S},
      {"sim.events", "count", "lower", L, S},
      {"sim.events_per_op", "count", "lower", L, S},
      {"sim.ns_per_event", "ns", "lower", L, H, Best},
      {"sim.engine.dispatch_ns", "ns", "lower", L, H},
      {"sim.engine.fn_dispatch_ns", "ns", "lower", L, H},
      // -- hw: host memory, fabric, links, switches ---------------------------
      {"hw.memory.ctor_ms", "ms", "lower", L, H},
      {"hw.memory.alloc_frame_ns", "ns", "lower", L, H},
      {"hw.memory.alloc_contig_us", "us", "lower", L, H},
      {"hw.memory.copy_gbps", "GB/s", "higher", L, H},
      {"hw.fabric.ctor_ms", "ms", "lower", L, H},
      {"hw.link.packets", "count", "lower", L, S},
      {"hw.link.bytes", "bytes", "lower", L, S},
      {"hw.link.dropped", "count", "lower", L, S},
      {"hw.link.ecn_marks", "count", "lower", L, S},
      {"hw.link.retx_packets", "count", "lower", L, S},
      {"hw.link.queue_wait_us", "sim_us", "lower", L, S},
      {"hw.link.blocked_us", "sim_us", "lower", L, S},
      {"hw.link.util_max", "ratio", "lower", L, S},
      {"hw.switch.forwarded", "count", "lower", L, S},
      // -- osk: kernel traps, pin-down cache ----------------------------------
      {"osk.traps_per_op", "count", "lower", L, S},
      {"osk.pin_hit_ratio", "ratio", "higher", L, S},
      {"osk.leaked_pages", "count", "lower", L, S},
      {"osk.stage.trap_enter_us", "sim_us", "lower", L, S},
      {"osk.stage.trap_exit_us", "sim_us", "lower", L, S},
      {"osk.stage.security_check_us", "sim_us", "lower", L, S},
      {"osk.stage.translate_pin_us", "sim_us", "lower", L, S},
      {"osk.stage.pio_fill_us", "sim_us", "lower", L, S},
      // -- bcl.lib / bcl.driver -----------------------------------------------
      {"bcl.lib.recv_polls_per_recv", "ratio", "higher", L, S},
      {"bcl.lib.stage.recv_poll_us", "sim_us", "lower", L, S},
      {"bcl.lib.stage.user_compose_us", "sim_us", "lower", L, S},
      {"bcl.driver.pio_words_per_send", "count", "lower", L, S},
      {"bcl.driver.credit_blocks", "count", "lower", L, S},
      // -- bcl.mcp: firmware, reliability, multipath --------------------------
      {"bcl.mcp.packets_per_op", "count", "lower", L, S},
      {"bcl.mcp.useful_share", "ratio", "higher", L, S},
      {"bcl.mcp.acks_sent", "count", "lower", L, S},
      {"bcl.mcp.retransmissions", "count", "lower", L, S},
      {"bcl.mcp.timeouts", "count", "lower", L, S},
      {"bcl.mcp.window_stalls", "count", "lower", L, S},
      {"bcl.rel.fast_retransmits", "count", "lower", L, S},
      {"bcl.path.failovers", "count", "lower", L, S},
      {"bcl.path.probes_tx", "count", "lower", L, S},
      {"bcl.mcp.stage.tx_proc_us", "sim_us", "lower", L, S},
      {"bcl.mcp.stage.rx_proc_us", "sim_us", "lower", L, S},
      {"bcl.mcp.stage.dma_us", "sim_us", "lower", L, S},
      // -- bcl.fc / bcl.cc: credits and congestion control --------------------
      {"bcl.fc.stalls", "count", "lower", L, S},
      {"bcl.fc.credit_updates_tx", "count", "lower", L, S},
      {"bcl.fc.probes_tx", "count", "lower", L, S},
      {"bcl.fc.rnr_nacks_tx", "count", "lower", L, S},
      {"bcl.fc.credit_rtt_us_mean", "sim_us", "lower", L, S},
      {"bcl.cc.decreases", "count", "lower", L, S},
      {"bcl.cc.paced_packets", "count", "lower", L, S},
      {"bcl.cc.paced_wait_us", "sim_us", "lower", L, S},
      {"gen.lag_us_p99", "sim_us", "lower", L, S},
      // -- bcl.coll / eadi / minimpi ------------------------------------------
      {"bcl.coll.posts", "count", "lower", L, S},
      {"bcl.coll.forwards", "count", "lower", L, S},
      {"bcl.coll.combines", "count", "lower", L, S},
      {"bcl.coll.op_timeouts", "count", "lower", L, S},
      {"minimpi.sends_per_iter", "count", "lower", L, S},
      {"minimpi.recvs_per_iter", "count", "lower", L, S},
      // -- cluster: bring-up --------------------------------------------------
      {"cluster.world.ctor_s", "s", "lower", L, H},
      {"bcl.stack.ctor_ms_per_node", "ms", "lower", L, H},
      // -- traced run: mean per-op attribution of simulated latency -----------
      {"attr.trap_enter_us", "sim_us", "lower", L, S},
      {"attr.trap_exit_us", "sim_us", "lower", L, S},
      {"attr.security_check_us", "sim_us", "lower", L, S},
      {"attr.translate_pin_us", "sim_us", "lower", L, S},
      {"attr.pio_fill_us", "sim_us", "lower", L, S},
      {"attr.user_compose_us", "sim_us", "lower", L, S},
      {"attr.credit_wait_us", "sim_us", "lower", L, S},
      {"attr.recv_poll_us", "sim_us", "lower", L, S},
      {"attr.mcp_tx_proc_us", "sim_us", "lower", L, S},
      {"attr.mcp_rx_proc_us", "sim_us", "lower", L, S},
      {"attr.nic_dma_host_to_nic_us", "sim_us", "lower", L, S},
      {"attr.nic_dma_nic_to_host_us", "sim_us", "lower", L, S},
      {"attr.event_dma_us", "sim_us", "lower", L, S},
      {"attr.event_dma_send_us", "sim_us", "lower", L, S},
      {"attr.link_queue_us", "sim_us", "lower", L, S},
      {"attr.wire_us", "sim_us", "lower", L, S},
      {"attr.wait_queue_us", "sim_us", "lower", L, S},
      {"trace.overhead_x", "ratio", "lower", L, H},
      {"trace.spans_per_op", "count", "lower", L, S},
      {"trace.dropped_events", "count", "lower", L, S},
  };
  return defs;
}

const MetricDef* find_metric(const std::string& name) {
  const auto& defs = catalogue();
  const auto it =
      std::find_if(defs.begin(), defs.end(),
                   [&](const MetricDef& d) { return name == d.name; });
  return it == defs.end() ? nullptr : &*it;
}

}  // namespace perf
