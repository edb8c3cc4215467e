#include "hw/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace hw {

namespace {

// One link's "fabric.link.<name>.bytes/.packets/.corrupted/.dropped/
// .duplicated/.reordered/.busy_us/.queue/..." series.
void write_link_series(sim::MetricSink& out, const Link& link) {
  const std::string prefix = "fabric.link." + link.name() + ".";
  out.counter(prefix + "bytes", link.bytes());
  out.counter(prefix + "packets", link.packets());
  out.counter(prefix + "corrupted", link.corrupted());
  out.counter(prefix + "dropped", link.dropped());
  out.counter(prefix + "duplicated", link.duplicated());
  out.counter(prefix + "reordered", link.reordered());
  out.gauge(prefix + "busy_us", link.busy_time().to_us());
  out.gauge(prefix + "queue", static_cast<double>(link.queue_depth()));
  // Congestion telemetry.
  out.counter(prefix + "retx_packets", link.retx_packets());
  out.counter(prefix + "ecn_marks", link.ecn_marks());
  out.counter(prefix + "blocked_marks", link.blocked_marks());
  out.counter(prefix + "failed_drops", link.failed_drops());
  out.gauge(prefix + "queue_wait_us", link.queue_wait().to_us());
  out.gauge(prefix + "queue_hwm", static_cast<double>(link.queue_hwm()));
  out.gauge(prefix + "blocked_us", link.blocked_time().to_us());
  out.gauge(prefix + "util", link.utilization());
}

}  // namespace

void Fabric::register_metrics(sim::MetricRegistry& reg) const {
  reg.add_collector([this](sim::MetricSink& out) {
    for (const auto& l : links_) write_link_series(out, *l);
    write_device_series(out);
  });
}

std::vector<LinkStats> Fabric::congestion_report() const {
  std::vector<LinkStats> out;
  out.reserve(links_.size());
  for (const auto& l : links_) out.push_back(l->stats());
  return out;
}

void Fabric::set_trace(sim::Trace* tr) {
  for (const auto& l : links_) l->set_trace(tr);
}

Link& Fabric::link(const std::string& name) {
  for (const auto& l : links_) {
    if (l->name() == name) return *l;
  }
  throw std::invalid_argument("no such link: " + name);
}

Link& Fabric::add_link(sim::Engine& eng, std::string name,
                       const LinkConfig& cfg, Link::Sink sink) {
  links_.push_back(
      std::make_unique<Link>(eng, std::move(name), cfg, std::move(sink)));
  return *links_.back();
}

Link::Link(sim::Engine& eng, std::string name, const LinkConfig& cfg,
           Sink sink)
    : eng_{eng},
      name_{std::move(name)},
      cfg_{cfg},
      sink_{std::move(sink)},
      in_{eng, cfg.queue_depth} {
  eng_.spawn_daemon(pump());
}

double Link::utilization() const {
  const sim::Time now = eng_.now();
  if (now <= sim::Time::zero()) return 0.0;
  const sim::Time unsent = std::max(busy_until_ - now, sim::Time::zero());
  return (busy_ - unsent).to_us() / now.to_us();
}

sim::Task<void> Link::forward(Packet p, std::size_t backlog) {
  if (!p.ecn && cfg_.ecn_queue_threshold > 0 &&
      backlog >= cfg_.ecn_queue_threshold) {
    p.ecn = true;
    ++ecn_marks_;
  }
  const sim::Time t_block = eng_.now();
  co_await in_.reserve();
  const sim::Time waited = eng_.now() - t_block;
  blocked_ += waited;
  if (!p.ecn && cfg_.ecn_blocked_threshold > sim::Time::zero() &&
      waited >= cfg_.ecn_blocked_threshold) {
    p.ecn = true;
    ++ecn_marks_;
    ++blocked_marks_;
  }
  p.enqueued_at = eng_.now();
  in_.commit(std::move(p));
}

LinkStats Link::stats() const {
  LinkStats s;
  s.name = name_;
  s.util = utilization();
  s.busy_us = busy_.to_us();
  s.queue_wait_us = queue_wait_.to_us();
  s.blocked_us = blocked_.to_us();
  s.queue_hwm = queue_hwm_;
  s.packets = packets_;
  s.retx_packets = retx_packets_;
  s.dropped = dropped_;
  s.ecn_marks = ecn_marks_;
  s.blocked_marks = blocked_marks_;
  s.failed_drops = failed_drops_;
  return s;
}

// Congestion test applied per packet at serialization start: either the
// input queue is still deep behind this packet, or the wire has been nearly
// saturated over the trailing ECN window.  The window advances lazily (no
// timer); the decision uses the last fully completed window so a single
// long packet cannot flip the verdict mid-window.
bool Link::should_mark_ecn() {
  if (!cfg_.ecn_self_mark || cfg_.ecn_queue_threshold == 0) return false;
  if (in_.size() >= cfg_.ecn_queue_threshold) return true;
  const sim::Time now = eng_.now();
  if (now - ecn_win_t_ >= cfg_.ecn_util_window) {
    const sim::Time span = now - ecn_win_t_;
    ecn_util_ = span > sim::Time::zero()
                    ? (busy_ - ecn_win_busy_).to_us() / span.to_us()
                    : 0.0;
    ecn_win_busy_ = busy_;
    ecn_win_t_ = now;
  }
  return ecn_util_ >= cfg_.ecn_util_threshold;
}

void Link::set_fault_plan(FaultPlan plan) {
  plan_ = std::move(plan);
  std::sort(plan_.drop_nth.begin(), plan_.drop_nth.end());
  fault_rng_ = sim::Rng{plan_.seed};
}

// Whether the fault plan discards the packet with this link ordinal.  The
// random draw happens unconditionally (when drop_prob > 0) so the fault
// stream stays aligned across runs that differ only in drop_nth.
bool Link::plan_drops(std::uint64_t ordinal) {
  const sim::Time now = eng_.now();
  if (now >= plan_.fail_from && now < plan_.fail_until) return true;
  bool drop = std::binary_search(plan_.drop_nth.begin(), plan_.drop_nth.end(),
                                 ordinal);
  if (plan_.drop_prob > 0.0 && fault_rng_.bernoulli(plan_.drop_prob)) {
    drop = true;
  }
  return drop;
}

sim::Task<void> Link::pump() {
  for (;;) {
    queue_hwm_ = std::max(queue_hwm_, in_.size());
    Packet p = co_await in_.recv();
    queue_hwm_ = std::max(queue_hwm_, in_.size() + 1);
    if (failed_flag_) {
      // Dead wire: consume instantly, no serialization, no backpressure.
      ++failed_drops_;
      continue;
    }
    const sim::Time now = eng_.now();
    const bool tracing = trace_ != nullptr && trace_->enabled();
    // Flow-key-compatible tag so wire spans join the message's timeline.
    const std::uint64_t tag =
        ((std::uint64_t{p.src_node} + 1) << 48) | p.msg_id;
    if (p.enqueued_at > sim::Time::zero() && now > p.enqueued_at) {
      queue_wait_ += now - p.enqueued_at;
      if (tracing) {
        trace_->interval(p.enqueued_at, now, "link." + name_, "link-queue",
                         tag);
      }
    }
    if (p.retransmitted) ++retx_packets_;
    if (!p.ecn && should_mark_ecn()) {
      p.ecn = true;
      ++ecn_marks_;
      if (tracing) {
        trace_->counter("link." + name_, "ecn_marks",
                        static_cast<double>(ecn_marks_));
      }
    }
    const auto wire =
        cfg_.per_packet + sim::Time::bytes_at(p.wire_bytes(), cfg_.bandwidth);
    if (tracing) trace_->interval(now, now + wire, "link." + name_, "wire",
                                  tag);
    busy_ += wire;
    busy_until_ = now + wire;
    const std::uint64_t ordinal = packets_++;
    bytes_ += p.wire_bytes();
    if (plan_.active()) {
      if (plan_drops(ordinal)) {
        // The packet still occupied the wire; it just never arrives.
        ++dropped_;
        co_await eng_.sleep(wire);
        continue;
      }
      if (plan_.corrupt_prob > 0.0 && !p.corrupted &&
          fault_rng_.bernoulli(plan_.corrupt_prob)) {
        p.corrupted = true;
        ++corrupted_;
      }
    }
    // Cut-through: hand the packet downstream once the header is past;
    // store-and-forward (NIC-terminal links): after the last byte.  Either
    // way the link stays occupied for the full serialization time, and FIFO
    // order is preserved because the delivery offset is constant — unless
    // the fault plan stretches this packet's offset, which is exactly how
    // reordering is injected.
    auto forward_after =
        cfg_.cut_through
            ? cfg_.per_packet +
                  sim::Time::bytes_at(p.header_bytes, cfg_.bandwidth)
            : wire;
    bool duplicate = false;
    if (plan_.active()) {
      if (plan_.reorder_prob > 0.0 &&
          fault_rng_.bernoulli(plan_.reorder_prob)) {
        forward_after = forward_after + plan_.reorder_delay;
        ++reordered_;
      }
      if (plan_.dup_prob > 0.0 && fault_rng_.bernoulli(plan_.dup_prob)) {
        duplicate = true;
        ++duplicated_;
      }
    }
    // (shared_ptr because std::function requires a copyable callable.)
    auto pkt = std::make_shared<Packet>(std::move(p));
    if (duplicate) {
      auto copy = std::make_shared<Packet>(*pkt);
      eng_.schedule_fn(eng_.now() + forward_after + cfg_.propagation + wire,
                       [this, copy] { sink_(std::move(*copy)); });
    }
    eng_.schedule_fn(eng_.now() + forward_after + cfg_.propagation,
                     [this, pkt] { sink_(std::move(*pkt)); });
    co_await eng_.sleep(wire);  // serialization / occupancy
  }
}

}  // namespace hw
