// Chaos soak: seeded MCP fail-stop/restart under load, on faulty links.
//
// Eight nodes exchange random all-to-all traffic through the Myrinet
// crossbar while every host link drops 1% of its packets.  Mid-traffic a
// seeded schedule halts two victim NICs (full SRAM loss) and reboots them
// through the driver a little later with a bumped incarnation.  The run
// then directs fresh traffic at each revived victim.  Asserted invariants,
// for every message the harness ever submitted:
//
//   * exactly one completion, with err in {kOk, kPeerRestarted,
//     kPeerUnreachable} — no silent loss, no hang;
//   * kOk implies delivered exactly once; an error implies delivered at
//     most once (the crash may eat an in-flight fragment, never double it);
//   * no payload is ever delivered twice — the incarnation fence keeps
//     old-epoch retransmissions out of the fresh sequence space;
//   * after each victim reboots, sends to it (and from it) succeed again;
//   * each victim counts exactly one restart and sits at incarnation 1.
//
// The whole run is deterministic in --seed: one seed, one schedule, one
// verdict.  Flags: --smoke (CI shrink), --seed N.  Exit 1 on violation.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "bcl/bcl.hpp"
#include "hw/myrinet_switch.hpp"

namespace {

using sim::Task;
using sim::Time;

constexpr std::size_t kBytes = 512;  // single fragment at the default MTU
constexpr bcl::ChannelRef kSys{bcl::ChanKind::kSystem, 0};

// Self-describing payload: (src, uid) in the first 8 bytes, so delivery
// counting trusts nothing the reliability layer is being tested on.
void encode(osk::Process& proc, const osk::UserBuffer& buf,
            std::uint32_t src, std::uint32_t uid) {
  std::byte raw[8];
  for (int b = 0; b < 4; ++b) {
    raw[b] = static_cast<std::byte>((src >> (8 * b)) & 0xff);
    raw[b + 4] = static_cast<std::byte>((uid >> (8 * b)) & 0xff);
  }
  proc.poke(buf, 0, std::span<const std::byte>(raw, 8));
}

std::uint64_t decode(const std::vector<std::byte>& data) {
  std::uint64_t key = 0;
  for (int b = 0; b < 8 && static_cast<std::size_t>(b) < data.size(); ++b) {
    key |= static_cast<std::uint64_t>(data[static_cast<std::size_t>(b)])
           << (8 * b);
  }
  return key;  // low 32 bits src, high 32 bits uid
}

std::uint64_t key_of(std::uint32_t src, std::uint32_t uid) {
  return static_cast<std::uint64_t>(uid) << 32 | src;
}

struct MsgRecord {
  bcl::BclErr err = bcl::BclErr::kOk;
  bool completed = false;
};

struct Soak {
  std::map<std::uint64_t, MsgRecord> submitted;  // key -> one completion
  std::map<std::uint64_t, int> delivered;        // key -> copies received
  std::uint64_t ok = 0;
  std::uint64_t peer_restarted = 0;
  std::uint64_t peer_unreachable = 0;
  std::uint64_t would_block = 0;  // credit-starved toward a dead peer
  std::uint64_t double_complete = 0;
  int senders_done = 0;
  bool post_restart_ok = true;
};

// Submits one message and waits for ITS completion (matched by msg_id —
// the unreachable verdict also posts port-wide advisory events with
// msg_id 0 that belong to nobody).  kWouldBlock submissions never entered
// the NIC and are counted separately, not as in-flight messages.
Task<bcl::BclErr> send_one(bcl::Endpoint& ep, bcl::PortId dst,
                           const osk::UserBuffer& buf, std::uint32_t src,
                           std::uint32_t uid, Soak& soak) {
  encode(ep.process(), buf, src, uid);
  auto r = co_await ep.send_deadline(dst, kSys, buf, kBytes, Time::ms(1));
  if (r.err == bcl::BclErr::kWouldBlock) {
    ++soak.would_block;
    co_return r.err;
  }
  auto& rec = soak.submitted[key_of(src, uid)];
  if (r.err != bcl::BclErr::kOk) {
    // Failed at submission (e.g. the local MCP is down): that IS the
    // exactly-once completion for this message.
    rec.completed = true;
    rec.err = r.err;
    co_return r.err;
  }
  for (;;) {
    bcl::SendEvent ev = co_await ep.wait_send();
    if (ev.msg_id != r.value) continue;  // advisory or stale event
    if (rec.completed) ++soak.double_complete;
    rec.completed = true;
    rec.err = ev.err;
    co_return ev.err;
  }
}

Task<void> receiver(bcl::Endpoint& ep, Soak& soak) {
  for (;;) {
    bcl::RecvEvent ev = co_await ep.wait_recv();
    auto data = co_await ep.copy_out_system(ev);
    ++soak.delivered[decode(data)];
  }
}

Task<void> sender(sim::Engine& eng, bcl::BclCluster& c, bcl::Endpoint& ep,
                  std::uint32_t me, std::uint32_t msgs, std::uint64_t seed,
                  Soak& soak) {
  std::mt19937_64 rng(seed * 1315423911u + me);
  std::uniform_int_distribution<std::uint32_t> pick(
      0, c.config().nodes - 2);
  std::uniform_int_distribution<int> gap_us(0, 20);
  auto buf = ep.process().alloc(kBytes);
  ep.process().fill_pattern(buf, me + 1);
  for (std::uint32_t i = 0; i < msgs; ++i) {
    std::uint32_t dst = pick(rng);
    if (dst >= me) ++dst;  // anyone but me
    const std::uint32_t uid = me * 1'000'000u + i;
    (void)co_await send_one(ep, bcl::PortId{static_cast<hw::NodeId>(dst), 0},
                            buf, me, uid, soak);
    co_await eng.sleep(Time::us(gap_us(rng)));
  }
  ++soak.senders_done;
}

// The seeded fail-stop schedule: two distinct victims, killed in sequence
// while traffic flows, each rebooted after a downtime window.
Task<void> reaper(sim::Engine& eng, bcl::BclCluster& c,
                  const std::vector<std::uint32_t>& victims, Time first_kill,
                  Time downtime, Time spacing) {
  Time at = first_kill;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const auto v = static_cast<hw::NodeId>(victims[i]);
    co_await eng.sleep_until(at);
    c.node(v).mcp().crash();
    co_await eng.sleep(downtime);
    co_await c.node(v).driver().reset_nic();
    at = at + spacing;
  }
}

// Post-restart proof: traffic both into and out of a revived victim must
// succeed again.  Re-establishment needs an answered revival probe (or a
// restart notice) first, so the harness retries with fresh uids — each
// attempt is its own exactly-once message — until one lands kOk.
Task<void> prove_recovered(sim::Engine& eng, bcl::Endpoint& from,
                           std::uint32_t from_node, std::uint32_t to_node,
                           std::uint32_t uid_base, const osk::UserBuffer& buf,
                           Soak& soak) {
  bool okd = false;
  for (std::uint32_t attempt = 0; attempt < 24 && !okd; ++attempt) {
    const bcl::BclErr err =
        co_await send_one(from, bcl::PortId{static_cast<hw::NodeId>(to_node), 0},
                          buf, from_node, uid_base + attempt, soak);
    if (err == bcl::BclErr::kOk) okd = true;
    else co_await eng.sleep(Time::us(400));
  }
  if (!okd) soak.post_restart_ok = false;
}

struct Verdict {
  bool ok = true;
  std::uint64_t duplicates = 0;
  std::uint64_t lost = 0;       // kOk completions never delivered
  std::uint64_t ghosts = 0;     // deliveries nobody submitted
  std::uint64_t bad_err = 0;    // completions outside the allowed set
  std::uint64_t incomplete = 0; // submitted but never completed
};

int run(std::uint64_t seed, std::uint32_t msgs_per_node) {
  constexpr std::uint32_t kNodes = 8;
  bcl::ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(80);
  cfg.cost.max_retries = 8;
  cfg.cost.e2e_completion = true;  // completion == cumulative ack, so a
                                   // fail-stop can never hide a loss
  bcl::BclCluster c{cfg};
  auto& fabric = dynamic_cast<hw::MyrinetFabric&>(c.fabric());
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    hw::FaultPlan flaky;
    flaky.drop_prob = 0.01;
    flaky.seed = seed ^ (0x9E3779B9u + n);
    fabric.set_host_link_fault_plan(static_cast<hw::NodeId>(n), flaky);
  }

  // Seeded schedule: two distinct victims.
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> victims;
  while (victims.size() < 2) {
    const auto v = static_cast<std::uint32_t>(rng() % kNodes);
    if (victims.empty() || victims[0] != v) victims.push_back(v);
  }

  Soak soak;
  std::vector<bcl::Endpoint*> eps;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    eps.push_back(&c.open_endpoint(static_cast<hw::NodeId>(n)));
    c.engine().spawn_daemon(receiver(*eps.back(), soak));
  }
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    c.engine().spawn(
        sender(c.engine(), c, *eps[n], n, msgs_per_node, seed, soak));
  }
  // Kill the first victim roughly a third of the way into the traffic.
  const Time first_kill = Time::us(25) * (msgs_per_node / 3.0);
  c.engine().spawn(
      reaper(c.engine(), c, victims, first_kill, Time::us(900), Time::ms(1)));

  // Post-restart phase: waits for the senders and the reaper, then proves
  // both directions of each victim work again.
  c.engine().spawn([](sim::Engine& eng, std::vector<bcl::Endpoint*>& eps,
                      const std::vector<std::uint32_t>& victims,
                      Soak& soak) -> Task<void> {
    const auto nodes = static_cast<int>(eps.size());
    while (soak.senders_done < nodes) co_await eng.sleep(Time::ms(1));
    co_await eng.sleep(Time::ms(3));  // let probes find the revived NICs
    std::uint32_t uid_base = 900'000'000u;
    for (const std::uint32_t v : victims) {
      const std::uint32_t other = v == 0 ? 1 : 0;
      auto in = eps[other]->process().alloc(kBytes);
      auto out = eps[v]->process().alloc(kBytes);
      co_await prove_recovered(eng, *eps[other], other, v, uid_base, in,
                               soak);
      co_await prove_recovered(eng, *eps[v], v, other, uid_base + 100,
                               out, soak);
      uid_base += 1'000;
    }
  }(c.engine(), eps, victims, soak));

  c.engine().run();

  Verdict v;
  for (const auto& [key, rec] : soak.submitted) {
    if (!rec.completed) {
      ++v.incomplete;
      continue;
    }
    const auto it = soak.delivered.find(key);
    const int copies = it == soak.delivered.end() ? 0 : it->second;
    switch (rec.err) {
      case bcl::BclErr::kOk:
        ++soak.ok;
        if (copies != 1) ++v.lost;
        break;
      case bcl::BclErr::kPeerRestarted:
        ++soak.peer_restarted;
        if (copies > 1) ++v.duplicates;
        break;
      case bcl::BclErr::kPeerUnreachable:
        ++soak.peer_unreachable;
        if (copies > 1) ++v.duplicates;
        break;
      default:
        ++v.bad_err;
    }
  }
  for (const auto& [key, copies] : soak.delivered) {
    if (copies > 1) ++v.duplicates;
    if (soak.submitted.find(key) == soak.submitted.end()) ++v.ghosts;
  }
  bool victims_clean = true;
  for (const std::uint32_t n : victims) {
    const auto& mcp = c.node(static_cast<hw::NodeId>(n)).mcp();
    if (mcp.recorder().count(bcl::NicEvent::kRestart) != 1 ||
        mcp.incarnation() != 1 || mcp.crashed()) {
      victims_clean = false;
    }
  }
  v.ok = v.duplicates == 0 && v.lost == 0 && v.ghosts == 0 &&
         v.bad_err == 0 && v.incomplete == 0 && soak.double_complete == 0 &&
         soak.post_restart_ok && victims_clean &&
         soak.peer_restarted + soak.peer_unreachable > 0 && soak.ok > 0;

  std::printf(
      "{\"bench\":\"chaos\",\"seed\":%llu,\"nodes\":%u,"
      "\"victims\":[%u,%u],\"submitted\":%zu,\"ok\":%llu,"
      "\"peer_restarted\":%llu,\"peer_unreachable\":%llu,"
      "\"would_block\":%llu,\"duplicates\":%llu,\"lost\":%llu,"
      "\"ghosts\":%llu,\"incomplete\":%llu,\"post_restart_ok\":%s,"
      "\"victims_clean\":%s,\"verdict\":\"%s\"}\n",
      static_cast<unsigned long long>(seed), kNodes, victims[0], victims[1],
      soak.submitted.size(), static_cast<unsigned long long>(soak.ok),
      static_cast<unsigned long long>(soak.peer_restarted),
      static_cast<unsigned long long>(soak.peer_unreachable),
      static_cast<unsigned long long>(soak.would_block),
      static_cast<unsigned long long>(v.duplicates),
      static_cast<unsigned long long>(v.lost),
      static_cast<unsigned long long>(v.ghosts),
      static_cast<unsigned long long>(v.incomplete),
      soak.post_restart_ok ? "true" : "false",
      victims_clean ? "true" : "false", v.ok ? "ok" : "violated");
  std::printf("chaos soak (seed %llu): %s\n",
              static_cast<unsigned long long>(seed), v.ok ? "ok" : "DIFF");
  return v.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  return run(seed, smoke ? 60 : 160);
}
