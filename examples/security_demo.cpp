// The security story of the semi-user-level architecture (section 4.4),
// live: a hostile process fires malformed requests at the kernel module
// and RMA windows while two well-behaved tenants keep communicating.
// Every attack is refused with an error code or dropped at the target NIC
// with a counter; the good traffic is unaffected.
//
// Run: ./build/examples/security_demo
#include <cstdio>

#include "bcl/bcl.hpp"

using bcl::BclErr;
using bcl::ChanKind;
using bcl::ChannelRef;
using bcl::Endpoint;
using bcl::PortId;
using osk::UserBuffer;
using sim::Task;
using sim::Time;

namespace {

Task<void> attacker(Endpoint& me, PortId victim, const UserBuffer& stolen) {
  auto buf = me.process().alloc(256);
  struct Attack {
    const char* what;
    BclErr got;
  };
  std::vector<Attack> log;

  auto r = co_await me.send_system(PortId{42, 0}, buf, 256);
  log.push_back({"send to non-existent node 42", r.err});
  r = co_await me.send_system(PortId{victim.node, 500}, buf, 256);
  log.push_back({"send to out-of-range port 500", r.err});
  r = co_await me.send(victim, ChannelRef{ChanKind::kNormal, 9999}, buf, 256);
  log.push_back({"send to out-of-range channel", r.err});
  UserBuffer unmapped{0xdeadb000, 1024, me.process().pid()};
  r = co_await me.send_system(victim, unmapped, 1024);
  log.push_back({"send from unmapped address", r.err});
  auto big = me.process().alloc(16384);
  r = co_await me.send_system(victim, big, 16384);
  log.push_back({"oversized system-channel message", r.err});
  // RMA overrun: locally well-formed, refused at the target NIC.
  r = co_await me.rma_write(victim, 0, 1u << 20, big, 4096);
  log.push_back({"RMA write far past the window", r.err});
  (void)co_await me.wait_send();

  std::printf("\nattacker's log (every line should be refused):\n");
  for (const auto& a : log) {
    std::printf("  %-36s -> %s\n", a.what, bcl::to_string(a.got));
  }
  // Note on pointer forgery: virtual addresses of *other* processes are
  // meaningless here by construction — the kernel translates every send
  // through the caller's own page table, so a "stolen" pointer can only
  // ever reach the attacker's own memory.  That is the design's defense,
  // not a check that fires.
  (void)stolen;
}

Task<void> good_sender(Endpoint& me, PortId dst, int* delivered) {
  auto buf = me.process().alloc(1024);
  me.process().fill_pattern(buf, 7);
  for (int i = 0; i < 10; ++i) {
    auto r = co_await me.send_system(dst, buf, 1024);
    if (!r.ok()) throw std::runtime_error("good traffic failed!");
    (void)co_await me.wait_send();
  }
  (void)delivered;
}

Task<void> good_receiver(Endpoint& me, int& delivered) {
  for (int i = 0; i < 10; ++i) {
    auto ev = co_await me.wait_recv();
    auto data = co_await me.copy_out_system(ev);
    if (data.size() != 1024) throw std::runtime_error("truncated message");
    ++delivered;
  }
}

}  // namespace

int main() {
  std::printf("semi-user-level security demo: 1 attacker, 2 good tenants\n");
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  bcl::BclCluster cluster{cfg};
  auto& good_tx = cluster.open_endpoint(0);
  auto& evil = cluster.open_endpoint(0);  // same node as the good sender
  auto& good_rx = cluster.open_endpoint(1);

  // The victim-side RMA window the attacker will try to escape.
  auto window = good_rx.process().alloc(4096);
  cluster.engine().spawn([](Endpoint& rx, const UserBuffer& w) -> Task<void> {
    if (co_await rx.bind_open(0, w) != BclErr::kOk) {
      throw std::runtime_error("bind failed");
    }
  }(good_rx, window));

  auto secret = good_tx.process().alloc(4096);
  int delivered = 0;
  cluster.engine().spawn(attacker(evil, good_rx.id(), secret));
  cluster.engine().spawn(good_sender(good_tx, good_rx.id(), &delivered));
  cluster.engine().spawn(good_receiver(good_rx, delivered));
  cluster.engine().run();

  std::printf("\ngood tenant delivered %d/10 messages\n", delivered);
  std::printf("kernel security rejections on node 0: %llu\n",
              (unsigned long long)cluster.node(0).driver().security_rejects());
  std::printf("RMA violations refused at the victim NIC: %llu\n",
              (unsigned long long)good_rx.port().rma_errors());
  std::printf("victim-node kernel traps: %llu — only its own bind_open "
              "ioctl; receiving 10 messages added none\n",
              (unsigned long long)cluster.node(1).kernel().traps());
  return delivered == 10 ? 0 : 1;
}
