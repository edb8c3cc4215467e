// Multi-tenant security tests (paper section 4.4): "BCL forces the
// communication request from applications to pass some necessary security
// checks in kernel module and control program layers... With this
// safeguard mechanism BCL assures all processes using it will safely send
// and receive messages, never destroy kernel data structures."
#include <gtest/gtest.h>

#include <vector>

#include "bcl/bcl.hpp"
#include "bcl/coll/engine.hpp"

namespace {

using bcl::BclCluster;
using bcl::BclErr;
using bcl::ChanKind;
using bcl::ChannelRef;
using bcl::ClusterConfig;
using bcl::Endpoint;
using bcl::PortId;
using bcl::RecvEvent;
using osk::UserBuffer;
using sim::Task;
using sim::Time;

ClusterConfig two_nodes() {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 16u << 20;
  return cfg;
}

TEST(Security, ForgedBufferOfAnotherProcessRejected) {
  BclCluster c{two_nodes()};
  auto& victim = c.open_endpoint(0);
  auto& attacker = c.open_endpoint(0);
  // The victim allocates a buffer; the attacker forges a UserBuffer with
  // the victim's virtual address.  The attacker's own address space has no
  // mapping there, so the kernel check must reject the send.
  auto secret = victim.process().alloc(4096);
  victim.process().fill_pattern(secret, 1);
  c.engine().spawn([](Endpoint& attacker, UserBuffer forged) -> Task<void> {
    auto r = co_await attacker.send_system(PortId{1, 0}, forged, 4096);
    EXPECT_EQ(r.err, BclErr::kBadBuffer);
  }(attacker, UserBuffer{secret.vaddr, secret.len,
                         attacker.process().pid()}));
  c.engine().run();
  EXPECT_GE(c.node(0).driver().security_rejects(), 1u);
}

TEST(Security, MisbehavingTenantDoesNotDisturbOthers) {
  BclCluster c{two_nodes()};
  auto& good_tx = c.open_endpoint(0);
  auto& bad = c.open_endpoint(0);   // same node, different process
  auto& good_rx = c.open_endpoint(1);
  // The attacker hammers the kernel with invalid requests while a
  // well-behaved pair exchanges messages; every good message must arrive
  // intact.
  c.engine().spawn_daemon([](Endpoint& bad) -> Task<void> {
    auto buf = bad.process().alloc(64);
    for (;;) {
      (void)co_await bad.send_system(PortId{77, 0}, buf, 64);     // bad node
      (void)co_await bad.send_system(PortId{1, 99}, buf, 64);     // bad port
      (void)co_await bad.send(PortId{1, 0},
                              ChannelRef{ChanKind::kNormal, 999}, buf, 64);
      UserBuffer forged{0xbad000, 64, bad.process().pid()};
      (void)co_await bad.send_system(PortId{1, 0}, forged, 64);
    }
  }(bad));
  int delivered = 0;
  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(512);
    tx.process().fill_pattern(buf, 3);
    for (int i = 0; i < 20; ++i) {
      auto r = co_await tx.send_system(dst, buf, 512);
      EXPECT_EQ(r.err, BclErr::kOk);
      (void)co_await tx.wait_send();
    }
  }(good_tx, good_rx.id()));
  c.engine().spawn([](Endpoint& rx, int& delivered) -> Task<void> {
    for (int i = 0; i < 20; ++i) {
      RecvEvent ev = co_await rx.wait_recv();
      auto data = co_await rx.copy_out_system(ev);
      EXPECT_EQ(data.size(), 512u);
      ++delivered;
    }
  }(good_rx, delivered));
  c.engine().run_until(Time::ms(10));
  EXPECT_EQ(delivered, 20);
  EXPECT_GT(c.node(0).driver().security_rejects(), 50u);
}

TEST(Security, RmaCannotEscapeTheBoundWindow) {
  BclCluster c{two_nodes()};
  auto& attacker = c.open_endpoint(0);
  auto& victim = c.open_endpoint(1);
  // The victim binds a 4KB window; memory around it must stay untouched
  // no matter what offsets the attacker requests.
  auto before = victim.process().alloc(4096);
  auto window = victim.process().alloc(4096);
  auto after = victim.process().alloc(4096);
  victim.process().fill_pattern(before, 10);
  victim.process().fill_pattern(after, 11);
  c.engine().spawn([](Endpoint& victim, const UserBuffer& window)
                       -> Task<void> {
    EXPECT_EQ(co_await victim.bind_open(0, window), BclErr::kOk);
  }(victim, window));
  c.engine().spawn([](sim::Engine& e, Endpoint& attacker, PortId dst)
                       -> Task<void> {
    co_await e.sleep(Time::us(50));
    auto payload = attacker.process().alloc(8192);
    // Overruns, straddles, and absurd offsets.
    (void)co_await attacker.rma_write(dst, 0, 0, payload, 8192);
    (void)co_await attacker.rma_write(dst, 0, 4000, payload, 4096);
    (void)co_await attacker.rma_write(dst, 0, 1u << 30, payload, 64);
    // An unbound channel entirely.
    (void)co_await attacker.rma_write(dst, 3, 0, payload, 64);
  }(c.engine(), attacker, victim.id()));
  c.engine().run();
  EXPECT_TRUE(victim.process().check_pattern(before, 10));
  EXPECT_TRUE(victim.process().check_pattern(after, 11));
  EXPECT_GE(victim.port().rma_errors(), 4u);
}

// Node 0 reads `len` bytes from open channel `channel` of node 1, whose
// 4096-byte window is bound on channel 0 only, and the target refuses.
// The refusal is answered without data: the reader's reply channel
// completes exactly once with kNotBound (the verdict the intra-node path
// gives), nothing lands in its buffer, and the channel is released.  The
// target counts the refusal once.
void expect_refused_read(std::uint16_t channel, std::size_t len) {
  BclCluster c{two_nodes()};
  auto& attacker = c.open_endpoint(0);
  auto& victim = c.open_endpoint(1);
  c.engine().spawn([](Endpoint& victim, Endpoint& attacker) -> Task<void> {
    auto window = victim.process().alloc(4096);
    victim.process().fill_pattern(window, 3);
    EXPECT_EQ(co_await victim.bind_open(0, window), BclErr::kOk);
    auto go = victim.process().alloc(1);
    (void)co_await victim.send_system(attacker.id(), go, 0);
  }(victim, attacker));
  int completions = 0;
  c.engine().spawn([](Endpoint& attacker, PortId dst, std::uint16_t channel,
                      std::size_t len, int& completions) -> Task<void> {
    (void)co_await attacker.wait_recv();
    auto into = attacker.process().alloc(8192);
    attacker.process().fill_pattern(into, 4);
    auto r = co_await attacker.rma_read(dst, channel, 0, 1, into, len);
    EXPECT_EQ(r.err, BclErr::kOk);  // locally well-formed
    const RecvEvent ev = co_await attacker.wait_recv();
    ++completions;
    EXPECT_EQ(ev.err, BclErr::kNotBound);
    EXPECT_EQ(ev.channel.kind, ChanKind::kNormal);
    EXPECT_EQ(ev.channel.index, 1u);
    EXPECT_EQ(ev.len, 0u);
    EXPECT_TRUE(attacker.process().check_pattern(into, 4));  // nothing read
    EXPECT_FALSE(attacker.port().normal(1).posted);
  }(attacker, victim.id(), channel, len, completions));
  c.engine().run_until(Time::ms(5));
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(attacker.port().recv_events().size(), 0u);  // no second event
  EXPECT_EQ(victim.port().rma_errors(), 1u);
  EXPECT_EQ(attacker.port().rma_errors(), 0u);
  EXPECT_EQ(c.node(1).mcp().recorder().count(bcl::NicEvent::kRmaReadServed),
            0u);
}

// Ask for more than the window holds.
TEST(Security, RmaReadCannotLeakOutsideWindow) {
  expect_refused_read(/*channel=*/0, /*len=*/8192);
}

// Ask a channel with no window bound.
TEST(Security, RmaReadOfUnboundChannelFailsAtReader) {
  expect_refused_read(/*channel=*/1, /*len=*/64);
}

// The same read between two processes of one node: the shared-memory
// path refuses it at the caller and, like the NIC path, counts it at the
// target port as well as in the node's shm series.
TEST(Security, IntraNodeRmaReadCannotLeakOutsideWindow) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.node.mem_bytes = 8u << 20;
  BclCluster c{cfg};
  auto& attacker = c.open_endpoint(0);
  auto& victim = c.open_endpoint(0);
  c.engine().spawn([](Endpoint& victim, Endpoint& attacker) -> Task<void> {
    auto window = victim.process().alloc(4096);
    victim.process().fill_pattern(window, 3);
    EXPECT_EQ(co_await victim.bind_open(0, window), BclErr::kOk);
    auto into = attacker.process().alloc(8192);
    attacker.process().fill_pattern(into, 4);
    auto r = co_await attacker.rma_read(victim.id(), 0, 0, 1, into, 8192);
    EXPECT_EQ(r.err, BclErr::kNotBound);
    EXPECT_TRUE(attacker.process().check_pattern(into, 4));  // nothing read
  }(victim, attacker));
  c.engine().run();
  EXPECT_EQ(victim.port().rma_errors(), 1u);
  EXPECT_EQ(attacker.port().rma_errors(), 0u);
  EXPECT_EQ(c.metrics().value("node0.port1.rma_errors"), 1.0);
  EXPECT_EQ(c.metrics().value("node0.shm.rma_errors"), 1.0);
}

TEST(Security, IntraNodeBadBufferRejectedAtUserLevel) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.node.mem_bytes = 8u << 20;
  BclCluster c{cfg};
  auto& a = c.open_endpoint(0);
  auto& b = c.open_endpoint(0);
  c.engine().spawn([](Endpoint& a, PortId dst) -> Task<void> {
    UserBuffer forged{0xdead0000, 256, a.process().pid()};
    auto r = co_await a.send_system(dst, forged, 256);
    EXPECT_EQ(r.err, BclErr::kBadBuffer);
  }(a, b.id()));
  c.engine().run();
  EXPECT_EQ(b.port().messages_received(), 0u);
}

// The paper (4.4) names the application process ID among the parameters
// the kernel checks.  A second process on node 0 hands the driver the
// first process's port on every ioctl that takes one: each is refused with
// kBadPid, counted as a rejection, and leaves the port, the NIC and the
// pin-down table as they were.
TEST(Security, IoctlsOnAnotherProcessesPortRefused) {
  BclCluster c{two_nodes()};
  auto& victim = c.open_endpoint(0);
  auto& attacker = c.open_endpoint(0);  // same node, different process
  auto& peer = c.open_endpoint(1);
  bcl::Driver& driver = c.node(0).driver();
  const std::uint64_t rejects_before = driver.security_rejects();
  const std::size_t pinned_before = c.node(0).kernel().pindown().pinned_pages();
  c.engine().spawn([](bcl::Driver& driver, Endpoint& victim,
                      Endpoint& attacker, PortId peer) -> Task<void> {
    osk::Process& me = attacker.process();
    bcl::Port& theirs = victim.port();
    auto buf = me.alloc(4096);
    bcl::SendArgs send;
    send.dst = peer;
    send.vaddr = buf.vaddr;
    send.len = 64;
    EXPECT_EQ((co_await driver.ioctl_send(me, theirs, send)).err,
              BclErr::kBadPid);
    EXPECT_EQ(co_await driver.ioctl_post_recv(me, theirs, 0, buf),
              BclErr::kBadPid);
    EXPECT_EQ(co_await driver.ioctl_bind_open(me, theirs, 0, buf),
              BclErr::kBadPid);
    bcl::RegisterGroupArgs reg;
    reg.group_id = 5;
    reg.members = {victim.id(), peer};
    reg.my_index = 0;
    reg.result_buf = buf;
    EXPECT_EQ(co_await driver.ioctl_register_group(me, theirs, reg),
              BclErr::kBadPid);
    bcl::CollPostArgs post;
    post.group_id = 5;
    EXPECT_EQ((co_await driver.ioctl_coll_post(me, theirs, post)).err,
              BclErr::kBadPid);
  }(driver, victim, attacker, peer.id()));
  c.engine().run();
  EXPECT_EQ(driver.security_rejects() - rejects_before, 5u);
  const bcl::Port& port = victim.port();
  EXPECT_FALSE(port.normal(0).posted);
  EXPECT_FALSE(port.open(0).bound);
  EXPECT_EQ(port.messages_sent(), 0u);
  EXPECT_EQ(c.metrics().value("node0.driver.sends"), 0.0);
  EXPECT_EQ(peer.port().messages_received(), 0u);
  EXPECT_EQ(c.node(0).mcp().coll().group_count(), 0u);
  EXPECT_EQ(c.node(0).kernel().pindown().pinned_pages(), pinned_before);
}

// The caller owns the port it passes, but the group member slot the call
// rests on is another port's: registering as another member, or posting
// to a group this port is not a member of, is refused with kBadPid.
TEST(Security, GroupCallsMustComeFromTheMembersOwnPort) {
  BclCluster c{two_nodes()};
  auto& member = c.open_endpoint(0);
  auto& outsider = c.open_endpoint(0);
  auto& peer = c.open_endpoint(1);
  bcl::Driver& driver = c.node(0).driver();
  std::uint64_t rejects_before = 0;
  c.engine().spawn([](bcl::Driver& driver, Endpoint& member,
                      Endpoint& outsider, PortId peer,
                      std::uint64_t& rejects_before) -> Task<void> {
    bcl::RegisterGroupArgs reg;
    reg.group_id = 5;
    reg.members = {member.id(), peer};
    reg.my_index = 0;
    reg.result_buf = member.process().alloc(64);
    EXPECT_EQ(co_await driver.ioctl_register_group(member.process(),
                                                   member.port(), reg),
              BclErr::kOk);
    rejects_before = driver.security_rejects();
    // my_index names the peer's port, not the outsider's own.
    bcl::RegisterGroupArgs as_peer;
    as_peer.group_id = 6;
    as_peer.members = {outsider.id(), peer};
    as_peer.my_index = 1;
    as_peer.result_buf = outsider.process().alloc(64);
    EXPECT_EQ(co_await driver.ioctl_register_group(outsider.process(),
                                                   outsider.port(), as_peer),
              BclErr::kBadPid);
    // Group 5 is registered on this NIC, but for the member's port.
    bcl::CollPostArgs post;
    post.group_id = 5;
    EXPECT_EQ((co_await driver.ioctl_coll_post(outsider.process(),
                                               outsider.port(), post))
                  .err,
              BclErr::kBadPid);
  }(driver, member, outsider, peer.id(), rejects_before));
  c.engine().run_until(Time::ms(1));
  EXPECT_EQ(driver.security_rejects() - rejects_before, 2u);
  auto& coll = c.node(0).mcp().coll();
  EXPECT_EQ(coll.group_count(), 1u);
  EXPECT_EQ(coll.find_group(6), nullptr);
  EXPECT_EQ(c.node(0).mcp().recorder().count(bcl::NicEvent::kCollPost), 0u);
}

TEST(Security, TryRecvPollsWithoutBlocking) {
  BclCluster c{two_nodes()};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn([](sim::Engine& e, Endpoint& rx, Endpoint& tx)
                       -> Task<void> {
    // Nothing yet.
    auto none = co_await rx.try_recv();
    EXPECT_FALSE(none.has_value());
    // Ask for a message, then poll until it shows up.
    auto go = rx.process().alloc(1);
    (void)co_await rx.send_system(tx.id(), go, 0);
    std::optional<bcl::RecvEvent> ev;
    while (!ev) {
      co_await e.sleep(Time::us(5));
      ev = co_await rx.try_recv();
    }
    auto data = co_await rx.copy_out_system(*ev);
    EXPECT_EQ(data.size(), 128u);
  }(c.engine(), rx, tx));
  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    (void)co_await tx.wait_recv();
    auto buf = tx.process().alloc(128);
    (void)co_await tx.send_system(dst, buf, 128);
  }(tx, rx.id()));
  c.engine().run();
}

}  // namespace
