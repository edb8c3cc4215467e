// One receive rule for every channel (Port::land): the same table of
// refusals runs over the NIC path (two nodes) and the shared-memory path
// (two processes of one node), and every case must read the same on both.
// A message's verdict is taken at its first piece, a refusal is counted
// once per message, and nothing of a refused message lands.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "bcl/bcl.hpp"
#include "hw/link.hpp"
#include "hw/myrinet_switch.hpp"

namespace {

using bcl::BclCluster;
using bcl::BclErr;
using bcl::ChanKind;
using bcl::ChannelRef;
using bcl::ClusterConfig;
using bcl::Endpoint;
using osk::UserBuffer;
using sim::Task;
using sim::Time;

enum class Path { kNic, kShm };

// What a case leaves at the receiving port.
struct Outcome {
  std::uint64_t sys_drops = 0;
  std::uint64_t not_posted_drops = 0;
  std::uint64_t rma_errors = 0;
  std::uint64_t messages_received = 0;
  std::size_t events = 0;  // receive events queued, never drained
  bool posted = false;     // normal channel 0 still posted
  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << "{sys_drops " << o.sys_drops << ", not_posted_drops "
            << o.not_posted_drops << ", rma_errors " << o.rma_errors
            << ", messages_received " << o.messages_received << ", events "
            << o.events << ", posted " << o.posted << "}";
}

// A buffer that must hold its pattern when the run ends.
struct Guard {
  Endpoint* owner;
  UserBuffer buf;
  unsigned seed;
};

struct Rig {
  sim::Engine& eng;
  Endpoint& tx;
  Endpoint& rx;
  std::vector<Guard> guards;

  UserBuffer guarded(Endpoint& ep, std::size_t len, unsigned seed) {
    const UserBuffer buf = ep.process().alloc(len);
    ep.process().fill_pattern(buf, seed);
    guards.push_back({&ep, buf, seed});
    return buf;
  }
};

// Senders wait this long, so the receiver's posts and binds come first.
constexpr Time kSetup = Time::us(50);

Task<void> send_normal(Rig& r, std::size_t len) {
  co_await r.eng.sleep(kSetup);
  const UserBuffer buf = r.tx.process().alloc(len);
  r.tx.process().fill_pattern(buf, 1);
  const auto res = co_await r.tx.send(
      r.rx.id(), ChannelRef{ChanKind::kNormal, 0}, buf, len);
  EXPECT_EQ(res.err, BclErr::kOk);  // accepted locally
}

Task<void> rma_write(Rig& r, std::uint16_t channel, std::uint64_t offset,
                     std::size_t len) {
  co_await r.eng.sleep(kSetup);
  const UserBuffer buf = r.tx.process().alloc(len);
  r.tx.process().fill_pattern(buf, 1);
  const auto res =
      co_await r.tx.rma_write(r.rx.id(), channel, offset, buf, len);
  EXPECT_EQ(res.err, BclErr::kOk);  // accepted locally
}

Task<void> post(Rig& r, std::size_t len) {
  EXPECT_EQ(co_await r.rx.post_recv(0, r.guarded(r.rx, len, 2)),
            BclErr::kOk);
}

Task<void> bind_window(Rig& r) {
  EXPECT_EQ(co_await r.rx.bind_open(0, r.guarded(r.rx, 4096, 3)),
            BclErr::kOk);
}

// 8 KiB to a normal channel nobody posts.
void unposted_normal(Rig& r) { r.eng.spawn(send_normal(r, 8192)); }

// 8 KiB to an unposted normal channel, posted as soon as the first piece
// is refused: the rest of that message must not complete the receive.
void late_post(Rig& r) {
  r.eng.spawn(send_normal(r, 8192));
  r.eng.spawn([](Rig& r) -> Task<void> {
    for (int i = 0; i < 10000 && r.rx.port().not_posted_drops() == 0; ++i) {
      co_await r.eng.sleep(Time::ns(100));
    }
    co_await post(r, 8192);
  }(r));
}

// 8 KiB into a posted 4 KiB buffer: refused at its first piece.
void normal_overflow(Rig& r) {
  r.eng.spawn(post(r, 4096));
  r.eng.spawn(send_normal(r, 8192));
}

// A write just past the end of the window.
void open_out_of_range(Rig& r) {
  r.eng.spawn(bind_window(r));
  r.eng.spawn(rma_write(r, 0, 4096, 64));
}

// An offset so large that offset + length wraps past zero.
void wrapping_offset(Rig& r) {
  r.eng.spawn(bind_window(r));
  r.eng.spawn(rma_write(r, 0, ~std::uint64_t{0} - 63, 128));
}

void unbound_open(Rig& r) {
  r.eng.spawn(bind_window(r));
  r.eng.spawn(rma_write(r, 1, 0, 64));
}

// 8 KiB at offset 0 into a 4 KiB window: lands whole or not at all.
void rma_overrun(Rig& r) {
  r.eng.spawn(bind_window(r));
  r.eng.spawn(rma_write(r, 0, 0, 8192));
}

// The sender reads 8 KiB from a 4 KiB window.  The NIC path answers with
// a reply that carries the verdict; shared memory refuses at the caller.
void refused_read(Rig& r) {
  r.eng.spawn(bind_window(r));
  r.eng.spawn([](Rig& r) -> Task<void> {
    co_await r.eng.sleep(kSetup);
    const UserBuffer into = r.guarded(r.tx, 8192, 4);
    const auto res = co_await r.tx.rma_read(r.rx.id(), 0, 0, 1, into, 8192);
    const BclErr verdict = res.err != BclErr::kOk
                               ? res.err
                               : (co_await r.tx.wait_recv()).err;
    EXPECT_EQ(verdict, BclErr::kNotBound);
  }(r));
}

// One system slot, flow control off, two 4 KiB messages, nothing drained:
// the second is discarded (paper semantics) and the slot keeps the first.
void system_pool_full(Rig& r) {
  const auto& pool = r.rx.port().system().pool;
  r.guards.push_back({&r.rx, UserBuffer{pool.vaddr, 4096, pool.owner}, 5});
  r.eng.spawn([](Rig& r) -> Task<void> {
    co_await r.eng.sleep(kSetup);
    for (unsigned seed : {5u, 6u}) {
      const UserBuffer buf = r.tx.process().alloc(4096);
      r.tx.process().fill_pattern(buf, seed);
      EXPECT_EQ((co_await r.tx.send_system(r.rx.id(), buf, 4096)).err,
                BclErr::kOk);
    }
  }(r));
}

struct Case {
  const char* name;
  void (*start)(Rig&);
  Outcome expect;
  bool one_slot = false;  // sys_slots 1, flow control off
};

// By name: gtest would otherwise dump the bytes of the two pointers, and
// with them the load address, into every discovered test name.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

const Case kCases[] = {
    {"UnpostedNormal", unposted_normal, {.not_posted_drops = 1}},
    {"LatePost", late_post, {.not_posted_drops = 1, .posted = true}},
    {"NormalOverflow", normal_overflow,
     {.not_posted_drops = 1, .posted = true}},
    {"OpenOutOfRange", open_out_of_range, {.rma_errors = 1}},
    {"WrappingOffset", wrapping_offset, {.rma_errors = 1}},
    {"UnboundOpen", unbound_open, {.rma_errors = 1}},
    {"RmaWriteOverrun", rma_overrun, {.rma_errors = 1}},
    {"RefusedRmaRead", refused_read, {.rma_errors = 1}},
    {"SystemPoolFull", system_pool_full,
     {.sys_drops = 1, .messages_received = 1, .events = 1},
     /*one_slot=*/true},
};

class ChannelRule
    : public ::testing::TestWithParam<std::tuple<Case, Path>> {};

TEST_P(ChannelRule, SameVerdictOnBothPaths) {
  const auto& [kase, path] = GetParam();
  ClusterConfig cfg;
  cfg.nodes = path == Path::kNic ? 2 : 1;
  cfg.node.mem_bytes = 16u << 20;
  if (kase.one_slot) {
    cfg.cost.sys_slots = 1;
    cfg.cost.flow_control = false;
  }
  BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(path == Path::kNic ? 1 : 0);
  Rig rig{c.engine(), tx, rx, {}};
  kase.start(rig);
  c.engine().run();

  const bcl::Port& port = rx.port();
  const Outcome got{port.sys_drops(), port.not_posted_drops(),
                    port.rma_errors(), port.messages_received(),
                    rx.port().recv_events().size(), port.normal(0).posted};
  EXPECT_EQ(got, kase.expect);
  for (const Guard& g : rig.guards) {
    EXPECT_TRUE(g.owner->process().check_pattern(g.buf, g.seed))
        << "a refused message wrote into a buffer of port "
        << g.owner->id().port;
  }
  if (path == Path::kShm) {
    // The node's shm series count the same messages as the port.
    EXPECT_EQ(c.metrics().value("node0.shm.sys_drops"),
              static_cast<double>(got.sys_drops));
    EXPECT_EQ(c.metrics().value("node0.shm.not_posted_drops"),
              static_cast<double>(got.not_posted_drops));
    EXPECT_EQ(c.metrics().value("node0.shm.rma_errors"),
              static_cast<double>(got.rma_errors));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table, ChannelRule,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(Path::kNic, Path::kShm)),
    [](const ::testing::TestParamInfo<std::tuple<Case, Path>>& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) == Path::kNic ? "Nic" : "Shm");
    });

// What shares a pipe with a system message in the interleave cases.
enum class Partner { kNormal, kRmaWrite, kSystem };

const char* name(Partner p) {
  switch (p) {
    case Partner::kNormal:
      return "Normal";
    case Partner::kRmaWrite:
      return "RmaWrite";
    case Partner::kSystem:
      break;
  }
  return "System";
}

constexpr std::size_t kLen = 4096;  // each interleaved message

class Interleave
    : public ::testing::TestWithParam<std::tuple<Partner, Path>> {};

// A 4 KiB system message and a second 4 KiB message leave one port for
// the same peer at once.  Over shared memory each is two chunks and the
// pipe interleaves them; every message must still land whole, the system
// message in a slot of its own that goes back to the pool on copy-out.
TEST_P(Interleave, EveryMessageLandsWhole) {
  const auto& [partner, path] = GetParam();
  ClusterConfig cfg;
  cfg.nodes = path == Path::kNic ? 2 : 1;
  cfg.node.mem_bytes = 16u << 20;
  BclCluster c{cfg};
  Endpoint& tx = c.open_endpoint(0);
  Endpoint& rx = c.open_endpoint(path == Path::kNic ? 1 : 0);
  const UserBuffer target = rx.process().alloc(kLen);
  const UserBuffer sys_buf = tx.process().alloc(kLen);
  const UserBuffer other_buf = tx.process().alloc(kLen);
  tx.process().fill_pattern(sys_buf, 5);
  tx.process().fill_pattern(other_buf, 6);
  std::vector<std::vector<std::byte>> copied;  // system messages, copied out
  std::size_t events = 0;

  c.engine().spawn([](Endpoint& rx, const UserBuffer& target,
                      Partner partner) -> Task<void> {
    if (partner == Partner::kNormal) {
      EXPECT_EQ(co_await rx.post_recv(0, target), BclErr::kOk);
    } else if (partner == Partner::kRmaWrite) {
      EXPECT_EQ(co_await rx.bind_open(0, target), BclErr::kOk);
    }
  }(rx, target, partner));
  c.engine().spawn([](sim::Engine& eng, Endpoint& tx, bcl::PortId dst,
                      const UserBuffer& buf) -> Task<void> {
    co_await eng.sleep(kSetup);
    EXPECT_EQ((co_await tx.send_system(dst, buf, kLen)).err, BclErr::kOk);
  }(c.engine(), tx, rx.id(), sys_buf));
  c.engine().spawn([](sim::Engine& eng, Endpoint& tx, bcl::PortId dst,
                      const UserBuffer& buf, Partner partner) -> Task<void> {
    co_await eng.sleep(kSetup);
    bcl::Result<std::uint64_t> res;
    if (partner == Partner::kNormal) {
      res = co_await tx.send(dst, ChannelRef{ChanKind::kNormal, 0}, buf, kLen);
    } else if (partner == Partner::kRmaWrite) {
      res = co_await tx.rma_write(dst, 0, 0, buf, kLen);
    } else {
      res = co_await tx.send_system(dst, buf, kLen);
    }
    EXPECT_EQ(res.err, BclErr::kOk);
  }(c.engine(), tx, rx.id(), other_buf, partner));
  const std::size_t expected = partner == Partner::kRmaWrite ? 1 : 2;
  c.engine().spawn([](Endpoint& rx, std::size_t expected, std::size_t& events,
                      std::vector<std::vector<std::byte>>& copied)
                       -> Task<void> {
    for (; events < expected; ++events) {
      const bcl::RecvEvent ev = co_await rx.wait_recv();
      EXPECT_EQ(ev.err, BclErr::kOk);
      EXPECT_EQ(ev.len, kLen);
      if (ev.channel.kind == ChanKind::kSystem) {
        copied.push_back(co_await rx.copy_out_system(ev));
      }
    }
  }(rx, expected, events, copied));
  c.engine().run();

  ASSERT_EQ(events, expected) << "a message never completed";
  const auto bytes = [&tx](const UserBuffer& buf) {
    std::vector<std::byte> out(buf.len);
    tx.process().peek(buf, 0, out);
    return out;
  };
  std::vector<std::vector<std::byte>> sent{bytes(sys_buf)};
  if (partner == Partner::kSystem) sent.push_back(bytes(other_buf));
  ASSERT_EQ(copied.size(), sent.size());
  for (const auto& msg : sent) {
    EXPECT_NE(std::ranges::find(copied, msg), copied.end())
        << "a system message did not land whole";
  }
  if (partner != Partner::kSystem) {
    EXPECT_TRUE(rx.process().check_pattern(target, 6));
  }
  const bcl::Port& port = rx.port();
  EXPECT_EQ(port.system().free_slots.size(),
            static_cast<std::size_t>(cfg.cost.sys_slots))
      << "a system slot never went back to the pool";
  EXPECT_EQ(port.sys_drops(), 0u);
  EXPECT_EQ(port.not_posted_drops(), 0u);
  EXPECT_EQ(port.rma_errors(), 0u);
  EXPECT_EQ(port.messages_received(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    SharedPipe, Interleave,
    ::testing::Combine(::testing::Values(Partner::kNormal, Partner::kRmaWrite,
                                         Partner::kSystem),
                       ::testing::Values(Path::kNic, Path::kShm)),
    [](const ::testing::TestParamInfo<std::tuple<Partner, Path>>& info) {
      return std::string(name(std::get<0>(info.param))) +
             (std::get<1>(info.param) == Path::kNic ? "Nic" : "Shm");
    });

// Pieces handed to Port::land directly, as a transport hands them over.
class PortUnit : public ::testing::Test {
 protected:
  PortUnit() : c_{config()}, rx_{c_.open_endpoint(0)}, port_{rx_.port()} {}

  static ClusterConfig config() {
    ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.node.mem_bytes = 16u << 20;
    return cfg;
  }
  void post(std::size_t len) {
    const UserBuffer buf = rx_.process().alloc(len);
    port_.post(0, buf, rx_.process().translate(buf.vaddr, buf.len));
  }
  // Piece `index` of a message of `bytes` sent `piece` bytes at a time.
  static bcl::Piece piece(ChanKind kind, std::uint64_t msg_id,
                          std::uint64_t bytes, std::uint32_t index,
                          std::size_t piece) {
    return bcl::Piece{ChannelRef{kind, 0}, bcl::PortId{0, 7}, msg_id, bytes,
                      index * std::uint64_t{piece}, piece, index, piece};
  }

  BclCluster c_;
  Endpoint& rx_;
  bcl::Port& port_;
};

// A sender that dies between two pieces must not wedge the channel: the
// next message's first piece takes the posting over and the cut-off
// message counts once, and its later pieces are refused without being
// counted again.  Once every piece of the new message has landed, the
// posting is consumed until the message completes.
TEST_F(PortUnit, NewFirstPieceStartsOver) {
  post(8192);
  const auto normal = [](std::uint64_t msg_id, std::uint32_t index) {
    return piece(ChanKind::kNormal, msg_id, 8192, index, 4096);
  };
  EXPECT_EQ(port_.land(normal(1, 0), false).err, BclErr::kOk);
  const bcl::Landing over = port_.land(normal(2, 0), false);
  EXPECT_EQ(over.err, BclErr::kOk);
  EXPECT_EQ(over.refused, 1u);
  EXPECT_EQ(port_.land(normal(1, 1), false).err, BclErr::kNotPosted);
  EXPECT_EQ(port_.land(normal(2, 1), false).err, BclErr::kOk);
  EXPECT_EQ(port_.not_posted_drops(), 1u);
  EXPECT_EQ(port_.land(normal(3, 0), false).err, BclErr::kNotPosted);
  EXPECT_EQ(port_.not_posted_drops(), 2u);
}

// A piece out of order means one went missing: the message is cut off
// and counted once, and the posting is free for the next message.
TEST_F(PortUnit, MissingPieceCutsTheMessageOff) {
  post(12288);
  const auto normal = [](std::uint64_t msg_id, std::uint32_t index) {
    return piece(ChanKind::kNormal, msg_id, 12288, index, 4096);
  };
  EXPECT_EQ(port_.land(normal(1, 0), false).err, BclErr::kOk);
  const bcl::Landing gap = port_.land(normal(1, 2), false);
  EXPECT_EQ(gap.err, BclErr::kNotPosted);
  EXPECT_EQ(gap.refused, 1u);
  EXPECT_EQ(port_.land(normal(1, 1), false).err, BclErr::kNotPosted);
  EXPECT_EQ(port_.not_posted_drops(), 1u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(port_.land(normal(2, i), false).err, BclErr::kOk);
  }
  EXPECT_EQ(port_.not_posted_drops(), 1u);
}

// Pieces of two system messages that interleave each land in their own
// message's slot; a system message that loses a piece gives its slot
// back and counts once.
TEST_F(PortUnit, SystemPiecesKeepTheirSlot) {
  const std::size_t slots = port_.system().free_slots.size();
  const auto sys = [](std::uint64_t msg_id, std::uint32_t index) {
    return piece(ChanKind::kSystem, msg_id, 4096, index, 1024);
  };
  const int a = port_.land(sys(1, 0), false).slot;
  const int b = port_.land(sys(2, 0), false).slot;
  EXPECT_NE(a, b);
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(port_.land(sys(2, i), false).slot, b);
    EXPECT_EQ(port_.land(sys(1, i), false).slot, a);
  }
  EXPECT_EQ(port_.system().free_slots.size(), slots - 2);

  EXPECT_EQ(port_.land(sys(3, 0), false).err, BclErr::kOk);
  EXPECT_EQ(port_.system().free_slots.size(), slots - 3);
  EXPECT_EQ(port_.land(sys(3, 2), false).err, BclErr::kNoResources);
  EXPECT_EQ(port_.land(sys(3, 3), false).err, BclErr::kNoResources);
  EXPECT_EQ(port_.system().free_slots.size(), slots - 2);
  EXPECT_EQ(port_.sys_drops(), 1u);
}

// A channel kind no channel type has is a bad target, refused without
// counting in any refusal counter.
TEST_F(PortUnit, UnknownChannelKindIsABadTarget) {
  const auto unknown = static_cast<ChanKind>(3);
  EXPECT_EQ(port_.land(piece(unknown, 1, 64, 0, 64), false).err,
            BclErr::kBadTarget);
  EXPECT_EQ(port_.sys_drops(), 0u);
  EXPECT_EQ(port_.not_posted_drops(), 0u);
  EXPECT_EQ(port_.rma_errors(), 0u);
  EXPECT_EQ(port_.rnr_events(), 0u);
}

// An RMA read takes its bytes from an open channel only: any other channel
// is not bound, counted once in rma_errors.
TEST_F(PortUnit, RmaReadFromAChannelThatIsNotOpenIsNotBound) {
  EXPECT_EQ(port_.rma_source(ChannelRef{ChanKind::kNormal, 0}, 0, 64).err,
            BclErr::kNotBound);
  EXPECT_EQ(port_.rma_errors(), 1u);
}

// Without the reliable transport a lost middle packet must not let the
// last one complete the receive with a hole: the message is cut off and
// counted once, and the posting stays free for the next message.
TEST(ChannelRuleUnit, LostPacketNeverCompletesAReceive) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 16u << 20;
  cfg.cost.reliable = false;
  BclCluster c{cfg};
  hw::FaultPlan plan;
  plan.drop_nth = {1};  // the second of the message's three packets
  dynamic_cast<hw::MyrinetFabric&>(c.fabric())
      .set_host_link_fault_plan(0, plan);
  Endpoint& tx = c.open_endpoint(0);
  Endpoint& rx = c.open_endpoint(1);
  Rig rig{c.engine(), tx, rx, {}};
  c.engine().spawn(post(rig, 12288));
  c.engine().spawn(send_normal(rig, 12288));
  c.engine().run();

  const bcl::Port& port = rx.port();
  EXPECT_EQ(port.not_posted_drops(), 1u);
  EXPECT_EQ(port.messages_received(), 0u);
  EXPECT_EQ(rx.port().recv_events().size(), 0u);
  EXPECT_TRUE(port.normal(0).posted);
}

// A channel kind the receive rule does not know is refused at the sender,
// by the kernel on the NIC path and at user level over shared memory,
// before any byte moves.
TEST(ChannelRuleUnit, SendRefusesUnknownChannelKind) {
  for (const Path path : {Path::kNic, Path::kShm}) {
    ClusterConfig cfg;
    cfg.nodes = path == Path::kNic ? 2 : 1;
    cfg.node.mem_bytes = 16u << 20;
    BclCluster c{cfg};
    Endpoint& tx = c.open_endpoint(0);
    Endpoint& rx = c.open_endpoint(path == Path::kNic ? 1 : 0);
    c.engine().spawn([](Endpoint& tx, bcl::PortId dst) -> Task<void> {
      const UserBuffer buf = tx.process().alloc(64);
      const auto res = co_await tx.send(
          dst, ChannelRef{static_cast<ChanKind>(3), 0}, buf, 64);
      EXPECT_EQ(res.err, BclErr::kBadTarget);
    }(tx, rx.id()));
    c.engine().run();
    EXPECT_EQ(tx.port().messages_sent(), 0u);
  }
}

// An RMA read's reply lands through the reader's port on both paths: the
// read posts its reply channel (refusing one out of range), the reply
// counts as a received message and un-posts the channel.
TEST(ChannelRuleUnit, RmaReadReplyLandsThroughThePort) {
  for (const Path path : {Path::kNic, Path::kShm}) {
    SCOPED_TRACE(path == Path::kNic ? "NIC" : "shared memory");
    ClusterConfig cfg;
    cfg.nodes = path == Path::kNic ? 2 : 1;
    cfg.node.mem_bytes = 16u << 20;
    BclCluster c{cfg};
    Endpoint& reader = c.open_endpoint(0);
    Endpoint& target = c.open_endpoint(path == Path::kNic ? 1 : 0);
    const UserBuffer window = target.process().alloc(4096);
    target.process().fill_pattern(window, 3);
    const UserBuffer into = reader.process().alloc(4000);
    bool done = false;
    c.engine().spawn([](sim::Engine& eng, Endpoint& reader, Endpoint& target,
                        UserBuffer window, UserBuffer into,
                        bool& done) -> Task<void> {
      EXPECT_EQ(co_await target.bind_open(0, window), BclErr::kOk);
      co_await eng.sleep(kSetup);
      const auto out_of_range =
          co_await reader.rma_read(target.id(), 0, 0, 40, into, 4000);
      EXPECT_EQ(out_of_range.err, BclErr::kBadTarget);
      const auto r = co_await reader.rma_read(target.id(), 0, 0, 1, into, 4000);
      EXPECT_EQ(r.err, BclErr::kOk);
      const bcl::RecvEvent ev = co_await reader.wait_recv();
      EXPECT_EQ(ev.err, BclErr::kOk);
      EXPECT_EQ(ev.channel.kind, ChanKind::kNormal);
      EXPECT_EQ(ev.channel.index, 1u);
      EXPECT_EQ(ev.len, 4000u);
      done = true;
    }(c.engine(), reader, target, window, into, done));
    c.engine().run();

    ASSERT_TRUE(done);
    EXPECT_EQ(reader.port().messages_received(), 1u);
    EXPECT_FALSE(reader.port().normal(1).posted);
    EXPECT_EQ(reader.port().recv_events().size(), 0u);
    std::vector<std::byte> sent(4000);
    std::vector<std::byte> got(4000);
    target.process().peek(window, 0, sent);
    reader.process().peek(into, 0, got);
    EXPECT_EQ(got, sent);
  }
}

}  // namespace
