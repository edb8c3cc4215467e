// Tests for the EADI-2 device layer: eager/rendezvous selection, matching
// with wildcards, unexpected messages, truncation, many-message streams,
// page-sized inter-node messages sent eagerly as a head plus a
// continuation, a refused rendezvous, and the order in which the staging
// pool hands out buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "hw/myrinet_switch.hpp"

namespace {

using cluster::World;
using cluster::WorldConfig;
using eadi::Device;
using eadi::kAnyNode;
using eadi::kAnyTag;
using minimpi::Mpi;
using osk::UserBuffer;
using sim::Task;
using sim::Time;

WorldConfig two_rank_cfg(bool same_node = false) {
  WorldConfig cfg;
  cfg.cluster.nodes = same_node ? 1 : 2;
  cfg.cluster.node.mem_bytes = 16u << 20;
  return cfg;
}

TEST(Eadi, EagerMessageDelivered) {
  World w{two_rank_cfg(), 2};
  bool ok = false;
  w.engine().spawn([](Device& d, bcl::PortId dst) -> Task<void> {
    auto buf = d.process().alloc(512);
    d.process().fill_pattern(buf, 3);
    co_await d.send(dst, 0, /*tag=*/42, buf, 512);
  }(w.device(0), w.device(1).id()));
  w.engine().spawn([](Device& d, bool& ok) -> Task<void> {
    auto buf = d.process().alloc(512);
    auto r = co_await d.recv(0, 42, bcl::PortId{kAnyNode, 0}, buf);
    EXPECT_EQ(r.tag, 42);
    EXPECT_EQ(r.len, 512u);
    ok = d.process().check_pattern(buf, 3);
  }(w.device(1), ok));
  w.engine().run();
  EXPECT_TRUE(ok);
}

// The sender refills its buffer as soon as send returns, which a blocking
// send allows: the receiver must still get the bytes that were sent, at
// one-chunk, chunk-boundary and several-chunk sizes.
TEST(Eadi, RendezvousLargeMessage) {
  for (const std::size_t len : {4097u, 65536u, 65537u, 131072u, 300'000u}) {
    SCOPED_TRACE(len);
    World w{two_rank_cfg(), 2};
    bool ok = false;
    w.engine().spawn([](Device& d, bcl::PortId dst, std::size_t len)
                         -> Task<void> {
      auto buf = d.process().alloc(len);
      d.process().fill_pattern(buf, 9);
      co_await d.send(dst, 0, 7, buf, len);
      d.process().fill_pattern(buf, 10);
    }(w.device(0), w.device(1).id(), len));
    w.engine().spawn([](Device& d, std::size_t len, bool& ok) -> Task<void> {
      auto buf = d.process().alloc(len);
      auto r = co_await d.recv(0, 7, bcl::PortId{kAnyNode, 0}, buf);
      EXPECT_EQ(r.len, len);
      ok = d.process().check_pattern(buf, 9);
    }(w.device(1), len, ok));
    w.engine().run();
    EXPECT_TRUE(ok);
  }
}

TEST(Eadi, UnexpectedEagerBuffered) {
  World w{two_rank_cfg(), 2};
  bool ok = false;
  w.engine().spawn([](Device& d, bcl::PortId dst) -> Task<void> {
    auto buf = d.process().alloc(100);
    d.process().fill_pattern(buf, 4);
    co_await d.send(dst, 0, 1, buf, 100);
  }(w.device(0), w.device(1).id()));
  w.engine().spawn([](sim::Engine& e, Device& d, bool& ok) -> Task<void> {
    co_await e.sleep(Time::us(500));  // message arrives before the recv
    auto buf = d.process().alloc(100);
    auto r = co_await d.recv(0, 1, bcl::PortId{kAnyNode, 0}, buf);
    EXPECT_EQ(r.len, 100u);
    ok = d.process().check_pattern(buf, 4);
  }(w.engine(), w.device(1), ok));
  w.engine().run();
  EXPECT_TRUE(ok);
  EXPECT_GE(w.device(1).unexpected_peak(), 1u);
}

TEST(Eadi, UnexpectedRendezvousWaitsForBuffer) {
  World w{two_rank_cfg(), 2};
  const std::size_t kLen = 100'000;
  bool ok = false;
  w.engine().spawn([](Device& d, bcl::PortId dst, std::size_t len)
                       -> Task<void> {
    auto buf = d.process().alloc(len);
    d.process().fill_pattern(buf, 5);
    co_await d.send(dst, 0, 2, buf, len);
  }(w.device(0), w.device(1).id(), kLen));
  w.engine().spawn([](sim::Engine& e, Device& d, std::size_t len,
                      bool& ok) -> Task<void> {
    co_await e.sleep(Time::us(300));  // RTS queues as unexpected
    auto buf = d.process().alloc(len);
    auto r = co_await d.recv(0, 2, bcl::PortId{kAnyNode, 0}, buf);
    EXPECT_EQ(r.len, len);
    ok = d.process().check_pattern(buf, 5);
  }(w.engine(), w.device(1), kLen, ok));
  w.engine().run();
  EXPECT_TRUE(ok);
}

TEST(Eadi, TagSelectsAmongPending) {
  World w{two_rank_cfg(), 2};
  int got_tag9 = -1;
  w.engine().spawn([](Device& d, bcl::PortId dst) -> Task<void> {
    auto a = d.process().alloc(8);
    auto b = d.process().alloc(8);
    d.process().fill_pattern(a, 1);
    d.process().fill_pattern(b, 2);
    co_await d.send(dst, 0, 8, a, 8);
    co_await d.send(dst, 0, 9, b, 8);
  }(w.device(0), w.device(1).id()));
  w.engine().spawn([](sim::Engine& e, Device& d, int& got) -> Task<void> {
    co_await e.sleep(Time::us(400));  // both queued as unexpected
    auto buf = d.process().alloc(8);
    // Ask for tag 9 first, even though tag 8 arrived first.
    auto r = co_await d.recv(0, 9, bcl::PortId{kAnyNode, 0}, buf);
    got = r.tag;
    EXPECT_TRUE(d.process().check_pattern(buf, 2));
    r = co_await d.recv(0, 8, bcl::PortId{kAnyNode, 0}, buf);
    EXPECT_EQ(r.tag, 8);
    EXPECT_TRUE(d.process().check_pattern(buf, 1));
  }(w.engine(), w.device(1), got_tag9));
  w.engine().run();
  EXPECT_EQ(got_tag9, 9);
}

TEST(Eadi, SourceFilteringWithTwoSenders) {
  WorldConfig cfg;
  cfg.cluster.nodes = 3;
  cfg.cluster.node.mem_bytes = 16u << 20;
  World w{cfg, 3};
  int first_from = -1;
  for (int s = 0; s < 2; ++s) {
    w.engine().spawn([](Device& d, bcl::PortId dst, unsigned seed)
                         -> Task<void> {
      auto buf = d.process().alloc(64);
      d.process().fill_pattern(buf, seed);
      co_await d.send(dst, 0, 3, buf, 64);
    }(w.device(s), w.device(2).id(), static_cast<unsigned>(s + 10)));
  }
  w.engine().spawn([](sim::Engine& e, Device& d, bcl::PortId want,
                      int& from) -> Task<void> {
    co_await e.sleep(Time::us(400));
    auto buf = d.process().alloc(64);
    // Specifically receive the message from rank 1 first.
    auto r = co_await d.recv(0, 3, want, buf);
    from = static_cast<int>(r.src.node);
    EXPECT_TRUE(d.process().check_pattern(buf, 11));
    r = co_await d.recv(0, 3, bcl::PortId{kAnyNode, 0}, buf);
    EXPECT_TRUE(d.process().check_pattern(buf, 10));
  }(w.engine(), w.device(2), w.device(1).id(), first_from));
  w.engine().run();
  EXPECT_EQ(first_from, 1);
}

TEST(Eadi, EagerTruncationReportsFullLength) {
  World w{two_rank_cfg(), 2};
  w.engine().spawn([](Device& d, bcl::PortId dst) -> Task<void> {
    auto buf = d.process().alloc(1000);
    co_await d.send(dst, 0, 4, buf, 1000);
  }(w.device(0), w.device(1).id()));
  w.engine().spawn([](Device& d) -> Task<void> {
    auto buf = d.process().alloc(100);  // too small
    auto r = co_await d.recv(0, 4, bcl::PortId{kAnyNode, 0}, buf);
    EXPECT_EQ(r.len, 1000u);  // actual length still reported
  }(w.device(1)));
  w.engine().run();
}

TEST(Eadi, ManyMessagesBothDirections) {
  World w{two_rank_cfg(), 2};
  constexpr int kMsgs = 40;
  int done = 0;
  auto peer = [](Device& me, bcl::PortId other, int base_tag,
                 int& done) -> Task<void> {
    auto sbuf = me.process().alloc(256);
    auto rbuf = me.process().alloc(256);
    for (int i = 0; i < kMsgs; ++i) {
      co_await me.send(other, 0, base_tag + i, sbuf, 256);
      (void)co_await me.recv(0, eadi::kAnyTag, bcl::PortId{kAnyNode, 0},
                             rbuf);
    }
    ++done;
  };
  w.engine().spawn(peer(w.device(0), w.device(1).id(), 100, done));
  w.engine().spawn(peer(w.device(1), w.device(0).id(), 200, done));
  w.engine().run();
  EXPECT_EQ(done, 2);
}

TEST(Eadi, IntraNodeEagerAndRendezvous) {
  World w{two_rank_cfg(/*same_node=*/true), 2};
  bool small_ok = false, big_ok = false;
  w.engine().spawn([](Device& d, bcl::PortId dst) -> Task<void> {
    auto s = d.process().alloc(100);
    d.process().fill_pattern(s, 1);
    co_await d.send(dst, 0, 1, s, 100);
    auto b = d.process().alloc(100'000);
    d.process().fill_pattern(b, 2);
    co_await d.send(dst, 0, 2, b, 100'000);
  }(w.device(0), w.device(1).id()));
  w.engine().spawn([](Device& d, bool& small_ok, bool& big_ok) -> Task<void> {
    auto s = d.process().alloc(100);
    (void)co_await d.recv(0, 1, bcl::PortId{kAnyNode, 0}, s);
    small_ok = d.process().check_pattern(s, 1);
    auto b = d.process().alloc(100'000);
    (void)co_await d.recv(0, 2, bcl::PortId{kAnyNode, 0}, b);
    big_ok = d.process().check_pattern(b, 2);
  }(w.device(1), small_ok, big_ok));
  w.engine().run();
  EXPECT_TRUE(small_ok);
  EXPECT_TRUE(big_ok);
}

// A rendezvous whose RTS the driver refuses throws out of send and leaves
// no rendezvous entry behind; the next rendezvous to a real port goes
// through.
TEST(Eadi, FailedRendezvousSendLeavesNoEntry) {
  World w{two_rank_cfg(), 2};
  bool threw = false;
  bool ok = false;
  w.engine().spawn([](Device& d, bcl::PortId dst, bool& threw) -> Task<void> {
    auto buf = d.process().alloc(100'000);
    d.process().fill_pattern(buf, 4);
    try {
      // Node 1 has no port 99: the driver refuses the RTS.
      co_await d.send(bcl::PortId{dst.node, 99}, 0, 1, buf, 100'000);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_EQ(d.debug_counts().tx_rendezvous, 0u);
    co_await d.send(dst, 0, 1, buf, 100'000);
  }(w.device(0), w.device(1).id(), threw));
  w.engine().spawn([](Device& d, bool& ok) -> Task<void> {
    auto buf = d.process().alloc(100'000);
    (void)co_await d.recv(0, 1, bcl::PortId{kAnyNode, 0}, buf);
    ok = d.process().check_pattern(buf, 4);
  }(w.device(1), ok));
  w.engine().run();
  EXPECT_TRUE(threw);
  EXPECT_TRUE(ok);
  EXPECT_EQ(w.device(0).debug_counts().tx_rendezvous, 0u);
}

// ---------------------------------------------------------------------------
// Page-sized inter-node messages.  A payload that fits one 4096-byte system
// slot goes eager to another node: up to 4064 bytes in one message, above
// that a head (envelope + 4064 bytes) plus a continuation with the rest.
// 4097 bytes and more take the rendezvous.
// ---------------------------------------------------------------------------

constexpr std::size_t kSlot = 4096;
constexpr std::size_t kHeadRoom = kSlot - eadi::kEnvelopeBytes;  // 4064

std::vector<std::byte> bytes_of(const osk::Process& proc,
                                const UserBuffer& buf) {
  std::vector<std::byte> out(buf.len);
  proc.peek(buf, 0, out);
  return out;
}

// Loses node `n`'s `nth` packet on its host uplink: that packet arrives a
// retransmission timeout late.
void drop_uplink_packet(World& w, hw::NodeId n, std::uint64_t nth) {
  hw::FaultPlan plan;
  plan.drop_nth = {nth};
  dynamic_cast<hw::MyrinetFabric&>(w.cluster().fabric())
      .set_host_link_fault_plan(n, plan);
}

double traps(World& w, int node) {
  return w.cluster()
      .metrics()
      .value("node" + std::to_string(node) + ".osk.traps")
      .value();
}

// What a device's debug counts showed while a test ran.
struct Seen {
  std::size_t most_awaiting = 0;  // heads waiting for their continuation
  std::size_t fewest_free_channels = ~std::size_t{0};
};

// Samples `d` every 100 ns until `until` is set.
Task<void> watch(sim::Engine& e, Device& d, const bool& until, Seen& seen) {
  while (!until) {
    const auto c = d.debug_counts();
    seen.most_awaiting = std::max(seen.most_awaiting, c.awaiting_continuation);
    seen.fewest_free_channels =
        std::min(seen.fewest_free_channels, c.free_channels);
    co_await e.sleep(Time::ns(100));
  }
}

enum class Post { kFirst, kAfterBoth, kBetween };

class PageSized
    : public ::testing::TestWithParam<std::tuple<std::size_t, Post>> {};

// The receive is posted before the sender starts, after the whole message
// sits in the unexpected queue, or between its first message (head, lone
// eager or RTS) and the rest, which the loss of node 0's second packet
// holds back by a retransmission timeout.  The sender refills its buffer
// as soon as send returns.
TEST_P(PageSized, ArrivesWhole) {
  const auto [len, post] = GetParam();
  const bool two_part = len > kHeadRoom && len <= kSlot;
  World w{two_rank_cfg(), 2};
  if (post == Post::kBetween) drop_uplink_packet(w, 0, 1);
  std::vector<std::byte> sent, got;
  minimpi::Status st;
  Time posted_at, done_at;
  w.engine().spawn([](sim::Engine& e, Mpi& me, std::size_t len, Post post,
                      std::vector<std::byte>& sent) -> Task<void> {
    auto buf = me.process().alloc(len);
    me.process().fill_pattern(buf, 7);
    sent = bytes_of(me.process(), buf);
    if (post == Post::kFirst) co_await e.sleep(Time::us(100));
    co_await me.send(buf, len, 1, /*tag=*/5);
    me.process().fill_pattern(buf, 8);
  }(w.engine(), w.mpi(0), len, post, sent));
  w.engine().spawn([](sim::Engine& e, Mpi& me, std::size_t len, Post post,
                      bool two_part, std::vector<std::byte>& got,
                      minimpi::Status& st, Time& posted_at,
                      Time& done_at) -> Task<void> {
    auto buf = me.process().alloc(len);
    Device& d = me.device();
    if (post == Post::kAfterBoth) {
      co_await e.sleep(Time::ms(1));
      EXPECT_EQ(d.debug_counts().unexpected, 1u);
      EXPECT_EQ(d.debug_counts().awaiting_continuation, 0u);
    } else if (post == Post::kBetween) {
      while (d.debug_counts().unexpected == 0) co_await e.sleep(Time::us(1));
      EXPECT_EQ(d.debug_counts().awaiting_continuation, two_part ? 1u : 0u);
    }
    posted_at = e.now();
    st = co_await me.recv(buf, 0, /*tag=*/5);
    done_at = e.now();
    got = bytes_of(me.process(), buf);
  }(w.engine(), w.mpi(1), len, post, two_part, got, st, posted_at, done_at));
  w.engine().run();

  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 5);
  EXPECT_EQ(st.len, len);
  EXPECT_TRUE(got == sent);
  EXPECT_EQ(w.device(1).debug_counts().posted, 0u);
  EXPECT_EQ(w.device(1).debug_counts().unexpected, 0u);
  // Only a receive posted first leaves nothing to wait as unexpected.
  EXPECT_EQ(w.device(1).unexpected_peak(), post == Post::kFirst ? 0u : 1u);
  if (post == Post::kBetween && two_part) {
    // The continuation really did land after the receive was posted.
    EXPECT_GT((done_at - posted_at).to_us(), 20.0);
  }
}

std::string page_case_name(
    const ::testing::TestParamInfo<PageSized::ParamType>& info) {
  static const char* const kPost[] = {"PostedFirst", "PostedAfterBoth",
                                      "PostedBetween"};
  return std::to_string(std::get<0>(info.param)) + "B" +
         kPost[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    InterNode, PageSized,
    ::testing::Combine(::testing::Values(kHeadRoom, kHeadRoom + 1, kSlot,
                                         kSlot + 1),
                       ::testing::Values(Post::kFirst, Post::kAfterBoth,
                                         Post::kBetween)),
    page_case_name);

// Two page-sized isends to one destination: both heads land before either
// continuation, and each continuation finds its own head by (source, xid),
// whichever receive took that head.
TEST(EadiPageSized, ConcurrentIsendsInterleave) {
  World w{two_rank_cfg(), 2};
  const std::size_t channels = w.device(1).debug_counts().free_channels;
  std::vector<std::byte> sent_a, sent_b, got_a, got_b;
  bool done = false;
  Seen seen;
  w.engine().spawn([](Mpi& me, std::vector<std::byte>& sent_a,
                      std::vector<std::byte>& sent_b) -> Task<void> {
    auto a = me.process().alloc(kSlot);
    auto b = me.process().alloc(kSlot);
    me.process().fill_pattern(a, 1);
    me.process().fill_pattern(b, 2);
    sent_a = bytes_of(me.process(), a);
    sent_b = bytes_of(me.process(), b);
    auto ra = me.isend(a, kSlot, 1, /*tag=*/1);
    auto rb = me.isend(b, kSlot, 1, /*tag=*/2);
    (void)co_await me.wait(ra);
    (void)co_await me.wait(rb);
  }(w.mpi(0), sent_a, sent_b));
  w.engine().spawn([](Mpi& me, std::vector<std::byte>& got_a,
                      std::vector<std::byte>& got_b,
                      bool& done) -> Task<void> {
    auto a = me.process().alloc(kSlot);
    auto b = me.process().alloc(kSlot);
    // Posted in the opposite order to the sends.
    auto rb = me.irecv(b, 0, /*tag=*/2);
    auto ra = me.irecv(a, 0, /*tag=*/1);
    EXPECT_EQ((co_await me.wait(rb)).len, kSlot);
    EXPECT_EQ((co_await me.wait(ra)).len, kSlot);
    got_a = bytes_of(me.process(), a);
    got_b = bytes_of(me.process(), b);
    done = true;
  }(w.mpi(1), got_a, got_b, done));
  w.engine().spawn(watch(w.engine(), w.device(1), done, seen));
  w.engine().run();
  EXPECT_EQ(seen.most_awaiting, 2u);
  EXPECT_EQ(seen.fewest_free_channels, channels);  // no rendezvous
  EXPECT_TRUE(got_a == sent_a);
  EXPECT_TRUE(got_b == sent_b);
}

// A 4096-byte message into a 4000-byte buffer: the full length is
// reported and nothing past byte 4000 is written, as for any eager
// message longer than its buffer.
TEST(EadiPageSized, TruncationWritesNothingPastTheBuffer) {
  World w{two_rank_cfg(), 2};
  constexpr std::size_t kBuf = 4000;
  std::vector<std::byte> sent, before, after;
  std::size_t len = 0;
  w.engine().spawn([](Mpi& me, std::vector<std::byte>& sent) -> Task<void> {
    auto buf = me.process().alloc(kSlot);
    me.process().fill_pattern(buf, 3);
    sent = bytes_of(me.process(), buf);
    co_await me.send(buf, kSlot, 1, /*tag=*/4);
  }(w.mpi(0), sent));
  w.engine().spawn([](Mpi& me, std::vector<std::byte>& before,
                      std::vector<std::byte>& after,
                      std::size_t& len) -> Task<void> {
    auto whole = me.process().alloc(2 * kSlot);
    me.process().fill_pattern(whole, 9);
    before = bytes_of(me.process(), whole);
    const UserBuffer head{whole.vaddr, kBuf, whole.owner};
    len = (co_await me.recv(head, 0, /*tag=*/4)).len;
    after = bytes_of(me.process(), whole);
  }(w.mpi(1), before, after, len));
  w.engine().run();
  EXPECT_EQ(len, kSlot);
  ASSERT_EQ(after.size(), 2 * kSlot);
  EXPECT_TRUE(std::equal(after.begin(), after.begin() + kBuf, sent.begin()));
  EXPECT_TRUE(std::equal(after.begin() + kBuf, after.end(),
                         before.begin() + kBuf));
}

// iprobe sees a two-part message as soon as its head lands, at its full
// length; the continuation (node 0's second packet, lost once) is still
// on its way.
TEST(EadiPageSized, IprobeBetweenHeadAndContinuationReportsFullLength) {
  World w{two_rank_cfg(), 2};
  drop_uplink_packet(w, 0, 1);
  std::vector<std::byte> sent, got;
  std::optional<minimpi::Status> seen;
  w.engine().spawn([](Mpi& me, std::vector<std::byte>& sent) -> Task<void> {
    auto buf = me.process().alloc(kSlot);
    me.process().fill_pattern(buf, 5);
    sent = bytes_of(me.process(), buf);
    co_await me.send(buf, kSlot, 1, /*tag=*/6);
  }(w.mpi(0), sent));
  w.engine().spawn([](sim::Engine& e, Mpi& me, std::vector<std::byte>& got,
                      std::optional<minimpi::Status>& seen) -> Task<void> {
    while (!(seen = co_await me.iprobe(0, 6))) co_await e.sleep(Time::us(1));
    EXPECT_EQ(me.device().debug_counts().awaiting_continuation, 1u);
    auto buf = me.process().alloc(kSlot);
    EXPECT_EQ((co_await me.recv(buf, 0, 6)).len, kSlot);
    got = bytes_of(me.process(), buf);
  }(w.engine(), w.mpi(1), got, seen));
  w.engine().run();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->len, kSlot);
  EXPECT_EQ(seen->source, 0);
  EXPECT_TRUE(got == sent);
}

// Messages on one (source, tag) match in send order whatever protocol each
// one takes: one eager message, a head and continuation, or a rendezvous.
// The first batch meets receives posted ahead; the second waits as
// unexpected.
TEST(EadiPageSized, SameTagMessagesDoNotOvertake) {
  const std::vector<std::size_t> sizes{kSlot,         10,       kSlot + 1,
                                       kHeadRoom + 1, 0,        kSlot,
                                       kHeadRoom,     50'000,   kSlot};
  World w{two_rank_cfg(), 2};
  std::vector<std::size_t> got_len;
  std::vector<bool> intact;
  w.engine().spawn([](sim::Engine& e, Mpi& me,
                      const std::vector<std::size_t>& sizes) -> Task<void> {
    for (int batch = 0; batch < 2; ++batch) {
      if (batch == 1) co_await e.sleep(Time::ms(1));
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        // Never reused: a rendezvous send returns before the NIC has read
        // the last chunk.
        auto buf = me.process().alloc(std::max<std::size_t>(sizes[i], 1));
        me.process().fill_pattern(buf, static_cast<unsigned>(100 + i));
        co_await me.send(buf, sizes[i], 1, /*tag=*/3);
      }
    }
  }(w.engine(), w.mpi(0), sizes));
  w.engine().spawn([](sim::Engine& e, Mpi& me,
                      const std::vector<std::size_t>& sizes,
                      std::vector<std::size_t>& got_len,
                      std::vector<bool>& intact) -> Task<void> {
    for (int batch = 0; batch < 2; ++batch) {
      if (batch == 1) co_await e.sleep(Time::ms(3));
      std::vector<UserBuffer> bufs;
      std::vector<Mpi::Request> reqs;
      for (const std::size_t n : sizes) {
        bufs.push_back(me.process().alloc(std::max<std::size_t>(n, 1)));
        reqs.push_back(me.irecv(bufs.back(), 0, /*tag=*/3));
      }
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        got_len.push_back((co_await me.wait(reqs[i])).len);
        intact.push_back(sizes[i] == 0 ||
                         me.process().check_pattern(
                             bufs[i], static_cast<unsigned>(100 + i)));
      }
    }
  }(w.engine(), w.mpi(1), sizes, got_len, intact));
  w.engine().run();
  ASSERT_EQ(got_len.size(), 2 * sizes.size());
  for (std::size_t i = 0; i < got_len.size(); ++i) {
    EXPECT_EQ(got_len[i], sizes[i % sizes.size()]) << "message " << i;
    EXPECT_TRUE(intact[i]) << "message " << i;
  }
  EXPECT_GE(w.device(1).unexpected_peak(), 2u);
}

// 200 messages around the page boundary over host links that each lose
// 0.5% of their packets: every one arrives, byte for byte.
TEST(EadiPageSized, LossyHostLinksDeliverEveryByte) {
  constexpr int kMsgs = 200;
  const std::size_t kSizes[] = {kHeadRoom, kHeadRoom + 1, kSlot - 16, kSlot,
                                kSlot + 1, 700};
  World w{two_rank_cfg(), 2};
  auto& fabric = dynamic_cast<hw::MyrinetFabric&>(w.cluster().fabric());
  for (hw::NodeId n = 0; n < 2; ++n) {
    hw::FaultPlan plan;
    plan.drop_prob = 0.005;
    plan.seed = 11 + n;
    fabric.set_host_link_fault_plan(n, plan);
  }
  int intact = 0;
  w.engine().spawn([](Mpi& me, const std::size_t* sizes) -> Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      const std::size_t n = sizes[i % 6];
      auto buf = me.process().alloc(n);  // never reused, as above
      me.process().fill_pattern(buf, static_cast<unsigned>(i));
      co_await me.send(buf, n, 1, /*tag=*/i);
    }
  }(w.mpi(0), kSizes));
  w.engine().spawn([](sim::Engine& e, Mpi& me, const std::size_t* sizes,
                      int& intact) -> Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      // Every seventh receive comes late, so part of the stream waits as
      // unexpected messages.
      if (i % 7 == 0) co_await e.sleep(Time::us(300));
      const std::size_t n = sizes[i % 6];
      auto buf = me.process().alloc(n);
      const auto st = co_await me.recv(buf, 0, /*tag=*/i);
      if (st.len == n &&
          me.process().check_pattern(buf, static_cast<unsigned>(i))) {
        ++intact;
      }
      me.process().free(buf);
    }
  }(w.engine(), w.mpi(1), kSizes, intact));
  w.engine().run();
  EXPECT_EQ(intact, kMsgs);
  // The plan really did lose packets on both links.
  EXPECT_GT(fabric.host_uplink(0).stats().dropped, 0u);
  EXPECT_GT(fabric.host_uplink(1).stats().dropped, 0u);
}

TEST(EadiPageSized, PvmMessageOfOnePage) {
  WorldConfig cfg = two_rank_cfg();
  cfg.cluster.node.mem_bytes = 32u << 20;  // two 1 MiB pack buffers per task
  World w{cfg, 2};
  std::vector<std::byte> sent(kSlot), got(kSlot);
  for (std::size_t i = 0; i < kSlot; ++i) {
    sent[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
  }
  int from = -1;
  std::size_t len = 0;
  w.engine().spawn([](minipvm::Pvm& me,
                      const std::vector<std::byte>& sent) -> Task<void> {
    me.initsend();
    co_await me.pkbytes(sent);
    co_await me.send(1, /*tag=*/8);
  }(w.pvm(0), sent));
  w.engine().spawn([](minipvm::Pvm& me, std::vector<std::byte>& got,
                      int& from, std::size_t& len) -> Task<void> {
    from = co_await me.recv(0, /*tag=*/8);
    len = me.recv_len();
    co_await me.upkbytes(got);
  }(w.pvm(1), got, from, len));
  w.engine().run();
  EXPECT_EQ(from, 0);
  EXPECT_EQ(len, kSlot);
  EXPECT_TRUE(got == sent);
}

// Between processes of one node a page goes by the shared-memory
// rendezvous: the receiver takes a normal channel for it, and no head
// waits for a continuation.
TEST(EadiPageSized, IntraNodePageStaysRendezvous) {
  World w{two_rank_cfg(/*same_node=*/true), 2};
  const std::size_t channels = w.device(1).debug_counts().free_channels;
  bool done = false;
  Seen seen;
  w.engine().spawn([](Mpi& me) -> Task<void> {
    auto buf = me.process().alloc(kSlot);
    me.process().fill_pattern(buf, 4);
    co_await me.send(buf, kSlot, 1, /*tag=*/2);
  }(w.mpi(0)));
  w.engine().spawn([](Mpi& me, bool& done) -> Task<void> {
    auto buf = me.process().alloc(kSlot);
    EXPECT_EQ((co_await me.recv(buf, 0, /*tag=*/2)).len, kSlot);
    EXPECT_TRUE(me.process().check_pattern(buf, 4));
    done = true;
  }(w.mpi(1), done));
  w.engine().spawn(watch(w.engine(), w.device(1), done, seen));
  w.engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(seen.most_awaiting, 0u);
  EXPECT_EQ(seen.fewest_free_channels, channels - 1);
}

// The point of the two-part eager: the receiving node takes no trap for a
// page-sized inter-node message (a rendezvous costs it the post and the
// CTS), and the sender takes one per message it sends.
TEST(EadiPageSized, ReceiverTakesNoTrap) {
  World w{two_rank_cfg(), 2};
  double rx_before = 0, tx_before = 0;
  bool done = false;
  w.engine().spawn([](sim::Engine& e, World& w, double& rx_before,
                      double& tx_before) -> Task<void> {
    Mpi& me = w.mpi(0);
    auto buf = me.process().alloc(kSlot);
    me.process().fill_pattern(buf, 6);
    co_await e.sleep(Time::us(100));  // the receive is posted by now
    rx_before = traps(w, 1);
    tx_before = traps(w, 0);
    co_await me.send(buf, kSlot, 1, /*tag=*/9);
  }(w.engine(), w, rx_before, tx_before));
  w.engine().spawn([](Mpi& me, bool& done) -> Task<void> {
    auto buf = me.process().alloc(kSlot);
    EXPECT_EQ((co_await me.recv(buf, 0, /*tag=*/9)).len, kSlot);
    EXPECT_TRUE(me.process().check_pattern(buf, 6));
    done = true;
  }(w.mpi(1), done));
  w.engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(traps(w, 1) - rx_before, 0.0);
  EXPECT_EQ(traps(w, 0) - tx_before, 2.0);
}

// ---------------------------------------------------------------------------
// The staging pool.  An eager send copies envelope and payload into one of
// the device's staging buffers and sends from there; the pool hands out
// the most recently freed buffer, whose page the pin-down table already
// holds, so a warm send takes no page pin.
// ---------------------------------------------------------------------------

double pin_misses(World& w, int node) {
  return w.cluster()
      .metrics()
      .value("node" + std::to_string(node) + ".osk.pin_misses")
      .value();
}

// A ping-pong returns each send's buffer before the next send starts, so
// all 16 sends go from one buffer and only the first pins its page.
TEST(EadiStaging, SequentialEagerSendsReuseOneBuffer) {
  World w{two_rank_cfg(), 2};
  constexpr int kRounds = 16;
  const std::size_t pool = w.device(0).debug_counts().staging_free;
  ASSERT_EQ(pool, 8u);
  double before = 0;
  int rounds = 0;
  w.engine().spawn([](World& w, std::size_t pool, double& before,
                      int& rounds) -> Task<void> {
    Device& d = w.device(0);
    auto buf = d.process().alloc(512);
    before = pin_misses(w, 0);
    for (int i = 0; i < kRounds; ++i) {
      EXPECT_EQ(d.debug_counts().staging_free, pool);  // all back
      d.process().fill_pattern(buf, static_cast<unsigned>(i));
      co_await d.send(w.device(1).id(), 0, /*tag=*/1, buf, 512);
      auto r = co_await d.recv(0, /*tag=*/2, w.device(1).id(), buf);
      EXPECT_EQ(r.len, 512u);
      if (d.process().check_pattern(buf, static_cast<unsigned>(i) + 100)) {
        ++rounds;
      }
    }
  }(w, pool, before, rounds));
  w.engine().spawn([](Device& d, bcl::PortId peer) -> Task<void> {
    auto buf = d.process().alloc(512);
    for (int i = 0; i < kRounds; ++i) {
      auto r = co_await d.recv(0, /*tag=*/1, peer, buf);
      EXPECT_EQ(r.len, 512u);
      EXPECT_TRUE(d.process().check_pattern(buf, static_cast<unsigned>(i)));
      d.process().fill_pattern(buf, static_cast<unsigned>(i) + 100);
      co_await d.send(peer, 0, /*tag=*/2, buf, 512);
    }
  }(w.device(1), w.device(0).id()));
  w.engine().run();
  EXPECT_EQ(rounds, kRounds);
  EXPECT_EQ(pin_misses(w, 0) - before, 1.0);
  EXPECT_EQ(w.device(0).debug_counts().staging_free, pool);
}

// A send the driver refuses gets no completion event, so the device puts
// its buffer back at once; the next good send takes that same warm buffer.
TEST(EadiStaging, FailedSendReturnsItsBuffer) {
  World w{two_rank_cfg(), 2};
  bool threw = false;
  std::uint64_t pinned_before = 0;
  osk::PinDownTable& pins = w.cluster().node(0).kernel().pindown();
  w.engine().spawn([](sim::Engine& e, Device& d, bcl::PortId dst,
                      osk::PinDownTable& pins, bool& threw,
                      std::uint64_t& pinned_before) -> Task<void> {
    auto buf = d.process().alloc(512);
    co_await d.send(dst, 0, 1, buf, 512);
    co_await e.sleep(Time::us(100));  // its buffer is back by now
    pinned_before = pins.pages_pinned_total();
    try {
      // Node 1 has no port 99: the driver refuses the target.
      co_await d.send(bcl::PortId{dst.node, 99}, 0, 1, buf, 512);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_EQ(d.debug_counts().staging_free, 8u);
    co_await d.send(dst, 0, 1, buf, 512);
  }(w.engine(), w.device(0), w.device(1).id(), pins, threw, pinned_before));
  w.engine().spawn([](Device& d) -> Task<void> {
    auto buf = d.process().alloc(512);
    for (int i = 0; i < 2; ++i) {
      (void)co_await d.recv(0, 1, bcl::PortId{kAnyNode, 0}, buf);
    }
  }(w.device(1)));
  w.engine().run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(pins.pages_pinned_total(), pinned_before);
  EXPECT_EQ(w.device(0).debug_counts().staging_free, 8u);
}

}  // namespace
