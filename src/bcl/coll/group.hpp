// Collective groups: the NIC-resident descriptors behind the collective
// engine (src/bcl/coll/engine.hpp).
//
// A CollGroup is a set of member endpoints — at most one per node — joined
// into a k-ary combining/forwarding tree.  The kernel driver validates the
// membership and pins the result buffer at registration time
// (Driver::ioctl_register_group), then PIOs this descriptor into NIC SRAM;
// from then on barrier, broadcast, reduce and allreduce traffic for the
// group is combined and forwarded entirely by the MCP, with the host
// involved only at the two ends (the posting ioctl and the completion-event
// poll).  An allreduce is one operation under one sequence number: partials
// combine up the tree as in a reduce, and the root's MCP sends the result
// straight back down as that operation's data fragments.  A barrier is a
// zero-byte allreduce: its arrivals are empty partials and its release is
// the root's empty fan-out.
//
// Tree layout.  Every operation runs over one k-ary heap: heap position h
// has parent (h-1)/k and children k*h+1 .. k*h+k, so arity and depth are
// the same for every group of n members.  Which member sits at which
// position comes from the group's `order`, fixed at registration from the
// fabric's geometry (tree_order):
//   - on a switched fabric the order is empty and member index i sits at
//     heap position (i - root) mod n, the plain index heap;
//   - on the mesh the order lists the members along the fabric's Hilbert
//     curve, and the j-th member after the root (wrapping at the end of
//     the curve) takes the j-th heap position in DFS preorder, so every
//     subtree is one contiguous, compact run of the curve.
// Re-rooting rotates the member sequence, never the heap positions, so a
// tree rooted anywhere keeps its locality.  tree_links is the one place
// that arithmetic lives: the engine derives every member's links from the
// order per operation, the member-0 tree included (a barrier's, and the
// one the group-failure flood travels).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "bcl/types.hpp"
#include "hw/link.hpp"
#include "hw/memory.hpp"
#include "osk/process.hpp"

namespace bcl::coll {

// Combine operator for reductions, applied element-wise over doubles
// (matching the mini-MPI element type).
enum class CollOp : std::uint8_t { kSum = 0, kProd, kMin, kMax };

enum class CollKind : std::uint8_t {
  kBarrier = 0,
  kBcast,
  kReduce,
  kAllreduce,
};

// Wire opcodes carried in the high byte of Packet::op_flags (the low byte
// is SendOp::kColl, which is what routes the packet to the engine).  Every
// operation is one walk of its tree: partials up, then data down.
enum class CollWire : std::uint8_t {
  kData = 3,     // bcast fragment or (all)reduce result, parent -> children
  kPartial = 4,  // combined subtree partial (a barrier's is empty), up
  kFail = 5,     // group failure (unreachable member), flooded over the tree
};

inline constexpr std::uint16_t coll_op_flags(CollWire wire) {
  return static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(SendOp::kColl) |
      (static_cast<std::uint16_t>(wire) << 8));
}

// Every collective packet names its operation in Packet::reply_channel:
// the CollKind in the high byte, the CollOp in the low one.  A member
// whose own post or earlier packets name another kind for the same
// sequence number fails the group instead of mixing two operations.
inline constexpr std::uint16_t coll_reply_channel(CollKind kind, CollOp op) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(op) |
                                    (static_cast<std::uint16_t>(kind) << 8));
}

// Perfetto flow id for one collective operation: unlike point-to-point
// flows there is exactly one cluster-wide operation per (group, seq), so
// no source-node qualifier is needed — a distinct high bit keeps the id
// space disjoint from flow_key().
inline constexpr std::uint64_t coll_flow_key(std::uint16_t group,
                                             std::uint64_t seq) {
  return (1ull << 62) | (static_cast<std::uint64_t>(group) << 44) |
         (seq & ((1ull << 44) - 1));
}

// Causal-ledger key for one *member's* participation in operation (group,
// seq): the operation key plus the member's node in bits 32..43.  Relies on
// per-group sequence numbers staying below 2^32 (they start at the
// registration origin and advance one per op).
inline constexpr std::uint64_t coll_member_key(std::uint16_t group,
                                               std::uint64_t seq, int node) {
  return coll_flow_key(group, seq) |
         ((static_cast<std::uint64_t>(node) + 1) << 32);
}

// -- k-ary tree arithmetic ---------------------------------------------------
// Depth of the deepest leaf (root = 0) — exported as a gauge.
inline int tree_depth(int n, int k) {
  int depth = 0;
  for (int h = n - 1; h > 0; h = (h - 1) / k) ++depth;
  return depth;
}

// Heap positions in the subtree under position h of an n-node k-ary heap.
inline int heap_subtree_size(int h, int n, int k) {
  int size = 0;
  for (std::int64_t lo = h, hi = h; lo < n; lo = lo * k + 1, hi = hi * k + k) {
    size += static_cast<int>(std::min<std::int64_t>(hi, n - 1) - lo + 1);
  }
  return size;
}

// DFS-preorder rank of heap position h, and its inverse.
inline int preorder_rank(int h, int n, int k) {
  int rank = 0;
  for (; h > 0; h = (h - 1) / k) {
    rank += 1;  // the parent comes first
    for (int s = (h - 1) / k * k + 1; s < h; ++s) {
      rank += heap_subtree_size(s, n, k);  // then every elder sibling's subtree
    }
  }
  return rank;
}
inline int preorder_position(int rank, int n, int k) {
  int h = 0;
  while (rank > 0) {
    --rank;         // past h itself
    h = h * k + 1;  // into its eldest child's subtree ...
    for (int size = heap_subtree_size(h, n, k); rank >= size;
         size = heap_subtree_size(++h, n, k)) {
      rank -= size;  // ... or a younger sibling's
    }
  }
  return h;
}

// A group's members in the order its tree is laid along: sorted by their
// node's position on the fabric's locality curve.  Both tables are empty on
// fabrics without one, which keeps the plain index heap.
struct TreeOrder {
  std::vector<int> members;  // curve slot -> member index
  std::vector<int> slots;    // member index -> curve slot
  bool empty() const { return members.empty(); }
};
inline TreeOrder tree_order(const hw::Fabric& fabric,
                            const std::vector<PortId>& members) {
  std::vector<std::int64_t> keys;
  keys.reserve(members.size());
  for (const PortId& m : members) {
    keys.push_back(fabric.curve_index(m.node));
    if (keys.back() < 0) return {};
  }
  TreeOrder order;
  order.members.resize(members.size());
  std::iota(order.members.begin(), order.members.end(), 0);
  std::stable_sort(order.members.begin(), order.members.end(),
                   [&keys](int a, int b) {
                     return keys[static_cast<std::size_t>(a)] <
                            keys[static_cast<std::size_t>(b)];
                   });
  order.slots.resize(members.size());
  for (std::size_t s = 0; s < order.members.size(); ++s) {
    order.slots[static_cast<std::size_t>(order.members[s])] =
        static_cast<int>(s);
  }
  return order;
}

// Member `member`'s neighbourhood in the n-member tree rooted at member
// `root`, laid along `order` (see the header comment).
struct TreeLinks {
  int parent = -1;            // member index, -1 at the root
  std::vector<int> children;  // member indices
};
inline TreeLinks tree_links(const TreeOrder& order, int n, int k, int member,
                            int root) {
  const bool curve = !order.empty();
  const auto slot = [&](int m) {
    return curve ? order.slots[static_cast<std::size_t>(m)] : m;
  };
  const int base = slot(root);
  const auto member_at = [&](int rank) {  // rank-th member after the root
    const int s = (base + rank) % n;
    return curve ? order.members[static_cast<std::size_t>(s)] : s;
  };
  // Heap position h of this member: rank h for the index heap, the
  // rank-th position in preorder along a curve.
  const int rank = (slot(member) - base + n) % n;
  const int h = curve ? preorder_position(rank, n, k) : rank;
  TreeLinks out;
  if (h > 0) {
    const int p = (h - 1) / k;
    out.parent = member_at(curve ? preorder_rank(p, n, k) : p);
  }
  // In preorder the eldest child follows its parent and each younger one
  // follows its elder sibling's subtree.
  int next = rank + 1;
  for (std::int64_t c = std::int64_t{k} * h + 1;
       c <= std::int64_t{k} * h + k && c < n; ++c) {
    out.children.push_back(member_at(curve ? next : static_cast<int>(c)));
    if (curve) next += heap_subtree_size(static_cast<int>(c), n, k);
  }
  return out;
}

// What the register_group trap writes into NIC SRAM.
struct GroupDescriptor {
  std::uint16_t id = 0;
  std::vector<PortId> members;       // one per node, index = member rank
  std::uint16_t my_index = 0;        // this NIC's member
  int arity = 2;                     // k of the forwarding tree
  CollOp default_op = CollOp::kSum;  // combine op registered with the group
  std::uint64_t next_seq = 1;        // registration-time sequence origin

  // The members along the fabric's locality curve (tree_order); empty on
  // switched fabrics.  Every operation derives its links from it per root
  // at packet-processing time (tree_links).
  TreeOrder order;

  // Pinned result buffer: broadcast payloads and the final reduction land
  // here by DMA, so no per-operation host buffer registration is needed.
  osk::UserBuffer result_buf{};
  std::vector<hw::PhysSegment> result_segs;

  // Host consumer index (CollectiveEngine::host_done): the last operation
  // whose result the host has read out of result_buf.  A broadcast fragment
  // for any later operation but the next waits in SRAM, or it would
  // overwrite a result the host has yet to read.
  std::uint64_t host_done = 0;

  // Set once a member becomes unreachable; every subsequent operation on
  // the group completes immediately with kPeerUnreachable.
  bool failed = false;

  int size() const { return static_cast<int>(members.size()); }
};

// Completion record the engine DMAs into the port's collective event queue
// (one per member per operation).
struct CollEvent {
  std::uint16_t group = 0;
  std::uint64_t seq = 0;  // 0 = group-wide failure notification
  CollKind kind = CollKind::kBarrier;
  std::uint16_t root = 0;
  // Payload bytes delivered: bcast, allreduce, and reduce at its root.
  std::size_t len = 0;
  bool ok = true;
  BclErr err = BclErr::kOk;  // why ok is false
};

// What ioctl_coll_post PIOs into the NIC after validation: the local
// member's participation in operation `seq`.
struct CollPost {
  std::uint16_t group = 0;
  CollKind kind = CollKind::kBarrier;
  std::uint16_t root = 0;  // member index
  CollOp op = CollOp::kSum;
  std::uint64_t seq = 0;
  std::vector<hw::PhysSegment> segs;  // pinned contribution / bcast source
  std::size_t len = 0;
};

inline double coll_apply(CollOp op, double a, double b) {
  switch (op) {
    case CollOp::kSum:
      return a + b;
    case CollOp::kProd:
      return a * b;
    case CollOp::kMin:
      return a < b ? a : b;
    case CollOp::kMax:
      return a > b ? a : b;
  }
  return a;
}

}  // namespace bcl::coll
