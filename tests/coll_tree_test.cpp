// Property test for the NIC collective tree layout (bcl/coll/group.hpp):
// for every fabric, member set and root the group's links must form a
// spanning k-ary tree of the heap's depth; switched fabrics must keep the
// plain index heap exactly; and on the mesh a tree laid along the Hilbert
// curve must keep its edges short and spread over the XY links, wherever
// it is rooted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bcl/coll/group.hpp"
#include "hw/topology.hpp"
#include "sim/random.hpp"

namespace {

using bcl::PortId;
using bcl::coll::TreeLinks;
using bcl::coll::TreeOrder;
using bcl::coll::tree_depth;
using bcl::coll::tree_links;
using bcl::coll::tree_order;

constexpr int kArity = 4;  // CostConfig::coll_arity

std::vector<PortId> members_on(const std::vector<hw::NodeId>& nodes) {
  std::vector<PortId> out;
  for (const hw::NodeId n : nodes) out.push_back(PortId{n, 0});
  return out;
}

std::vector<hw::NodeId> all_nodes(int n) {
  std::vector<hw::NodeId> out;
  for (int i = 0; i < n; ++i) out.push_back(static_cast<hw::NodeId>(i));
  return out;
}

// A seeded subset of `nodes` in shuffled member order, so member index and
// node id disagree.
std::vector<hw::NodeId> subset_of(int nodes, int keep, std::uint64_t seed) {
  std::vector<hw::NodeId> all = all_nodes(nodes);
  sim::Rng rng{seed};
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.below(i)]);
  }
  all.resize(static_cast<std::size_t>(keep));
  return all;
}

// The k-ary heap over member index rooted at `root`: rel = (i - root) mod
// n, parent(rel) = (rel - 1) / k, children k*rel+1 .. k*rel+k.
TreeLinks index_heap(int n, int k, int member, int root) {
  const int rel = (member - root + n) % n;
  TreeLinks t;
  if (rel > 0) t.parent = ((rel - 1) / k + root) % n;
  for (int c = k * rel + 1; c <= k * rel + k && c < n; ++c) {
    t.children.push_back((c + root) % n);
  }
  return t;
}

std::vector<TreeLinks> tree_of(const TreeOrder& order, int n, int k,
                               int root) {
  std::vector<TreeLinks> out;
  for (int m = 0; m < n; ++m) out.push_back(tree_links(order, n, k, m, root));
  return out;
}

// Spanning tree rooted at `root`, at most k children per member, depth
// tree_depth(n, k), and every parent link mirrored by a child link.
void expect_spanning(const std::vector<TreeLinks>& tree, int k, int root,
                     const std::string& what) {
  const int n = static_cast<int>(tree.size());
  std::vector<int> child_of(static_cast<std::size_t>(n), -1);
  for (int m = 0; m < n; ++m) {
    const TreeLinks& t = tree[static_cast<std::size_t>(m)];
    ASSERT_LE(static_cast<int>(t.children.size()), k) << what << " m=" << m;
    for (const int c : t.children) {
      ASSERT_TRUE(c >= 0 && c < n) << what << " m=" << m;
      ASSERT_EQ(child_of[static_cast<std::size_t>(c)], -1)
          << what << ": member " << c << " is a child twice";
      child_of[static_cast<std::size_t>(c)] = m;
    }
  }
  for (int m = 0; m < n; ++m) {
    ASSERT_EQ(tree[static_cast<std::size_t>(m)].parent,
              child_of[static_cast<std::size_t>(m)])
        << what << ": parent and child links disagree at member " << m;
  }
  ASSERT_EQ(tree[static_cast<std::size_t>(root)].parent, -1) << what;
  // Walk down from the root: every member reached once, depth as the heap.
  std::vector<int> depth(static_cast<std::size_t>(n), -1);
  std::vector<int> frontier{root};
  depth[static_cast<std::size_t>(root)] = 0;
  int reached = 1;
  int max_depth = 0;
  while (!frontier.empty()) {
    std::vector<int> next;
    for (const int m : frontier) {
      for (const int c : tree[static_cast<std::size_t>(m)].children) {
        ASSERT_EQ(depth[static_cast<std::size_t>(c)], -1) << what;
        depth[static_cast<std::size_t>(c)] =
            depth[static_cast<std::size_t>(m)] + 1;
        max_depth = std::max(max_depth, depth[static_cast<std::size_t>(c)]);
        ++reached;
        next.push_back(c);
      }
    }
    frontier = std::move(next);
  }
  EXPECT_EQ(reached, n) << what;
  EXPECT_EQ(max_depth, tree_depth(n, k)) << what;
}

// Hop sum and most-loaded directed XY link over the tree's parent->child
// edges on `mesh`.
struct Locality {
  int hop_sum = 0;
  int max_link_edges = 0;
};
Locality locality(const hw::MeshFabric& mesh,
                  const std::vector<hw::NodeId>& nodes,
                  const std::vector<TreeLinks>& tree) {
  Locality out;
  std::map<std::pair<int, int>, int> load;  // (from node, to node) -> edges
  const int w = mesh.width();
  for (std::size_t m = 0; m < tree.size(); ++m) {
    for (const int c : tree[m].children) {
      const hw::NodeId a = nodes[m];
      const hw::NodeId b = nodes[static_cast<std::size_t>(c)];
      out.hop_sum += mesh.hops(a, b);
      int x = mesh.x_of(a), y = mesh.y_of(a);
      const int tx = mesh.x_of(b), ty = mesh.y_of(b);
      while (x != tx || y != ty) {  // XY: X first, then Y
        const int from = y * w + x;
        if (x != tx) {
          x += tx > x ? 1 : -1;
        } else {
          y += ty > y ? 1 : -1;
        }
        const int edges = ++load[{from, y * w + x}];
        out.max_link_edges = std::max(out.max_link_edges, edges);
      }
    }
  }
  return out;
}

// A mesh `width` nodes wide holding `nodes` nodes (the last row may be
// partial).
std::unique_ptr<hw::Fabric> mesh_fabric(sim::Engine& eng, int width,
                                        int nodes) {
  hw::FabricOptions opts;
  opts.kind = hw::FabricKind::kNwrcMesh;
  opts.mesh_width = width;
  return hw::make_fabric(eng, static_cast<std::uint32_t>(nodes), opts);
}

TEST(CollTree, SwitchedFabricsKeepTheIndexHeap) {
  for (const int nodes : {8, 32}) {  // one crossbar; leaf/spine
    sim::Engine eng;
    hw::FabricOptions opts;  // Myrinet
    const auto fab =
        hw::make_fabric(eng, static_cast<std::uint32_t>(nodes), opts);
    for (const auto& set :
         {all_nodes(nodes), subset_of(nodes, nodes / 2 + 1, 11)}) {
      const TreeOrder order = tree_order(*fab, members_on(set));
      EXPECT_TRUE(order.empty()) << nodes << "-node Myrinet";
      const int n = static_cast<int>(set.size());
      for (const int k : {1, 2, kArity}) {
        for (int root = 0; root < n; ++root) {
          for (int m = 0; m < n; ++m) {
            const TreeLinks got = tree_links(order, n, k, m, root);
            const TreeLinks want = index_heap(n, k, m, root);
            ASSERT_EQ(got.parent, want.parent)
                << nodes << " nodes, n=" << n << " k=" << k << " root="
                << root << " m=" << m;
            ASSERT_EQ(got.children, want.children)
                << nodes << " nodes, n=" << n << " k=" << k << " root="
                << root << " m=" << m;
          }
        }
      }
    }
  }
}

TEST(CollTree, MeshTreesSpanEveryRoot) {
  const std::vector<std::pair<int, int>> shapes = {
      {2, 1}, {3, 3}, {8, 8}, {12, 11}, {16, 16}, {32, 32}};
  for (const auto& [w, h] : shapes) {
    sim::Engine eng;
    // 12x11 holds 128 nodes: the last row is partial.
    const int nodes = w == 12 ? 128 : w * h;
    const auto fab = mesh_fabric(eng, w, nodes);
    std::vector<std::vector<hw::NodeId>> sets = {all_nodes(nodes)};
    if (nodes > 2) {
      sets.push_back(subset_of(nodes, nodes / 2 + 1, 7));
      sets.push_back(subset_of(nodes, 2, 9));
    }
    for (const auto& set : sets) {
      const TreeOrder order = tree_order(*fab, members_on(set));
      const int n = static_cast<int>(set.size());
      ASSERT_EQ(static_cast<int>(order.members.size()), n);
      for (const int k : {2, kArity}) {
        for (int root = 0; root < n; ++root) {
          expect_spanning(tree_of(order, n, k, root), k, root,
                          std::to_string(w) + "x" + std::to_string(h) +
                              " n=" + std::to_string(n) + " k=" +
                              std::to_string(k) + " root=" +
                              std::to_string(root));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(CollTree, HilbertTreesStayLocalAtAnyRoot) {
  for (const int side : {16, 32}) {
    sim::Engine eng;
    const auto fab = mesh_fabric(eng, side, side * side);
    const auto& mesh = dynamic_cast<const hw::MeshFabric&>(*fab);
    const std::vector<hw::NodeId> nodes = all_nodes(side * side);
    const TreeOrder order = tree_order(*fab, members_on(nodes));
    const int n = side * side;
    const int centre = side / 2 * side + side / 2;
    for (const int root : {0, centre}) {
      const Locality curve =
          locality(mesh, nodes, tree_of(order, n, kArity, root));
      const Locality heap =
          locality(mesh, nodes, tree_of({}, n, kArity, root));
      EXPECT_LE(2 * curve.hop_sum, heap.hop_sum)
          << side << "x" << side << " root " << root;
      EXPECT_LE(curve.max_link_edges, 8)
          << side << "x" << side << " root " << root;
    }
  }
}

}  // namespace
