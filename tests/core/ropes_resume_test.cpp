// The lockstep-ropes resume rule of stackless_lockstep with the node cache
// off -- the static-ropes walk (core/convergence_policy.h's StacklessRope
// flavor of WarpAndTruncation): a lane truncated at node n is masked until
// the warp's cursor reaches rope[n], then resumes. A synthetic kernel with
// per-lane truncation sets makes the reactivation pattern fully
// predictable.
#include <gtest/gtest.h>

#include <set>

#include "core/gpu_executors.h"
#include "core/static_ropes.h"
#include "spatial/linear_tree.h"

namespace tt {
namespace {

// Perfect binary tree of depth 2 in DFS ids:
//   0 -> {1 -> {2, 3}, 4 -> {5, 6}}
LinearTree depth2_tree() {
  LinearTree t;
  t.fanout = 2;
  NodeId n0 = t.add_node(kNullNode, 0);
  NodeId n1 = t.add_node(n0, 1);
  t.set_child(n0, 0, n1);
  NodeId n2 = t.add_node(n1, 2);
  t.set_child(n1, 0, n2);
  NodeId n3 = t.add_node(n1, 2);
  t.set_child(n1, 1, n3);
  NodeId n4 = t.add_node(n0, 1);
  t.set_child(n0, 1, n4);
  NodeId n5 = t.add_node(n4, 2);
  t.set_child(n4, 0, n5);
  NodeId n6 = t.add_node(n4, 2);
  t.set_child(n4, 1, n6);
  t.validate();
  return t;
}

// Lane truncates at the node ids listed in its truncation set; Result is
// the set of nodes the lane actually visited (encoded as a bitmask).
class TruncSetKernel {
 public:
  struct State {
    std::uint32_t pid = 0;
    std::uint32_t visited_mask = 0;
  };
  using Result = std::uint32_t;
  using UArg = Empty;
  using LArg = Empty;
  static constexpr int kFanout = 2;
  static constexpr int kNumCallSets = 1;
  static constexpr bool kCallSetsEquivalent = true;

  TruncSetKernel(const LinearTree& tree, std::size_t n,
                 std::vector<std::set<NodeId>> trunc, GpuAddressSpace& space)
      : tree_(&tree), n_(n), trunc_(std::move(trunc)),
        ropes_(install_ropes(tree)) {
    nodes0_ = space.register_buffer("ts_nodes0", 4,
                                    static_cast<std::uint64_t>(tree.n_nodes));
    queries_ = space.register_buffer("ts_queries", 4, n);
  }

  [[nodiscard]] NodeId root() const { return 0; }
  [[nodiscard]] std::size_t num_points() const { return n_; }
  [[nodiscard]] UArg root_uarg() const { return {}; }
  [[nodiscard]] LArg root_larg() const { return {}; }
  [[nodiscard]] int stack_bound() const { return 16; }
  [[nodiscard]] UArg uarg_at(NodeId) const { return {}; }
  [[nodiscard]] const StaticRopes& ropes() const { return ropes_; }
  [[nodiscard]] std::vector<std::int32_t> node_buffers() const {
    return {nodes0_};
  }

  template <class Mem>
  State init(std::uint32_t pid, Mem& mem, int lane) const {
    mem.lane_load(lane, queries_, pid);
    return State{pid, 0};
  }

  template <class Mem>
  bool visit(NodeId n, const UArg&, const LArg&, State& st, Mem& mem,
             int lane) const {
    mem.lane_load(lane, nodes0_, static_cast<std::uint64_t>(n));
    st.visited_mask |= 1u << n;
    if (trunc_[st.pid].count(n)) return false;
    return !tree_->is_leaf(n);
  }

  [[nodiscard]] int choose_callset(NodeId, const State&) const { return 0; }

  template <class Mem>
  int children(NodeId n, const UArg&, int, const State&,
               Child<UArg, LArg>* out, Mem& mem, int lane) const {
    mem.lane_load(lane, nodes0_, static_cast<std::uint64_t>(n));
    int cnt = 0;
    for (int k = 0; k < 2; ++k)
      if (tree_->child(n, k) != kNullNode)
        out[cnt++].node = tree_->child(n, k);
    return cnt;
  }

  [[nodiscard]] Result finish(const State& st) const {
    return st.visited_mask;
  }

 private:
  const LinearTree* tree_;
  std::size_t n_;
  std::vector<std::set<NodeId>> trunc_;
  StaticRopes ropes_;
  BufferId nodes0_, queries_;
};

// The static-ropes walk: a stackless variant with the node cache off.
GpuMode static_ropes(bool lockstep) {
  GpuMode m = GpuMode::from(lockstep ? Variant::kStacklessLockstep
                                     : Variant::kStacklessNolockstep);
  m.node_cache_bytes = 0;
  return m;
}

TEST(RopesResume, TruncatedLaneSkipsExactlyItsSubtree) {
  LinearTree t = depth2_tree();
  // Lane 0: truncates at node 1 -> must visit {0,1,4,5,6}, skipping {2,3}.
  // Lane 1: truncates nowhere -> visits everything.
  // Lane 2: truncates at root -> visits {0} only.
  std::vector<std::set<NodeId>> trunc{{1}, {}, {0}};
  GpuAddressSpace space;
  TruncSetKernel k(t, 3, trunc, space);
  DeviceConfig cfg;
  auto g = run_gpu_sim(k, space, cfg, static_ropes(/*lockstep=*/true));
  EXPECT_EQ(g.results[0], 0b1110011u);  // nodes 0,1,4,5,6
  EXPECT_EQ(g.results[1], 0b1111111u);  // all seven
  EXPECT_EQ(g.results[2], 0b0000001u);  // root only
}

TEST(RopesResume, MatchesNonLockstepVisitSets) {
  LinearTree t = depth2_tree();
  std::vector<std::set<NodeId>> trunc{{4}, {1, 5}, {2}, {}};
  GpuAddressSpace space;
  TruncSetKernel k(t, 4, trunc, space);
  DeviceConfig cfg;
  auto l = run_gpu_sim(k, space, cfg, static_ropes(true));
  auto n = run_gpu_sim(k, space, cfg, static_ropes(false));
  EXPECT_EQ(l.results, n.results);
  // And against the CPU rope walk too.
  auto cpu = run_cpu_ropes(k, k.ropes());
  EXPECT_EQ(l.results, cpu);
}

TEST(RopesResume, WarpVisitsUnionExactlyOnce) {
  LinearTree t = depth2_tree();
  std::vector<std::set<NodeId>> trunc{{1}, {4}};
  GpuAddressSpace space;
  TruncSetKernel k(t, 2, trunc, space);
  DeviceConfig cfg;
  auto g = run_gpu_sim(k, space, cfg, static_ropes(true));
  // Union of the two lanes' traversals is the whole tree; the warp's
  // cursor passes each node at most once.
  EXPECT_EQ(g.stats.warp_pops, 7u);
}

}  // namespace
}  // namespace tt
