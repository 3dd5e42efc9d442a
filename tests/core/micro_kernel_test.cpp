// White-box accounting tests: a hand-built 3-node tree and a synthetic
// kernel make every event count predictable, pinning down the executor's
// transaction/cycle bookkeeping exactly (no statistical slack).
#include <gtest/gtest.h>

#include "core/gpu_executors.h"
#include "core/static_ropes.h"
#include "core/traversal_kernel.h"
#include "spatial/linear_tree.h"

namespace tt {
namespace {

// root(0) -> {left(1), right(2)}, both leaves.
LinearTree tiny_tree() {
  LinearTree t;
  t.fanout = 2;
  NodeId root = t.add_node(kNullNode, 0);
  NodeId l = t.add_node(root, 1);
  t.set_child(root, 0, l);
  NodeId r = t.add_node(root, 1);
  t.set_child(root, 1, r);
  t.validate();
  return t;
}

// Visits the whole tiny tree for even point ids; odd ids truncate at the
// root. Result = number of nodes this point visited without truncating.
class MicroKernel {
 public:
  struct State {
    std::uint32_t pid = 0;
    std::uint32_t descents = 0;
  };
  using Result = std::uint32_t;
  using UArg = Empty;
  using LArg = Empty;
  static constexpr int kFanout = 2;
  static constexpr int kNumCallSets = 1;
  static constexpr bool kCallSetsEquivalent = true;

  MicroKernel(const LinearTree& tree, std::size_t n_points, bool odd_truncates,
              GpuAddressSpace& space)
      : tree_(&tree), n_(n_points), odd_truncates_(odd_truncates) {
    nodes0_ = space.register_buffer("micro_nodes0", 4,
                                    static_cast<std::uint64_t>(tree.n_nodes));
    nodes1_ = space.register_buffer("micro_nodes1", 8,
                                    static_cast<std::uint64_t>(tree.n_nodes));
    queries_ = space.register_buffer("micro_queries", 4, n_points);
    ropes_ = install_ropes(tree);
  }

  [[nodiscard]] NodeId root() const { return 0; }
  [[nodiscard]] std::size_t num_points() const { return n_; }
  [[nodiscard]] UArg root_uarg() const { return {}; }
  [[nodiscard]] LArg root_larg() const { return {}; }
  [[nodiscard]] int stack_bound() const { return 8; }

  template <class Mem>
  State init(std::uint32_t pid, Mem& mem, int lane) const {
    mem.lane_load(lane, queries_, pid);
    return State{pid, 0};
  }

  template <class Mem>
  bool visit(NodeId n, const UArg&, const LArg&, State& st, Mem& mem,
             int lane) const {
    mem.lane_load(lane, nodes0_, static_cast<std::uint64_t>(n));
    if (odd_truncates_ && (st.pid & 1u)) return false;
    if (tree_->is_leaf(n)) return false;
    ++st.descents;
    return true;
  }

  [[nodiscard]] int choose_callset(NodeId, const State&) const { return 0; }

  template <class Mem>
  int children(NodeId n, const UArg&, int, const State&,
               Child<UArg, LArg>* out, Mem& mem, int lane) const {
    mem.lane_load(lane, nodes1_, static_cast<std::uint64_t>(n));
    int cnt = 0;
    for (int k = 0; k < 2; ++k)
      if (tree_->child(n, k) != kNullNode) out[cnt++].node = tree_->child(n, k);
    return cnt;
  }

  [[nodiscard]] Result finish(const State& st) const { return st.descents; }

  // Stackless-variant support so the all-variants sweeps cover the rope
  // walkers too (the tiny tree makes their accounting just as exact).
  [[nodiscard]] UArg uarg_at(NodeId) const { return {}; }
  [[nodiscard]] const StaticRopes& ropes() const { return ropes_; }
  [[nodiscard]] std::vector<std::int32_t> node_buffers() const {
    return {nodes0_, nodes1_};
  }

 private:
  const LinearTree* tree_;
  std::size_t n_;
  bool odd_truncates_;
  BufferId nodes0_, nodes1_, queries_;
  StaticRopes ropes_;
};

DeviceConfig no_l2_config() {
  DeviceConfig cfg;
  cfg.model_l2 = false;
  return cfg;
}

TEST(MicroKernel, AutoropesNonLockstepExactCounts) {
  LinearTree tree = tiny_tree();
  GpuAddressSpace space;
  MicroKernel k(tree, 32, /*odd_truncates=*/false, space);
  auto g = run_gpu_sim(k, space, no_l2_config(), GpuMode::from(Variant::kAutoNolockstep));

  // One warp, all lanes traverse root+left+right.
  EXPECT_EQ(g.n_warps, 1u);
  EXPECT_EQ(g.stats.lane_visits, 96u);
  EXPECT_EQ(g.stats.warp_steps, 3u);
  for (auto v : g.per_point_visits) EXPECT_EQ(v, 3u);

  // Transaction budget: init 1 (coalesced 32x4B) + 2 stack pushes + 3
  // stack pops + 3 node0 broadcasts + 1 node1 broadcast = 10, all 128B.
  // (The root seed-push costs nothing: it is written from registers.)
  EXPECT_EQ(g.stats.dram_transactions, 10u);
  EXPECT_EQ(g.stats.dram_bytes, 10u * 128u);
  // Fully converged: 32 active lanes at each of the 3 steps.
  EXPECT_EQ(g.stats.active_lane_sum, 96u);
}

TEST(MicroKernel, AutoropesLockstepExactCounts) {
  LinearTree tree = tiny_tree();
  GpuAddressSpace space;
  MicroKernel k(tree, 32, false, space);
  auto g = run_gpu_sim(k, space, no_l2_config(), GpuMode::from(Variant::kAutoLockstep));

  EXPECT_EQ(g.stats.warp_pops, 3u);
  EXPECT_EQ(g.per_warp_pops[0], 3u);
  EXPECT_EQ(g.stats.lane_visits, 96u);
  // Shared-memory stack: only init 1 + node0 x3 + node1 x1 = 5 transactions.
  EXPECT_EQ(g.stats.dram_transactions, 5u);
  EXPECT_EQ(g.stats.votes, 3u);  // one warp_and per pop
}

TEST(MicroKernel, TruncationMasksLanes) {
  LinearTree tree = tiny_tree();
  GpuAddressSpace space;
  MicroKernel k(tree, 32, /*odd_truncates=*/true, space);

  auto gl = run_gpu_sim(k, space, no_l2_config(), GpuMode::from(Variant::kAutoLockstep));
  // Root visited by 32 lanes; leaves by the 16 even lanes each.
  EXPECT_EQ(gl.stats.lane_visits, 64u);
  EXPECT_EQ(gl.stats.warp_pops, 3u);  // warp still walks the union
  EXPECT_EQ(gl.stats.active_lane_sum, 64u);

  auto gn = run_gpu_sim(k, space, no_l2_config(), GpuMode::from(Variant::kAutoNolockstep));
  EXPECT_EQ(gn.stats.lane_visits, 64u);
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_EQ(gn.per_point_visits[i], (i & 1u) ? 1u : 3u) << i;
  // Results identical across variants.
  EXPECT_EQ(gl.results, gn.results);
}

TEST(MicroKernel, PartialWarpHandled) {
  LinearTree tree = tiny_tree();
  GpuAddressSpace space;
  MicroKernel k(tree, 40, false, space);  // 1 full warp + 8 lanes
  auto g = run_gpu_sim(k, space, no_l2_config(), GpuMode::from(Variant::kAutoLockstep));
  EXPECT_EQ(g.n_warps, 2u);
  EXPECT_EQ(g.per_warp_pops.size(), 2u);
  EXPECT_EQ(g.per_warp_pops[1], 3u);
  EXPECT_EQ(g.stats.lane_visits, 120u);  // 40 points x 3 nodes
  for (auto r : g.results) EXPECT_EQ(r, 1u);  // one descent each (the root)
}

TEST(MicroKernel, RecursiveVariantsSameSemanticsMoreCost) {
  LinearTree tree = tiny_tree();
  GpuAddressSpace space;
  MicroKernel k(tree, 32, true, space);
  auto ga = run_gpu_sim(k, space, no_l2_config(), GpuMode::from(Variant::kAutoNolockstep));
  auto gr = run_gpu_sim(k, space, no_l2_config(), GpuMode::from(Variant::kRecNolockstep));
  EXPECT_EQ(ga.results, gr.results);
  EXPECT_EQ(gr.stats.lane_visits, ga.stats.lane_visits);
  EXPECT_GT(gr.stats.calls, 0u);
  // Frame traffic makes the recursive variant move more bytes.
  EXPECT_GT(gr.stats.dram_bytes, ga.stats.dram_bytes);
}

TEST(MicroKernel, GridStrideSameResultsSameVisits) {
  LinearTree tree = tiny_tree();
  GpuAddressSpace space;
  MicroKernel k(tree, 200, true, space);
  GpuMode wide = GpuMode::from(Variant::kAutoLockstep);
  GpuMode narrow = GpuMode::from(Variant::kAutoLockstep);
  narrow.grid_limit = 2;  // 2 physical warps cover 7 chunks
  auto a = run_gpu_sim(k, space, no_l2_config(), wide);
  auto b = run_gpu_sim(k, space, no_l2_config(), narrow);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.stats.lane_visits, b.stats.lane_visits);
  EXPECT_EQ(a.per_warp_pops, b.per_warp_pops);  // per-chunk pops unchanged
}

TEST(MicroKernel, GridStrideReusesL2) {
  LinearTree tree = tiny_tree();
  GpuAddressSpace space;
  MicroKernel k(tree, 2048, false, space);
  DeviceConfig cfg;  // L2 on
  GpuMode wide = GpuMode::from(Variant::kAutoLockstep);
  GpuMode narrow = GpuMode::from(Variant::kAutoLockstep);
  narrow.grid_limit = 4;
  auto a = run_gpu_sim(k, space, cfg, wide);
  auto b = run_gpu_sim(k, space, cfg, narrow);
  // Chunks sharing a physical warp's L2 slice re-hit the tiny tree.
  EXPECT_GT(b.stats.l2_hit_transactions, a.stats.l2_hit_transactions);
  EXPECT_LT(b.stats.dram_transactions, a.stats.dram_transactions);
  EXPECT_EQ(a.results, b.results);
}

TEST(MicroKernel, SingleLaneWarp) {
  LinearTree tree = tiny_tree();
  GpuAddressSpace space;
  MicroKernel k(tree, 1, false, space);
  for (Variant v : kAllVariants) {
    auto g = run_gpu_sim(k, space, no_l2_config(), GpuMode::from(v));
    ASSERT_EQ(g.results.size(), 1u);
    EXPECT_EQ(g.results[0], 1u);
    EXPECT_EQ(g.stats.lane_visits, 3u);
  }
}

}  // namespace
}  // namespace tt
