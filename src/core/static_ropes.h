// Classic statically-installed ropes -- the prior-work technique (Popov et
// al. [21], Hapala et al. [6]; paper section 3, Figure 2) that autoropes
// generalizes. A preprocessing pass installs, at every node, a pointer to
// the next *new* node a traversal visits when the node's subtree is
// skipped. Traversal then needs no stack at all: descending moves to the
// first child, truncating follows the rope.
//
// The limitations the paper calls out are structural here too:
//   * ropes encode ONE canonical order, so only unguided (single-call-set)
//     traversals qualify;
//   * rope-stack arguments disappear -- anything the recursion passed down
//     must be recomputable from the node itself (RopeCompatibleKernel
//     requires `uarg_at(node)`);
//   * the preprocessing pass touches the whole tree before the first
//     traversal (bench/ablation_ropes.cpp measures that cost).
//
// On the simulated GPU a static-ropes walk is the stackless variant family
// (stackless_lockstep / stackless_nolockstep, core/stack_policy.h's
// StacklessRope) with the shared-memory node cache off.
//
// With this library's left-biased DFS linearization the canonical
// traversal is simply increasing node ids: descend == n+1, and
// rope[n] == n + subtree_size(n).
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

#include "core/traversal_kernel.h"
#include "core/variant.h"
#include "spatial/linear_tree.h"

namespace tt {

struct StaticRopes {
  // rope[n]: node to visit when skipping n's subtree; kEndOfTraversal
  // when the traversal is finished.
  static constexpr NodeId kEndOfTraversal = -1;
  std::vector<NodeId> rope;
  double install_ms = 0;  // preprocessing cost of the install pass
};

// Preprocessing pass (prior work's tree rewrite). O(n). Throws
// std::invalid_argument unless the tree is in left-biased DFS layout
// (descend == n+1 is what the stackless walkers rely on).
StaticRopes install_ropes(const LinearTree& tree);

// True iff every node's first present child is n+1 (the left-biased DFS
// linearization every spatial builder emits; BFS relayouts are not).
[[nodiscard]] bool tree_is_dfs_layout(const LinearTree& tree);

// Kernel-constructor variant: returns empty ropes (rope.size() == 0)
// instead of throwing when the tree is not DFS-laid-out, so kernels over
// relayouted trees still construct and run the stack-based variants; the
// stackless launch paths reject empty ropes at dispatch.
StaticRopes try_install_ropes(const LinearTree& tree);

// Kernels eligible for rope-based traversal: unguided and able to
// recompute their uniform argument at any node (no stack to carry it).
template <class K>
concept RopeCompatibleKernel =
    TraversalKernel<K> && (K::kNumCallSets == 1) &&
    !kernel_has_lane_arg<K> &&
    requires(const K k, NodeId n) {
      { k.uarg_at(n) } -> std::same_as<typename K::UArg>;
    };

// CPU reference for the stackless walk: every point follows the canonical
// DFS order, descending to n+1 and escaping along rope[n] (no stack).
template <RopeCompatibleKernel K>
[[nodiscard]] std::vector<typename K::Result> run_cpu_ropes(
    const K& k, const StaticRopes& ropes) {
  std::vector<typename K::Result> out(k.num_points());
  const typename K::LArg no_larg{};
  for (std::uint32_t pid = 0; pid < k.num_points(); ++pid) {
    NoopMem mem;
    typename K::State st = k.init(pid, mem, 0);
    for (NodeId cur = k.root(); cur != StaticRopes::kEndOfTraversal;)
      cur = k.visit(cur, k.uarg_at(cur), no_larg, st, mem, 0)
                ? cur + 1
                : ropes.rope[static_cast<std::size_t>(cur)];
    out[pid] = k.finish(st);
  }
  return out;
}

// Kernels eligible for the stackless Variant family: rope-compatible AND
// carrying their own installed ropes plus the list of node buffers the
// shared-memory cache may front (simt/smem_cache.h caches the low-DFS-id
// prefix of exactly these buffers).
template <class K>
concept StacklessCompatibleKernel =
    RopeCompatibleKernel<K> &&
    requires(const K k) {
      { k.ropes() } -> std::convertible_to<const StaticRopes&>;
      { k.node_buffers() } -> std::convertible_to<std::vector<std::int32_t>>;
    };

// index_walk (Wald-style arithmetic escape) additionally needs a binary
// left-biased DFS tree: the escape target is derivable by walking sibling
// extents, which the policy only does for fanout 2 (the spatial kd-trees).
template <class K>
inline constexpr bool kernel_index_walk_eligible =
    StacklessCompatibleKernel<K> && (K::kFanout == 2);

// Runtime eligibility of one (kernel type, variant) pair, usable from
// type-erased contexts (harness skip messages, fuzzer gating).
template <class K>
[[nodiscard]] constexpr bool kernel_variant_eligible(Variant v) {
  if (!variant_is_stackless(v)) return true;
  if constexpr (!StacklessCompatibleKernel<K>) {
    return false;
  } else {
    return v != Variant::kIndexWalk || kernel_index_walk_eligible<K>;
  }
}

// The one canonical spelling of every (kernel, variant) ineligibility.
// Every surface that reports the condition -- run_gpu_sim's throw, the
// launch API's throw, the harness's "skipped:" rows -- renders this string
// with its own prefix ("run_gpu_sim: " / "launch: " / "skipped: "), so the
// same failure reads identically everywhere (pinned by
// tests/core/static_ropes_test.cpp). Returns "" when the pair can run.
// Takes an instance because empty-rope detection (a BFS relayout stripped
// the ropes) is a runtime property, not a type-level one.
template <class K>
[[nodiscard]] std::string kernel_variant_ineligible_reason(const K& k,
                                                           Variant v) {
  if (!variant_is_stackless(v)) return {};
  if constexpr (!StacklessCompatibleKernel<K>) {
    (void)k;
    return std::string("variant ") + variant_name(v) +
           " requires a stackless-compatible (unguided, rope-carrying) "
           "kernel; " +
           kernel_display_name<K>() + " is ineligible";
  } else {
    if (v == Variant::kIndexWalk && !kernel_index_walk_eligible<K>)
      return std::string(
                 "variant index_walk requires a fanout-2 tree; kernel ") +
             kernel_display_name<K>() + " is ineligible";
    if (k.ropes().rope.empty())
      return std::string("variant ") + variant_name(v) +
             " needs ropes installed over a left-biased DFS tree; kernel " +
             kernel_display_name<K>() + " carries none (non-DFS relayout?)";
    return {};
  }
}

}  // namespace tt
