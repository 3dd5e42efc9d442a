#include "core/static_ropes.h"

#include <stdexcept>

#include "util/timer.h"

namespace tt {

bool tree_is_dfs_layout(const LinearTree& tree) {
  for (NodeId id = 0; id < tree.n_nodes; ++id) {
    for (int k = 0; k < tree.fanout; ++k) {
      NodeId c = tree.child(id, k);
      if (c == kNullNode) continue;
      if (c != id + 1) return false;
      break;
    }
  }
  return true;
}

StaticRopes try_install_ropes(const LinearTree& tree) {
  return tree_is_dfs_layout(tree) ? install_ropes(tree) : StaticRopes{};
}

StaticRopes install_ropes(const LinearTree& tree) {
  WallTimer timer;
  // The stackless traversal descends with `cur + 1`, which is only the
  // first child under the left-biased DFS layout; refuse anything else
  // (e.g. a BFS relayout) rather than traverse garbage.
  if (!tree_is_dfs_layout(tree))
    throw std::invalid_argument(
        "install_ropes: tree is not in left-biased DFS layout");
  StaticRopes r;
  const auto n = static_cast<std::size_t>(tree.n_nodes);
  r.rope.assign(n, StaticRopes::kEndOfTraversal);

  // subtree_end[n] = one past the last DFS id in n's subtree. Reverse scan:
  // every child's extent is known before its parent's.
  std::vector<NodeId> subtree_end(n);
  for (NodeId id = static_cast<NodeId>(n) - 1; id >= 0; --id) {
    NodeId end = id + 1;
    for (int k = 0; k < tree.fanout; ++k) {
      NodeId c = tree.child(id, k);
      if (c != kNullNode && subtree_end[static_cast<std::size_t>(c)] > end)
        end = subtree_end[static_cast<std::size_t>(c)];
    }
    subtree_end[static_cast<std::size_t>(id)] = end;
    r.rope[static_cast<std::size_t>(id)] =
        end < static_cast<NodeId>(n) ? end : StaticRopes::kEndOfTraversal;
  }
  // A rope may only point forward (DFS monotonicity is what makes the
  // lockstep resume rule of the stackless variants sound).
  r.install_ms = timer.elapsed_ms();
  return r;
}

}  // namespace tt
