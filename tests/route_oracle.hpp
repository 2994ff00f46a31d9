// Reference routing by explicit path walking — a test oracle for the O(1)
// run-id analyzer and the one-walk relay search in NetworkSelector.
//
// Every function here walks DoR paths tile by tile and tries relay
// candidates exhaustively, exactly as the kernel's route planner is
// specified (Sec. VI, Fig. 7): direct X-Y / Y-X if either path is
// healthy, otherwise the intermediate tile with the fewest added hops
// (lowest tile index on ties) whose two segments are both healthy.  Slow
// and simple on purpose.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "wsp/common/fault_map.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/noc/routing.hpp"

namespace wsp::noc {

/// Complete tile sequence of the DoR path from `src` to `dst` (inclusive
/// of both endpoints).
inline std::vector<TileCoord> dor_path(TileCoord src, TileCoord dst,
                                       NetworkKind kind) {
  std::vector<TileCoord> path;
  path.reserve(static_cast<std::size_t>(hop_distance(src, dst)) + 1);
  TileCoord cur = src;
  path.push_back(cur);
  while (cur != dst) {
    cur = step(cur, next_hop(cur, dst, kind).dir);
    path.push_back(cur);
  }
  return path;
}

/// True when every tile of the DoR path (endpoints included) is healthy.
inline bool path_is_healthy(const FaultMap& faults, TileCoord src,
                            TileCoord dst, NetworkKind kind) {
  TileCoord cur = src;
  if (faults.is_faulty(cur)) return false;
  while (cur != dst) {
    cur = step(cur, next_hop(cur, dst, kind).dir);
    if (!faults.grid().contains(cur) || faults.is_faulty(cur)) return false;
  }
  return true;
}

/// Healthy-path availability between a pair under the dual-network scheme.
struct PairConnectivity {
  bool xy_ok = false;
  bool yx_ok = false;
  bool connected() const { return xy_ok || yx_ok; }
};

inline PairConnectivity pair_connectivity(const FaultMap& faults,
                                          TileCoord src, TileCoord dst) {
  return {
      .xy_ok = path_is_healthy(faults, src, dst, NetworkKind::XY),
      .yx_ok = path_is_healthy(faults, src, dst, NetworkKind::YX),
  };
}

/// Tile-fault-only relay search: the healthy intermediate with the
/// smallest added hop count (first in index order on ties) such that
/// src->I and I->dst are both connected, or nullopt when none exists.
inline std::optional<TileCoord> find_intermediate(const FaultMap& faults,
                                                  TileCoord src,
                                                  TileCoord dst) {
  std::optional<TileCoord> best;
  int best_extra = std::numeric_limits<int>::max();
  const int direct = hop_distance(src, dst);
  faults.grid().for_each([&](TileCoord mid) {
    if (faults.is_faulty(mid) || mid == src || mid == dst) return;
    const int extra = hop_distance(src, mid) + hop_distance(mid, dst) - direct;
    if (extra >= best_extra) return;
    if (pair_connectivity(faults, src, mid).connected() &&
        pair_connectivity(faults, mid, dst).connected()) {
      best = mid;
      best_extra = extra;
    }
  });
  return best;
}

/// True when the request path a->b on `kind` is healthy tile-wise and
/// crosses no failed link in either travel direction.
inline bool segment_clear(const FaultMap& faults, const LinkFaultSet& links,
                          TileCoord a, TileCoord b, NetworkKind kind) {
  if (!path_is_healthy(faults, a, b, kind)) return false;
  const std::vector<TileCoord> path = dor_path(a, b, kind);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Direction d = next_hop(path[i], b, kind).dir;
    if (links.is_failed(path[i], d) ||
        links.is_failed(path[i + 1], opposite(d)))
      return false;
  }
  return true;
}

/// The kernel's route plan by path walking: direct on a clear network
/// (parity hash when both are clear), else the tile-only relay candidate
/// if its segments are link-clear, else every other candidate sorted by
/// (added hops, tile index).
inline RoutePlan reference_plan(const FaultMap& faults,
                                const LinkFaultSet& links, TileCoord src,
                                TileCoord dst) {
  RoutePlan plan;
  if (!faults.grid().contains(src) || !faults.grid().contains(dst) ||
      faults.is_faulty(src) || faults.is_faulty(dst))
    return plan;

  auto choose = [&](TileCoord a, TileCoord b) -> std::optional<NetworkKind> {
    const bool xy = segment_clear(faults, links, a, b, NetworkKind::XY);
    const bool yx = segment_clear(faults, links, a, b, NetworkKind::YX);
    if (xy && yx) {
      const unsigned h = static_cast<unsigned>(a.x + 3 * a.y + 5 * b.x +
                                               7 * b.y);
      return (h & 1u) ? NetworkKind::YX : NetworkKind::XY;
    }
    if (xy) return NetworkKind::XY;
    if (yx) return NetworkKind::YX;
    return std::nullopt;
  };

  if (const auto direct = choose(src, dst)) {
    plan.waypoints = {src, dst};
    plan.segment_networks = {*direct};
    plan.reachable = true;
    return plan;
  }

  auto relay_via = [&](TileCoord mid) -> bool {
    if (mid == src || mid == dst) return false;
    const auto first = choose(src, mid);
    const auto second = choose(mid, dst);
    if (!first || !second) return false;
    plan.waypoints = {src, mid, dst};
    plan.segment_networks = {*first, *second};
    plan.reachable = true;
    plan.relayed = true;
    return true;
  };
  if (const auto mid = find_intermediate(faults, src, dst)) {
    if (relay_via(*mid)) return plan;
  }
  if (!links.empty()) {
    const int direct = hop_distance(src, dst);
    std::vector<std::pair<int, std::size_t>> candidates;
    faults.grid().for_each([&](TileCoord c) {
      if (faults.is_faulty(c) || c == src || c == dst) return;
      candidates.emplace_back(hop_distance(src, c) + hop_distance(c, dst) -
                                  direct,
                              faults.grid().index_of(c));
    });
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [added, index] : candidates) {
      (void)added;
      if (relay_via(faults.grid().coord_of(index))) return plan;
    }
  }
  return plan;
}

}  // namespace wsp::noc
