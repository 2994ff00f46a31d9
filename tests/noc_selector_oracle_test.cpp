// Differential test of the kernel's route planner: NetworkSelector (O(1)
// link-aware run ids, one-walk relay search) against the path-walking
// reference planner of route_oracle.hpp, on every ordered pair of seeded
// random tile-fault x link-fault maps, before and after a rebind.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "route_oracle.hpp"
#include "wsp/noc/connectivity.hpp"
#include "wsp/noc/noc_system.hpp"

namespace wsp::noc {
namespace {

struct FaultState {
  FaultMap tiles;
  LinkFaultSet links;
};

/// Random tile and link faults, plus the awkward link cases the run-id
/// construction must get right: a link failed in one direction only, a
/// link along the array boundary and a link that leaves the array.
FaultState random_state(const TileGrid& grid, std::size_t tile_faults,
                        int link_faults, Rng& rng) {
  FaultState s{FaultMap::random_with_count(grid, tile_faults, rng),
               LinkFaultSet(grid)};
  for (int i = 0; i < link_faults; ++i) {
    const TileCoord from = grid.coord_of(rng.below(grid.tile_count()));
    s.links.set_failed(from, static_cast<Direction>(rng.below(4)));
  }

  // One direction only of an interior (or boundary, on thin grids) link.
  const TileCoord a = grid.coord_of(rng.below(grid.tile_count()));
  for (const Direction d : kAllDirections) {
    if (const auto b = grid.neighbor(a, d)) {
      s.links.set_failed(a, d);
      s.links.set_failed(*b, opposite(d), false);
      break;
    }
  }
  // A link along the north boundary row, and one leaving the array.
  const TileCoord corner{grid.width() - 1, grid.height() - 1};
  if (grid.width() > 1) s.links.set_failed(corner, Direction::West);
  s.links.set_failed(corner, Direction::North);
  return s;
}

std::string describe(const RoutePlan& p) {
  std::ostringstream os;
  os << (p.reachable ? "reachable" : "unreachable")
     << (p.relayed ? " relayed" : "") << " via";
  for (const TileCoord c : p.waypoints) os << ' ' << to_string(c);
  os << " on";
  for (const NetworkKind k : p.segment_networks) os << ' ' << to_string(k);
  return os.str();
}

/// First pair on which the selector and the oracle disagree, or "".
std::string first_mismatch(const NetworkSelector& sel, const FaultState& s) {
  const TileGrid& grid = s.tiles.grid();
  for (std::size_t i = 0; i < grid.tile_count(); ++i) {
    for (std::size_t j = 0; j < grid.tile_count(); ++j) {
      const TileCoord src = grid.coord_of(i), dst = grid.coord_of(j);
      const std::string pair = to_string(src) + "->" + to_string(dst);
      const ConnectivityAnalyzer& an = sel.connectivity();
      if (an.xy_connected(src, dst) !=
          segment_clear(s.tiles, s.links, src, dst, NetworkKind::XY))
        return pair + ": xy_connected";
      if (an.yx_connected(src, dst) !=
          segment_clear(s.tiles, s.links, src, dst, NetworkKind::YX))
        return pair + ": yx_connected";

      const RoutePlan want = reference_plan(s.tiles, s.links, src, dst);
      if (sel.reachable(src, dst) != want.reachable)
        return pair + ": reachable() vs " + describe(want);
      const RoutePlan& got = sel.plan(src, dst);
      if (got.reachable != want.reachable || got.relayed != want.relayed ||
          !(got.waypoints == want.waypoints) ||
          !(got.segment_networks == want.segment_networks))
        return pair + ": got " + describe(got) + ", want " + describe(want);
    }
  }
  return "";
}

class SelectorVsOracle
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(SelectorVsOracle, AllPairsMatchBeforeAndAfterRebind) {
  const auto [w, h, seed] = GetParam();
  const TileGrid grid(w, h);
  Rng rng(seed);
  const std::size_t tiles = grid.tile_count();
  // Sparse and dense-ish maps: a few percent and ~10 % of the tiles, with
  // about as many failed links as faulty tiles.
  const FaultState first =
      random_state(grid, tiles / 25, static_cast<int>(tiles / 25) + 1, rng);
  const FaultState second =
      random_state(grid, tiles / 10, static_cast<int>(tiles / 10) + 2, rng);

  NetworkSelector sel(first.tiles, first.links);
  EXPECT_EQ(first_mismatch(sel, first), "");
  sel.rebind(second.tiles, second.links);
  EXPECT_EQ(first_mismatch(sel, second), "");
  // Back to tile faults only: the link-free analyzer path.
  sel.rebind(first.tiles);
  EXPECT_EQ(first_mismatch(sel, {first.tiles, LinkFaultSet(grid)}), "");
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SelectorVsOracle,
    ::testing::Values(std::make_tuple(1, 12, 1u), std::make_tuple(1, 12, 2u),
                      std::make_tuple(12, 1, 1u), std::make_tuple(12, 1, 2u),
                      std::make_tuple(2, 2, 1u), std::make_tuple(2, 2, 7u),
                      std::make_tuple(5, 7, 1u), std::make_tuple(5, 7, 2u),
                      std::make_tuple(5, 7, 3u), std::make_tuple(16, 16, 1u),
                      std::make_tuple(16, 16, 2026u)));

}  // namespace
}  // namespace wsp::noc
