#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/generators.hpp"
#include "net/shortest_paths.hpp"
#include "net/topology.hpp"

namespace rtds {
namespace {

// ------------------------------------------------------------ topology ----

TEST(Topology, BuildAndQuery) {
  Topology topo;
  const SiteId a = topo.add_site();
  const SiteId b = topo.add_site(2.0);
  const SiteId c = topo.add_site();
  topo.add_link(a, b, 1.5);
  topo.add_link(b, c, 2.5, 10.0);
  EXPECT_EQ(topo.site_count(), 3u);
  EXPECT_EQ(topo.link_count(), 2u);
  EXPECT_TRUE(topo.adjacent(a, b));
  EXPECT_TRUE(topo.adjacent(b, a));
  EXPECT_FALSE(topo.adjacent(a, c));
  EXPECT_DOUBLE_EQ(topo.link_delay(b, c), 2.5);
  EXPECT_DOUBLE_EQ(topo.computing_power(b), 2.0);
  EXPECT_TRUE(topo.connected());
}

TEST(Topology, InvalidInputs) {
  Topology topo;
  const SiteId a = topo.add_site();
  const SiteId b = topo.add_site();
  EXPECT_THROW(topo.add_site(0.0), ContractViolation);
  EXPECT_THROW(topo.add_link(a, a, 1.0), ContractViolation);
  EXPECT_THROW(topo.add_link(a, b, 0.0), ContractViolation);
  EXPECT_THROW(topo.add_link(a, 9, 1.0), ContractViolation);
  topo.add_link(a, b, 1.0);
  EXPECT_THROW(topo.add_link(b, a, 2.0), ContractViolation);  // parallel
  EXPECT_THROW(topo.link_delay(a, 1 + 1), ContractViolation);
}

TEST(Topology, Disconnected) {
  Topology topo;
  topo.add_site();
  topo.add_site();
  EXPECT_FALSE(topo.connected());
}

// ------------------------------------------------------------ dijkstra ----

TEST(ShortestPaths, LineGraphDistances) {
  Topology topo;
  for (int i = 0; i < 4; ++i) topo.add_site();
  topo.add_link(0, 1, 1.0);
  topo.add_link(1, 2, 2.0);
  topo.add_link(2, 3, 3.0);
  const auto res = dijkstra(topo, 0);
  EXPECT_DOUBLE_EQ(res.dist[3], 6.0);
  EXPECT_EQ(res.hops[3], 3u);
  EXPECT_EQ(extract_path(res, 0, 3), (std::vector<SiteId>{0, 1, 2, 3}));
}

TEST(ShortestPaths, NoTriangleInequality) {
  // §2: weights need not satisfy the triangle inequality — the direct link
  // can be *worse* than a two-hop path.
  Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_site();
  topo.add_link(0, 2, 10.0);  // direct but slow
  topo.add_link(0, 1, 1.0);
  topo.add_link(1, 2, 1.0);
  const auto res = dijkstra(topo, 0);
  EXPECT_DOUBLE_EQ(res.dist[2], 2.0);
  EXPECT_EQ(res.hops[2], 2u);
}

TEST(ShortestPaths, DijkstraMatchesFloydWarshall) {
  Rng rng(3);
  const Topology topo = make_erdos_renyi(24, 0.15, DelayRange{0.5, 4.0}, rng);
  const auto fw = floyd_warshall(topo);
  for (SiteId s = 0; s < topo.site_count(); ++s) {
    const auto d = dijkstra(topo, s);
    for (SiteId t = 0; t < topo.site_count(); ++t)
      EXPECT_NEAR(d.dist[t], fw[s][t], 1e-9) << s << "->" << t;
  }
}

TEST(ShortestPaths, HopBoundedConvergesToDijkstra) {
  Rng rng(4);
  const Topology topo = make_erdos_renyi(20, 0.2, DelayRange{1.0, 3.0}, rng);
  const auto full = dijkstra(topo, 0);
  const auto bounded = hop_bounded_distances(topo, 0, topo.site_count());
  for (SiteId t = 0; t < topo.site_count(); ++t)
    EXPECT_NEAR(bounded[t], full.dist[t], 1e-9);
}

TEST(ShortestPaths, HopBoundedMonotone) {
  Rng rng(5);
  const Topology topo = make_ring(12, DelayRange{1.0, 2.0}, rng);
  const auto h1 = hop_bounded_distances(topo, 0, 1);
  const auto h2 = hop_bounded_distances(topo, 0, 2);
  for (SiteId t = 0; t < topo.site_count(); ++t)
    EXPECT_LE(h2[t], h1[t] + 1e-12);
  // Exactly the two ring neighbours are reachable in one hop.
  std::size_t reachable1 = 0;
  for (SiteId t = 0; t < topo.site_count(); ++t)
    if (h1[t] != kInfiniteTime) ++reachable1;
  EXPECT_EQ(reachable1, 3u);  // self + 2 neighbours
}

TEST(ShortestPaths, HopDistancesBfs) {
  Rng rng(6);
  const Topology topo = make_grid(4, 4, DelayRange{1.0, 1.0}, rng);
  const auto hops = hop_distances(topo, 0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[15], 6u);  // corner to corner on a 4x4 grid
}

// ---------------------------------------------------------- generators ----

struct NetCase {
  NetShape shape;
  std::size_t approx;
};

class NetShapes : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetShapes, ConnectedAndRoughlyRequestedSize) {
  Rng rng(11);
  const auto [shape, approx] = GetParam();
  const Topology topo = make_net(shape, approx, DelayRange{1.0, 2.0}, rng);
  EXPECT_TRUE(topo.connected()) << to_string(shape);
  EXPECT_GE(topo.site_count(), 4u);
  EXPECT_LE(topo.site_count(), 3 * approx + 8);
  for (const auto& l : topo.links()) EXPECT_GT(l.delay, 0.0);
}

TEST_P(NetShapes, AdjacencyLinkIdsNameTheirLinks) {
  // neighbors(s)[k].link is the links() index of the s--site link: same
  // endpoints, delay and throughput; every link is named exactly twice,
  // once from each endpoint.
  Rng rng(12);
  const auto [shape, approx] = GetParam();
  const Topology topo = make_net(shape, approx, DelayRange{0.5, 2.0}, rng);
  std::vector<int> named(topo.link_count(), 0);
  for (SiteId s = 0; s < topo.site_count(); ++s) {
    for (const Neighbor& nb : topo.neighbors(s)) {
      ASSERT_LT(nb.link, topo.link_count()) << to_string(shape);
      const Link& l = topo.links()[nb.link];
      EXPECT_TRUE((l.a == s && l.b == nb.site) || (l.b == s && l.a == nb.site))
          << to_string(shape) << " site " << s << " link " << nb.link;
      EXPECT_EQ(l.delay, nb.delay);
      EXPECT_EQ(l.throughput, nb.throughput);
      ++named[nb.link];
    }
  }
  for (std::size_t i = 0; i < named.size(); ++i)
    EXPECT_EQ(named[i], 2) << to_string(shape) << " link " << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, NetShapes,
    ::testing::Values(NetCase{NetShape::kLine, 10}, NetCase{NetShape::kRing, 10},
                      NetCase{NetShape::kStar, 10}, NetCase{NetShape::kGrid, 16},
                      NetCase{NetShape::kTorus, 16},
                      NetCase{NetShape::kHypercube, 16},
                      NetCase{NetShape::kTree, 20},
                      NetCase{NetShape::kErdosRenyi, 20},
                      NetCase{NetShape::kGeometric, 25},
                      NetCase{NetShape::kSmallWorld, 20},
                      NetCase{NetShape::kScaleFree, 20}),
    [](const auto& info) { return to_string(info.param.shape); });

TEST(NetGenerators, GridStructure) {
  Rng rng(12);
  const Topology topo = make_grid(3, 4, DelayRange{1.0, 1.0}, rng);
  EXPECT_EQ(topo.site_count(), 12u);
  EXPECT_EQ(topo.link_count(), 3u * 3u + 2u * 4u);  // (w-1)h + w(h-1)
}

TEST(NetGenerators, TorusIsRegular) {
  Rng rng(13);
  const Topology topo = make_torus(4, 4, DelayRange{1.0, 1.0}, rng);
  EXPECT_EQ(topo.site_count(), 16u);
  for (SiteId s = 0; s < 16; ++s)
    EXPECT_EQ(topo.neighbors(s).size(), 4u);
}

TEST(NetGenerators, HypercubeDegree) {
  Rng rng(14);
  const Topology topo = make_hypercube(4, DelayRange{1.0, 1.0}, rng);
  EXPECT_EQ(topo.site_count(), 16u);
  for (SiteId s = 0; s < 16; ++s)
    EXPECT_EQ(topo.neighbors(s).size(), 4u);
}

TEST(NetGenerators, TreeHasNMinus1Links) {
  Rng rng(15);
  const Topology topo = make_random_tree(40, DelayRange{1.0, 1.0}, rng);
  EXPECT_EQ(topo.link_count(), 39u);
  EXPECT_TRUE(topo.connected());
}

TEST(NetGenerators, GeometricDelaysScaleWithDistance) {
  Rng rng(16);
  const Topology topo = make_geometric(30, 0.4, 2.0, rng);
  EXPECT_TRUE(topo.connected());
  for (const auto& l : topo.links())
    EXPECT_LE(l.delay, 2.0 * std::sqrt(2.0) + 1e-9);
}

TEST(NetGenerators, ScaleFreeHubEmerges) {
  Rng rng(17);
  const Topology topo = make_scale_free(60, 2, DelayRange{1.0, 1.0}, rng);
  std::size_t max_degree = 0;
  for (SiteId s = 0; s < topo.site_count(); ++s)
    max_degree = std::max(max_degree, topo.neighbors(s).size());
  EXPECT_GE(max_degree, 6u);  // preferential attachment grows hubs
}

}  // namespace
}  // namespace rtds
