// Tests: multilevel partitioner vs the paper's §IV-C requirements —
// small cut, balanced per-part port load — including optimality-gap checks
// against exhaustive bisection on small graphs.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>

#include "partition/partitioner.hpp"
#include "topo/generators.hpp"

namespace sdt::partition {
namespace {

using topo::Graph;

TEST(Partition, RejectsBadInputs) {
  Graph g(4);
  EXPECT_FALSE(partitionGraph(g, {.parts = 0}).ok());
  EXPECT_FALSE(partitionGraph(Graph{}, {.parts = 2}).ok());
  EXPECT_FALSE(partitionGraph(g, {.parts = 5}).ok());
}

TEST(Partition, SinglePartTrivial) {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  auto r = partitionGraph(g, {.parts = 1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().cutWeight, 0);
  EXPECT_EQ(r.value().internalEdges[0], 2);
}

TEST(Partition, TwoCliquesWithBridgeCutsTheBridge) {
  // Two K4s joined by one edge: the optimal bisection cuts exactly it.
  Graph g(8);
  for (int base : {0, 4}) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) g.addEdge(base + i, base + j);
    }
  }
  g.addEdge(3, 4);
  auto r = partitionGraph(g, {.parts = 2, .seed = 3});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().cutWeight, 1);
  // Each side keeps its clique.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.value().assignment[i], r.value().assignment[0]);
  for (int i = 4; i < 8; ++i) EXPECT_EQ(r.value().assignment[i], r.value().assignment[4]);
}

TEST(Partition, EvaluateAssignmentCountsCutAndLoads) {
  Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(2, 3);
  PartitionOptions opt{.parts = 2};
  auto r = evaluateAssignment(g, {0, 0, 1, 1}, 2, opt);
  EXPECT_EQ(r.cutWeight, 1);
  EXPECT_EQ(r.internalEdges[0], 1);
  EXPECT_EQ(r.internalEdges[1], 1);
  // Degree loads: part0 = deg(0)+deg(1) = 1+2 = 3; part1 same.
  EXPECT_EQ(r.partLoad[0], 3);
  EXPECT_EQ(r.partLoad[1], 3);
}

TEST(Partition, ExactBisectionAgreesOnTinyGraphs) {
  // Heuristic cut must be within 2x of the exact optimum on small rings.
  for (const int n : {6, 8, 10}) {
    Graph g(n);
    for (int i = 0; i < n; ++i) g.addEdge(i, (i + 1) % n);
    auto exact = exactBisection(g);
    auto heur = partitionGraph(g, {.parts = 2, .seed = 5});
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(heur.ok());
    EXPECT_EQ(exact.value().cutWeight, 2);  // ring bisection cuts 2 edges
    EXPECT_LE(heur.value().cutWeight, 2 * exact.value().cutWeight);
  }
}

TEST(Partition, ExactBisectionRespectsBalanceCap) {
  Graph g(6);
  for (int i = 0; i + 1 < 6; ++i) g.addEdge(i, i + 1);
  PartitionOptions opt;
  opt.maxImbalance = 0.35;
  auto r = exactBisection(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.value().imbalance(), 0.35);
}

TEST(Partition, ExactRefusesOversizedGraphs) {
  EXPECT_FALSE(exactBisection(Graph(23)).ok());
}

// Property sweep: on every paper topology, the partitioner must produce a
// valid, reasonably balanced split for 2 and 3 parts (the plant sizes the
// paper uses). The name is a std::string, not a const char*, so the printed
// parameter (and hence the test name) carries no load address.
class PartitionSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PartitionSweep, BalancedAndComplete) {
  const auto [name, parts] = GetParam();
  topo::Topology t;
  const std::string& which = name;
  if (which == "fattree") t = topo::makeFatTree(4);
  if (which == "dragonfly") t = topo::makeDragonfly(4, 9, 2);
  if (which == "torus") t = topo::makeTorus3D(4, 4, 4);
  if (which == "mesh") t = topo::makeMesh2D(5, 5);
  const Graph g = t.switchGraph();
  auto r = partitionGraph(g, {.parts = parts, .seed = 42});
  ASSERT_TRUE(r.ok()) << r.error().message;
  const auto& res = r.value();
  ASSERT_EQ(static_cast<int>(res.assignment.size()), g.numVertices());
  for (const int p : res.assignment) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, parts);
  }
  // Every part non-empty.
  std::vector<int> count(static_cast<std::size_t>(parts), 0);
  for (const int p : res.assignment) ++count[p];
  for (const int c : count) EXPECT_GT(c, 0);
  // Load balance within the configured tolerance plus slack for coarse
  // structures (a Fat-Tree pod is hard to split exactly).
  EXPECT_LE(res.imbalance(), 0.60) << which << " parts=" << parts;
  // Cut not absurd: strictly less than all edges.
  EXPECT_LT(res.cutWeight, g.numEdges());
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, PartitionSweep,
    ::testing::Combine(::testing::Values(std::string("fattree"), std::string("dragonfly"),
                                          std::string("torus"), std::string("mesh")),
                       ::testing::Values(2, 3)));

TEST(Partition, DeterministicForSeed) {
  const Graph g = topo::makeDragonfly(4, 9, 2).switchGraph();
  auto a = partitionGraph(g, {.parts = 3, .seed = 9});
  auto b = partitionGraph(g, {.parts = 3, .seed = 9});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().assignment, b.value().assignment);
}

// Regression: evaluateAssignment used to score an empty part with a finite
// 2.0 penalty, so on dense graphs (here K8) parking *everything* on one
// physical switch scored 4*(1/28 + 2) ~ 8.1, beating the balanced split's
// 16 + 4*(1/6 + 1/6) ~ 17.3 — an idle switch "won" on cut savings. The
// paper's beta term 1/|E_i| diverges as |E_i| -> 0, so an internal-edge-free
// part must carry a dominating penalty when beta > 0.
TEST(Partition, EmptyPartCannotBeatBalancedSplit) {
  Graph k8(8);
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) k8.addEdge(i, j);
  }
  PartitionOptions opt{.parts = 2};
  const auto emptySide = evaluateAssignment(k8, {0, 0, 0, 0, 0, 0, 0, 0}, 2, opt);
  const auto balanced = evaluateAssignment(k8, {0, 0, 0, 0, 1, 1, 1, 1}, 2, opt);
  EXPECT_GT(emptySide.objective, balanced.objective);
  // The penalty dominates: one internal-edge-free part must outweigh the
  // largest possible finite objective (cutting every edge).
  std::vector<int> everyOther(8);
  for (int i = 0; i < 8; ++i) everyOther[i] = i % 2;
  const auto worstCut = evaluateAssignment(k8, std::move(everyOther), 2, opt);
  EXPECT_GT(emptySide.objective, worstCut.objective);
  // With beta == 0 the balance term is off and min-cut semantics remain.
  PartitionOptions minCut{.parts = 2, .beta = 0.0};
  const auto cutOnly = evaluateAssignment(k8, {0, 0, 0, 0, 0, 0, 0, 0}, 2, minCut);
  EXPECT_DOUBLE_EQ(cutOnly.objective, 0.0);
}

// Regression: recursive kWay stranded parts empty on small/star graphs —
// multilevelBisect balances *degree load*, so it can park every vertex on
// one side (always, with beta == 0 disabling balance repair), and the
// orphaned branch silently kept partLoad == 0. Every part must be non-empty
// whenever parts <= numVertices.
TEST(Partition, KWayNeverStrandsAPartEmpty) {
  for (const int n : {3, 4, 5, 8}) {
    Graph path(n), star(n);
    for (int i = 0; i + 1 < n; ++i) path.addEdge(i, i + 1);
    for (int i = 1; i < n; ++i) star.addEdge(0, i);
    for (const Graph* g : {&path, &star}) {
      for (const int parts : {2, 3}) {
        if (parts > n) continue;
        for (const double beta : {0.0, 4.0}) {
          for (const double cap : {0.35, 10.0}) {
            for (std::uint64_t seed = 1; seed <= 5; ++seed) {
              auto r = partitionGraph(
                  *g, {.parts = parts, .beta = beta, .maxImbalance = cap, .seed = seed});
              ASSERT_TRUE(r.ok());
              std::vector<int> count(static_cast<std::size_t>(parts), 0);
              for (const int p : r.value().assignment) ++count[p];
              for (int p = 0; p < parts; ++p) {
                EXPECT_GT(count[p], 0)
                    << (g == &path ? "path" : "star") << n << " parts=" << parts
                    << " beta=" << beta << " cap=" << cap << " seed=" << seed;
              }
            }
          }
        }
      }
    }
  }
  // The weighted-star shape that previously stranded part 1 even with the
  // default balanced objective (beta=4, cap 0.35 -> 0.3, seed 7).
  Graph ws(5);
  ws.addEdge(0, 1, 100);
  ws.addEdge(0, 2, 1);
  ws.addEdge(0, 3, 1);
  ws.addEdge(0, 4, 1);
  auto r = partitionGraph(ws, {.parts = 3, .maxImbalance = 0.3, .seed = 7});
  ASSERT_TRUE(r.ok());
  std::vector<int> count(3, 0);
  for (const int p : r.value().assignment) ++count[p];
  for (int p = 0; p < 3; ++p) EXPECT_GT(count[p], 0);
}

// Regression: maxImbalance is documented as a hard cap, but partitionGraph
// only repaired bisections to a hard-coded 5% tolerance per level, so the
// k-way composition could silently return e.g. 46.7% on star-16 at a 35%
// cap. Now a final repair pass drains the heaviest part, and residual
// violations (cap infeasible: the hub's degree alone exceeds it) are
// surfaced via imbalanceViolated instead of ignored.
TEST(Partition, HardImbalanceCapRepairedOrFlagged) {
  const Graph star = topo::makeStar(16).switchGraph();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    PartitionOptions opt{.parts = 2, .seed = seed};
    auto r = partitionGraph(star, opt);
    ASSERT_TRUE(r.ok());
    // Feasible at 2 parts (hub alone = exactly the ideal load): the repair
    // pass must reach the cap, not just flag it.
    EXPECT_LE(r.value().imbalance(), opt.maxImbalance + 1e-9) << "seed=" << seed;
    EXPECT_FALSE(r.value().imbalanceViolated);
  }
  // At 3 parts the cap is infeasible: the hub part's load is >= 15 against
  // an ideal of 10, so imbalance >= 50% always. The result must say so.
  auto r3 = partitionGraph(star, {.parts = 3, .seed = 1});
  ASSERT_TRUE(r3.ok());
  EXPECT_GT(r3.value().imbalance(), 0.35);
  EXPECT_TRUE(r3.value().imbalanceViolated);
  // And the repair must have pushed to the floor, not given up early.
  EXPECT_LE(r3.value().imbalance(), 0.5 + 1e-9);
}

TEST(Partition, BalanceObjectiveBeatsPureMinCutOnStar) {
  // Fig. 8: pure min-cut would slice off a leaf; the balanced objective
  // should keep parts comparable.
  Graph g(9);
  for (int i = 1; i < 9; ++i) g.addEdge(0, i);
  auto r = partitionGraph(g, {.parts = 2, .beta = 8.0, .seed = 1});
  ASSERT_TRUE(r.ok());
  const auto total = std::accumulate(r.value().partLoad.begin(),
                                     r.value().partLoad.end(), std::int64_t{0});
  // No part may hold less than ~20% of the load.
  for (const auto load : r.value().partLoad) {
    EXPECT_GE(load, total / 5);
  }
}

}  // namespace
}  // namespace sdt::partition
