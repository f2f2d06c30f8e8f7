// Tests: Link Projection (the SDT core algorithm, paper §IV).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "controller/config.hpp"
#include "projection/link_projector.hpp"
#include "topo/generators.hpp"

namespace sdt::projection {
namespace {

Plant canonicalPlant(int switches = 3, int hostPorts = 11, int inter = 8,
                     PhysicalSwitchSpec spec = openflow64x100G()) {
  PlantConfig cfg;
  cfg.numSwitches = switches;
  cfg.spec = spec;
  cfg.hostPortsPerSwitch = hostPorts;
  cfg.interLinksPerPair = inter;
  auto p = buildPlant(cfg);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(LinkProjection, SingleSwitchLine) {
  const topo::Topology topo = topo::makeLine(8);
  const Plant plant = canonicalPlant(1, 8, 0);
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok()) << proj.error().message;
  const Projection& p = proj.value();
  EXPECT_TRUE(p.validate(topo, plant).ok());
  EXPECT_EQ(p.interSwitchLinkCount(), 0);
  // All 8 sub-switches share crossbar 0.
  EXPECT_EQ(p.subSwitchCountOn(0), 8);
  EXPECT_EQ(p.subSwitches().size(), 8u);
}

TEST(LinkProjection, PortMapIsBijective) {
  const topo::Topology topo = topo::makeLine(8);
  const Plant plant = canonicalPlant(1, 8, 0);
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok());
  std::set<std::pair<int, int>> physSeen;
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    for (topo::PortId lp = 0; lp < topo.fabricRadix(sw); ++lp) {
      const PhysPort pp = proj.value().physOf(topo::SwitchPort{sw, lp});
      ASSERT_TRUE(pp.valid());
      EXPECT_TRUE(physSeen.insert({pp.sw, pp.port}).second)
          << "physical port reused";
      // Reverse lookup round-trips.
      const auto back = proj.value().logicalAt(pp);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(back->sw, sw);
      EXPECT_EQ(back->port, lp);
    }
  }
}

TEST(LinkProjection, RealizedLinksJoinProjectedPorts) {
  // The Projection::validate() call inside project() already enforces this;
  // double-check the self/inter split for a topology forced across switches.
  const topo::Topology topo = topo::makeTorus2D(4, 4);  // 32 links, 64 ports
  const Plant plant = canonicalPlant(2, 16, 10);
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok()) << proj.error().message;
  EXPECT_TRUE(proj.value().validate(topo, plant).ok());
  EXPECT_GT(proj.value().interSwitchLinkCount(), 0);
  EXPECT_LE(proj.value().interSwitchLinkCount(), 10);
}

TEST(LinkProjection, PrefersFewestSwitches) {
  // A tiny ring fits one switch; it must not be spread.
  const topo::Topology topo = topo::makeRing(4);
  const Plant plant = canonicalPlant(3, 4, 8);
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj.value().interSwitchLinkCount(), 0);
}

TEST(LinkProjection, HostsLandOnTheirLogicalSwitch) {
  // Dragonfly(4,9,2) needs 216 ports; the paper's 3 H3C boxes provide 264.
  const topo::Topology topo = topo::makeDragonfly(4, 9, 2);
  auto planned = planPlant({&topo}, {.numSwitches = 3, .spec = h3cS6861()});
  ASSERT_TRUE(planned.ok()) << planned.error().message;
  const Plant plant = std::move(planned).value();
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok()) << proj.error().message;
  for (topo::HostId h = 0; h < topo.numHosts(); ++h) {
    const int physSw = proj.value().hostPortOf(h).sw;
    EXPECT_EQ(physSw, proj.value().physSwitchOf(topo.hostSwitch(h)));
  }
}

TEST(LinkProjection, SixteenRingFitsOneSixtyFourPortSwitch) {
  // 64 ports minus 8 host ports leave 28 self-link pairs: enough for the 16
  // links of a 16-switch ring on a single switch.
  const topo::Topology ring =
      topo::makeRing(16, {.hostsPerSwitch = 0, .linkSpeed = Gbps{10}});
  const Plant plant = canonicalPlant(1, 8, 0);
  ASSERT_EQ(plant.selfLinks.size(), 28u);
  EXPECT_TRUE(LinkProjector::project(ring, plant).ok());
}

TEST(LinkProjection, FailsWithHelpfulErrorWhenSelfLinksShort) {
  const topo::Topology topo = topo::makeFullMesh(10);  // 45 links, 90 ports
  const Plant plant = canonicalPlant(1, 2, 0, openflow64x100G());
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_FALSE(proj.ok());
  EXPECT_NE(proj.error().message.find("self-link"), std::string::npos)
      << proj.error().message;
}

TEST(LinkProjection, FailsWhenInterLinksShort) {
  // Force 2 parts but reserve zero inter-switch links.
  const topo::Topology topo = topo::makeTorus3D(4, 4, 4);  // 384 fabric ports
  PlantConfig cfg;
  cfg.numSwitches = 2;
  cfg.spec = openflow128x100G();  // 2x128 < 384+hosts: must span... still 2 parts
  cfg.hostPortsPerSwitch = 32;
  cfg.interLinksPerPair = 0;
  auto plant = buildPlant(cfg);
  ASSERT_TRUE(plant.ok());
  auto proj = LinkProjector::project(topo, plant.value());
  EXPECT_FALSE(proj.ok());
}

TEST(LinkProjection, FailsWhenHostPortsShort) {
  const topo::Topology topo = topo::makeLine(4, {.hostsPerSwitch = 3, .linkSpeed = Gbps{10}});
  const Plant plant = canonicalPlant(1, 2, 0);  // 12 hosts needed, 2 ports
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_FALSE(proj.ok());
  EXPECT_NE(proj.error().message.find("host port"), std::string::npos);
}

TEST(LinkProjection, ExplicitAssignmentRespected) {
  const topo::Topology topo = topo::makeLine(4);
  const Plant plant = canonicalPlant(2, 8, 8);
  const std::vector<int> assignment{0, 0, 1, 1};
  auto proj = LinkProjector::projectWithAssignment(topo, plant, assignment);
  ASSERT_TRUE(proj.ok()) << proj.error().message;
  EXPECT_EQ(proj.value().physSwitchOf(0), 0);
  EXPECT_EQ(proj.value().physSwitchOf(3), 1);
  EXPECT_EQ(proj.value().interSwitchLinkCount(), 1);  // the 1-2 link
}

TEST(LinkProjection, AssignmentValidation) {
  const topo::Topology topo = topo::makeLine(4);
  const Plant plant = canonicalPlant(2, 8, 8);
  EXPECT_FALSE(LinkProjector::projectWithAssignment(topo, plant, {0, 0, 0}).ok());
  EXPECT_FALSE(LinkProjector::projectWithAssignment(topo, plant, {0, 0, 0, 7}).ok());
}

// Paper-scale sweep: every evaluation topology projects onto the paper's
// 3-switch class of plant (port counts scaled to fit hosts).
class ProjectionSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ProjectionSweep, ProjectsOnPlant) {
  const std::string which = GetParam();
  topo::Topology topo;
  PlanOptions opt;
  if (which == "fattree4") {
    topo = topo::makeFatTree(4);
    opt = {.numSwitches = 2, .spec = openflow64x100G()};
  } else if (which == "dragonfly") {
    topo = topo::makeDragonfly(4, 9, 2);
    opt = {.numSwitches = 3, .spec = h3cS6861()};
  } else if (which == "torus2d") {
    topo = topo::makeTorus2D(5, 5);
    opt = {.numSwitches = 2, .spec = openflow128x100G()};
  } else {
    topo = topo::makeTorus3D(4, 4, 4);
    opt = {.numSwitches = 4, .spec = openflow128x100G()};
  }
  auto planned = planPlant({&topo}, opt);
  ASSERT_TRUE(planned.ok()) << which << ": " << planned.error().message;
  const Plant plant = std::move(planned).value();
  auto proj = LinkProjector::project(topo, plant);
  ASSERT_TRUE(proj.ok()) << which << ": " << proj.error().message;
  EXPECT_TRUE(proj.value().validate(topo, plant).ok());
}

INSTANTIATE_TEST_SUITE_P(PaperTopologies, ProjectionSweep,
                         ::testing::Values("fattree4", "dragonfly", "torus2d",
                                           "torus3d"));

// project() skips switch counts whose plant switches cannot seat every
// host. It must return exactly what the unpruned search returns: the same
// projection, or the same error text.

/// The search without the seat bound: every switch count from 1 up, every
/// partition attempt.
Result<Projection> projectUnpruned(const topo::Topology& topo, const Plant& plant,
                                   const LinkProjectorOptions& options) {
  if (auto s = topo.validate(/*requireConnected=*/false); !s) return s.error();
  if (plant.numSwitches() == 0) return makeError("plant has no switches");
  std::string lastError = "projection failed";
  const int maxParts = std::min(plant.numSwitches(), std::max(1, topo.numSwitches()));
  for (int parts = 1; parts <= maxParts; ++parts) {
    if (parts == 1) {
      std::vector<int> assignment(static_cast<std::size_t>(topo.numSwitches()), 0);
      auto r = LinkProjector::projectWithAssignment(topo, plant, assignment);
      if (r) return r;
      lastError = r.error().message;
      continue;
    }
    for (int attempt = 0; attempt < options.partitionAttempts; ++attempt) {
      partition::PartitionOptions popt = options.partition;
      popt.parts = parts;
      popt.seed = options.partition.seed + static_cast<std::uint64_t>(attempt) * 7919;
      auto part = partition::partitionGraph(topo.switchGraph(), popt);
      if (!part) {
        lastError = part.error().message;
        continue;
      }
      auto r = LinkProjector::projectWithAssignment(topo, plant, part.value().assignment);
      if (r) return r;
      lastError = r.error().message;
    }
  }
  return makeError("cannot project '" + topo.name() + "' onto this plant: " + lastError);
}

void expectSameProjection(const topo::Topology& topo, const Projection& a,
                          const Projection& b, const std::string& what) {
  for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
    ASSERT_EQ(a.physSwitchOf(sw), b.physSwitchOf(sw)) << what << " switch " << sw;
    for (topo::PortId lp = 0; lp < topo.radix(sw); ++lp) {
      ASSERT_EQ(a.physOf({sw, lp}), b.physOf({sw, lp})) << what << " port " << sw << ":" << lp;
    }
  }
  for (topo::HostId h = 0; h < topo.numHosts(); ++h) {
    ASSERT_EQ(a.hostPortOf(h), b.hostPortOf(h)) << what << " host " << h;
  }
  ASSERT_EQ(a.realizedLinks().size(), b.realizedLinks().size()) << what;
  for (std::size_t i = 0; i < a.realizedLinks().size(); ++i) {
    const RealizedLink& x = a.realizedLinks()[i];
    const RealizedLink& y = b.realizedLinks()[i];
    ASSERT_EQ(x.logicalLink, y.logicalLink) << what << " realized " << i;
    ASSERT_EQ(x.interSwitch, y.interSwitch) << what << " realized " << i;
    ASSERT_EQ(x.optical, y.optical) << what << " realized " << i;
    ASSERT_EQ(x.physLink, y.physLink) << what << " realized " << i;
  }
  ASSERT_EQ(a.opticalCircuits().size(), b.opticalCircuits().size()) << what;
  for (std::size_t i = 0; i < a.opticalCircuits().size(); ++i) {
    ASSERT_EQ(a.opticalCircuits()[i].a, b.opticalCircuits()[i].a) << what << " circuit " << i;
    ASSERT_EQ(a.opticalCircuits()[i].b, b.opticalCircuits()[i].b) << what << " circuit " << i;
  }
}

TEST(LinkProjection, SeatBoundMatchesUnprunedSearch) {
  std::vector<topo::Topology> topos = {
      topo::makeFatTree(4),       topo::makeFatTree(8),   topo::makeDragonfly(4, 9, 2),
      topo::makeTorus2D(5, 5),    topo::makeMesh2D(4, 4), topo::makeRing(6),
      topo::makeLine(4, {.hostsPerSwitch = 3, .linkSpeed = Gbps{10}}),
  };
  for (const char* config : {"custom_triangle", "dragonfly", "fattree_k4", "incast_ft4",
                             "line6", "partition_aggregate", "ring6", "torus_5x5"}) {
    auto loaded = controller::loadExperimentConfig(std::string(SDT_SOURCE_DIR) +
                                                   "/examples/configs/" + config + ".json");
    ASSERT_TRUE(loaded.ok()) << config << ": " << loaded.error().message;
    topos.push_back(std::move(loaded).value().topology);
  }

  int seatCut = 0;      // projected, with switch 0 alone too small to seat the hosts
  int fewerFit = 0;     // projected on fewer switches than the plant has
  int infeasible = 0;   // no switch count fits
  for (const topo::Topology& topo : topos) {
    const int hosts = topo.numHosts();
    std::vector<Plant> plants;
    for (const int n : {1, 2, 3, 4}) {
      if (auto planned = planPlant({&topo}, {.numSwitches = n, .spec = openflow128x100G()})) {
        plants.push_back(std::move(planned).value());
      }
    }
    for (const PlantConfig& cfg : {
             // every host fits on switch 0
             PlantConfig{3, openflow128x100G(), std::max(1, hosts), 8},
             // switches 0..1 seat too few hosts
             PlantConfig{4, openflow128x100G(), std::max(1, (hosts + 2) / 3), 8},
             // seats run out everywhere
             PlantConfig{3, openflow64x100G(), std::max(1, hosts / 4), 8},
             // seats fit from 2 switches on, but no inter-switch cables
             PlantConfig{3, openflow128x100G(), std::max(1, (hosts + 1) / 2), 0},
         }) {
      if (auto built = buildPlant(cfg)) plants.push_back(std::move(built).value());
    }
    if (auto flex = buildPlant({4, openflow128x100G(), std::max(1, (hosts + 2) / 3), 1})) {
      if (addOpticalFlex(flex.value(), 2).ok()) plants.push_back(std::move(flex).value());
    }

    for (std::size_t pi = 0; pi < plants.size(); ++pi) {
      const Plant& plant = plants[pi];
      for (const int attempts : {4, 1, 0}) {
        LinkProjectorOptions options;
        options.partitionAttempts = attempts;
        const std::string what =
            topo.name() + " plant " + std::to_string(pi) + " attempts " + std::to_string(attempts);
        auto pruned = LinkProjector::project(topo, plant, options);
        auto full = projectUnpruned(topo, plant, options);
        ASSERT_EQ(pruned.ok(), full.ok())
            << what << ": " << (pruned.ok() ? full.error().message : pruned.error().message);
        if (!pruned.ok()) {
          ASSERT_EQ(pruned.error().message, full.error().message) << what;
          ++infeasible;
          continue;
        }
        expectSameProjection(topo, pruned.value(), full.value(), what);
        std::set<int> used;
        for (topo::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
          used.insert(pruned.value().physSwitchOf(sw));
        }
        fewerFit += static_cast<int>(used.size()) < plant.numSwitches();
        seatCut += static_cast<int>(plant.hostPortsOf(0).size()) < hosts;
      }
    }
  }
  EXPECT_GT(seatCut, 0) << "no case exercised the seat bound";
  EXPECT_GT(fewerFit, 0) << "no case fit on fewer switches than the plant has";
  EXPECT_GT(infeasible, 0) << "no infeasible case";
}

}  // namespace
}  // namespace sdt::projection
