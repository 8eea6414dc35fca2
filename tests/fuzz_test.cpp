// Fuzzer subsystem regression (DESIGN.md §15).
//
// Five contracts are pinned here:
//  (a) the three invariants added with the fuzzer (seq-monotone,
//      repair-consistency, shed-conservation) each fire on a hand-built
//      violation and stay silent on the legal counterpart, and the
//      repair-consistency sweep reports exactly what a per-line reference
//      oracle reports on randomly faulted and corrupted tables;
//  (b) the .repro text format round-trips bit-for-bit for generated
//      scenarios, and generation is a pure function of (seed, index);
//  (c) a --runs-bounded campaign reports identical findings whatever the
//      worker count (the satellite-6 determinism contract);
//  (d) mutation harness: each deliberately injected bug (src/fault/bugs.hpp)
//      is found within a pinned seed budget and shrunk to at most a pinned
//      repro size, and the shrunk repro replays its pinned tag;
//  (e) a clean-HEAD soak finds nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "fault/bugs.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "fuzz/checks.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"
#include "net/generators.hpp"
#include "net/topology.hpp"
#include "routing/apsp.hpp"
#include "routing/routing_table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace rtds {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultState;
using fault::InjectedBug;
using fault::InjectedBugScope;
using fault::InvariantChecker;

Topology line3() {
  Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_site();
  topo.add_link(0, 1, 1.0);
  topo.add_link(1, 2, 1.0);
  return topo;
}

// ---------------------------------------------------------------- (a) new
// invariants: forcing tests drive each hook directly into a violation.

TEST(FuzzInvariants, SeqMonotoneRejectsRepeatedSequence) {
  const fuzz::FatalScope fatal;
  InvariantChecker chk;
  chk.on_send_seq(1, 2, 5, 0.0);
  chk.on_send_seq(1, 2, 6, 1.0);      // strictly increasing: fine
  chk.on_send_seq(2, 1, 5, 1.0);      // independent (from,to) stream: fine
  EXPECT_THROW(chk.on_send_seq(1, 2, 6, 2.0), ContractViolation);  // repeat
  InvariantChecker fresh;
  fresh.on_send_seq(1, 2, 5, 0.0);
  EXPECT_THROW(fresh.on_send_seq(1, 2, 4, 1.0), ContractViolation);  // drop
}

TEST(FuzzInvariants, RepairConsistencyRejectsCorruptedTable) {
  const fuzz::FatalScope fatal;
  const Topology topo = line3();
  const FaultPlan empty;
  const FaultState faults(topo, empty);
  auto tables = phased_apsp(topo, 4);
  {
    InvariantChecker chk;
    chk.on_repair(tables, topo, faults, 1.0);  // the real tables are clean
  }
  // Corrupt 0 -> 2: claim a distance below the next hop's lower bound
  // (link 0-1 delay 1.0 + site 1's own distance 1.0 = 2.0).
  tables[0].set_line(2, RouteLine{0.5, 1, 2});
  InvariantChecker chk;
  EXPECT_THROW(chk.on_repair(tables, topo, faults, 1.0), ContractViolation);
}

TEST(FuzzInvariants, RepairConsistencyRejectsRouteOverDeadLink) {
  const fuzz::FatalScope fatal;
  const Topology topo = line3();
  const FaultPlan empty;
  FaultState faults(topo, empty);
  const auto tables = phased_apsp(topo, 4);  // faultless routes use 0-1
  faults.apply(FaultEvent{0.0, FaultKind::kLinkDown, 0, 1});
  InvariantChecker chk;
  EXPECT_THROW(chk.on_repair(tables, topo, faults, 1.0), ContractViolation);
}

/// Sets the process-wide fatal flag for one scope.
class FatalMode {
 public:
  explicit FatalMode(bool on) : prev_(fault::invariants_fatal()) {
    fault::set_invariants_fatal(on);
  }
  ~FatalMode() { fault::set_invariants_fatal(prev_); }
  FatalMode(const FatalMode&) = delete;
  FatalMode& operator=(const FatalMode&) = delete;

 private:
  bool prev_;
};

TEST(FuzzInvariants, RepairConsistencyRejectsNextHopThatIsNotANeighbour) {
  // 0 -> 2 recorded with no next hop, a next hop outside the topology, and
  // next hop 2 itself (0 and 2 are not adjacent on the line). Each is one
  // violation: counted in non-fatal mode, thrown in fatal mode.
  const Topology topo = line3();
  const FaultPlan empty;
  const FaultState faults(topo, empty);
  for (const SiteId bad : {kNoSite, SiteId{7}, SiteId{2}}) {
    auto tables = phased_apsp(topo, 4);
    tables[0].set_line(2, RouteLine{2.0, bad, 2});
    {
      const FatalMode lenient(false);
      InvariantChecker chk;
      EXPECT_NO_THROW(chk.on_repair(tables, topo, faults, 1.0)) << bad;
      EXPECT_EQ(chk.violations(), 1u) << bad;
    }
    const FatalMode fatal(true);
    InvariantChecker chk;
    try {
      chk.on_repair(tables, topo, faults, 1.0);
      ADD_FAILURE() << "next hop " << bad << " was accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("is not a neighbour"),
                std::string::npos)
          << e.what();
    }
  }
}

/// Reference oracle: the repair-consistency pass as one lookup chain per
/// line (FaultState::link_up, Topology::link_delay, RoutingTable::find).
/// Returns every violation message in report order. Next hops must be
/// adjacent to their owner — link_up requires the link to exist.
std::vector<std::string> reference_repair_check(
    const std::vector<RoutingTable>& tables, const Topology& topo,
    const FaultState& faults) {
  std::vector<std::string> out;
  for (SiteId s = 0; s < tables.size(); ++s) {
    const RoutingTable& table = tables[s];
    for (std::size_t slot = 0; slot < table.slot_count(); ++slot) {
      const RouteLine& line = table.line_at(slot);
      if (line.dist >= kInfiniteTime) continue;
      const SiteId dest = table.dest_at(slot);
      if (dest == s) continue;
      const SiteId nh = line.next_hop;
      std::ostringstream os;
      if (!faults.link_up(s, nh)) {
        os << "repair-consistency: site " << s << " routes to " << dest
           << " over dead link to " << nh;
        out.push_back(os.str());
        continue;
      }
      if (nh == dest) {
        if (!time_eq(line.dist, topo.link_delay(s, nh)) || line.hops != 1) {
          os << "repair-consistency: site " << s << " one-hop route to "
             << dest << " has dist=" << line.dist << " hops=" << line.hops
             << " but the link delay is " << topo.link_delay(s, nh);
          out.push_back(os.str());
        }
        continue;
      }
      const RouteLine* via = tables[nh].find(dest);
      if (via == nullptr || via->dist >= kInfiniteTime) {
        os << "repair-consistency: site " << s << " routes to " << dest
           << " via " << nh << " which has no route there";
        out.push_back(os.str());
        continue;
      }
      const Time bound = topo.link_delay(s, nh) + via->dist;
      if (!time_ge(line.dist, bound)) {
        os << "repair-consistency: site " << s << " -> " << dest << " via "
           << nh << " claims dist=" << line.dist
           << " below the next hop's lower bound " << bound;
        out.push_back(os.str());
      }
    }
  }
  return out;
}

/// A random live non-self line of a random site; false when the draw
/// lands on a site whose table holds none.
bool pick_line(const std::vector<RoutingTable>& tables, Rng& rng, SiteId& s,
               SiteId& dest, RouteLine& line) {
  s = static_cast<SiteId>(
      rng.uniform_int(0, static_cast<std::int64_t>(tables.size()) - 1));
  std::vector<std::size_t> live;
  for (std::size_t slot = 0; slot < tables[s].slot_count(); ++slot)
    if (tables[s].line_at(slot).dist < kInfiniteTime &&
        tables[s].dest_at(slot) != s)
      live.push_back(slot);
  if (live.empty()) return false;
  const std::size_t slot = live[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
  dest = tables[s].dest_at(slot);
  line = tables[s].line_at(slot);
  return true;
}

SiteId pick_neighbour(const Topology& topo, SiteId s, Rng& rng) {
  const auto& nbs = topo.neighbors(s);
  return nbs[static_cast<std::size_t>(
                 rng.uniform_int(0, static_cast<std::int64_t>(nbs.size()) - 1))]
      .site;
}

/// Applies one random table corruption of the given kind; every next hop
/// it writes stays adjacent to its owner (the oracle's precondition).
void corrupt(int kind, std::vector<RoutingTable>& tables, const Topology& topo,
             FaultState& faults, Rng& rng) {
  SiteId s = 0, dest = 0;
  RouteLine line;
  switch (kind) {
    case 0:  // lowered distance
      if (pick_line(tables, rng, s, dest, line)) {
        line.dist *= rng.uniform(0.3, 0.99);
        tables[s].set_line(dest, line);
      }
      break;
    case 1: {  // next hop over a dead link: down one, or reuse one
      if (!pick_line(tables, rng, s, dest, line)) break;
      const SiteId n = pick_neighbour(topo, s, rng);
      faults.apply(FaultEvent{0.0, FaultKind::kLinkDown, s, n});
      line.next_hop = n;
      if (n == dest) line.hops = 1;
      tables[s].set_line(dest, line);
      break;
    }
    case 2: {  // next hop without the route (withdrawn there: a tombstone)
      if (!pick_line(tables, rng, s, dest, line) || line.next_hop == dest)
        break;
      tables[line.next_hop].set_line(dest, RouteLine{});
      break;
    }
    case 3: {  // wrong one-hop delay or hops
      s = static_cast<SiteId>(
          rng.uniform_int(0, static_cast<std::int64_t>(tables.size()) - 1));
      const SiteId n = pick_neighbour(topo, s, rng);
      line = RouteLine{topo.link_delay(s, n), n, 1};
      if (rng.bernoulli(0.5))
        line.dist += rng.uniform(0.01, 1.0);
      else
        line.hops = 2;
      tables[s].set_line(n, line);
      break;
    }
    case 4: {  // tombstones, at held and at fresh destinations
      s = static_cast<SiteId>(
          rng.uniform_int(0, static_cast<std::int64_t>(tables.size()) - 1));
      dest = static_cast<SiteId>(
          rng.uniform_int(0, static_cast<std::int64_t>(tables.size()) - 1));
      if (dest != s) tables[s].set_line(dest, RouteLine{});
      break;
    }
    case 5: {  // lines owned by a crashed site (crashed without repair)
      s = static_cast<SiteId>(
          rng.uniform_int(0, static_cast<std::int64_t>(tables.size()) - 1));
      faults.apply(FaultEvent{0.0, FaultKind::kSiteDown, s, kNoSite});
      const SiteId n = pick_neighbour(topo, s, rng);
      tables[s].set_line(n, RouteLine{topo.link_delay(s, n), n, 1});
      break;
    }
    default: {  // any neighbour as next hop
      if (!pick_line(tables, rng, s, dest, line)) break;
      line.next_hop = pick_neighbour(topo, s, rng);
      tables[s].set_line(dest, line);
      break;
    }
  }
}

TEST(FuzzInvariants, RepairConsistencySweepMatchesReferenceOracle) {
  // Random topologies from several generator families x random fault
  // histories (crashes, link flaps, partitions; each change repaired or
  // left stale) x random table corruptions: the sweep must report the
  // oracle's violation count, and throw the oracle's first message.
  const NetShape shapes[] = {NetShape::kGrid, NetShape::kScaleFree,
                             NetShape::kSmallWorld, NetShape::kErdosRenyi,
                             NetShape::kRing, NetShape::kTree};
  std::uint64_t clean = 0, dirty = 0;
  std::set<std::string> kinds_seen;
  for (std::uint64_t trial = 0; trial < 180; ++trial) {
    Rng rng(9000 + trial);
    const NetShape shape = shapes[trial % std::size(shapes)];
    const Topology topo =
        make_net(shape, static_cast<std::size_t>(rng.uniform_int(8, 40)),
                 DelayRange{0.5, 2.0}, rng);
    const auto n = static_cast<std::int64_t>(topo.site_count());
    const std::size_t phases = 2 * static_cast<std::size_t>(
                                       rng.uniform_int(1, 3));
    const FaultPlan empty;
    FaultState faults(topo, empty);
    auto tables = phased_apsp(topo, phases);
    ApspRepairer repairer(topo, phases);
    const auto events = rng.uniform_int(0, 12);
    for (std::int64_t e = 0; e < events; ++e) {
      FaultEvent ev{0.0, FaultKind::kSiteDown, 0, kNoSite};
      const auto roll = rng.uniform_int(0, 9);
      if (roll < 2) {
        ev.kind = roll == 0 ? FaultKind::kSiteDown : FaultKind::kSiteUp;
        ev.a = static_cast<SiteId>(rng.uniform_int(0, n - 1));
      } else if (roll < 8) {
        const Link& l = topo.links()[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(topo.link_count()) - 1))];
        ev.kind = roll < 5 ? FaultKind::kLinkDown : FaultKind::kLinkUp;
        const bool flip = rng.bernoulli(0.5);
        ev.a = flip ? l.b : l.a;
        ev.b = flip ? l.a : l.b;
      } else if (roll == 8) {
        ev.kind = FaultKind::kPartition;
        ev.a = static_cast<SiteId>(rng.uniform_int(1, n - 1));
      } else {
        ev.kind = FaultKind::kHeal;
      }
      if (!faults.apply(ev) || rng.bernoulli(0.25)) continue;  // stale
      std::vector<SiteId> changed;
      if (ev.kind == FaultKind::kPartition || ev.kind == FaultKind::kHeal) {
        changed = faults.partition_changed_sites();
      } else {
        changed.assign(1, ev.a);
        if (ev.b != kNoSite) changed.push_back(ev.b);
      }
      repairer.repair(tables, &faults, changed);
    }
    const auto corruptions = rng.uniform_int(0, 3);
    for (std::int64_t c = 0; c < corruptions; ++c)
      corrupt(static_cast<int>(rng.uniform_int(0, 6)), tables, topo, faults,
              rng);

    const std::vector<std::string> expected =
        reference_repair_check(tables, topo, faults);
    {
      const FatalMode lenient(false);
      InvariantChecker chk;
      chk.on_repair(tables, topo, faults, 1.0);
      ASSERT_EQ(chk.violations(), expected.size()) << "trial " << trial;
    }
    if (expected.empty()) {
      ++clean;
      continue;
    }
    ++dirty;
    for (const std::string& msg : expected)
      kinds_seen.insert(msg.find("dead link") != std::string::npos ? "dead link"
                        : msg.find("one-hop") != std::string::npos ? "one-hop"
                        : msg.find("no route") != std::string::npos
                            ? "no route"
                            : "lower bound");
    const FatalMode fatal(true);
    InvariantChecker chk;
    try {
      chk.on_repair(tables, topo, faults, 1.0);
      ADD_FAILURE() << "trial " << trial << ": no throw";
    } catch (const ContractViolation& e) {
      EXPECT_EQ(e.what(), "invariant violated: " + expected.front())
          << "trial " << trial;
    }
  }
  // Not vacuous: both verdicts occur, and every message kind is exercised.
  EXPECT_GT(clean, 10u);
  EXPECT_GT(dirty, 10u);
  EXPECT_EQ(kinds_seen.size(), 4u);
}

TEST(FuzzInvariants, ShedConservationRejectsQueueAccountingDrift) {
  const fuzz::FatalScope fatal;
  const RunMetrics zero;
  {
    InvariantChecker chk;  // a push with no matching remove
    chk.on_queue_push(0, 0.0);
    chk.on_queue_push(0, 1.0);
    chk.on_queue_remove(0, 2.0);
    EXPECT_THROW(chk.finish(zero, 0, 3.0), ContractViolation);
  }
  {
    InvariantChecker chk;  // a node-level shed event metrics never recorded
    chk.on_shed(0, 0.0);
    EXPECT_THROW(chk.finish(zero, 0, 1.0), ContractViolation);
  }
  {
    InvariantChecker chk;  // a remove that was never pushed
    EXPECT_THROW(chk.on_queue_remove(0, 0.0), ContractViolation);
  }
  InvariantChecker chk;  // balanced books finish clean
  chk.on_queue_push(0, 0.0);
  chk.on_queue_remove(0, 1.0);
  chk.finish(zero, 0, 2.0);
  EXPECT_EQ(chk.violations(), 0u);
}

// ------------------------------------------------------- (b) repro format

TEST(FuzzRepro, RoundTripsGeneratedScenariosBitForBit) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    const fuzz::FuzzScenario s = fuzz::generate_scenario(123, i);
    const std::string text = fuzz::to_repro(s);
    const fuzz::FuzzScenario back = fuzz::from_repro(text);
    EXPECT_EQ(fuzz::to_repro(back), text) << "scenario " << i;
  }
}

TEST(FuzzRepro, ParserRejectsMalformedInput) {
  EXPECT_THROW(fuzz::from_repro(""), ContractViolation);
  EXPECT_THROW(fuzz::from_repro("RTDSREPRO 999\nend\n"), ContractViolation);
  const std::string good = fuzz::to_repro(fuzz::generate_scenario(1, 0));
  EXPECT_THROW(fuzz::from_repro(good + "trailing junk\n"), ContractViolation);
}

TEST(FuzzRepro, GenerationIsAPureFunctionOfSeedAndIndex) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(fuzz::to_repro(fuzz::generate_scenario(7, i)),
              fuzz::to_repro(fuzz::generate_scenario(7, i)));
  }
  EXPECT_NE(fuzz::to_repro(fuzz::generate_scenario(7, 0)),
            fuzz::to_repro(fuzz::generate_scenario(7, 1)));
  EXPECT_NE(fuzz::to_repro(fuzz::generate_scenario(7, 0)),
            fuzz::to_repro(fuzz::generate_scenario(8, 0)));
}

// ------------------------------------- (c) worker-count-invariant campaign

TEST(FuzzCampaign, FindingsAreIdenticalAcrossWorkerCounts) {
  // An injected bug guarantees findings to compare; minimize=false keeps
  // the repros raw so the comparison covers the full scenario bytes.
  const InjectedBugScope bug(InjectedBug::kDedupFalsePositive);
  fuzz::FuzzOptions opts;
  opts.seed = 2024;
  opts.runs = 120;
  opts.minimize = false;
  opts.progress_every = 0;
  std::ostringstream sink;
  opts.jobs = 1;
  const fuzz::FuzzReport serial = fuzz::run_fuzz(opts, sink);
  opts.jobs = 4;
  const fuzz::FuzzReport parallel = fuzz::run_fuzz(opts, sink);
  ASSERT_FALSE(serial.findings.empty())
      << "seed budget too small to exercise the comparison";
  EXPECT_EQ(serial.runs_done, parallel.runs_done);
  ASSERT_EQ(serial.findings.size(), parallel.findings.size());
  for (std::size_t i = 0; i < serial.findings.size(); ++i) {
    EXPECT_EQ(serial.findings[i].index, parallel.findings[i].index);
    EXPECT_EQ(serial.findings[i].tag, parallel.findings[i].tag);
    EXPECT_EQ(fuzz::to_repro(serial.findings[i].repro),
              fuzz::to_repro(parallel.findings[i].repro));
  }
}

// --------------------------------------------- (d) the mutation harness

struct SeededBugCase {
  InjectedBug bug;
  const char* name;
  std::uint64_t seed;        ///< campaign key the budget is pinned under
  std::uint64_t runs;        ///< pinned seed budget: must find within this
  std::size_t max_repro_size;  ///< pinned ceiling for the shrunk repro
};

TEST(FuzzMutation, FindsAndShrinksEverySeededBug) {
  const SeededBugCase cases[] = {
      {InjectedBug::kDedupFalsePositive, "dedup-false-positive", 2024, 120, 120},
      {InjectedBug::kRepairRadiusOffByOne, "repair-radius", 2024, 120, 120},
      {InjectedBug::kCrashKeepsLock, "crash-keeps-lock", 2024, 120, 120},
  };
  for (const auto& c : cases) {
    const InjectedBugScope bug(c.bug);
    fuzz::FuzzOptions opts;
    opts.seed = c.seed;
    opts.runs = c.runs;
    opts.jobs = 4;
    opts.minimize = true;
    opts.progress_every = 0;
    std::ostringstream sink;
    const fuzz::FuzzReport report = fuzz::run_fuzz(opts, sink);
    ASSERT_FALSE(report.findings.empty())
        << c.name << " not found within " << c.runs << " scenarios";
    const fuzz::Finding& f = report.findings.front();
    std::cerr << "mutation " << c.name << ": scenario " << f.index << " ["
              << f.tag << "] shrunk to size " << f.repro.size() << " ("
              << f.shrink.attempts << " attempts, " << f.shrink.improvements
              << " improvements)\n";
    EXPECT_LE(f.repro.size(), c.max_repro_size)
        << c.name << " repro did not shrink enough";
    // The shrunk repro must replay its pinned tag (failed=false means the
    // expected failure reproduced — the rtds_cli --repro contract).
    const fuzz::FatalScope fatal;
    const fuzz::CheckResult replay = fuzz::run_scenario_checks(f.repro);
    EXPECT_FALSE(replay.failed)
        << c.name << " shrunk repro did not replay: " << replay.message;
  }
}

// ----------------------------------------------------- (e) clean-HEAD soak

TEST(FuzzSoak, CleanHeadFindsNothing) {
  fuzz::FuzzOptions opts;
  opts.seed = 2026;
  opts.runs = 60;
  opts.jobs = 4;
  opts.progress_every = 0;
  std::ostringstream sink;
  const fuzz::FuzzReport report = fuzz::run_fuzz(opts, sink);
  EXPECT_EQ(report.runs_done, 60u);
  EXPECT_TRUE(report.findings.empty()) << sink.str();
}

}  // namespace
}  // namespace rtds
