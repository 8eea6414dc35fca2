// Deterministic fault injection and dynamic topology (DESIGN.md §9).
//
// The paper's §2 network model is faultless: links are loss-less and sites
// never die. This layer relaxes exactly that assumption, as *data*: a
// FaultPlan is a time-ordered script of site-crash/recover,
// link-down/up and partition/heal events plus per-send message
// perturbations (drop probability, extra delay, duplication, FIFO-violating
// reorder jitter), either written explicitly (tests, worked examples) or
// generated from seeded exponential on/off processes (FaultPlan::from_spec).
// Everything downstream consumes the plan through FaultState, a runtime
// view the simulator advances event by event. The adversarial-network
// extension (DESIGN.md §12) is what the RtdsNode hardening — dedup windows,
// ack+retransmit — is tested against.
//
// Determinism contract: a plan is a pure function of its FaultSpec (seed
// included), and a run under a plan is single-threaded discrete-event
// simulation — so fault runs are bit-identical for a given seed regardless
// of experiment-runner worker count. An empty plan must leave every
// consumer on its exact pre-fault code path (no timers armed, no RNG
// consumed); tests/fault_test.cpp pins both properties.
//
// Crash semantics (the §9 design choice): crash = lose in-flight state.
// A crashed site drops its lock, queue, active initiations, outstanding
// endorsements and its whole scheduling plan; committed-but-unfinished
// jobs with work on the site are lost. Link-down = drop (messages in
// flight on a downed link are lost, not buffered).
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace rtds::snap {
struct Access;  // checkpoint serialization (snap/)
}

namespace rtds::fault {

enum class FaultKind : std::uint8_t {
  kSiteDown,   ///< site `a` crashes (loses all in-flight state)
  kSiteUp,     ///< site `a` recovers with an empty plan
  kLinkDown,   ///< link `a`--`b` stops carrying messages
  kLinkUp,     ///< link `a`--`b` comes back
  kPartition,  ///< network splits into sites [0, a) vs [a, N)
  kHeal,       ///< the active partition heals
};

const char* to_string(FaultKind kind);

/// One scripted fault, applied at absolute simulation time `at`. For site
/// events `b` is unused (kNoSite). For kPartition, `a` is the cut boundary
/// (every link crossing [0,a) | [a,N) goes down until kHeal); for kHeal
/// both `a` and `b` are unused.
struct FaultEvent {
  Time at = 0.0;
  FaultKind kind = FaultKind::kSiteDown;
  SiteId a = 0;
  SiteId b = kNoSite;
};

/// Seeded random fault processes. Each site (link) alternates exponential
/// up-times at rate `site_rate` (`link_rate`) with exponential down-times
/// of mean `site_mttr` (`link_mttr`); events are generated over
/// [0, horizon). All-zero rates and perturbations yield an empty plan.
struct FaultSpec {
  double site_rate = 0.0;       ///< crashes per site per time unit
  double site_mttr = 25.0;      ///< mean site down-time
  double link_rate = 0.0;       ///< failures per link per time unit
  double link_mttr = 10.0;      ///< mean link down-time
  double drop_prob = 0.0;       ///< per-send message loss probability
  double extra_delay_max = 0.0; ///< uniform [0, max) extra delay per send
  double dup_prob = 0.0;        ///< per-send message duplication probability
  double reorder_prob = 0.0;    ///< per-send probability of reorder jitter
  double reorder_delay_max = 1.0;  ///< uniform [0, max) jitter when reordered
  double partition_rate = 0.0;  ///< network partitions per time unit
  double partition_mttr = 15.0; ///< mean partition duration before healing
  Time horizon = 0.0;           ///< event generation window
  std::uint64_t seed = 42;      ///< plan + perturbation stream seed

  bool empty() const {
    return site_rate <= 0.0 && link_rate <= 0.0 && drop_prob <= 0.0 &&
           extra_delay_max <= 0.0 && dup_prob <= 0.0 && reorder_prob <= 0.0 &&
           partition_rate <= 0.0;
  }
};

/// The full fault script for one run: time-sorted events plus the message
/// perturbation parameters. Copyable value type — it rides inside
/// SystemConfig / baseline configs.
struct FaultPlan {
  std::vector<FaultEvent> events;  ///< ascending by `at` (ties: input order)
  double drop_prob = 0.0;
  double extra_delay_max = 0.0;
  double dup_prob = 0.0;
  double reorder_prob = 0.0;
  double reorder_delay_max = 1.0;
  std::uint64_t seed = 42;

  /// True iff the plan changes nothing: consumers must then behave
  /// bit-identically to a run with no plan at all.
  bool empty() const {
    return events.empty() && drop_prob <= 0.0 && extra_delay_max <= 0.0 &&
           dup_prob <= 0.0 && reorder_prob <= 0.0;
  }

  /// Rejects malformed plans up front instead of failing (or, worse,
  /// silently misbehaving) at apply time: out-of-range sites, links absent
  /// from the topology, partition boundaries outside [1, N), negative or
  /// non-monotone event times. Throws ContractViolation with the offending
  /// event index. RtdsSystem calls this on every scripted plan.
  void validate(const Topology& topo) const;

  /// Generates the deterministic plan for `spec` on `topo` (sites/links
  /// index into it). Same spec -> same plan, always.
  static FaultPlan from_spec(const FaultSpec& spec, const Topology& topo);
};

/// Runtime fault view: which sites/links are currently up, plus the
/// deterministic per-send perturbation stream. The owner (RtdsSystem)
/// applies plan events in time order via apply(); transports consult the
/// up/down state and sample perturbations at send/delivery time.
class FaultState {
 public:
  FaultState(const Topology& topo, const FaultPlan& plan);

  bool site_up(SiteId s) const { return site_up_[s]; }
  /// Both endpoints up and the link itself up.
  bool link_up(SiteId a, SiteId b) const;
  /// Raw link state by Topology::links() index (ignores endpoint
  /// liveness): bulk consumers — the routing repair rebuilding its live
  /// adjacency — combine it with site_up in one O(links) sweep instead of
  /// paying a per-pair lookup per edge.
  bool link_index_up(std::size_t link) const { return link_up_[link] != 0; }

  /// Applies one event (idempotent: re-downing a down site is a no-op).
  /// Returns true if the up/down state actually changed.
  bool apply(const FaultEvent& ev);

  /// Samples the per-send loss coin. Consumes RNG only when drop_prob > 0.
  bool sample_drop();
  /// Samples the per-send extra delay. Consumes RNG only when
  /// extra_delay_max > 0.
  Time sample_extra_delay();
  /// Samples the per-send duplication coin. Consumes RNG only when
  /// dup_prob > 0.
  bool sample_duplicate();
  /// Samples the per-send reorder jitter (0 when the coin says no jitter —
  /// the FIFO-violating extra delay). Consumes RNG only when
  /// reorder_prob > 0.
  Time sample_reorder_delay();

  std::size_t sites_down() const { return sites_down_; }
  std::size_t links_down() const { return links_down_; }
  /// Live undirected links: link up and both endpoints up.
  std::size_t live_link_count(const Topology& topo) const;

  /// Boundary of the active partition (0 when the network is whole).
  SiteId partition_boundary() const { return partition_boundary_; }
  /// Endpoints of every link the last kPartition/kHeal event flipped —
  /// the routing-repair seed set. Valid until the next apply().
  const std::vector<SiteId>& partition_changed_sites() const {
    return partition_changed_sites_;
  }

 private:
  /// links() index of a--b, read off the shorter endpoint's adjacency
  /// (Neighbor::link); throws ContractViolation when a and b are not
  /// adjacent.
  std::size_t link_index(SiteId a, SiteId b) const;

  const Topology& topo_;
  std::vector<char> site_up_;
  std::vector<char> link_up_;  ///< by Topology::links() index
  std::size_t sites_down_ = 0;
  std::size_t links_down_ = 0;
  double drop_prob_ = 0.0;
  double extra_delay_max_ = 0.0;
  double dup_prob_ = 0.0;
  double reorder_prob_ = 0.0;
  double reorder_delay_max_ = 0.0;
  /// Cut boundary of the active partition, 0 = none. While a partition is
  /// active the cut's link states stay authoritative in link_up_ (so the
  /// routing repair sees the partition for free); kHeal restores exactly
  /// the links in partition_downed_, preserving independent link faults.
  SiteId partition_boundary_ = 0;
  std::vector<std::size_t> partition_downed_;  ///< links() indices the cut owns
  std::vector<SiteId> partition_changed_sites_;
  Rng perturb_rng_;

  friend struct snap::Access;  // checkpoints restore the live fault view
};

/// Site up/down schedule extracted from a plan, for drivers that model
/// execution-plane faults only (the comparison baselines): arrivals at a
/// down site are lost, a crash loses the site's in-flight jobs, and the
/// control plane stays reliable (see DESIGN.md §9 on why this idealization
/// is conservative *against* RTDS).
class SiteTimeline {
 public:
  struct Event {
    Time at = 0.0;
    SiteId site = 0;
    bool up = false;  ///< state after the event
  };

  SiteTimeline() = default;
  SiteTimeline(const FaultPlan& plan, std::size_t sites);

  /// Site events in plan (time) order.
  const std::vector<Event>& events() const { return events_; }

  /// State of `s` at time `t` (events at exactly `t` have been applied).
  bool up_at(SiteId s, Time t) const;

  bool empty() const { return events_.empty(); }

 private:
  std::vector<Event> events_;
  /// Per-site toggle times; state after toggles_[s][i] is (i % 2 == 0) ?
  /// down : up (sites start up, toggles alternate).
  std::vector<std::vector<Time>> toggles_;
};

}  // namespace rtds::fault
