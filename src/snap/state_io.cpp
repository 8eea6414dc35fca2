// Access::io bodies for the leaf state types (DESIGN.md §14). The
// node/system/event-queue bodies live in snap/snapshot.cpp; this file
// covers everything they compose: RNG streams, statistics accumulators,
// routing tables, spheres, fault views, dedup windows, scheduling plans,
// quantile sketches, metrics buffers, and the shared immutable payloads
// (Jobs, TrialMappings) with their pointer interner.
#include <memory>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/rtds_system.hpp"
#include "core/trial_mapping.hpp"
#include "fault/dedup.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "load/window.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "routing/pcs.hpp"
#include "routing/routing_table.hpp"
#include "sched/local_scheduler.hpp"
#include "sched/plan.hpp"
#include "snap/access.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rtds::snap {

namespace {

// Shared-pointer interning markers.
constexpr std::uint8_t kPtrNull = 0;
constexpr std::uint8_t kPtrInline = 1;  ///< body follows; index = next dense
constexpr std::uint8_t kPtrRef = 2;     ///< u64 index of an earlier inline

/// A possibly-null shared pointer through `table`: null, a back-reference
/// to an earlier body, or the body itself (`body(ar, object)`).
template <class Ar, class T, class Body>
void interned(Ar& ar, std::vector<std::shared_ptr<const T>>& table,
              std::shared_ptr<const T>& p, const char* what, Body body) {
  std::uint8_t marker = kPtrNull;
  std::uint64_t index = 0;
  if constexpr (!Ar::kLoading) {
    if (p != nullptr) {
      marker = kPtrInline;
      for (std::size_t i = 0; i < table.size(); ++i) {
        if (table[i] == p) {
          marker = kPtrRef;
          index = i;
          break;
        }
      }
    }
  }
  ar.u8(marker);
  if (marker == kPtrNull) {
    if constexpr (Ar::kLoading) p = nullptr;
  } else if (marker == kPtrRef) {
    ar.u64(index);
    if constexpr (Ar::kLoading) {
      if (index >= table.size())
        ar.fail(std::string(what) + " back-reference out of range");
      p = table[index];
    }
  } else if (marker == kPtrInline) {
    if constexpr (Ar::kLoading) {
      auto fresh = std::make_shared<T>();
      body(ar, *fresh);
      p = std::move(fresh);
    } else {
      body(ar, as_mutable(*p));
    }
    table.push_back(p);
  } else if constexpr (Ar::kLoading) {
    ar.fail(std::string("bad ") + what + " pointer marker");
  }
}

}  // namespace

// --- util/rng.hpp ---

template <class Ar>
void Access::io(Ar& ar, Rng& rng) {
  for (std::uint64_t& word : rng.s_) ar.u64(word);
  ar.b(rng.have_spare_normal_);
  ar.f64(rng.spare_normal_);
}

// --- util/stats.hpp ---

template <class Ar>
void Access::io(Ar& ar, RunningStat& s) {
  ar.u64(s.n_);
  ar.f64(s.mean_);
  ar.f64(s.m2_);
  ar.f64(s.min_);
  ar.f64(s.max_);
  ar.f64(s.sum_);
}

// --- util/flat_map.hpp ---

template <class Ar>
void Access::io(Ar& ar, FlatSet<std::uint64_t>& s) {
  entries(ar, s.map_, 8, [](Ar& a, auto& key, bool& present) {
    a.u64(key);
    present = true;
  });
}

// --- routing/routing_table.hpp ---

template <class Ar>
void Access::io(Ar& ar, RoutingTable& t) {
  ar.u32(t.owner_);
  ar.u32(t.site_count_);
  ar.u32(t.live_);
  // RouteLine travels struct-of-arrays: padding-free on the wire and
  // bulk-copyable on decode (tables dominate warm-start entries).
  const std::size_t n = length(ar, t.dests_, 4 + 8 + 4 + 4);
  if constexpr (Ar::kLoading) t.lines_.assign(n, RouteLine{});
  ar.array(t.dests_.data(), n);
  column<double>(ar, t.lines_, &RouteLine::dist);
  column<std::uint32_t>(ar, t.lines_, &RouteLine::next_hop);
  column<std::uint32_t>(ar, t.lines_, &RouteLine::hops);
}

// --- routing/pcs.hpp ---

template <class Ar>
void Access::io(Ar& ar, Pcs& p) {
  ar.u32(p.root_);
  ar.u64(p.radius_);
  // PcsMember travels struct-of-arrays (see RoutingTable); the m*m pair
  // matrices are the bulk of every sphere and bulk-copy directly.
  const std::size_t m = length(ar, p.members_, 4 + 8 + 8);
  column<std::uint32_t>(ar, p.members_, &PcsMember::site);
  column<double>(ar, p.members_, &PcsMember::delay);
  column<std::uint64_t>(ar, p.members_, &PcsMember::hops);
  if constexpr (Ar::kLoading) {
    ar.require_fits(m, m * (8 + 8));  // both pair matrices
    // member_index_ is derived (site -> dense index); rebuilt, not stored.
    p.member_index_ = FlatMap<SiteId, std::uint32_t>{};
    p.member_index_.reserve(m);
    for (std::size_t i = 0; i < m; ++i)
      p.member_index_[p.members_[i].site] = static_cast<std::uint32_t>(i);
    p.pair_delay_.resize(m * m);
    p.pair_hops_.resize(m * m);
  }
  ar.array(p.pair_delay_.data(), m * m);
  ar.array(p.pair_hops_.data(), m * m);
}

// --- fault/fault.hpp ---

template <class Ar>
void Access::io(Ar& ar, fault::FaultState& f) {
  // topo_ (a reference) is not stored; the perturbation parameters ARE, as
  // a guard: they must round-trip equal to what the fresh construction
  // derived from the plan.
  ar.expect(f.site_up_.size(),
            "fault state spans a different site count than the topology");
  for (char& c : f.site_up_) ar.u8(c);
  ar.expect(f.link_up_.size(),
            "fault state spans a different link count than the topology");
  for (char& c : f.link_up_) ar.u8(c);
  ar.u64(f.sites_down_);
  ar.u64(f.links_down_);
  ar.f64(f.drop_prob_);
  ar.f64(f.extra_delay_max_);
  ar.f64(f.dup_prob_);
  ar.f64(f.reorder_prob_);
  ar.f64(f.reorder_delay_max_);
  ar.u32(f.partition_boundary_);
  ar.vec(f.partition_downed_);
  ar.vec(f.partition_changed_sites_);
  io(ar, f.perturb_rng_);
}

// --- fault/invariants.hpp ---

template <class Ar>
void Access::io(Ar& ar, fault::InvariantChecker& c) {
  ar.f64(c.last_event_time_);
  ar.u64(c.submitted_);
  ar.u64(c.violations_);
  io(ar, c.decided_);
  entries(ar, c.last_seq_, 16, [](Ar& a, auto& key, std::uint64_t& seq) {
    a.u64(key);
    a.u64(seq);
  });
  ar.u64(c.queue_pushed_);
  ar.u64(c.queue_removed_);
  ar.u64(c.sheds_);
}

// --- fault/dedup.hpp ---

template <class Ar>
void Access::io(Ar& ar, fault::DedupWindow& d) {
  ar.u64(d.max_seq_);
  ar.u64(d.mask_);
}

// --- sched/plan.hpp + sched/local_scheduler.hpp ---

template <class Ar>
void Access::io(Ar& ar, SchedulingPlan& p) {
  length(ar, p.items_, 8 + 4 + 8 + 8);
  for (Reservation& res : p.items_) {
    ar.u64(res.job);
    ar.u32(res.task);
    ar.f64(res.start);
    ar.f64(res.end);
  }
}

template <class Ar>
void Access::io(Ar& ar, LocalScheduler& s) {
  io(ar, s.plan_);  // cfg_ is construction input, not live state
}

// --- load/window.hpp ---

template <class Ar>
void Access::io(Ar& ar, load::QuantileSketch& q) {
  // gamma_/inv_log_gamma_ are ctor-derived from the relative error; stored
  // anyway so a config-skewed restore trips the round-trip guard instead of
  // silently re-binning.
  ar.f64(q.gamma_);
  ar.f64(q.inv_log_gamma_);
  ar.u64(q.zero_count_);
  ar.u64(q.total_);
  entries(ar, q.bins_, 16, [](Ar& a, auto& key, std::uint64_t& count) {
    a.i64(key);
    a.u64(count);
  });
}

template <class Ar>
void Access::io(Ar& ar, load::SteadyStateCollector& c) {
  // cfg_ is construction input (the resumed run re-creates the collector
  // with the same WindowConfig); only the accumulated windows travel.
  length(ar, c.windows_, 5 * 8 + 48 + 40,
         load::WindowCell(c.cfg_.sketch_relative_error));
  for (load::WindowCell& cell : c.windows_) {
    ar.u64(cell.arrived);
    ar.u64(cell.accepted);
    ar.u64(cell.rejected);
    ar.u64(cell.shed);
    ar.u64(cell.completed);
    io(ar, cell.sojourn);
    io(ar, cell.sketch);
  }
}

// --- obs/obs.hpp ---

template <class Ar>
void Access::io(Ar& ar, obs::MetricsBuffer& m) {
  // By NAME: MetricIds are process interning order, which depends on which
  // call sites ran first — not stable across builds or runs.
  obs::Registry& reg = obs::Registry::instance();
  std::vector<std::uint32_t> recorded;  // ids of the cells with samples
  if constexpr (Ar::kLoading) {
    m.clear();
  } else {
    for (std::uint32_t i = 0; i < m.cells_.size(); ++i)
      if (m.cells_[i].count > 0) recorded.push_back(i);
  }
  length(ar, recorded, 8 + 1 + 4 * 8 + 1);
  for (std::uint32_t& index : recorded) {
    std::string name;
    obs::MetricKind kind = obs::MetricKind::kCounter;
    if constexpr (!Ar::kLoading) {
      name = reg.name(obs::MetricId{index});
      kind = reg.kind(obs::MetricId{index});
    }
    ar.str(name);
    ar.enum_u8(kind, obs::MetricKind::kCounter, obs::MetricKind::kHist,
               "metric kind");
    if constexpr (Ar::kLoading) index = reg.intern(name, kind).index;
    obs::MetricsBuffer::Cell& cell = m.cell(obs::MetricId{index});
    ar.u64(cell.count);
    ar.u64(cell.sum);
    ar.u64(cell.min);
    ar.u64(cell.max);
    bool has_bins = index < m.bins_.size() && m.bins_[index] != nullptr;
    ar.b(has_bins);
    if (!has_bins) continue;
    if constexpr (Ar::kLoading) {
      if (index >= m.bins_.size()) m.bins_.resize(m.cells_.size());
      m.bins_[index] = std::make_unique<std::uint64_t[]>(65);
    }
    // 65 bins: 0 for the value 0, then bit_width 1..64
    ar.array(m.bins_[index].get(), 65);
  }
}

// --- sim/network.hpp MessageStats ---

template <class Ar>
void Access::io(Ar& ar, MessageStats& s) {
  std::vector<std::pair<int, MessageStats::Entry>> categories;
  if constexpr (!Ar::kLoading)
    for (const auto [category, entry] : s.by_category)
      categories.emplace_back(category, entry);
  length(ar, categories, 4 + 8 + 8);
  for (auto& [category, entry] : categories) {
    ar.u32(category);
    ar.u64(entry.sends);
    ar.u64(entry.link_messages);
  }
  if constexpr (Ar::kLoading) {
    s.clear();
    for (const auto& [category, entry] : categories) {
      if (category < 0 ||
          category >= MessageStats::CategoryCounters::kCapacity)
        ar.fail("message category out of range");
      s.by_category[category] = entry;
    }
  }
  ar.u64(s.total_sends);
  ar.u64(s.total_link_messages);
  ar.u64(s.messages_dropped);
  ar.u64(s.messages_duplicated);
}

// --- core/metrics.hpp ---

template <class Ar>
void Access::io(Ar& ar, RunMetrics& m) {
  ar.u64(m.arrived);
  ar.u64(m.accepted_local);
  ar.u64(m.accepted_remote);
  ar.u64(m.rejected);
  ar.u64(m.deadline_misses);
  ar.u64(m.dispatch_failures);
  ar.u64(m.failed_jobs);
  ar.u64(m.jobs_lost);
  ar.u64(m.jobs_rescheduled);
  ar.u64(m.repair_messages);
  ar.u64(m.messages_duplicated);
  ar.u64(m.retransmits);
  ar.u64(m.invariant_violations);
  const auto keyed_count = [](Ar& a, auto& key, std::uint64_t& count) {
    a.i64(key);
    a.u64(count);
  };
  entries(ar, m.reject_by_reason, 16, keyed_count);
  entries(ar, m.adjustment_cases, 16, keyed_count);
  io(ar, m.decision_latency);
  io(ar, m.acs_size);
  io(ar, m.msgs_per_job);
  io(ar, m.job_lateness);
  io(ar, m.transport);
  ar.u64(m.pcs_build_messages);
  ar.u64(m.pcs_size_max);
  ar.u64(m.pcs_hop_diameter_max);
}

template <class Ar>
void Access::io(Ar& ar, JobDecision& d) {
  ar.u64(d.job);
  ar.u32(d.initiator);
  ar.enum_u8(d.outcome, JobOutcome::kAcceptedLocal, JobOutcome::kRejected,
             "job outcome");
  ar.enum_u8(d.reject_reason, RejectReason::kNone, RejectReason::kShed,
             "reject reason");
  ar.f64(d.arrival);
  ar.f64(d.decision_time);
  ar.f64(d.deadline);
  ar.u64(d.task_count);
  ar.u64(d.acs_size);
  ar.u64(d.link_messages);
  ar.i64(d.adjustment_case);
  ar.b(d.fault_recovered);
}

// --- shared immutable payloads ---

template <class Ar>
void Access::io(Ar& ar, Interner& in, std::shared_ptr<const Job>& job) {
  interned(ar, in.jobs, job, "job", [](Ar& a, Job& j) {
    a.u64(j.id);
    a.f64(j.release);
    a.f64(j.deadline);
    Dag& dag = j.dag;
    bool finalized = dag.finalized();
    a.b(finalized);
    const std::size_t tasks = a.count(dag.task_count(), 8 + 8);
    for (TaskId t = 0; t < tasks; ++t) {
      Time cost = 0.0;
      std::string label;
      if constexpr (!Ar::kLoading) {
        cost = dag.cost(t);
        label = dag.label(t);
      }
      a.f64(cost);
      a.str(label);
      if constexpr (Ar::kLoading) dag.add_task(cost, std::move(label));
    }
    const std::size_t arcs = a.count(dag.arc_count(), 4 + 4 + 8);
    for (std::size_t i = 0; i < arcs; ++i) {
      Arc arc;
      if constexpr (!Ar::kLoading) arc = dag.arcs()[i];
      a.u32(arc.from);
      a.u32(arc.to);
      a.f64(arc.data_volume);
      if constexpr (Ar::kLoading) dag.add_arc(arc.from, arc.to, arc.data_volume);
    }
    // CSR adjacency, topological order and bottom levels are re-derived;
    // finalize() is deterministic, so the rebuilt caches match the originals.
    if constexpr (Ar::kLoading)
      if (finalized) dag.finalize();
  });
}

template <class Ar>
void Access::io(Ar& ar, Interner& in,
                std::shared_ptr<const TrialMapping>& mapping) {
  interned(ar, in.mappings, mapping, "mapping", [](Ar& a, TrialMapping& m) {
    a.vec(m.assignment);
    a.vec(m.release);
    a.vec(m.deadline);
    a.u32(m.used_processors);
    a.vec(m.surpluses);
    a.f64(m.makespan);
    a.f64(m.makespan_full);
    a.enum_u8(m.adjustment, AdjustmentCase::kReject, AdjustmentCase::kLaxity,
              "adjustment case");
    a.vec(m.s_start);
    a.vec(m.s_finish);
    a.vec(m.star_start);
    a.vec(m.star_finish);
    length(a, m.by_processor, 8);
    for (std::vector<WindowedTask>& tasks : m.by_processor) {
      length(a, tasks, 4 + 8 + 8 + 8);
      for (WindowedTask& t : tasks) {
        a.u32(t.task);
        a.f64(t.release);
        a.f64(t.deadline);
        a.f64(t.cost);
      }
    }
  });
}

// One body per type, compiled for both directions.
#define RTDS_SNAP_IO(...)                                  \
  template void Access::io(Writer&, __VA_ARGS__);          \
  template void Access::io(Reader&, __VA_ARGS__);
RTDS_SNAP_IO(Rng&)
RTDS_SNAP_IO(RunningStat&)
RTDS_SNAP_IO(FlatSet<std::uint64_t>&)
RTDS_SNAP_IO(RoutingTable&)
RTDS_SNAP_IO(Pcs&)
RTDS_SNAP_IO(fault::FaultState&)
RTDS_SNAP_IO(fault::InvariantChecker&)
RTDS_SNAP_IO(fault::DedupWindow&)
RTDS_SNAP_IO(SchedulingPlan&)
RTDS_SNAP_IO(LocalScheduler&)
RTDS_SNAP_IO(load::QuantileSketch&)
RTDS_SNAP_IO(load::SteadyStateCollector&)
RTDS_SNAP_IO(obs::MetricsBuffer&)
RTDS_SNAP_IO(MessageStats&)
RTDS_SNAP_IO(RunMetrics&)
RTDS_SNAP_IO(JobDecision&)
RTDS_SNAP_IO(Interner&, std::shared_ptr<const Job>&)
RTDS_SNAP_IO(Interner&, std::shared_ptr<const TrialMapping>&)
#undef RTDS_SNAP_IO

// --- identity hashes ---

std::uint64_t Access::topology_hash(const Topology& topo) {
  HashAbsorber h;
  h.str("topology");
  h.u64(topo.site_count());
  for (SiteId s = 0; s < topo.site_count(); ++s)
    h.f64(topo.computing_power(s));
  h.u64(topo.link_count());
  for (const Link& link : topo.links()) {
    h.u64(link.a);
    h.u64(link.b);
    h.f64(link.delay);
    h.f64(link.throughput);
  }
  return h.digest();
}

std::uint64_t Access::config_hash(const Topology& topo,
                                  const SystemConfig& cfg) {
  HashAbsorber h;
  h.u64(topology_hash(topo));
  h.str("system_config");
  const RtdsConfig& n = cfg.node;
  h.u64(n.sphere_radius_h);
  h.u64(static_cast<std::uint64_t>(n.sched.policy));
  h.u64(n.sched.exact_max_tasks);
  h.f64(n.sched.observation_window);
  h.f64(n.sched.computing_power);
  h.u64(static_cast<std::uint64_t>(n.mapper.task_priority));
  h.u64(n.mapper.busyness_weighted_laxity ? 1 : 0);
  h.u64(n.mapper.account_data_volumes ? 1 : 0);
  h.f64(n.mapper.link_throughput);
  h.u64(n.mapper.reject_infeasible_windows ? 1 : 0);
  h.u64(static_cast<std::uint64_t>(n.enroll_policy));
  h.u64(static_cast<std::uint64_t>(n.enroll_gate));
  h.f64(n.enroll_timeout_slack);
  h.f64(n.mapper_compute_time);
  h.f64(n.protocol_overhead_factor);
  h.f64(n.protocol_overhead_slack);
  h.f64(n.min_surplus);
  h.u64(n.job_window_surplus ? 1 : 0);
  h.u64(n.initiator_local_knowledge ? 1 : 0);
  h.u64(n.fault_tolerant ? 1 : 0);
  h.f64(n.lock_lease);
  h.u64(n.retransmit ? 1 : 0);
  h.u64(static_cast<std::uint64_t>(n.retransmit_tries));
  h.u64(n.fault_seed);
  h.u64(n.admission_queue_cap);
  h.u64(static_cast<std::uint64_t>(n.shed_policy));
  h.u64(static_cast<std::uint64_t>(cfg.transport_model));
  h.f64(cfg.link_bandwidth);
  h.u64(cfg.measure_pcs_build_cost ? 1 : 0);
  h.u64(cfg.check_invariants ? 1 : 0);
  h.str("fault_plan");
  const fault::FaultPlan& plan = cfg.faults;
  h.u64(plan.events.size());
  for (const fault::FaultEvent& ev : plan.events) {
    h.f64(ev.at);
    h.u64(static_cast<std::uint64_t>(ev.kind));
    h.u64(ev.a);
    h.u64(ev.b);
  }
  h.f64(plan.drop_prob);
  h.f64(plan.extra_delay_max);
  h.f64(plan.dup_prob);
  h.f64(plan.reorder_prob);
  h.f64(plan.reorder_delay_max);
  h.u64(plan.seed);
  return h.digest();
}

}  // namespace rtds::snap
