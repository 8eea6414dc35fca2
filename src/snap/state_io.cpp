// Access serializers for the leaf state types (DESIGN.md §14). The
// node/system/event-queue entry points live in snap/snapshot.cpp; this file
// covers everything they compose: RNG streams, statistics accumulators,
// routing tables, spheres, fault views, dedup windows, scheduling plans,
// quantile sketches, metrics buffers, and the shared immutable payloads
// (Jobs, TrialMappings) with their pointer interners.
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

// Shared-pointer interning markers (save_job / save_mapping).
constexpr std::uint8_t kPtrNull = 0;
constexpr std::uint8_t kPtrInline = 1;  ///< body follows; index = next dense
constexpr std::uint8_t kPtrRef = 2;     ///< u64 index of an earlier inline

/// Validates a decoded element count against the bytes actually left in
/// the section, BEFORE the caller allocates `n` elements — so a damaged
/// length field fails with a section/offset-named ContractViolation
/// instead of an allocation blowup.
std::size_t checked_count(Reader& r, std::uint64_t n, std::size_t width) {
  if (n > r.section_remaining() / width)
    r.fail("element count " + std::to_string(n) +
           " exceeds the remaining section body");
  return static_cast<std::size_t>(n);
}

void save_f64_vec(Writer& w, const std::vector<double>& v) {
  w.u64(v.size());
  w.f64_array(v.data(), v.size());
}
void load_f64_vec(Reader& r, std::vector<double>& v) {
  v.resize(checked_count(r, r.u64(), 8));
  r.f64_array(v.data(), v.size());
}

void save_time_vec(Writer& w, const std::vector<Time>& v) {
  w.u64(v.size());
  w.f64_array(v.data(), v.size());
}
void load_time_vec(Reader& r, std::vector<Time>& v) {
  v.resize(checked_count(r, r.u64(), 8));
  r.f64_array(v.data(), v.size());
}

void save_u32_vec(Writer& w, const std::vector<std::uint32_t>& v) {
  w.u64(v.size());
  w.u32_array(v.data(), v.size());
}
void load_u32_vec(Reader& r, std::vector<std::uint32_t>& v) {
  v.resize(checked_count(r, r.u64(), 4));
  r.u32_array(v.data(), v.size());
}

void save_windowed_tasks(Writer& w, const std::vector<WindowedTask>& v) {
  w.u64(v.size());
  for (const WindowedTask& t : v) {
    w.u32(t.task);
    w.f64(t.release);
    w.f64(t.deadline);
    w.f64(t.cost);
  }
}
void load_windowed_tasks(Reader& r, std::vector<WindowedTask>& v) {
  const std::uint64_t n = r.u64();
  v.clear();
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    WindowedTask t;
    t.task = r.u32();
    t.release = r.f64();
    t.deadline = r.f64();
    t.cost = r.f64();
    v.push_back(t);
  }
}

}  // namespace

// --- util/rng.hpp ---

void Access::save(Writer& w, const Rng& rng) {
  for (std::uint64_t word : rng.s_) w.u64(word);
  w.b(rng.have_spare_normal_);
  w.f64(rng.spare_normal_);
}
void Access::load(Reader& r, Rng& rng) {
  for (std::uint64_t& word : rng.s_) word = r.u64();
  rng.have_spare_normal_ = r.b();
  rng.spare_normal_ = r.f64();
}

// --- util/stats.hpp ---

void Access::save(Writer& w, const RunningStat& s) {
  w.u64(s.n_);
  w.f64(s.mean_);
  w.f64(s.m2_);
  w.f64(s.min_);
  w.f64(s.max_);
  w.f64(s.sum_);
}
void Access::load(Reader& r, RunningStat& s) {
  s.n_ = r.u64();
  s.mean_ = r.f64();
  s.m2_ = r.f64();
  s.min_ = r.f64();
  s.max_ = r.f64();
  s.sum_ = r.f64();
}

void Access::save(Writer& w, const Samples& s) {
  // The raw insertion-order values (sorted_ may have reordered them in
  // place; either order yields the same sorted multiset, so capturing the
  // current array verbatim is exact).
  w.b(s.sorted_);
  save_f64_vec(w, s.values_);
}
void Access::load(Reader& r, Samples& s) {
  s.sorted_ = r.b();
  load_f64_vec(r, s.values_);
}

// --- routing/routing_table.hpp ---

void Access::save(Writer& w, const RoutingTable& t) {
  w.u32(t.owner_);
  w.u32(t.site_count_);
  w.u32(t.live_);
  const std::size_t n = t.dests_.size();
  w.u64(n);
  // RouteLine travels struct-of-arrays: padding-free on the wire and
  // bulk-copyable on decode (tables dominate warm-start entries).
  w.u32_array(t.dests_.data(), n);
  std::vector<double> dist(n);
  std::vector<std::uint32_t> next_hop(n);
  std::vector<std::uint32_t> hops(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    dist[slot] = t.lines_[slot].dist;
    next_hop[slot] = t.lines_[slot].next_hop;
    hops[slot] = t.lines_[slot].hops;
  }
  w.f64_array(dist.data(), n);
  w.u32_array(next_hop.data(), n);
  w.u32_array(hops.data(), n);
}
void Access::load(Reader& r, RoutingTable& t) {
  t.owner_ = r.u32();
  t.site_count_ = r.u32();
  t.live_ = r.u32();
  const std::size_t n = checked_count(r, r.u64(), 4 + 8 + 4 + 4);
  t.dests_.resize(n);
  r.u32_array(t.dests_.data(), n);
  std::vector<double> dist(n);
  std::vector<std::uint32_t> next_hop(n);
  std::vector<std::uint32_t> hops(n);
  r.f64_array(dist.data(), n);
  r.u32_array(next_hop.data(), n);
  r.u32_array(hops.data(), n);
  t.lines_.resize(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    t.lines_[slot].dist = dist[slot];
    t.lines_[slot].next_hop = next_hop[slot];
    t.lines_[slot].hops = hops[slot];
  }
}

// --- routing/pcs.hpp ---

void Access::save(Writer& w, const Pcs& p) {
  w.u32(p.root_);
  w.u64(p.radius_);
  const std::size_t m = p.members_.size();
  w.u64(m);
  // PcsMember travels struct-of-arrays (see RoutingTable); the m*m pair
  // matrices are the bulk of every sphere and bulk-copy directly.
  std::vector<std::uint32_t> sites(m);
  std::vector<double> delays(m);
  std::vector<std::uint64_t> hops(m);
  for (std::size_t i = 0; i < m; ++i) {
    sites[i] = p.members_[i].site;
    delays[i] = p.members_[i].delay;
    hops[i] = p.members_[i].hops;
  }
  w.u32_array(sites.data(), m);
  w.f64_array(delays.data(), m);
  w.u64_array(hops.data(), m);
  w.f64_array(p.pair_delay_.data(), p.pair_delay_.size());
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "pair_hops_ is reinterpreted as u64 on the wire");
  w.u64_array(reinterpret_cast<const std::uint64_t*>(p.pair_hops_.data()),
              p.pair_hops_.size());
}
void Access::load(Reader& r, Pcs& p) {
  p.root_ = r.u32();
  p.radius_ = r.u64();
  const std::size_t m = checked_count(r, r.u64(), 4 + 8 + 8);
  std::vector<std::uint32_t> sites(m);
  std::vector<double> delays(m);
  std::vector<std::uint64_t> hops(m);
  r.u32_array(sites.data(), m);
  r.f64_array(delays.data(), m);
  r.u64_array(hops.data(), m);
  p.members_.resize(m);
  p.member_index_ = FlatMap<SiteId, std::uint32_t>{};
  p.member_index_.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    p.members_[i].site = sites[i];
    p.members_[i].delay = delays[i];
    p.members_[i].hops = hops[i];
    // member_index_ is derived (site -> dense index); rebuilt, not stored.
    p.member_index_[sites[i]] = static_cast<std::uint32_t>(i);
  }
  p.pair_delay_.resize(m * m);
  r.f64_array(p.pair_delay_.data(), m * m);
  p.pair_hops_.resize(m * m);
  r.u64_array(reinterpret_cast<std::uint64_t*>(p.pair_hops_.data()), m * m);
}

// --- fault/fault.hpp ---

void Access::save(Writer& w, const fault::FaultState& f) {
  // topo_ (a reference) is not stored; the perturbation parameters ARE, as
  // a guard: they must round-trip equal to what the fresh construction
  // derived from the plan.
  w.u64(f.site_up_.size());
  for (char c : f.site_up_) w.u8(static_cast<std::uint8_t>(c));
  w.u64(f.link_up_.size());
  for (char c : f.link_up_) w.u8(static_cast<std::uint8_t>(c));
  w.u64(f.sites_down_);
  w.u64(f.links_down_);
  w.f64(f.drop_prob_);
  w.f64(f.extra_delay_max_);
  w.f64(f.dup_prob_);
  w.f64(f.reorder_prob_);
  w.f64(f.reorder_delay_max_);
  w.u32(f.partition_boundary_);
  w.u64(f.partition_downed_.size());
  for (std::size_t link : f.partition_downed_) w.u64(link);
  w.u64(f.partition_changed_sites_.size());
  for (SiteId s : f.partition_changed_sites_) w.u32(s);
  save(w, f.perturb_rng_);
}
void Access::load(Reader& r, fault::FaultState& f) {
  const std::uint64_t sites = r.u64();
  if (sites != f.site_up_.size())
    r.fail("fault state spans a different site count than the topology");
  for (char& c : f.site_up_) c = static_cast<char>(r.u8());
  const std::uint64_t links = r.u64();
  if (links != f.link_up_.size())
    r.fail("fault state spans a different link count than the topology");
  for (char& c : f.link_up_) c = static_cast<char>(r.u8());
  f.sites_down_ = r.u64();
  f.links_down_ = r.u64();
  f.drop_prob_ = r.f64();
  f.extra_delay_max_ = r.f64();
  f.dup_prob_ = r.f64();
  f.reorder_prob_ = r.f64();
  f.reorder_delay_max_ = r.f64();
  f.partition_boundary_ = r.u32();
  const std::uint64_t downed = r.u64();
  f.partition_downed_.clear();
  f.partition_downed_.reserve(downed);
  for (std::uint64_t i = 0; i < downed; ++i)
    f.partition_downed_.push_back(r.u64());
  const std::uint64_t changed = r.u64();
  f.partition_changed_sites_.clear();
  f.partition_changed_sites_.reserve(changed);
  for (std::uint64_t i = 0; i < changed; ++i)
    f.partition_changed_sites_.push_back(r.u32());
  load(r, f.perturb_rng_);
}

// --- fault/invariants.hpp ---

void Access::save(Writer& w, const fault::InvariantChecker& c) {
  w.f64(c.last_event_time_);
  w.u64(c.submitted_);
  w.u64(c.violations_);
  const auto decided = c.decided_.map_.sorted_items();
  w.u64(decided.size());
  for (const auto& [job, present] : decided) {
    (void)present;
    w.u64(job);
  }
  const auto seqs = c.last_seq_.sorted_items();
  w.u64(seqs.size());
  for (const auto& [key, seq] : seqs) {
    w.u64(key);
    w.u64(seq);
  }
  w.u64(c.queue_pushed_);
  w.u64(c.queue_removed_);
  w.u64(c.sheds_);
}
void Access::load(Reader& r, fault::InvariantChecker& c) {
  c.last_event_time_ = r.f64();
  c.submitted_ = r.u64();
  c.violations_ = r.u64();
  const std::uint64_t n = r.u64();
  c.decided_ = FlatSet<JobId>{};
  c.decided_.map_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) c.decided_.insert(r.u64());
  const std::uint64_t seqs = checked_count(r, r.u64(), 16);
  c.last_seq_ = FlatMap<std::uint64_t, std::uint64_t>{};
  c.last_seq_.reserve(seqs);
  for (std::uint64_t i = 0; i < seqs; ++i) {
    const std::uint64_t key = r.u64();
    c.last_seq_[key] = r.u64();
  }
  c.queue_pushed_ = r.u64();
  c.queue_removed_ = r.u64();
  c.sheds_ = r.u64();
}

// --- fault/dedup.hpp ---

void Access::save(Writer& w, const fault::DedupWindow& d) {
  w.u64(d.max_seq_);
  w.u64(d.mask_);
}
void Access::load(Reader& r, fault::DedupWindow& d) {
  d.max_seq_ = r.u64();
  d.mask_ = r.u64();
}

// --- sched/plan.hpp + sched/local_scheduler.hpp ---

void Access::save(Writer& w, const SchedulingPlan& p) {
  w.u64(p.items_.size());
  for (const Reservation& res : p.items_) {
    w.u64(res.job);
    w.u32(res.task);
    w.f64(res.start);
    w.f64(res.end);
  }
}
void Access::load(Reader& r, SchedulingPlan& p) {
  const std::uint64_t n = r.u64();
  p.items_.clear();
  p.items_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Reservation res;
    res.job = r.u64();
    res.task = r.u32();
    res.start = r.f64();
    res.end = r.f64();
    p.items_.push_back(res);
  }
}

void Access::save(Writer& w, const LocalScheduler& s) {
  save(w, s.plan_);  // cfg_ is construction input, not live state
}
void Access::load(Reader& r, LocalScheduler& s) { load(r, s.plan_); }

// --- load/window.hpp ---

void Access::save(Writer& w, const load::QuantileSketch& q) {
  // gamma_/inv_log_gamma_ are ctor-derived from the relative error; stored
  // anyway so a config-skewed restore trips the round-trip guard instead of
  // silently re-binning.
  w.f64(q.gamma_);
  w.f64(q.inv_log_gamma_);
  w.u64(q.zero_count_);
  w.u64(q.total_);
  w.u64(q.bins_.size());
  for (const auto& [key, count] : q.bins_) {
    w.i64(key);
    w.u64(count);
  }
}
void Access::load(Reader& r, load::QuantileSketch& q) {
  q.gamma_ = r.f64();
  q.inv_log_gamma_ = r.f64();
  q.zero_count_ = r.u64();
  q.total_ = r.u64();
  const std::uint64_t n = r.u64();
  q.bins_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int32_t key = static_cast<std::int32_t>(r.i64());
    q.bins_[key] = r.u64();
  }
}

void Access::save(Writer& w, const load::SteadyStateCollector& c) {
  // cfg_ is construction input (the resumed run re-creates the collector
  // with the same WindowConfig); only the accumulated windows travel.
  w.u64(c.windows_.size());
  for (const load::WindowCell& cell : c.windows_) {
    w.u64(cell.arrived);
    w.u64(cell.accepted);
    w.u64(cell.rejected);
    w.u64(cell.shed);
    w.u64(cell.completed);
    save(w, cell.sojourn);
    save(w, cell.sketch);
  }
}
void Access::load(Reader& r, load::SteadyStateCollector& c) {
  const std::uint64_t n = r.u64();
  c.windows_.clear();
  c.windows_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    load::WindowCell cell(c.cfg_.sketch_relative_error);
    cell.arrived = r.u64();
    cell.accepted = r.u64();
    cell.rejected = r.u64();
    cell.shed = r.u64();
    cell.completed = r.u64();
    load(r, cell.sojourn);
    load(r, cell.sketch);
    c.windows_.push_back(std::move(cell));
  }
}

// --- obs/obs.hpp ---

void Access::save(Writer& w, const obs::MetricsBuffer& m) {
  // By NAME: MetricIds are process interning order, which depends on which
  // call sites ran first — not stable across builds or runs.
  const obs::Registry& reg = obs::Registry::instance();
  std::uint64_t recorded = 0;
  for (std::size_t i = 0; i < m.cells_.size(); ++i)
    if (m.cells_[i].count > 0) ++recorded;
  w.u64(recorded);
  for (std::uint32_t i = 0; i < m.cells_.size(); ++i) {
    if (m.cells_[i].count == 0) continue;
    const obs::MetricId id{i};
    w.str(reg.name(id));
    w.u8(static_cast<std::uint8_t>(reg.kind(id)));
    w.u64(m.cells_[i].count);
    w.u64(m.cells_[i].sum);
    w.u64(m.cells_[i].min);
    w.u64(m.cells_[i].max);
    const bool has_bins = i < m.bins_.size() && m.bins_[i] != nullptr;
    w.b(has_bins);
    if (has_bins)  // 65 bins: 0 for the value 0, then bit_width 1..64
      w.u64_array(m.bins_[i].get(), 65);
  }
}
void Access::load(Reader& r, obs::MetricsBuffer& m) {
  obs::Registry& reg = obs::Registry::instance();
  m.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t entry = 0; entry < n; ++entry) {
    const std::string name = r.str();
    const auto kind = static_cast<obs::MetricKind>(r.u8());
    if (kind != obs::MetricKind::kCounter &&
        kind != obs::MetricKind::kGaugeMax && kind != obs::MetricKind::kHist)
      r.fail("unknown metric kind for \"" + name + "\"");
    const obs::MetricId id = reg.intern(name, kind);
    obs::MetricsBuffer::Cell& cell = m.cell(id);
    cell.count = r.u64();
    cell.sum = r.u64();
    cell.min = r.u64();
    cell.max = r.u64();
    if (r.b()) {
      if (id.index >= m.bins_.size()) m.bins_.resize(m.cells_.size());
      m.bins_[id.index] = std::make_unique<std::uint64_t[]>(65);
      r.u64_array(m.bins_[id.index].get(), 65);
    }
  }
}

// --- sim/network.hpp MessageStats ---

void Access::save(Writer& w, const MessageStats& s) {
  std::uint64_t categories = 0;
  for (const auto& [category, entry] : s.by_category) {
    (void)category;
    (void)entry;
    ++categories;
  }
  w.u64(categories);
  for (const auto& [category, entry] : s.by_category) {
    w.u32(static_cast<std::uint32_t>(category));
    w.u64(entry.sends);
    w.u64(entry.link_messages);
  }
  w.u64(s.total_sends);
  w.u64(s.total_link_messages);
  w.u64(s.messages_dropped);
  w.u64(s.messages_duplicated);
}
void Access::load(Reader& r, MessageStats& s) {
  s.clear();
  const std::uint64_t categories = r.u64();
  for (std::uint64_t i = 0; i < categories; ++i) {
    const int category = static_cast<int>(r.u32());
    if (category < 0 || category >= MessageStats::CategoryCounters::kCapacity)
      r.fail("message category out of range");
    MessageStats::Entry& entry = s.by_category[category];
    entry.sends = r.u64();
    entry.link_messages = r.u64();
  }
  s.total_sends = r.u64();
  s.total_link_messages = r.u64();
  s.messages_dropped = r.u64();
  s.messages_duplicated = r.u64();
}

// --- core/metrics.hpp ---

void Access::save(Writer& w, const RunMetrics& m) {
  w.u64(m.arrived);
  w.u64(m.accepted_local);
  w.u64(m.accepted_remote);
  w.u64(m.rejected);
  w.u64(m.deadline_misses);
  w.u64(m.dispatch_failures);
  w.u64(m.failed_jobs);
  w.u64(m.jobs_lost);
  w.u64(m.jobs_rescheduled);
  w.u64(m.repair_messages);
  w.u64(m.messages_duplicated);
  w.u64(m.retransmits);
  w.u64(m.invariant_violations);
  w.u64(m.reject_by_reason.size());
  for (const auto& [reason, count] : m.reject_by_reason) {
    w.i64(reason);
    w.u64(count);
  }
  w.u64(m.adjustment_cases.size());
  for (const auto& [case_no, count] : m.adjustment_cases) {
    w.i64(case_no);
    w.u64(count);
  }
  save(w, m.decision_latency);
  save(w, m.acs_size);
  save(w, m.msgs_per_job);
  save(w, m.job_lateness);
  save(w, m.transport);
  w.u64(m.pcs_build_messages);
  w.u64(m.pcs_size_max);
  w.u64(m.pcs_hop_diameter_max);
}
void Access::load(Reader& r, RunMetrics& m) {
  m.arrived = r.u64();
  m.accepted_local = r.u64();
  m.accepted_remote = r.u64();
  m.rejected = r.u64();
  m.deadline_misses = r.u64();
  m.dispatch_failures = r.u64();
  m.failed_jobs = r.u64();
  m.jobs_lost = r.u64();
  m.jobs_rescheduled = r.u64();
  m.repair_messages = r.u64();
  m.messages_duplicated = r.u64();
  m.retransmits = r.u64();
  m.invariant_violations = r.u64();
  const std::uint64_t reasons = r.u64();
  m.reject_by_reason.clear();
  for (std::uint64_t i = 0; i < reasons; ++i) {
    const auto reason = static_cast<int>(r.i64());
    m.reject_by_reason[reason] = r.u64();
  }
  const std::uint64_t cases = r.u64();
  m.adjustment_cases.clear();
  for (std::uint64_t i = 0; i < cases; ++i) {
    const auto case_no = static_cast<int>(r.i64());
    m.adjustment_cases[case_no] = r.u64();
  }
  m.decision_latency = RunningStat{};
  load(r, m.decision_latency);
  m.acs_size = RunningStat{};
  load(r, m.acs_size);
  m.msgs_per_job = RunningStat{};
  load(r, m.msgs_per_job);
  m.job_lateness = RunningStat{};
  load(r, m.job_lateness);
  load(r, m.transport);
  m.pcs_build_messages = r.u64();
  m.pcs_size_max = r.u64();
  m.pcs_hop_diameter_max = r.u64();
}

void Access::save(Writer& w, const JobDecision& d) {
  w.u64(d.job);
  w.u32(d.initiator);
  w.u8(static_cast<std::uint8_t>(d.outcome));
  w.u8(static_cast<std::uint8_t>(d.reject_reason));
  w.f64(d.arrival);
  w.f64(d.decision_time);
  w.f64(d.deadline);
  w.u64(d.task_count);
  w.u64(d.acs_size);
  w.u64(d.link_messages);
  w.i64(d.adjustment_case);
  w.b(d.fault_recovered);
}
void Access::load(Reader& r, JobDecision& d) {
  d.job = r.u64();
  d.initiator = r.u32();
  d.outcome = static_cast<JobOutcome>(r.u8());
  d.reject_reason = static_cast<RejectReason>(r.u8());
  d.arrival = r.f64();
  d.decision_time = r.f64();
  d.deadline = r.f64();
  d.task_count = r.u64();
  d.acs_size = r.u64();
  d.link_messages = r.u64();
  d.adjustment_case = static_cast<int>(r.i64());
  d.fault_recovered = r.b();
}

// --- shared immutable payloads ---

void Access::save_job(Writer& w, SaveContext& ctx,
                      const std::shared_ptr<const Job>& job) {
  if (!job) {
    w.u8(kPtrNull);
    return;
  }
  for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
    if (ctx.jobs[i] == job.get()) {
      w.u8(kPtrRef);
      w.u64(i);
      return;
    }
  }
  w.u8(kPtrInline);
  ctx.jobs.push_back(job.get());
  w.u64(job->id);
  w.f64(job->release);
  w.f64(job->deadline);
  const Dag& dag = job->dag;
  w.b(dag.finalized());
  w.u64(dag.task_count());
  for (TaskId t = 0; t < dag.task_count(); ++t) {
    w.f64(dag.cost(t));
    w.str(dag.label(t));
  }
  w.u64(dag.arc_count());
  for (const Arc& arc : dag.arcs()) {
    w.u32(arc.from);
    w.u32(arc.to);
    w.f64(arc.data_volume);
  }
}
std::shared_ptr<const Job> Access::load_job(Reader& r, LoadContext& ctx) {
  const std::uint8_t marker = r.u8();
  if (marker == kPtrNull) return nullptr;
  if (marker == kPtrRef) {
    const std::uint64_t index = r.u64();
    if (index >= ctx.jobs.size()) r.fail("job back-reference out of range");
    return ctx.jobs[index];
  }
  if (marker != kPtrInline) r.fail("bad job pointer marker");
  auto job = std::make_shared<Job>();
  job->id = r.u64();
  job->release = r.f64();
  job->deadline = r.f64();
  const bool finalized = r.b();
  const std::uint64_t tasks = r.u64();
  for (std::uint64_t t = 0; t < tasks; ++t) {
    const Time cost = r.f64();
    job->dag.add_task(cost, r.str());
  }
  const std::uint64_t arcs = r.u64();
  for (std::uint64_t a = 0; a < arcs; ++a) {
    const TaskId from = r.u32();
    const TaskId to = r.u32();
    job->dag.add_arc(from, to, r.f64());
  }
  // CSR adjacency, topological order and bottom levels are re-derived;
  // finalize() is deterministic, so the rebuilt caches match the originals.
  if (finalized) job->dag.finalize();
  std::shared_ptr<const Job> shared = std::move(job);
  ctx.jobs.push_back(shared);
  return shared;
}

void Access::save_mapping(Writer& w, SaveContext& ctx,
                          const std::shared_ptr<const TrialMapping>& m) {
  if (!m) {
    w.u8(kPtrNull);
    return;
  }
  for (std::size_t i = 0; i < ctx.mappings.size(); ++i) {
    if (ctx.mappings[i] == m.get()) {
      w.u8(kPtrRef);
      w.u64(i);
      return;
    }
  }
  w.u8(kPtrInline);
  ctx.mappings.push_back(m.get());
  save_u32_vec(w, m->assignment);
  save_time_vec(w, m->release);
  save_time_vec(w, m->deadline);
  w.u32(m->used_processors);
  save_f64_vec(w, m->surpluses);
  w.f64(m->makespan);
  w.f64(m->makespan_full);
  w.u8(static_cast<std::uint8_t>(m->adjustment));
  save_time_vec(w, m->s_start);
  save_time_vec(w, m->s_finish);
  save_time_vec(w, m->star_start);
  save_time_vec(w, m->star_finish);
  w.u64(m->by_processor.size());
  for (const auto& tasks : m->by_processor) save_windowed_tasks(w, tasks);
}
std::shared_ptr<const TrialMapping> Access::load_mapping(Reader& r,
                                                         LoadContext& ctx) {
  const std::uint8_t marker = r.u8();
  if (marker == kPtrNull) return nullptr;
  if (marker == kPtrRef) {
    const std::uint64_t index = r.u64();
    if (index >= ctx.mappings.size())
      r.fail("mapping back-reference out of range");
    return ctx.mappings[index];
  }
  if (marker != kPtrInline) r.fail("bad mapping pointer marker");
  auto m = std::make_shared<TrialMapping>();
  load_u32_vec(r, m->assignment);
  load_time_vec(r, m->release);
  load_time_vec(r, m->deadline);
  m->used_processors = r.u32();
  load_f64_vec(r, m->surpluses);
  m->makespan = r.f64();
  m->makespan_full = r.f64();
  m->adjustment = static_cast<AdjustmentCase>(r.u8());
  load_time_vec(r, m->s_start);
  load_time_vec(r, m->s_finish);
  load_time_vec(r, m->star_start);
  load_time_vec(r, m->star_finish);
  const std::uint64_t procs = r.u64();
  m->by_processor.clear();
  m->by_processor.resize(procs);
  for (auto& tasks : m->by_processor) load_windowed_tasks(r, tasks);
  std::shared_ptr<const TrialMapping> shared = std::move(m);
  ctx.mappings.push_back(shared);
  return shared;
}

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
