#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <sstream>
#include <utility>

#include "core/mapper.hpp"
#include "core/rtds_system.hpp"
#include "fault/fault_params.hpp"
#include "load/source.hpp"
#include "net/generators.hpp"
#include "obs/obs.hpp"
#include "policy/policy.hpp"
#include "policy/rtds_params.hpp"
#include "routing/pcs.hpp"
#include "snap/io.hpp"
#include "snap/snapshot.hpp"

namespace e2ebench {

namespace {

using namespace rtds;
using Clock = std::chrono::steady_clock;
using Pairs = std::vector<std::pair<std::string, std::string>>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Events per step_events() call: the granularity of checkpoints, queue
/// samples and probes.
constexpr std::size_t kChunk = 20'000;
/// Upcoming jobs each chunk-boundary probe feeds to admission and mapper.
constexpr std::size_t kProbeJobs = 4;

/// Receives timed calls' results so the compiler keeps the calls.
volatile std::uint64_t g_sink = 0;

const policy::Policy& registered(const std::string& name) {
  static std::map<std::string, std::unique_ptr<policy::Policy>> cache;
  auto& slot = cache[name];
  if (slot == nullptr) slot = policy::PolicyRegistry::instance().create(name);
  return *slot;
}

/// The rtds SystemConfig for `pairs`, built exactly as the rtds Policy
/// builds it (same schema, same decoder, same fault-plan generator).
SystemConfig rtds_config(const Pairs& pairs, const Topology& topo,
                         Time fault_horizon) {
  const auto params = policy::ParamMap::parse_pairs(
      pairs, registered("rtds").describe_params());
  SystemConfig cfg = policy::rtds_system_config_from(params);
  cfg.faults = fault::FaultPlan::from_spec(
      fault::fault_spec_from(params, fault_horizon), topo);
  return cfg;
}

/// Streams every decision latency and sojourn of the run into `rep`.
void observe(SystemConfig& cfg, Rep& rep) {
  cfg.on_decision_observed = [&rep](const JobDecision& d) {
    rep.decision_latency.push_back(d.decision_time - d.arrival);
  };
  cfg.on_job_completed = [&rep](Time arrival, Time completion) {
    rep.sojourn.push_back(completion - arrival);
  };
}

/// Folds one finished run into the repetition's totals and checks.
void account(const RunMetrics& m, Rep& rep) {
  rep.submitted += m.arrived;
  rep.delivered += m.accepted() - m.failed_jobs;
  rep.link_messages += m.transport.total_link_messages;
  rep.deadline_misses += m.deadline_misses;
  std::ostringstream os;
  m.to_jsonl(os);
  rep.jsonl += os.str();
  if (rep.failure.empty() && m.invariant_violations != 0)
    rep.failure = "invariant_violations = " +
                  std::to_string(m.invariant_violations);
  if (rep.failure.empty() && m.deadline_misses != 0)
    rep.failure = "deadline_misses = " + std::to_string(m.deadline_misses);
}

/// Chunk-boundary sampling of a traced run. Its own cost is kept out of
/// run_s, and every probe runs on copies, so the simulation is untouched.
struct Tracer {
  obs::MetricsBuffer metrics;
  double boundary_s = 0.0;
  double admit_s = 0.0, mapper_s = 0.0;
  std::uint64_t admit_n = 0, mapper_n = 0;
  double pending_sum = 0.0;
  std::uint64_t pending_n = 0, pending_max = 0, backlog_max = 0;

  /// Samples the queue and the admission backlog, then times
  /// LocalScheduler::try_accept_dag_local on a copy of each upcoming job's
  /// site scheduler and build_trial_mapping with surpluses read from that
  /// site's sphere members.
  void sample(RtdsSystem& sys, const SystemConfig& cfg,
              std::span<const JobArrival> upcoming) {
    const auto t0 = Clock::now();
    const std::uint64_t pending = sys.simulator().pending();
    pending_sum += static_cast<double>(pending);
    ++pending_n;
    pending_max = std::max(pending_max, pending);
    for (SiteId s = 0; s < sys.topology().site_count(); ++s)
      backlog_max = std::max<std::uint64_t>(backlog_max,
                                            sys.node(s).queued_jobs());
    const Time now = sys.simulator().now();
    for (const JobArrival& a : upcoming) {
      const RtdsNode& node = sys.node(a.site);
      LocalScheduler copy = node.scheduler();
      auto t = Clock::now();
      const bool fits =
          copy.try_accept_dag_local(*a.job, std::max(now, a.job->release))
              .has_value();
      admit_s += seconds_since(t);
      ++admit_n;

      MapperInput in;
      in.dag = &a.job->dag;
      in.release = now;
      in.deadline = now + a.job->window();
      for (const PcsMember& m : node.pcs().members()) {
        const double surplus = sys.node(m.site).scheduler().surplus(now);
        if (surplus >= cfg.node.min_surplus)
          in.surpluses.push_back(std::min(surplus, 1.0));
      }
      if (in.surpluses.empty()) continue;
      std::sort(in.surpluses.begin(), in.surpluses.end(), std::greater<>());
      in.comm_diameter = node.pcs().delay_diameter();
      t = Clock::now();
      const bool mapped =
          build_trial_mapping(in, cfg.node.mapper).has_value();
      mapper_s += seconds_since(t);
      ++mapper_n;
      g_sink = g_sink + fits + mapped;
    }
    boundary_s += seconds_since(t0);
  }

  void report(Layers& L) const {
    L["sim.pending_max"] = static_cast<double>(pending_max);
    L["sim.pending_mean"] = pending_n ? pending_sum / pending_n : 0.0;
    L["load.backlog_max"] = static_cast<double>(backlog_max);
    L["sched.admit_probe_us"] = admit_n ? 1e6 * admit_s / admit_n : 0.0;
    L["mapper.probe_us"] = mapper_n ? 1e6 * mapper_s / mapper_n : 0.0;
  }
};

/// Steps `sys` to a drained queue and through finish(). `between` runs
/// after every full chunk (checkpoints); a tracer also samples there.
/// Returns run_s: host time from the first event through finish(), less
/// the tracer's own sampling time.
double drive(RtdsSystem& sys, const SystemConfig& cfg, Tracer* tr,
             const std::function<std::span<const JobArrival>()>& upcoming,
             const std::function<void()>& between, Layers* layers) {
  const auto t0 = Clock::now();
  const double boundary0 = tr ? tr->boundary_s : 0.0;
  while (sys.step_events(kChunk) == kChunk) {
    if (between) between();
    if (tr) tr->sample(sys, cfg, upcoming());
  }
  const auto tf = Clock::now();
  sys.finish();
  if (layers) (*layers)["core.finish_s"] += seconds_since(tf);
  return seconds_since(t0) - (tr ? tr->boundary_s - boundary0 : 0.0);
}

/// The probes' input for a closed batch: the next kProbeJobs arrivals at or
/// after the simulator's clock.
std::function<std::span<const JobArrival>()> upcoming_of(
    const std::vector<JobArrival>& arrivals, RtdsSystem& sys) {
  return [&arrivals, &sys, cursor = std::size_t{0}]() mutable {
    const Time now = sys.simulator().now();
    while (cursor < arrivals.size() && arrivals[cursor].job->release < now)
      ++cursor;
    return std::span<const JobArrival>(arrivals).subspan(
        cursor, std::min(kProbeJobs, arrivals.size() - cursor));
  };
}

/// Reads the program's own work counters (obs::MetricsBuffer) into layers.
void read_counters(const obs::MetricsBuffer& m, Layers& L) {
  const auto sum = [&m](const char* name) {
    return static_cast<double>(m.sum(name));
  };
  L["sched.admit_calls"] = sum("admit.edf.calls");
  L["sched.admit_rejects"] = sum("admit.edf.reject");
  L["sched.exact_nodes"] = sum("admit.exact.nodes");
  L["sched.exact_fastpath"] = sum("admit.exact.edf_fastpath");
  L["core.rounds"] = sum("protocol.rounds");
  L["core.retransmits"] = sum("protocol.retransmits");
  L["core.dedup_dropped"] = sum("protocol.dedup_dropped");
  L["core.timeouts"] =
      sum("protocol.enroll.timeouts") + sum("protocol.validate.timeouts");
  L["routing.repairs"] = sum("apsp.repair.calls");
  L["routing.repair_dirty"] = sum("apsp.repair.dirty_destinations");
  L["routing.repair_line_updates"] = sum("apsp.repair.line_updates");
  const double balls = static_cast<double>(m.count("apsp.build.ball"));
  L["routing.ball_mean"] = balls > 0 ? sum("apsp.build.ball") / balls : 0.0;
  L["fault.events"] = sum("fault.events");
  L["net.dropped"] = sum("net.dropped");
  L["net.duplicated"] = sum("net.duplicated");
  L["net.sends"] = sum("net.sends");
  L["net.link_messages"] = sum("net.link_messages");
  for (const std::string& kind : message_kinds())
    L["net.sends." + kind] = sum(("net.msg." + kind + ".sends").c_str());
}

/// Reads the RunMetrics outcome breakdown of an rtds run into layers.
void read_outcomes(const RunMetrics& m, Layers& L) {
  const auto reason = [&m](RejectReason r) {
    const auto it = m.reject_by_reason.find(static_cast<int>(r));
    return it == m.reject_by_reason.end() ? 0.0
                                          : static_cast<double>(it->second);
  };
  L["core.reject.no_candidates"] += reason(RejectReason::kNoCandidates);
  L["core.reject.gated"] += reason(RejectReason::kGated);
  L["core.reject.mapper_case_i"] += reason(RejectReason::kMapperCaseI);
  L["matching.failed"] += reason(RejectReason::kMatchingFailed);
  L["load.shed"] += reason(RejectReason::kShed);
  L["mapper.windows_rejected"] += reason(RejectReason::kMapperWindows);
  const auto mapped = [&m](AdjustmentCase c) {
    const auto it = m.adjustment_cases.find(static_cast<int>(c));
    return it == m.adjustment_cases.end() ? 0.0
                                          : static_cast<double>(it->second);
  };
  L["mapper.case_stretch"] += mapped(AdjustmentCase::kStretch);
  L["mapper.case_laxity"] += mapped(AdjustmentCase::kLaxity);
}

/// Standalone timings of the routing build on the workload's own topology:
/// phased_apsp, then one Pcs::build per site.
void time_routing_build(const Topology& topo, std::size_t h, Layers& L) {
  auto t = Clock::now();
  const std::vector<RoutingTable> tables = phased_apsp(topo, 2 * h);
  L["routing.apsp_build_s"] = seconds_since(t);
  t = Clock::now();
  std::size_t members = 0;
  for (SiteId s = 0; s < topo.site_count(); ++s)
    members += Pcs::build(tables, s, h).size();
  L["routing.pcs_build_s"] = seconds_since(t);
  g_sink = g_sink + members;
}

/// Replays the plan's topology changes through the public ApspRepairer,
/// seeding each repair the way RtdsSystem does (the cut's endpoints for a
/// partition or heal, else the event's site or link ends), and times the
/// repair and the §12 checker's post-repair consistency check separately —
/// the two costs the in-run profile cannot tell apart. Returns the number
/// of repairs made.
std::uint64_t replay_repairs(const Topology& topo, const fault::FaultPlan& plan,
                             std::size_t h, Layers& L, std::string& failure) {
  fault::FaultState state(topo, plan);
  std::vector<RoutingTable> tables = phased_apsp(topo, 2 * h);
  ApspRepairer repairer(topo, 2 * h);
  fault::InvariantChecker checker;
  double repair_s = 0.0, check_s = 0.0;
  std::uint64_t repairs = 0;
  std::vector<SiteId> changed;
  for (const fault::FaultEvent& ev : plan.events) {
    if (!state.apply(ev)) continue;
    if (ev.kind == fault::FaultKind::kPartition ||
        ev.kind == fault::FaultKind::kHeal) {
      changed = state.partition_changed_sites();
    } else {
      changed.assign(1, ev.a);
      if (ev.b != kNoSite) changed.push_back(ev.b);
    }
    auto t = Clock::now();
    repairer.repair(tables, &state, changed);
    repair_s += seconds_since(t);
    t = Clock::now();
    checker.on_repair(tables, topo, state, ev.at);
    check_s += seconds_since(t);
    ++repairs;
  }
  L["routing.repair_s"] = repair_s;
  L["fault.repair_check_s"] = check_s;
  if (failure.empty() && checker.violations() != 0)
    failure = "repair replay: routing tables inconsistent after repair";
  return repairs;
}

/// The traced-run postlude shared by every workload: work counters,
/// outcome breakdown of the rtds run `m`, and the chunk-boundary samples.
void finish_trace(const Tracer& tr, const RunMetrics& m, Layers& L) {
  read_counters(tr.metrics, L);
  read_outcomes(m, L);
  tr.report(L);
  const double rounds = L["core.rounds"];
  L["core.remote_per_round"] =
      rounds > 0 ? static_cast<double>(m.accepted_remote) / rounds : 0.0;
}

/// The part of an RtdsSystem run's run_s the layers account for: directly
/// timed calls, the replayed repair costs, and each probe's mean time the
/// exact number of calls (mapper calls: mappings built plus mapper
/// rejections).
double attributed_s(Layers& L) {
  const double mapper_calls =
      L["mapper.case_stretch"] + L["mapper.case_laxity"] +
      L["core.reject.mapper_case_i"] + L["mapper.windows_rejected"];
  return L["core.finish_s"] + L["load.next_s"] + L["snap.save_s"] +
         L["routing.repair_s"] + L["fault.repair_check_s"] +
         1e-6 * L["sched.admit_probe_us"] * L["sched.admit_calls"] +
         1e-6 * L["mapper.probe_us"] * mapper_calls;
}

// ------------------------------------------------------------------------
// A closed batch on RtdsSystem: closed_wide and chaos_repair.

struct ClosedSpec {
  std::size_t side;  ///< grid side; sites = side²
  DelayRange delays;
  WorkloadConfig jobs;
  Pairs params;
};

Rep run_closed(const ClosedSpec& spec, std::uint64_t seed, Mode mode) {
  const bool trace = mode == Mode::kTrace;
  Rep rep;
  std::unique_ptr<Tracer> tr = trace ? std::make_unique<Tracer>() : nullptr;
  Layers& L = rep.layers;

  const auto t0 = Clock::now();
  Rng rng(seed);
  Topology topo = make_grid(spec.side, spec.side, spec.delays, rng);
  const double topo_s = seconds_since(t0);
  auto t = Clock::now();
  WorkloadConfig wl = spec.jobs;
  wl.seed = seed;
  const std::vector<JobArrival> arrivals =
      generate_workload(topo.site_count(), wl);
  Pairs pairs = spec.params;
  pairs.emplace_back("faults.seed", std::to_string(seed));
  SystemConfig cfg = rtds_config(pairs, topo, fault::fault_horizon(arrivals));
  observe(cfg, rep);
  const double jobs_s = seconds_since(t);
  fault::FaultPlan plan;  // replayed by the traced run
  if (trace) plan = cfg.faults;

  std::optional<obs::Scope> scope;
  if (tr) scope.emplace(&tr->metrics);
  t = Clock::now();
  RtdsSystem sys(std::move(topo), cfg);
  const double bring_up_s = seconds_since(t);
  t = Clock::now();
  sys.start(arrivals);
  const double start_s = seconds_since(t);
  rep.setup_s = seconds_since(t0);
  if (mode == Mode::kSetup) return rep;

  rep.run_s = drive(sys, cfg, tr.get(), upcoming_of(arrivals, sys), {},
                    trace ? &L : nullptr);
  scope.reset();
  account(sys.metrics(), rep);
  if (!trace) return rep;

  L["net.topology_gen_s"] = topo_s;
  L["core.jobs_gen_s"] = jobs_s;
  L["core.bring_up_s"] = bring_up_s;
  L["core.start_s"] = start_s;
  L["sim.events"] = static_cast<double>(sys.simulator().executed_events());
  finish_trace(*tr, sys.metrics(), L);
  const std::size_t h = cfg.node.sphere_radius_h;
  time_routing_build(sys.topology(), h, L);
  const std::uint64_t repairs =
      replay_repairs(sys.topology(), plan, h, L, rep.failure);
  if (rep.failure.empty() &&
      static_cast<double>(repairs) != L["routing.repairs"])
    rep.failure = "repair replay made " + std::to_string(repairs) +
                  " repairs, the run " +
                  std::to_string(static_cast<std::uint64_t>(
                      L["routing.repairs"]));
  L["trace.residual_s"] = rep.run_s - attributed_s(L);
  return rep;
}

/// The paper's wide-network case: 4096 sites, a closed Poisson batch of
/// ~33k jobs. The only workload where bring-up (topology, phased_apsp, the
/// PCS, the nodes) and the event queue's bulk load of the whole arrival
/// list weigh in.
Rep closed_wide(std::uint64_t seed, Mode mode) {
  ClosedSpec spec;
  spec.side = 64;
  spec.delays = {0.2, 0.8};
  spec.jobs.arrival_rate_per_site = 0.02;
  spec.jobs.horizon = 400.0;
  spec.jobs.laxity_min = 1.5;
  spec.jobs.laxity_max = 3.0;
  spec.params = {{"h", "3"}};
  return run_closed(spec, seed, mode);
}

/// The configuration e8_chaos, the fuzz soak and the corpus replay use:
/// hardened rtds with the §12 checker on, under crashes, link flaps,
/// partitions, duplication and reordering. ~1.2k topology changes make
/// routing repair and the checker's per-repair check most of the run time;
/// no other workload repairs at all.
Rep chaos_repair(std::uint64_t seed, Mode mode) {
  ClosedSpec spec;
  spec.side = 16;
  spec.delays = {0.5, 2.0};
  spec.jobs.arrival_rate_per_site = 0.025;
  spec.jobs.horizon = 900.0;
  spec.jobs.laxity_min = 2.0;
  spec.jobs.laxity_max = 6.0;
  spec.params = {{"h", "2"},
                 {"faults.site_rate", "0.0006"},
                 {"faults.site_mttr", "25"},
                 {"faults.link_rate", "0.0006"},
                 {"faults.link_mttr", "10"},
                 {"faults.partition_rate", "0.01"},
                 {"faults.partition_mttr", "10"},
                 {"faults.dup", "0.05"},
                 {"faults.reorder", "0.1"},
                 {"faults.reorder_delay", "0.5"},
                 {"faults.retransmit", "true"},
                 {"check_invariants", "true"}};
  return run_closed(spec, seed, mode);
}

// ------------------------------------------------------------------------
// open_knee: the open-system stream with periodic checkpoints. It is an
// open loop in simulated time (arrivals never wait for decisions); the
// arrival generator runs inside the simulation, so there is no host-time
// schedule for it to fall behind.

constexpr std::size_t kOpenSide = 8;
constexpr Time kOpenDuration = 40000.0;
/// Chunks between checkpoints.
constexpr std::size_t kCheckpointChunks = 5;

/// The bytes a reloaded checkpoint must re-save to. Loading re-posts every
/// pending event, and each re-post draws a fresh sequence number
/// (Simulator::restore_clock), so the clock section's next_seq comes back
/// advanced by exactly the number of re-posted events — `next_seq` here —
/// with its section checksum to match. Every other byte is unchanged.
std::string expected_resave(std::string bytes, std::uint64_t next_seq,
                            std::string& failure) {
  constexpr std::size_t kHeader = 20;  // magic, u32 version, u64 config hash
  constexpr std::string_view kClock = "clock";
  const std::size_t name_at = kHeader + 1;
  const std::size_t sum_at = name_at + kClock.size() + 8;  // after body length
  const std::size_t body_at = sum_at + 8;
  if (bytes.size() < body_at + 24 ||
      static_cast<unsigned char>(bytes[kHeader]) != kClock.size() ||
      bytes.compare(name_at, kClock.size(), kClock) != 0) {
    if (failure.empty()) failure = "checkpoint does not open with its clock";
    return bytes;
  }
  const auto put = [&bytes](std::size_t at, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i)
      bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  };
  put(body_at + 8, next_seq);  // body: f64 now, u64 next_seq, u64 executed
  put(sum_at, snap::section_checksum(bytes.data() + body_at, 24));
  return bytes;
}

load::ArrivalSpec open_spec(std::uint64_t seed) {
  load::ArrivalSpec spec;
  spec.kind = load::ArrivalKind::kBursty;
  spec.site_count = kOpenSide * kOpenSide;
  spec.workload.arrival_rate_per_site = 0.012;
  spec.workload.laxity_min = 2.0;
  spec.workload.laxity_max = 6.0;
  spec.workload.seed = seed;
  return spec;
}

/// A bursty (MMPP) stream near the saturation knee with bounded admission
/// queues, exact admission and periodic checkpoints: admission, mapper,
/// matching and the node handlers do most of the work, arrivals reach the
/// queue one at a time (its heap path), and it is the only workload that
/// drives load shedding and snapshot writes.
Rep open_knee(std::uint64_t seed, Mode mode) {
  const bool trace = mode == Mode::kTrace;
  Rep rep;
  std::unique_ptr<Tracer> tr = trace ? std::make_unique<Tracer>() : nullptr;
  Layers& L = rep.layers;

  const auto t0 = Clock::now();
  Rng rng(seed);
  const Topology topo =
      make_grid(kOpenSide, kOpenSide, DelayRange{0.5, 2.0}, rng);
  const double topo_s = seconds_since(t0);
  auto t = Clock::now();
  const load::ArrivalSpec spec = open_spec(seed);
  std::unique_ptr<load::ArrivalSource> source = load::make_arrival_source(spec);
  SystemConfig cfg = rtds_config({{"h", "2"},
                                  {"shed.cap", "4"},
                                  {"admission", "exact"},
                                  {"faults.seed", std::to_string(seed)}},
                                 topo, kOpenDuration);
  observe(cfg, rep);
  cfg.retain_decisions = false;
  cfg.record_events = true;  // checkpoints need replayable events
  const double jobs_s = seconds_since(t);

  std::optional<obs::Scope> scope;
  if (tr) scope.emplace(&tr->metrics);
  t = Clock::now();
  RtdsSystem sys(topo, cfg);
  const double bring_up_s = seconds_since(t);

  // The pull function: duration cut-off, plus (traced) time spent pulling
  // and a window of recent jobs for the probes.
  double next_s = 0.0;
  std::vector<JobArrival> recent;
  auto next = [&]() -> std::optional<JobArrival> {
    const auto tn = trace ? Clock::now() : Clock::time_point{};
    std::optional<JobArrival> a = source->next();
    if (a.has_value() && a->job->release >= kOpenDuration) a.reset();
    if (trace) {
      next_s += seconds_since(tn);
      if (a.has_value()) {
        if (recent.size() == kProbeJobs) recent.erase(recent.begin());
        recent.push_back(*a);
      }
    }
    return a;
  };
  t = Clock::now();
  sys.start_stream(next);
  const double start_s = seconds_since(t);
  rep.setup_s = seconds_since(t0);
  if (mode == Mode::kSetup) return rep;

  snap::SnapshotExtras extras;
  extras.source = source.get();
  std::string checkpoint;
  std::uint64_t checkpoint_seq = 0;  // the simulator's next_seq at the save
  std::size_t chunks = 0, saves = 0;
  double save_s = 0.0, bytes = 0.0;
  const auto between = [&] {
    if (++chunks % kCheckpointChunks != 0) return;
    const auto ts = Clock::now();
    checkpoint = snap::Snapshot::save(sys, extras);
    save_s += seconds_since(ts);
    checkpoint_seq = sys.simulator().next_seq();
    ++saves;
    bytes += static_cast<double>(checkpoint.size());
  };
  const auto upcoming = [&]() -> std::span<const JobArrival> {
    return recent;
  };
  rep.run_s = drive(sys, cfg, tr.get(), upcoming, between,
                    trace ? &L : nullptr);
  scope.reset();
  account(sys.metrics(), rep);

  // The final checkpoint must reload into a fresh system and re-save to
  // the same bytes, up to the re-posted events' sequence numbers.
  double load_s = 0.0;
  if (checkpoint.empty()) {
    if (rep.failure.empty()) rep.failure = "no checkpoint was taken";
  } else {
    RtdsSystem restored(topo, cfg);
    std::unique_ptr<load::ArrivalSource> fresh =
        load::make_arrival_source(spec);
    snap::SnapshotExtras fresh_extras;
    fresh_extras.source = fresh.get();
    const auto tl = Clock::now();
    snap::Snapshot::load(checkpoint, restored, fresh_extras);
    load_s = seconds_since(tl);
    const std::string expected = expected_resave(
        checkpoint, checkpoint_seq + restored.simulator().pending(),
        rep.failure);
    if (snap::Snapshot::save(restored, fresh_extras) != expected &&
        rep.failure.empty())
      rep.failure = "final checkpoint did not re-save byte-identical";
  }
  if (!trace) return rep;

  L["net.topology_gen_s"] = topo_s;
  L["core.jobs_gen_s"] = jobs_s;
  L["core.bring_up_s"] = bring_up_s;
  L["core.start_s"] = start_s;
  L["load.next_s"] = next_s;
  L["sim.events"] = static_cast<double>(sys.simulator().executed_events());
  L["snap.saves"] = static_cast<double>(saves);
  L["snap.save_s"] = save_s;
  L["snap.bytes"] = bytes;
  L["snap.load_s"] = load_s;
  finish_trace(*tr, sys.metrics(), L);
  time_routing_build(topo, cfg.node.sphere_radius_h, L);
  L["trace.residual_s"] = rep.run_s - attributed_s(L);
  return rep;
}

// ------------------------------------------------------------------------
// policy_compare: the six registered families on one closed job set.

const Pairs kRtdsPairs = {{"h", "2"}};

/// The six registered families in turn on one closed job set, as in E2:
/// the only workload through src/baseline, and BCAST's network-wide surplus
/// flood drives the simulated network's fan-out path where the others send
/// sphere-local unicasts.
Rep policy_compare(std::uint64_t seed, Mode mode) {
  const bool trace = mode == Mode::kTrace;
  Rep rep;
  std::unique_ptr<Tracer> tr = trace ? std::make_unique<Tracer>() : nullptr;
  Layers& L = rep.layers;

  const auto t0 = Clock::now();
  Rng rng(seed);
  const Topology topo = make_grid(16, 16, DelayRange{0.5, 2.0}, rng);
  const double topo_s = seconds_since(t0);
  auto t = Clock::now();
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.02;
  wl.horizon = 400.0;
  wl.laxity_min = 2.0;
  wl.laxity_max = 6.0;
  wl.seed = seed;
  const std::vector<JobArrival> arrivals =
      generate_workload(topo.site_count(), wl);
  const double jobs_s = seconds_since(t);
  // Each family under its defaults, rtds at the E2 radius h=2.
  std::vector<std::pair<const policy::Policy*, policy::ParamMap>> runs;
  for (const std::string& name : families()) {
    const policy::Policy& p = registered(name);
    runs.emplace_back(&p, policy::ParamMap::parse_pairs(
                              name == "rtds" ? kRtdsPairs : Pairs{},
                              p.describe_params()));
  }
  rep.setup_s = seconds_since(t0);
  if (mode == Mode::kSetup) return rep;

  std::optional<obs::Scope> scope;
  if (tr) scope.emplace(&tr->metrics);
  const auto run0 = Clock::now();
  double boundary_s = 0.0, families_s = 0.0;
  std::string rtds_jsonl;
  RunMetrics rtds_metrics;
  for (const auto& [pol, params] : runs) {
    const std::string name = pol->name();
    const auto tp = Clock::now();
    RunMetrics m;
    if (name == "rtds") {
      // The rtds family runs as RtdsPolicy::run does, but stepped here so
      // its decision and sojourn distributions can be observed.
      SystemConfig cfg =
          rtds_config(kRtdsPairs, topo, fault::fault_horizon(arrivals));
      observe(cfg, rep);
      RtdsSystem sys(topo, cfg);
      sys.start(arrivals);
      const double b0 = tr ? tr->boundary_s : 0.0;
      drive(sys, cfg, tr.get(), upcoming_of(arrivals, sys), {},
            trace ? &L : nullptr);
      if (tr) boundary_s += tr->boundary_s - b0;
      m = sys.metrics();
      rtds_metrics = m;
      if (trace) {
        L["sim.events"] =
            static_cast<double>(sys.simulator().executed_events());
        std::ostringstream os;
        m.to_jsonl(os);
        rtds_jsonl = os.str();
      }
    } else {
      m = pol->run(topo, arrivals, params);
    }
    const double run_s = seconds_since(tp);
    account(m, rep);
    if (trace) {
      const std::string key = name == "rtds" ? "core.rtds" : "baseline." + name;
      L[key + ".run_s"] = run_s - (name == "rtds" ? boundary_s : 0.0);
      L[key + ".link_messages"] =
          static_cast<double>(m.transport.total_link_messages);
      families_s += L[key + ".run_s"];
    }
  }
  rep.run_s = seconds_since(run0) - boundary_s;
  scope.reset();
  if (!trace) return rep;
  L["trace.residual_s"] = rep.run_s - families_s;  // families timed whole

  // The stepped rtds run must be the registered policy's run, byte for byte.
  std::ostringstream os;
  registered("rtds").run(topo, arrivals, runs.front().second).to_jsonl(os);
  if (os.str() != rtds_jsonl && rep.failure.empty())
    rep.failure = "stepped rtds run differs from Policy::run";

  L["net.topology_gen_s"] = topo_s;
  L["core.jobs_gen_s"] = jobs_s;
  finish_trace(*tr, rtds_metrics, L);
  time_routing_build(topo, 2, L);
  return rep;
}

}  // namespace

const std::vector<std::string>& families() {
  static const std::vector<std::string> names = {"rtds", "local",  "central",
                                                 "bid",  "random", "bcast"};
  return names;
}

const std::vector<std::string>& message_kinds() {
  static const std::vector<std::string> kinds = {
      "enroll",      "enroll_reply", "unlock",        "validate",
      "validate_reply", "dispatch",  "dispatch_ack",  "bid_request",
      "bid_reply",   "offer",        "offer_reply",   "surplus_flood",
      "focused_offer", "focused_reply"};
  return kinds;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"closed_wide", closed_wide,
       {"net.topology_gen_s", "core.jobs_gen_s", "core.bring_up_s",
        "core.start_s", "routing.apsp_build_s", "routing.pcs_build_s",
        "routing.ball_mean", "sim.pending_max"}},
      {"open_knee", open_knee,
       {"sched.admit_calls", "sched.exact_nodes", "core.rounds",
        "load.next_s", "load.shed", "snap.saves", "snap.save_s",
        "snap.load_s"}},
      {"chaos_repair", chaos_repair,
       {"routing.repairs", "routing.repair_s", "fault.repair_check_s",
        "fault.events", "net.duplicated", "core.retransmits"}},
      {"policy_compare", policy_compare,
       {"baseline.local.run_s", "baseline.central.run_s",
        "baseline.bid.run_s", "baseline.random.run_s", "baseline.bcast.run_s",
        "baseline.bcast.link_messages", "core.rtds.run_s",
        "net.sends.surplus_flood"}},
  };
  return all;
}

}  // namespace e2ebench
