// Whole-system snapshot save/restore (DESIGN.md §14).
//
// One io body walks the live object graph through snap::Access and writes
// (Writer) or reads back (Reader) one section per subsystem. Loading starts
// from a freshly constructed RtdsSystem of the same (topology, config) —
// enforced by the header's config hash — and overwrites exactly the state
// a run mutates. Pending events travel as EventRecords
// (sim/event_record.hpp) and are re-posted through the original private
// entry points in saved execution order, so the re-posted queue pops
// identically to the saved one: re-posting in ascending (time, seq) order
// hands out ascending fresh sequence numbers, preserving every tie-break,
// and everything scheduled after resume draws sequences above them all.
#include "snap/snapshot.hpp"

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/rtds_system.hpp"
#include "load/source.hpp"
#include "load/window.hpp"
#include "obs/obs.hpp"
#include "routing/transport.hpp"
#include "snap/access.hpp"
#include "snap/io.hpp"

namespace rtds::snap {

namespace {

// Stable on-disk payload tags — deliberately NOT the variant index, which
// shifts whenever MessageBody grows an alternative. Only the RTDS protocol
// messages (plus monostate and the tests' debug string) are
// checkpointable: the APSP exchange runs on throwaway simulators and the
// baseline policies never annotate, so meeting one of their payloads in a
// checkpoint is a contract violation, not a format gap.
constexpr std::uint8_t kNoTag = 0xff;
template <class M>
inline constexpr std::uint8_t kBodyTag = kNoTag;
template <> inline constexpr std::uint8_t kBodyTag<std::monostate> = 0;
template <> inline constexpr std::uint8_t kBodyTag<EnrollRequest> = 1;
template <> inline constexpr std::uint8_t kBodyTag<EnrollReply> = 2;
template <> inline constexpr std::uint8_t kBodyTag<UnlockMsg> = 3;
template <> inline constexpr std::uint8_t kBodyTag<ValidateRequest> = 4;
template <> inline constexpr std::uint8_t kBodyTag<ValidateReply> = 5;
template <> inline constexpr std::uint8_t kBodyTag<DispatchMsg> = 6;
template <> inline constexpr std::uint8_t kBodyTag<DispatchAck> = 7;
template <> inline constexpr std::uint8_t kBodyTag<std::string> = 8;

/// Makes `body` the default-constructed alternative whose tag is `tag`.
template <std::size_t I = 0>
bool emplace_tagged(MessageBody& body, std::uint8_t tag) {
  if constexpr (I == std::variant_size_v<MessageBody>) {
    return false;
  } else {
    if (tag != kNoTag &&
        kBodyTag<std::variant_alternative_t<I, MessageBody>> == tag) {
      body.emplace<I>();
      return true;
    }
    return emplace_tagged<I + 1>(body, tag);
  }
}

// The fields of each checkpointable payload.
template <class Ar>
void fields(Ar& ar, Interner&, EnrollRequest& m) {
  ar.u64(m.job);
  ar.f64(m.deadline);
  ar.u64(m.seq);
}
template <class Ar>
void fields(Ar& ar, Interner&, EnrollReply& m) {
  ar.u64(m.job);
  ar.b(m.accepted);
  ar.f64(m.surplus);
  ar.u64(m.seq);
}
template <class Ar>
void fields(Ar& ar, Interner&, UnlockMsg& m) {
  ar.u64(m.job);
  ar.u64(m.seq);
}
template <class Ar>
void fields(Ar& ar, Interner& in, ValidateRequest& m) {
  ar.u64(m.job);
  Access::io(ar, in, m.job_data);
  Access::io(ar, in, m.mapping);
  ar.u64(m.seq);
}
template <class Ar>
void fields(Ar& ar, Interner&, ValidateReply& m) {
  ar.u64(m.job);
  ar.vec(m.endorsable);
  ar.u64(m.seq);
}
template <class Ar>
void fields(Ar& ar, Interner& in, DispatchMsg& m) {
  ar.u64(m.job);
  ar.u32(m.logical);
  Access::io(ar, in, m.job_data);
  Access::io(ar, in, m.mapping);
  ar.u64(m.seq);
}
template <class Ar>
void fields(Ar& ar, Interner&, DispatchAck& m) {
  ar.u64(m.job);
  ar.u64(m.seq);
}
template <class Ar>
void fields(Ar& ar, Interner&, std::string& s) {
  ar.str(s);
}
/// No fields: monostate, and the untagged payloads io_body rejects first.
template <class Ar, class M>
void fields(Ar&, Interner&, M&) {}

/// An in-flight protocol payload: its stable tag, then its fields.
template <class Ar>
void io_body(Ar& ar, Interner& in, MessageBody& body) {
  std::uint8_t tag = std::visit(
      [](const auto& m) { return kBodyTag<std::decay_t<decltype(m)>>; }, body);
  RTDS_REQUIRE_MSG(
      Ar::kLoading || tag != kNoTag,
      "checkpoint met an unsupported in-flight payload (variant index "
          << body.index()
          << "): only RTDS protocol messages are serializable — the "
             "APSP exchange and the baseline policies are not "
             "checkpointable");
  ar.u8(tag);
  if constexpr (Ar::kLoading)
    if (!emplace_tagged(body, tag))
      ar.fail("unknown message payload tag " + std::to_string(tag));
  std::visit([&](auto& m) { fields(ar, in, m); }, body);
}

/// One pending event's replay record.
template <class Ar>
void io_record(Ar& ar, Interner& in, EventRecord& rec) {
  using Kind = EventRecord::Kind;
  ar.enum_u8(rec.kind, Kind::kNone, Kind::kContendedHop, "event kind");
  ar.u8(rec.small);
  ar.u32(rec.site);
  ar.u32(rec.peer);
  ar.u32(rec.dest);
  ar.u64(rec.job);
  ar.u32(rec.task);
  ar.u64(rec.a);
  ar.f64(rec.x);
  ar.f64(rec.y);
  bool has_job = rec.job_ref != nullptr;
  ar.b(has_job);
  if (has_job) {
    auto job = std::static_pointer_cast<const Job>(rec.job_ref);
    Access::io(ar, in, job);
    if constexpr (Ar::kLoading) rec.job_ref = std::move(job);
  }
  bool has_payload = rec.payload != nullptr;
  ar.b(has_payload);
  if (!has_payload) return;
  if constexpr (Ar::kLoading) {
    auto body = std::make_shared<MessageBody>();
    io_body(ar, in, *body);
    rec.payload = std::move(body);
  } else {
    io_body(ar, in,
            as_mutable(*static_cast<const MessageBody*>(rec.payload.get())));
  }
}

}  // namespace

// ------------------------------------------------------------- node ----

template <class Ar>
void Access::io(Ar& ar, Interner& in, RtdsNode& n) {
  using Initiation = RtdsNode::Initiation;
  ar.b(n.alive_);
  ar.u64(n.epoch_);
  ar.u64(n.lock_seq_);
  ar.f64(n.lease_);
  ar.b(n.start_pending_);

  maybe(ar, n.lock_, [&](RtdsNode::Lock& lock) {
    ar.u32(lock.initiator);
    ar.u64(lock.job);
  });
  maybe(ar, n.endorsement_, [&](RtdsNode::OutstandingEndorsement& e) {
    ar.u64(e.job);
    io(ar, in, e.job_data);
    io(ar, in, e.mapping);
    ar.vec(e.endorsed);
  });

  length(ar, n.queue_, 1);
  for (auto& job : n.queue_) {
    io(ar, in, job);
    if constexpr (Ar::kLoading)
      if (job == nullptr) ar.fail("queued job without a body");
  }

  entries(ar, n.active_, 8 + 1 + 1 + 8 * 5 + 1 + 8 + 8 + 8 + 1,
          [&](Ar& a, auto& job, Initiation& init) {
            a.u64(job);
            io(a, in, init.job);
            a.enum_u8(init.phase, Initiation::Phase::kEnrolling,
                      Initiation::Phase::kDone, "initiation phase");
            a.u64(init.expected_replies);
            a.u64(init.received_replies);
            a.vec(init.repliers);
            a.vec(init.acs);
            length(a, init.surplus_of, 4 + 8);
            for (auto& [site, surplus] : init.surplus_of) {
              a.u32(site);
              a.f64(surplus);
            }
            io(a, in, init.mapping);
            a.f64(init.acs_diameter);
            length(a, init.endorsements, 4 + 8);
            for (auto& [site, procs] : init.endorsements) {
              a.u32(site);
              a.vec(procs);
            }
            a.u64(init.validate_expected);
            a.b(init.timed_out);
          });

  length(ar, n.buffered_enrolls_, 4 + 8 + 8 + 8);
  for (auto& [from, msg] : n.buffered_enrolls_) {
    ar.u32(from);
    fields(ar, in, msg);
  }

  entries(ar, n.pending_completions_, 8 + 4,
          [](Ar& a, auto& job, std::uint32_t& count) {
            a.u64(job);
            a.u32(count);
          });
  entries(ar, n.send_seq_, 4 + 8, [](Ar& a, auto& peer, std::uint64_t& seq) {
    a.u32(peer);
    a.u64(seq);
  });
  entries(ar, n.recv_window_, 4 + 16,
          [](Ar& a, auto& peer, fault::DedupWindow& window) {
            a.u32(peer);
            io(a, window);
          });

  entries(ar, n.retries_, 8 + 4 + 1 + 8 * 4,
          [&](Ar& a, auto& key, RtdsNode::Retry& retry) {
            a.u64(key.first);
            a.u32(key.second);
            io_body(a, in, retry.payload);
            a.i64(retry.category);
            a.f64(retry.size_units);
            a.i64(retry.attempts);
            a.u64(retry.gen);
          });
  ar.u64(n.retry_gen_);
  io(ar, n.retry_rng_);
  for (JobId& j : n.recent_dispatch_) ar.u64(j);
  ar.u64(n.recent_dispatch_count_);

  io(ar, n.sched_);
}

// ----------------------------------------------------------- system ----

template <class Ar>
void Access::io(Ar& ar, Interner& in, RtdsSystem& sys) {
  if constexpr (Ar::kLoading) {
    RTDS_REQUIRE_MSG(sys.cfg_.record_events && sys.sim_.recording(),
                     "snapshot restore target must be constructed with "
                     "SystemConfig::record_events = true");
    RTDS_REQUIRE_MSG(!sys.ran_,
                     "snapshot restore target must be freshly constructed "
                     "(this system already ran)");
  } else {
    RTDS_REQUIRE_MSG(sys.cfg_.record_events && sys.sim_.recording(),
                     "Snapshot::save requires SystemConfig::record_events = "
                     "true from construction (pending events would carry no "
                     "replay records)");
  }

  ar.begin_section("clock");
  Time now = sys.sim_.now();
  std::uint64_t next_seq = sys.sim_.next_seq();
  std::uint64_t executed = sys.sim_.executed_events();
  ar.f64(now);
  ar.u64(next_seq);
  ar.u64(executed);
  ar.end_section();
  // Clock first: drop the constructor-scheduled events (the fault plan),
  // which the snapshot's own event section supersedes, then move the clock
  // so the re-posted events schedule legally.
  if constexpr (Ar::kLoading) {
    sys.sim_.clear_pending();
    sys.sim_.restore_clock(now, next_seq, executed);
  }

  // Repair-mutated routing tables (faults re-converge them in place).
  // repairer_ is not stored: it is pure per-repair scratch, rebuilt on the
  // next topology change exactly as a cold run would.
  ar.begin_section("tables");
  ar.expect(sys.tables_.size(),
            "snapshot spans a different site count than this topology");
  for (RoutingTable& t : sys.tables_) io(ar, t);
  ar.end_section();

  ar.begin_section("fault");
  if (ar.presence(sys.fault_state_ != nullptr,
                  "snapshot fault-plan presence does not match this config",
                  "snapshot fault-plan presence does not match this config"))
    io(ar, *sys.fault_state_);
  ar.end_section();

  ar.begin_section("checker");
  if (ar.presence(sys.checker_ != nullptr,
                  "snapshot was taken with the invariant checker on — "
                  "enable check_invariants (--check-invariants) to resume",
                  "snapshot was taken without the invariant checker — "
                  "disable check_invariants to resume"))
    io(ar, *sys.checker_);
  ar.end_section();

  ar.begin_section("nodes");
  ar.expect(sys.nodes_.size(),
            "snapshot node count does not match this topology");
  for (auto& n : sys.nodes_) io(ar, in, *n);
  ar.end_section();

  ar.begin_section("transport");
  ar.expect(static_cast<std::uint8_t>(sys.cfg_.transport_model),
            "snapshot transport model does not match this config");
  if (sys.cfg_.transport_model == TransportModel::kIdeal) {
    io(ar, static_cast<IdealTransport&>(*sys.transport_).stats_);
  } else {
    auto& t = static_cast<ContendedTransport&>(*sys.transport_);
    io(ar, t.stats_);
    ar.f64(t.max_queueing_delay_);
    entries(ar, t.link_busy_until_, 4 + 4 + 8,
            [](Ar& a, auto& link, Time& until) {
              a.u32(link.first);
              a.u32(link.second);
              a.f64(until);
            });
  }
  ar.end_section();

  ar.begin_section("system");
  io(ar, sys.metrics_);
  length(ar, sys.decisions_, 8 + 4 + 1 + 1 + 8 * 7 + 1);
  for (JobDecision& d : sys.decisions_) io(ar, d);
  entries(ar, sys.job_messages_, 8 + 8,
          [](Ar& a, auto& job, std::uint64_t& hops) {
            a.u64(job);
            a.u64(hops);
          });
  entries(ar, sys.accepted_, 8 * 6 + 1,
          [](Ar& a, auto& job, RtdsSystem::JobTrack& track) {
            a.u64(job);
            a.u64(track.tasks_expected);
            a.u64(track.tasks_done);
            a.f64(track.arrival);
            a.f64(track.completion);
            a.f64(track.deadline);
            a.b(track.failed);
          });
  io(ar, sys.early_failures_);
  ar.b(sys.ran_);
  ar.f64(sys.last_stream_release_);
  ar.end_section();

  // Every pending event's (time, record) pair in execution order.
  ar.begin_section("events");
  std::vector<Simulator::PendingEvent> pending;
  if constexpr (!Ar::kLoading) pending = sys.sim_.pending_events();
  const std::size_t count =
      ar.count(pending.size(), 8 + 1 + 1 + 4 * 3 + 8 + 4 + 8 * 3 + 1 + 1);
  for (std::size_t i = 0; i < count; ++i) {
    Time at = 0.0;
    EventRecord rec;
    if constexpr (!Ar::kLoading) {
      const EventRecord* saved = sys.sim_.record_of(pending[i].seq);
      RTDS_REQUIRE_MSG(saved != nullptr,
                       "pending event seq "
                           << pending[i].seq << " at t=" << pending[i].at
                           << " carries no replay record — this event "
                              "source does not support checkpointing");
      at = pending[i].at;
      rec = *saved;
    }
    ar.f64(at);
    io_record(ar, in, rec);
    if constexpr (Ar::kLoading) repost(ar, sys, at, std::move(rec));
  }
  ar.end_section();
}

void Access::repost(Reader& r, RtdsSystem& sys, Time at, EventRecord rec) {
  using Kind = EventRecord::Kind;
  Simulator& sim = sys.sim_;
  IdealTransport* ideal =
      sys.cfg_.transport_model == TransportModel::kIdeal
          ? static_cast<IdealTransport*>(sys.transport_.get())
          : nullptr;
  ContendedTransport* cont =
      sys.cfg_.transport_model == TransportModel::kContended
          ? static_cast<ContendedTransport*>(sys.transport_.get())
          : nullptr;
  const auto node_of = [&](SiteId s) -> RtdsNode* {
    if (s >= sys.nodes_.size()) r.fail("event site outside the topology");
    return sys.nodes_[s].get();
  };
  const auto body_of = [&]() -> std::shared_ptr<const MessageBody> {
    auto p = std::static_pointer_cast<const MessageBody>(rec.payload);
    if (p == nullptr) r.fail("message event without a payload");
    return p;
  };

  // Re-post through the entry point the original closure called; each
  // draws a fresh sequence >= the saved next_seq, in saved execution
  // order, so ties break exactly as before.
  switch (rec.kind) {
    case Kind::kNone:
      r.fail("event record without a kind");
    case Kind::kFault: {
      if (rec.small > static_cast<std::uint8_t>(fault::FaultKind::kHeal))
        r.fail("fault kind " + std::to_string(rec.small) + " out of range");
      fault::FaultEvent ev;
      ev.at = rec.x;
      ev.kind = static_cast<fault::FaultKind>(rec.small);
      ev.a = rec.site;
      ev.b = rec.peer;
      sim.schedule_at(at, [&sys, ev]() { sys.apply_fault(ev); });
      break;
    }
    case Kind::kArrival: {
      auto job = std::static_pointer_cast<const Job>(rec.job_ref);
      if (job == nullptr) r.fail("arrival event without a job");
      RtdsNode* node = node_of(rec.site);
      sim.schedule_at(at, [node, job]() { node->submit(job); });
      break;
    }
    case Kind::kStreamArrival: {
      auto job = std::static_pointer_cast<const Job>(rec.job_ref);
      if (job == nullptr) r.fail("stream arrival event without a job");
      node_of(rec.site);  // range check only
      JobArrival a{rec.site, std::move(job)};
      sim.schedule_at(at, [&sys, a]() { sys.fire_stream_arrival(a); });
      break;
    }
    case Kind::kEnrollTimeout: {
      RtdsNode* node = node_of(rec.site);
      sim.schedule_at(
          at, [node, job = rec.job]() { node->on_enroll_timeout(job); });
      break;
    }
    case Kind::kMapper: {
      RtdsNode* node = node_of(rec.site);
      sim.schedule_at(at, [node, job = rec.job]() { node->run_mapper(job); });
      break;
    }
    case Kind::kValidateTimeout: {
      RtdsNode* node = node_of(rec.site);
      sim.schedule_at(
          at, [node, job = rec.job]() { node->on_validate_timeout(job); });
      break;
    }
    case Kind::kRetryTimer: {
      RtdsNode* node = node_of(rec.site);
      sim.schedule_at(at, [node, job = rec.job, peer = rec.peer,
                           gen = rec.a, rto = rec.x]() {
        node->on_retry_timer(job, peer, gen, rto);
      });
      break;
    }
    case Kind::kCompletion: {
      RtdsNode* node = node_of(rec.site);
      sim.schedule_at(at, [node, job = rec.job, task = rec.task,
                           end = rec.x, epoch = rec.a]() {
        node->fire_completion(job, task, end, epoch);
      });
      break;
    }
    case Kind::kLeaseExpiry: {
      RtdsNode* node = node_of(rec.site);
      sim.schedule_at(
          at, [node, seq = rec.a]() { node->on_lease_expired(seq); });
      break;
    }
    case Kind::kStartNext: {
      RtdsNode* node = node_of(rec.site);
      sim.schedule_at(at, [node]() { node->fire_start_next(); });
      break;
    }
    case Kind::kSelfDeliver: {
      auto p = body_of();
      if (ideal != nullptr) {
        sim.schedule_at(at,
                        [t = ideal, from = rec.site, to = rec.peer, p]() {
                          t->deliver_self(from, to, *p);
                        });
      } else {
        sim.schedule_at(at,
                        [t = cont, from = rec.site, to = rec.peer, p]() {
                          t->deliver_self(from, to, *p);
                        });
      }
      break;
    }
    case Kind::kDeliver: {
      if (ideal == nullptr)
        r.fail("ideal-transport event under a contended config");
      auto p = body_of();
      sim.schedule_at(at, [t = ideal, from = rec.site, to = rec.peer, p]() {
        t->deliver(from, to, *p);
      });
      break;
    }
    case Kind::kContendedInject: {
      if (cont == nullptr)
        r.fail("contended-transport event under an ideal config");
      auto p = body_of();
      sim.schedule_at(at, [t = cont, from = rec.site, to = rec.peer, p,
                           size = rec.y]() { t->forward(from, to, p, size); });
      break;
    }
    case Kind::kContendedHop: {
      if (cont == nullptr)
        r.fail("contended-transport event under an ideal config");
      auto p = body_of();
      sim.schedule_at(at, [t = cont, origin = rec.site, cur = rec.peer,
                           to = rec.dest, p, size = rec.y]() {
        t->hop(origin, cur, to, p, size);
      });
      break;
    }
  }
  // Re-annotate so the resumed run can itself be snapshotted.
  sim.annotate(std::move(rec));
}

std::uint64_t Access::config_hash_of(const RtdsSystem& sys) {
  return config_hash(sys.topo_, sys.cfg_);
}

// --------------------------------------------------------- Snapshot ----

namespace {

template <class Ar>
void io_snapshot(Ar& ar, RtdsSystem& sys, const SnapshotExtras& extras) {
  Interner in;
  Access::io(ar, in, sys);

  ar.begin_section("obs");
  if (ar.presence(extras.metrics != nullptr,
                  "snapshot carries obs metrics but no buffer was supplied",
                  "snapshot carries no obs metrics but a buffer was supplied"))
    Access::io(ar, *extras.metrics);
  ar.end_section();

  ar.begin_section("collector");
  if (ar.presence(extras.collector != nullptr,
                  "snapshot carries a steady-state collector but none was "
                  "supplied",
                  "snapshot carries no steady-state collector but one was "
                  "supplied"))
    Access::io(ar, *extras.collector);
  ar.end_section();

  ar.begin_section("source");
  if (ar.presence(extras.source != nullptr,
                  "snapshot carries an arrival source but none was supplied",
                  "snapshot carries no arrival source but one was supplied")) {
    if constexpr (Ar::kLoading)
      extras.source->load_state(ar);
    else
      extras.source->save_state(ar);
  }
  ar.end_section();
}

}  // namespace

std::string Snapshot::save(const RtdsSystem& sys,
                           const SnapshotExtras& extras) {
  Writer w(kFormatVersion, Access::config_hash_of(sys));
  io_snapshot(w, as_mutable(sys), extras);
  return w.finish();
}

void Snapshot::save_file(const RtdsSystem& sys, const std::string& path,
                         const SnapshotExtras& extras) {
  Writer w(kFormatVersion, Access::config_hash_of(sys));
  io_snapshot(w, as_mutable(sys), extras);
  w.write_file(path);
}

void Snapshot::load(std::string bytes, RtdsSystem& sys,
                    const SnapshotExtras& extras) {
  Reader r(std::move(bytes), "snapshot");
  r.require_config_hash(Access::config_hash_of(sys));
  io_snapshot(r, sys, extras);
}

void Snapshot::load_file(const std::string& path, RtdsSystem& sys,
                         const SnapshotExtras& extras) {
  Reader r = Reader::from_file(path, "snapshot");
  r.require_config_hash(Access::config_hash_of(sys));
  io_snapshot(r, sys, extras);
}

}  // namespace rtds::snap
