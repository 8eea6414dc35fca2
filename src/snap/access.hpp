// The one friend of every checkpointable class (DESIGN.md §14).
//
// Serialization lives OUTSIDE the classes it captures: each state-bearing
// class declares `friend struct snap::Access;` and nothing else — no
// serialize() members, no format knowledge leaking into core/, routing/ or
// sched/. Access reads and restores the private fields directly, so the
// capture is exact (tombstoned routing slots, RNG stream words, Welford
// accumulator bits) where a public-API reconstruction would be lossy or
// slow.
//
// Each type has ONE `template <class Ar> io(Ar&, T&)` body, instantiated
// for Writer and Reader (snap/io.hpp): the same statements write the
// fields on save and read them back on load, so the two directions cannot
// drift apart. Saving passes the live object through as_mutable(); Writer
// only reads what it is handed. Work that only loading needs — rebuilding
// Pcs::member_index_, Dag::finalize, re-posting pending events as closures
// — sits behind `if constexpr (Ar::kLoading)`.
//
// Philosophy (PhoenixOS-style): capture *live* state, recompute *derived*
// state. Anything a fresh construction rebuilds deterministically from the
// config — sphere membership, CSR adjacency, interned metric ids — is not
// in the format; loading starts from a freshly constructed object and
// overwrites only what the run mutated.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "snap/io.hpp"

namespace rtds {
template <typename Key>
class FlatSet;
class Rng;
class RunningStat;
class RoutingTable;
class Pcs;
class Topology;
class SchedulingPlan;
class LocalScheduler;
class Simulator;
class RtdsNode;
class RtdsSystem;
struct SystemConfig;
struct RunMetrics;
struct MessageStats;
struct Job;
struct TrialMapping;
struct JobDecision;
struct EventRecord;
}  // namespace rtds
namespace rtds::fault {
class FaultState;
class InvariantChecker;
class DedupWindow;
}  // namespace rtds::fault
namespace rtds::load {
class QuantileSketch;
class SteadyStateCollector;
}  // namespace rtds::load
namespace rtds::obs {
class MetricsBuffer;
}  // namespace rtds::obs

namespace rtds::snap {

/// Shared-pointer interner: bulky immutable payloads (Jobs, TrialMappings)
/// are shared across node queues, active initiations and pending-event
/// records. The first encounter serializes the body and takes the next
/// dense index; later encounters serialize the index only — so the restored
/// object graph shares exactly like the live one, and a job referenced from
/// five places costs one body. One interner spans one snapshot (or one
/// arrival source's state), on both sides.
struct Interner {
  std::vector<std::shared_ptr<const Job>> jobs;
  std::vector<std::shared_ptr<const TrialMapping>> mappings;
};

/// Saving hands the live object to the same io() body that loading fills;
/// Writer only reads the fields it is given.
template <class T>
T& as_mutable(const T& x) {
  return const_cast<T&>(x);
}

struct Access {
  // --- util ---
  template <class Ar> static void io(Ar& ar, Rng& rng);
  template <class Ar> static void io(Ar& ar, RunningStat& s);
  template <class Ar> static void io(Ar& ar, FlatSet<std::uint64_t>& s);

  // --- routing (struct-of-arrays on the wire) ---
  template <class Ar> static void io(Ar& ar, RoutingTable& t);
  template <class Ar> static void io(Ar& ar, Pcs& p);

  // --- fault ---
  template <class Ar> static void io(Ar& ar, fault::FaultState& f);
  template <class Ar> static void io(Ar& ar, fault::InvariantChecker& c);
  template <class Ar> static void io(Ar& ar, fault::DedupWindow& d);

  // --- sched ---
  template <class Ar> static void io(Ar& ar, SchedulingPlan& p);
  template <class Ar> static void io(Ar& ar, LocalScheduler& s);  ///< plan only

  // --- load/ (open-system measurement) ---
  template <class Ar> static void io(Ar& ar, load::QuantileSketch& q);
  template <class Ar> static void io(Ar& ar, load::SteadyStateCollector& c);

  // --- obs (serialized by metric NAME: interned ids are process order) ---
  template <class Ar> static void io(Ar& ar, obs::MetricsBuffer& m);

  // --- core value types ---
  template <class Ar> static void io(Ar& ar, MessageStats& s);
  template <class Ar> static void io(Ar& ar, RunMetrics& m);
  template <class Ar> static void io(Ar& ar, JobDecision& d);

  // --- shared immutable payloads (interned; may be null) ---
  template <class Ar>
  static void io(Ar& ar, Interner& in, std::shared_ptr<const Job>& job);
  template <class Ar>
  static void io(Ar& ar, Interner& in,
                 std::shared_ptr<const TrialMapping>& mapping);

  // --- node / system (snapshot.cpp) ---
  template <class Ar> static void io(Ar& ar, Interner& in, RtdsNode& n);
  /// The sections clock, tables, fault, checker, nodes, transport, system
  /// and events. The "events" section holds every pending event's (time,
  /// record) pair in execution order; loading re-posts each through the
  /// original private entry point (repost) and re-annotates it, so a
  /// resumed run can itself be snapshotted again.
  template <class Ar> static void io(Ar& ar, Interner& in, RtdsSystem& sys);

  // --- identity hashes ---
  /// Content hash of the static graph (sites, powers, links).
  static std::uint64_t topology_hash(const Topology& topo);
  /// Hash of everything a snapshot's validity depends on: the topology
  /// plus the determinism-relevant SystemConfig fields.
  static std::uint64_t config_hash(const Topology& topo,
                                   const SystemConfig& cfg);
  /// config_hash over a live system's own topology and config.
  static std::uint64_t config_hash_of(const RtdsSystem& sys);

 private:
  /// Schedules a decoded pending event through the entry point its
  /// original closure called.
  static void repost(Reader& r, RtdsSystem& sys, double at, EventRecord rec);
};

}  // namespace rtds::snap
