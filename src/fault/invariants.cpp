#include "fault/invariants.hpp"

#include <sstream>

#include "core/metrics.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "routing/routing_table.hpp"
#include "util/error.hpp"

namespace rtds::fault {

namespace {
bool g_check_enabled = false;
bool g_fatal = false;
}  // namespace

void set_check_invariants(bool on) { g_check_enabled = on; }
bool check_invariants_enabled() { return g_check_enabled; }
void set_invariants_fatal(bool on) { g_fatal = on; }
bool invariants_fatal() { return g_fatal; }

void InvariantChecker::violate(const std::string& what, Time now, SiteId site) {
  ++violations_;
  RTDS_COUNT("invariant.violations");
  if (auto* tr = obs::tracer())
    tr->instant("invariant", "violation", now, site);
  if (g_fatal)
    throw ContractViolation("invariant violated: " + what);
}

void InvariantChecker::on_event(Time now) {
  if (now < last_event_time_) {
    std::ostringstream os;
    os << "monotone-time: event at t=" << now << " after t="
       << last_event_time_;
    violate(os.str(), now, 0);
  }
  last_event_time_ = now;
}

void InvariantChecker::on_delivery(SiteId to, bool up, Time now) {
  if (!up) {
    std::ostringstream os;
    os << "delivery-liveness: message delivered to down site " << to
       << " at t=" << now;
    violate(os.str(), now, to);
  }
}

void InvariantChecker::on_decision(JobId job, Time now) {
  if (decided_.contains(job)) {
    std::ostringstream os;
    os << "at-most-one: second decision for job " << job << " at t=" << now;
    violate(os.str(), now, 0);
    return;
  }
  decided_.insert(job);
}

void InvariantChecker::on_send_seq(SiteId from, SiteId to, std::uint64_t seq,
                                   Time now) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
  std::uint64_t& last = last_seq_[key];
  if (seq <= last) {
    std::ostringstream os;
    os << "seq-monotone: site " << from << " stamped seq " << seq << " to "
       << to << " after seq " << last;
    violate(os.str(), now, from);
    return;
  }
  last = seq;
}

void InvariantChecker::on_repair(const std::vector<RoutingTable>& tables,
                                 const Topology& topo,
                                 const FaultState& faults, Time now) {
  RTDS_REQUIRE(tables.size() == topo.site_count());
  // One sequential sweep. Site s's lines ascend by destination, so each
  // neighbour's table is read through a forward-only cursor: the next
  // hop's line for `dest` is a merge step, not a binary search. Each
  // port carries its link's liveness and delay, resolved once per site
  // through the adjacency's link id.
  struct Port {
    SiteId site;
    bool live;
    Time delay;
    const RoutingTable* table;
    std::size_t cursor;
  };
  std::vector<Port> ports;
  for (SiteId s = 0; s < tables.size(); ++s) {
    const RoutingTable& table = tables[s];
    ports.clear();
    for (const Neighbor& nb : topo.neighbors(s))
      ports.push_back(Port{nb.site,
                           faults.site_up(s) && faults.site_up(nb.site) &&
                               faults.link_index_up(nb.link),
                           nb.delay, &tables[nb.site], 0});
    for (std::size_t slot = 0; slot < table.slot_count(); ++slot) {
      const RouteLine& line = table.line_at(slot);
      if (line.dist >= kInfiniteTime) continue;  // withdrawn tombstone
      const SiteId dest = table.dest_at(slot);
      if (dest == s) continue;  // trivial self route
      const SiteId nh = line.next_hop;
      Port* port = nullptr;
      for (Port& p : ports) {
        if (p.site == nh) {
          port = &p;
          break;
        }
      }
      if (port == nullptr) {
        std::ostringstream os;
        os << "repair-consistency: site " << s << " routes to " << dest
           << " via " << nh << ", which is not a neighbour";
        violate(os.str(), now, s);
        continue;
      }
      if (!port->live) {
        std::ostringstream os;
        os << "repair-consistency: site " << s << " routes to " << dest
           << " over dead link to " << nh;
        violate(os.str(), now, s);
        continue;
      }
      if (nh == dest) {
        if (!time_eq(line.dist, port->delay) || line.hops != 1) {
          std::ostringstream os;
          os << "repair-consistency: site " << s << " one-hop route to "
             << dest << " has dist=" << line.dist << " hops=" << line.hops
             << " but the link delay is " << port->delay;
          violate(os.str(), now, s);
        }
        continue;
      }
      // Hop-bounded routing weakens Bellman equality to an inequality:
      // the next hop's own line may use MORE hops (it has the full budget
      // again), so it is a lower bound — a route strictly below it is a
      // stale under-estimate the repair failed to re-converge.
      const RoutingTable& next = *port->table;
      std::size_t& at = port->cursor;
      while (at < next.slot_count() && next.dest_at(at) < dest) ++at;
      const RouteLine* via = at < next.slot_count() && next.dest_at(at) == dest
                                 ? &next.line_at(at)
                                 : nullptr;
      if (via == nullptr || via->dist >= kInfiniteTime) {
        std::ostringstream os;
        os << "repair-consistency: site " << s << " routes to " << dest
           << " via " << nh << " which has no route there";
        violate(os.str(), now, s);
        continue;
      }
      const Time bound = port->delay + via->dist;
      if (!time_ge(line.dist, bound)) {
        std::ostringstream os;
        os << "repair-consistency: site " << s << " -> " << dest << " via "
           << nh << " claims dist=" << line.dist
           << " below the next hop's lower bound " << bound;
        violate(os.str(), now, s);
      }
    }
  }
}

void InvariantChecker::on_queue_push(SiteId, Time) { ++queue_pushed_; }

void InvariantChecker::on_queue_remove(SiteId site, Time now) {
  if (queue_removed_ >= queue_pushed_) {
    std::ostringstream os;
    os << "shed-conservation: site " << site
       << " dequeued a job that was never enqueued";
    violate(os.str(), now, site);
    return;
  }
  ++queue_removed_;
}

void InvariantChecker::on_shed(SiteId, Time) { ++sheds_; }

void InvariantChecker::finish(const RunMetrics& metrics,
                              std::size_t locks_held, Time now) {
  const std::uint64_t decided =
      metrics.accepted_local + metrics.accepted_remote + metrics.rejected;
  if (decided != metrics.arrived || metrics.arrived != submitted_) {
    std::ostringstream os;
    os << "job-conservation: submitted=" << submitted_ << " arrived="
       << metrics.arrived << " decided=" << decided
       << " (accepted+rejected must equal submitted exactly)";
    violate(os.str(), now, 0);
  }
  if (locks_held != 0) {
    std::ostringstream os;
    os << "lock-conservation: " << locks_held
       << " PCS lock(s) still held after the run drained";
    violate(os.str(), now, 0);
  }
  if (queue_pushed_ != queue_removed_) {
    std::ostringstream os;
    os << "shed-conservation: " << queue_pushed_ << " jobs enqueued but "
       << queue_removed_ << " left the queue (queued + shed + admitted "
       << "must be conserved)";
    violate(os.str(), now, 0);
  }
  const auto it = metrics.reject_by_reason.find(
      static_cast<int>(RejectReason::kShed));
  const std::uint64_t metric_sheds =
      it == metrics.reject_by_reason.end() ? 0 : it->second;
  if (sheds_ != metric_sheds) {
    std::ostringstream os;
    os << "shed-conservation: " << sheds_ << " shed event(s) at the nodes "
       << "but metrics recorded " << metric_sheds << " kShed rejection(s)";
    violate(os.str(), now, 0);
  }
}

}  // namespace rtds::fault
