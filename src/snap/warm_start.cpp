#include "snap/warm_start.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "routing/pcs.hpp"
#include "routing/routing_table.hpp"
#include "snap/access.hpp"
#include "snap/io.hpp"

namespace rtds::snap {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_hits{0};
std::atomic<std::size_t> g_misses{0};

std::mutex& cache_mutex() {
  static std::mutex m;
  return m;
}

/// (topology content hash, radius h) -> serialized tables + spheres.
std::map<std::pair<std::uint64_t, std::size_t>, std::string>& cache() {
  static std::map<std::pair<std::uint64_t, std::size_t>, std::string> c;
  return c;
}

/// The entry's one section: the table count, every table, every sphere.
template <class Ar>
void io_bring_up(Ar& ar, std::vector<RoutingTable>& tables,
                 std::vector<Pcs>& spheres) {
  ar.begin_section("bring_up");
  const std::size_t n = length(ar, tables, 4 * 3 + 8);
  if constexpr (Ar::kLoading) spheres.assign(n, Pcs{});
  for (RoutingTable& t : tables) Access::io(ar, t);
  for (Pcs& p : spheres) Access::io(ar, p);
  ar.end_section();
}

}  // namespace

void set_warm_start_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool warm_start_enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

bool warm_start_acquire(const Topology& topo, std::size_t h,
                        std::vector<RoutingTable>& tables,
                        std::vector<Pcs>& spheres) {
  const auto key = std::make_pair(Access::topology_hash(topo), h);
  std::string bytes;
  {
    std::lock_guard<std::mutex> lock(cache_mutex());
    const auto it = cache().find(key);
    if (it == cache().end()) {
      g_misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    bytes = it->second;  // copy out; decode outside the lock
  }
  g_hits.fetch_add(1, std::memory_order_relaxed);

  Reader r(std::move(bytes), "warm-start cache entry");
  r.require_config_hash(key.first);
  io_bring_up(r, tables, spheres);
  return true;
}

void warm_start_store(const Topology& topo, std::size_t h,
                      const std::vector<RoutingTable>& tables,
                      const std::vector<Pcs>& spheres) {
  const auto key = std::make_pair(Access::topology_hash(topo), h);
  Writer w(kFormatVersion, key.first);
  io_bring_up(w, as_mutable(tables), as_mutable(spheres));
  std::string bytes = w.finish();

  std::lock_guard<std::mutex> lock(cache_mutex());
  cache().emplace(key, std::move(bytes));  // first builder wins on a race
}

void warm_start_clear() {
  std::lock_guard<std::mutex> lock(cache_mutex());
  cache().clear();
}

std::size_t warm_start_hits() {
  return g_hits.load(std::memory_order_relaxed);
}
std::size_t warm_start_misses() {
  return g_misses.load(std::memory_order_relaxed);
}

}  // namespace rtds::snap
