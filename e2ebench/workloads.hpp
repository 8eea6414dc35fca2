// The four benchmark workloads. Each one generates its inputs from a seed,
// hands them to the library's public entry points, and measures one
// repetition: host set-up and run time, the (sim) outcome, and — when
// traced — per-layer numbers taken from outside the program (timed calls
// into each module's public functions plus the obs::MetricsBuffer work
// counters the program already exports).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// Per-layer numbers of one traced repetition, keyed by metric name.
using Layers = std::map<std::string, double>;

/// What one repetition of a workload measured and checked.
struct Rep {
  double setup_s = 0.0;  ///< host: generation + construction + start()
  double run_s = 0.0;    ///< host: first event through finish()
  /// Jobs submitted, summed over every run; each gets exactly one decision.
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;  ///< guaranteed and fully completed
  std::uint64_t link_messages = 0;
  std::uint64_t deadline_misses = 0;
  std::vector<double> decision_latency;  ///< sim time, rtds runs only
  std::vector<double> sojourn;           ///< sim time, rtds runs only
  /// RunMetrics::to_jsonl of every run of the repetition, in run order.
  std::string jsonl;
  /// First failed self-check; empty when every check passed.
  std::string failure;
  /// Traced repetitions only.
  Layers layers;
};

enum class Mode {
  kSetup,  ///< set up only: measures setup_s and runs nothing
  kRun,    ///< set up and run with tracing off
  kTrace,  ///< set up and run traced: also fills Rep::layers
};

struct Workload {
  const char* name;
  Rep (*run)(std::uint64_t seed, Mode mode);
  /// Per-layer metrics this workload exists to exercise: a traced run that
  /// reads zero on any of them has lost its purpose and fails.
  std::vector<const char*> dominant;
};

const std::vector<Workload>& workloads();

/// The registered policy families policy_compare runs, in run order.
const std::vector<std::string>& families();

/// Message categories reported as net.sends.<name>, in category order.
const std::vector<std::string>& message_kinds();

}  // namespace e2ebench
