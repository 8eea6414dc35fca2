// End-to-end benchmark: the e2ebench binary.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --golden FILE [--print-golden]
//
// Repeats one workload (workloads.hpp) until S seconds have passed, checks
// every repetition, and prints a human-readable table followed by one JSON
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured with tracing off (host times
// are medians over the repetitions). With --trace 1, untraced and traced
// repetitions alternate: the traced ones give the per-layer numbers, and
// the pair gives the tracing overhead and an agreement check.
//
// An operation is a submitted job. A job fails when it was guaranteed and
// missed its deadline; every job of a repetition that fails a self-check
// fails too, and any failure makes the exit status non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/seed.hpp"
#include "policy/policy.hpp"
#include "workloads.hpp"

namespace {

using namespace e2ebench;
using Clock = std::chrono::steady_clock;

/// The seed whose outputs are pinned in the golden file.
constexpr std::uint64_t kDefaultSeed = 42;
/// Fewest untraced repetitions a --trace 0 run medians over.
constexpr std::size_t kMinReps = 3;
/// Share of --seconds spent on whole repetitions; a --trace 0 run spends
/// the rest on set-up-only repetitions, up to kSetupSamples set-ups in all,
/// since a set-up of a few milliseconds is too noisy to median over a
/// handful of samples.
constexpr double kRunShare = 0.9;
constexpr std::size_t kSetupSamples = 30;

struct Metric {
  std::string name, unit, better;
  /// Per-layer: the end-to-end metric and workload it should move.
  /// End-to-end: what it measures, in host or simulated time.
  std::string note;
};

const std::vector<Metric>& end_to_end() {
  static const std::vector<Metric> m = {
      {"setup_s", "s", "lower", "host: generation, construction, start()"},
      {"run_s", "s", "lower", "host: first event through finish()"},
      {"jobs_per_s", "1/s", "higher", "host: jobs decided per setup+run s"},
      {"peak_rss_mb", "MB", "lower", "host: peak resident memory"},
      {"delivered_ratio", "ratio", "higher", "sim: guaranteed and completed"},
      {"msgs_per_job", "count", "lower", "sim: link messages per job"},
      {"decision_latency_p99", "sim_t", "lower", "sim: arrival to decision"},
      {"sojourn_p99", "sim_t", "lower", "sim: arrival to completion"},
  };
  return m;
}

const std::vector<Metric>& per_layer() {
  static const std::vector<Metric> m = [] {
    const std::string setup_wide = "setup_s on closed_wide";
    const std::string build =
        "setup_s on closed_wide; flat on open_knee";
    const std::string repair = "run_s on chaos_repair; zero elsewhere";
    const std::string chaos = "run_s, delivered_ratio on chaos_repair";
    const std::string queue = "run_s on closed_wide against open_knee";
    const std::string msgs =
        "msgs_per_job everywhere; run_s on policy_compare";
    const std::string admit =
        "run_s on open_knee; flat on chaos_repair, policy_compare";
    const std::string protocol =
        "delivered_ratio, msgs_per_job on open_knee";
    const std::string harden = "delivered_ratio, msgs_per_job on chaos_repair";
    const std::string knee = "run_s on open_knee";
    const std::string load = "sojourn_p99, run_s on open_knee";
    const std::string policies = "run_s, msgs_per_job on policy_compare";
    std::vector<Metric> v = {
        {"net.topology_gen_s", "s", "lower", setup_wide},
        {"core.jobs_gen_s", "s", "lower", setup_wide},
        {"core.bring_up_s", "s", "lower", setup_wide},
        {"core.start_s", "s", "lower", setup_wide},
        {"core.finish_s", "s", "lower", "run_s everywhere"},
        {"routing.apsp_build_s", "s", "lower", build},
        {"routing.pcs_build_s", "s", "lower", build},
        {"routing.ball_mean", "sites", "lower", build},
        {"routing.repair_s", "s", "lower", repair},
        {"routing.repairs", "count", "lower", repair},
        {"routing.repair_dirty", "count", "lower", repair},
        {"routing.repair_line_updates", "count", "lower", repair},
        {"fault.repair_check_s", "s", "lower", chaos},
        {"fault.events", "count", "lower", chaos},
        {"net.dropped", "count", "lower", chaos},
        {"net.duplicated", "count", "lower", chaos},
        {"sim.events", "count", "lower", queue},
        {"sim.ns_per_event", "ns", "lower", queue},
        {"sim.pending_max", "events", "lower", queue},
        {"sim.pending_mean", "events", "lower", queue},
        {"net.sends", "count", "lower", msgs},
        {"net.link_messages", "count", "lower", msgs},
    };
    for (const std::string& kind : message_kinds())
      v.push_back({"net.sends." + kind, "count", "lower", msgs});
    const std::vector<Metric> rest = {
        {"sched.admit_calls", "count", "lower", admit},
        {"sched.admit_rejects", "count", "lower", admit},
        {"sched.exact_nodes", "count", "lower", admit},
        {"sched.exact_fastpath", "count", "higher", admit},
        {"sched.admit_probe_us", "us", "lower", admit},
        {"core.rounds", "count", "lower", protocol},
        {"core.remote_per_round", "ratio", "higher", protocol},
        {"core.reject.no_candidates", "count", "lower", protocol},
        {"core.reject.gated", "count", "lower", protocol},
        {"core.reject.mapper_case_i", "count", "lower", protocol},
        {"core.retransmits", "count", "lower", harden},
        {"core.dedup_dropped", "count", "lower", harden},
        {"core.timeouts", "count", "lower", harden},
        {"mapper.case_stretch", "count", "higher", knee},
        {"mapper.case_laxity", "count", "lower", knee},
        {"mapper.windows_rejected", "count", "lower", knee},
        {"mapper.probe_us", "us", "lower", knee},
        {"matching.failed", "count", "lower",
         "delivered_ratio on open_knee"},
        {"load.next_s", "s", "lower", load},
        {"load.shed", "count", "lower", load},
        {"load.backlog_max", "jobs", "lower", load},
        {"snap.saves", "count", "lower", knee},
        {"snap.save_s", "s", "lower", knee},
        {"snap.bytes", "bytes", "lower", knee},
        {"snap.load_s", "s", "lower", knee},
        {"core.rtds.run_s", "s", "lower", policies},
        {"core.rtds.link_messages", "count", "lower", policies},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    for (const std::string& family : families()) {
      if (family == "rtds") continue;
      const std::string base = "baseline." + family;
      v.push_back({base + ".run_s", "s", "lower", policies});
      v.push_back({base + ".link_messages", "count", "lower", policies});
    }
    v.push_back({"trace.overhead", "ratio", "lower", "none (tracing cost)"});
    v.push_back({"trace.residual_s", "s", "lower",
                 "run_s not attributed to any layer"});
    return v;
  }();
  return m;
}

/// Exact work counters pinned per workload at the default seed.
std::vector<std::string> pinned_counters() {
  std::vector<std::string> v = {"sim.events", "sched.admit_calls",
                                "core.rounds", "routing.repairs"};
  for (const std::string& kind : message_kinds())
    v.push_back("net.sends." + kind);
  return v;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank 99th percentile.
double p99(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t rank = (99 * v.size() + 99) / 100;  // ceil(0.99 n)
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Golden entries of one workload: key -> value. Lines read
/// "<workload> <key> <value>"; '#' starts a comment.
std::map<std::string, std::string> read_golden(const std::string& path,
                                               const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, key, value;
    if (ls >> w >> key >> value && w == workload) out[key] = value;
  }
  return out;
}

struct Args {
  std::string workload, golden;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool print_golden = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-golden") {
      a.print_golden = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--golden") a.golden = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = std::stoi(value) != 0;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (a.golden.empty()) throw std::runtime_error("--golden is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

/// The result line's operation counts and every problem found.
struct Verdict {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& why, std::uint64_t jobs) {
    problems.push_back(why);
    failed = std::min(attempted, failed + jobs);
  }
};

/// Every repetition a run measured.
struct Reps {
  std::vector<Rep> untraced, traced;
  std::vector<double> setup_s;  ///< untraced repetitions and set-up-only ones
};

/// Repeats the workload for --seconds: whole repetitions (alternating
/// untraced and traced with --trace 1) for kRunShare of the time, then, for
/// --trace 0, set-up-only repetitions. Every repetition must reproduce the
/// first one's RunMetrics byte for byte, traced or not.
Reps measure(const Workload& w, const Args& args, Verdict& verdict) {
  Reps reps;
  const auto start = Clock::now();
  const auto elapsed = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  for (std::size_t i = 0;; ++i) {
    const bool enough = args.trace
                            ? !reps.untraced.empty() && !reps.traced.empty()
                            : reps.untraced.size() >= kMinReps;
    if (enough && elapsed() >= kRunShare * args.seconds) break;
    const bool trace = args.trace && i % 2 == 1;
    Rep rep;
    try {
      rep = w.run(args.seed, trace ? Mode::kTrace : Mode::kRun);
    } catch (const std::exception& e) {
      rep.failure = std::string("exception: ") + e.what();
    }
    const Rep* first = reps.untraced.empty() ? nullptr : &reps.untraced[0];
    if (rep.failure.empty() && first != nullptr && rep.jsonl != first->jsonl)
      rep.failure = trace ? "traced run differs from the untraced run"
                          : "repetition differs from the first";
    const std::uint64_t jobs =
        rep.submitted ? rep.submitted : (first ? first->submitted : 1);
    verdict.attempted += jobs;
    if (!rep.failure.empty()) {
      verdict.fail(std::string(w.name) + ": " + rep.failure, jobs);
      return reps;  // a broken program is not worth timing further
    }
    verdict.failed += rep.deadline_misses;
    if (!trace) reps.setup_s.push_back(rep.setup_s);
    (trace ? reps.traced : reps.untraced).push_back(std::move(rep));
  }
  while (!args.trace && reps.setup_s.size() < kSetupSamples &&
         elapsed() < args.seconds) {
    try {
      reps.setup_s.push_back(w.run(args.seed, Mode::kSetup).setup_s);
    } catch (const std::exception& e) {
      verdict.fail(std::string(w.name) + ": set-up: " + e.what(), 0);
      break;
    }
  }
  return reps;
}

using Results = std::vector<std::pair<const Metric*, double>>;

/// The end-to-end metrics: host times are medians, the (sim) ones come
/// from the first repetition (every repetition reproduced it).
Results end_to_end_results(const Workload& w, const Reps& reps) {
  std::vector<double> run;
  for (const Rep& r : reps.untraced) run.push_back(r.run_s);
  const Rep& r = reps.untraced.front();
  const double setup_s = median(reps.setup_s), run_s = median(run);
  const double jobs = static_cast<double>(r.submitted);
  const std::map<std::string, double> value = {
      {"setup_s", setup_s},
      {"run_s", run_s},
      {"jobs_per_s", ratio(jobs, setup_s + run_s)},
      {"peak_rss_mb", peak_rss_mb()},
      {"delivered_ratio", ratio(static_cast<double>(r.delivered), jobs)},
      {"msgs_per_job", ratio(static_cast<double>(r.link_messages), jobs)},
      {"decision_latency_p99", p99(r.decision_latency)},
      {"sojourn_p99", p99(r.sojourn)},
  };
  std::cout << w.name << ": " << reps.untraced.size() << " repetitions of "
            << r.submitted << " jobs; setup_s is the median of "
            << reps.setup_s.size() << " set-ups, run_s of " << run.size()
            << " runs\n";
  Results out;
  for (const Metric& m : end_to_end()) {
    out.emplace_back(&m, value.at(m.name));
    std::printf("  %-22s %14s %-6s %s\n", m.name.c_str(),
                num(out.back().second).c_str(), m.unit.c_str(),
                m.note.c_str());
  }
  return out;
}

/// The per-layer metrics: medians over the traced repetitions, whose exact
/// counters must agree, plus the tracing overhead against the untraced ones.
Results layer_results(const Workload& w, const Reps& reps, Verdict& verdict) {
  Layers L;
  for (const Metric& m : per_layer()) {
    std::vector<double> v;
    for (const Rep& r : reps.traced) {
      const auto it = r.layers.find(m.name);
      v.push_back(it == r.layers.end() ? 0.0 : it->second);
    }
    L[m.name] = median(v);
  }
  const std::uint64_t jobs = reps.traced.front().submitted;
  for (const std::string& c : pinned_counters())
    for (const Rep& r : reps.traced)
      if (r.layers.count(c) && r.layers.at(c) != L[c])
        verdict.fail(std::string(w.name) + ": counter " + c +
                         " differs between traced repetitions",
                     jobs);
  for (const char* name : w.dominant)
    if (L[name] == 0.0)
      verdict.fail(std::string(w.name) + ": dominant layer metric " + name +
                       " reads zero",
                   jobs);

  std::vector<double> plain, with;
  for (const Rep& r : reps.untraced) plain.push_back(r.run_s);
  for (const Rep& r : reps.traced) with.push_back(r.run_s);
  const double run_s = median(plain), traced_run_s = median(with);
  L["sim.ns_per_event"] = 1e9 * ratio(run_s, L["sim.events"]);
  L["trace.overhead"] = ratio(traced_run_s, run_s);

  std::cout << w.name << " per layer: medians of " << reps.traced.size()
            << " traced repetitions (" << reps.untraced.size()
            << " untraced); traced run_s " << num(traced_run_s)
            << " s, unattributed " << num(L["trace.residual_s"])
            << " s, tracing overhead " << num(L["trace.overhead"]) << "\n";
  Results out;
  for (const Metric& m : per_layer()) {
    out.emplace_back(&m, L[m.name]);
    std::printf("  %-30s %14s %-6s %s\n", m.name.c_str(),
                num(L[m.name]).c_str(), m.unit.c_str(), m.note.c_str());
  }
  return out;
}

/// At the default seed, compares `value` with the golden entry `key`;
/// with --print-golden, prints the entry instead.
void check_golden(const Workload& w, const Args& args,
                  const std::map<std::string, std::string>& golden,
                  const std::string& key, const std::string& value,
                  std::uint64_t jobs, Verdict& verdict) {
  if (args.print_golden) {
    std::cout << "golden " << w.name << " " << key << " " << value << "\n";
  } else if (args.seed == kDefaultSeed) {
    const auto it = golden.find(key);
    if (it == golden.end())
      verdict.fail(std::string(w.name) + ": no golden " + key, jobs);
    else if (it->second != value)
      verdict.fail(std::string(w.name) + ": " + key + " " + value +
                       " != golden " + it->second,
                   jobs);
  }
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& cand : workloads())
    if (args.workload == cand.name) w = &cand;
  if (w == nullptr) throw std::runtime_error("unknown workload " + args.workload);
  const auto golden = read_golden(args.golden, w->name);

  Verdict verdict;
  const Reps reps = measure(*w, args, verdict);
  Results results;
  if (!reps.untraced.empty()) {
    const Rep& first = reps.untraced.front();
    check_golden(*w, args, golden, "digest",
                 hex(rtds::exp::fnv1a64(first.jsonl)),
                 verdict.attempted - verdict.failed, verdict);
    if (!args.trace) results = end_to_end_results(*w, reps);
  }
  if (!reps.traced.empty()) {
    results = layer_results(*w, reps, verdict);
    for (const auto& [metric, value] : results)
      for (const std::string& c : pinned_counters())
        if (metric->name == c)
          check_golden(*w, args, golden, c, num(value),
                       reps.traced.front().submitted, verdict);
  }

  for (const std::string& p : verdict.problems)
    std::cout << "FAILED " << p << "\n";
  const bool correct = verdict.problems.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << verdict.attempted
       << ", \"failed\": " << verdict.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", results[i].second);
    json << (i ? ", " : "") << "\"" << results[i].first->name
         << "\": {\"value\": " << value << ", \"unit\": \""
         << results[i].first->unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    rtds::policy::register_builtin_policies();
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
}
