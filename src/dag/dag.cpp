#include "dag/dag.hpp"

#include <algorithm>
#include <queue>

namespace rtds {

TaskId Dag::add_task(Time cost, std::string label) {
  RTDS_REQUIRE_MSG(!finalized_, "cannot mutate a finalized Dag");
  RTDS_REQUIRE_MSG(cost > 0.0, "task cost must be positive, got " << cost);
  costs_.push_back(cost);
  if (!label.empty()) {
    labels_.resize(costs_.size());
    labels_.back() = std::move(label);
  }
  return static_cast<TaskId>(costs_.size() - 1);
}

void Dag::add_arc(TaskId from, TaskId to, double data_volume) {
  RTDS_REQUIRE_MSG(!finalized_, "cannot mutate a finalized Dag");
  RTDS_REQUIRE(from < costs_.size());
  RTDS_REQUIRE(to < costs_.size());
  RTDS_REQUIRE_MSG(from != to, "self-loop on task " << from);
  RTDS_REQUIRE(data_volume >= 0.0);
  for (const auto& a : arcs_)
    if (a.from == from && a.to == to) return;  // idempotent
  arcs_.push_back(Arc{from, to, data_volume});
}

void Dag::finalize() {
  RTDS_REQUIRE_MSG(!finalized_, "Dag already finalized");
  const auto n = costs_.size();

  // CSR adjacency: count degrees, prefix-sum offsets, scatter, sort rows.
  pred_off_.assign(n + 1, 0);
  succ_off_.assign(n + 1, 0);
  for (const auto& a : arcs_) {
    ++succ_off_[a.from + 1];
    ++pred_off_[a.to + 1];
  }
  for (std::size_t t = 1; t <= n; ++t) {
    pred_off_[t] += pred_off_[t - 1];
    succ_off_[t] += succ_off_[t - 1];
  }
  pred_data_.resize(arcs_.size());
  succ_data_.resize(arcs_.size());
  {
    std::vector<std::uint32_t> pc(pred_off_.begin(), pred_off_.end() - 1);
    std::vector<std::uint32_t> sc(succ_off_.begin(), succ_off_.end() - 1);
    for (const auto& a : arcs_) {
      succ_data_[sc[a.from]++] = a.to;
      pred_data_[pc[a.to]++] = a.from;
    }
  }
  for (TaskId t = 0; t < n; ++t) {
    std::sort(pred_data_.begin() + pred_off_[t],
              pred_data_.begin() + pred_off_[t + 1]);
    std::sort(succ_data_.begin() + succ_off_[t],
              succ_data_.begin() + succ_off_[t + 1]);
  }

  // Kahn's algorithm with a min-heap for a stable (id-ordered) topo order.
  std::vector<std::size_t> indegree(n);
  for (TaskId t = 0; t < n; ++t) indegree[t] = pred_off_[t + 1] - pred_off_[t];
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (TaskId t = 0; t < n; ++t)
    if (indegree[t] == 0) ready.push(t);
  topo_.clear();
  topo_.reserve(n);
  finalized_ = true;  // successors() below requires it
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    topo_.push_back(t);
    for (TaskId s : successors(t))
      if (--indegree[s] == 0) ready.push(s);
  }
  if (topo_.size() != n) {
    finalized_ = false;
    RTDS_REQUIRE_MSG(false, "precedence graph contains a cycle");
  }

  sources_.clear();
  sinks_.clear();
  for (TaskId t = 0; t < n; ++t) {
    if (pred_off_[t] == pred_off_[t + 1]) sources_.push_back(t);
    if (succ_off_[t] == succ_off_[t + 1]) sinks_.push_back(t);
  }

  bottom_levels_.assign(n, 0.0);
  critical_path_ = 0.0;
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const TaskId t = *it;
    Time best = 0.0;
    for (TaskId s : successors(t)) best = std::max(best, bottom_levels_[s]);
    bottom_levels_[t] = costs_[t] + best;
    critical_path_ = std::max(critical_path_, bottom_levels_[t]);
  }
  // The graph is frozen from here on, and a workload holds thousands of
  // jobs for a whole run: return the add-only build's growth slack.
  costs_.shrink_to_fit();
  arcs_.shrink_to_fit();
  sources_.shrink_to_fit();
  sinks_.shrink_to_fit();
}

const std::string& Dag::label(TaskId t) const {
  static const std::string kNone;
  RTDS_REQUIRE(t < costs_.size());
  return t < labels_.size() ? labels_[t] : kNone;
}

std::span<const TaskId> Dag::predecessors(TaskId t) const {
  require_finalized();
  RTDS_REQUIRE(t < costs_.size());
  return {pred_data_.data() + pred_off_[t],
          pred_data_.data() + pred_off_[t + 1]};
}

std::span<const TaskId> Dag::successors(TaskId t) const {
  require_finalized();
  RTDS_REQUIRE(t < costs_.size());
  return {succ_data_.data() + succ_off_[t],
          succ_data_.data() + succ_off_[t + 1]};
}

double Dag::data_volume(TaskId from, TaskId to) const {
  for (const auto& a : arcs_)
    if (a.from == from && a.to == to) return a.data_volume;
  RTDS_REQUIRE_MSG(false, "no arc " << from << " -> " << to);
  return 0.0;
}

const std::vector<TaskId>& Dag::sources() const {
  require_finalized();
  return sources_;
}

const std::vector<TaskId>& Dag::sinks() const {
  require_finalized();
  return sinks_;
}

const std::vector<TaskId>& Dag::topological_order() const {
  require_finalized();
  return topo_;
}

Time Dag::total_work() const {
  Time w = 0.0;
  for (const Time c : costs_) w += c;
  return w;
}

bool Dag::reaches(TaskId ancestor, TaskId descendant) const {
  require_finalized();
  RTDS_REQUIRE(ancestor < costs_.size());
  RTDS_REQUIRE(descendant < costs_.size());
  if (ancestor == descendant) return false;
  std::vector<bool> seen(costs_.size(), false);
  std::vector<TaskId> stack{ancestor};
  seen[ancestor] = true;
  while (!stack.empty()) {
    const TaskId t = stack.back();
    stack.pop_back();
    for (TaskId s : successors(t)) {
      if (s == descendant) return true;
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
  return false;
}

}  // namespace rtds
