#include "sim/engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hprng::sim {

void Engine::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  ins_ = {};
  if (registry == nullptr) return;
  // Eager registration: the full hprng.sim scheduler schema exists in the
  // registry from attach time (snapshots are diffable even when a counter
  // never fires), and the hot-path hooks are plain pointer adds.
  ins_.ops_submitted = &registry->counter("hprng.sim.ops_submitted");
  ins_.ops_executed = &registry->counter("hprng.sim.ops_executed");
  ins_.queue_depth = &registry->gauge("hprng.sim.queue_depth");
  for (int r = 0; r < kNumResources; ++r) {
    const std::string suffix = metric_suffix(static_cast<Resource>(r));
    ins_.busy_seconds[r] =
        &registry->counter("hprng.sim.busy_seconds." + suffix);
    ins_.dep_stalls[r] = &registry->counter("hprng.sim.dep_stalls." + suffix);
    ins_.dep_stall_seconds[r] =
        &registry->counter("hprng.sim.dep_stall_seconds." + suffix);
  }
}

OpId Engine::submit(Resource resource, std::string label, double duration_s,
                    const std::vector<OpId>& deps, std::function<void()> fn) {
  std::function<double()> wrapped;
  if (fn) {
    wrapped = [fn = std::move(fn)]() -> double {
      fn();
      return 0.0;
    };
  }
  return submit_dynamic(resource, std::move(label), duration_s, deps,
                        std::move(wrapped));
}

OpId Engine::submit_dynamic(Resource resource, std::string label,
                            double base_duration_s,
                            const std::vector<OpId>& deps,
                            std::function<double()> fn) {
  HPRNG_CHECK(base_duration_s >= 0.0, "op duration must be non-negative");
  const OpId id = ops_.size();
  for (OpId d : deps) {
    HPRNG_CHECK(d < id, "dependencies must reference earlier ops");
  }
  ops_.push_back(Op{resource, std::move(label), base_duration_s, deps,
                    std::move(fn)});
  if (metrics_ != nullptr) ins_.ops_submitted->add(1);
  return id;
}

double Engine::run_all() {
  double batch_min = std::numeric_limits<double>::max();
  double batch_max = now_;
  if (metrics_ != nullptr) {
    ins_.queue_depth->set(static_cast<double>(ops_.size() - first_pending_));
  }
  for (std::size_t i = first_pending_; i < ops_.size(); ++i) {
    Op& op = ops_[i];
    // Note: deliberately NOT clamped to now_ — an op submitted after a
    // synchronize() may still start (in virtual time) while earlier-batch
    // ops on other resources are running, which is what keeps the
    // FEED/TRANSFER/GENERATE pipeline overlapped across run_all() calls.
    double ready = 0.0;
    for (OpId d : op.deps) {
      ready = std::max(ready, ops_[d].end);
    }
    const auto r = static_cast<std::size_t>(op.resource);
    const double free_at = resource_free_[r];
    op.start = std::max(ready, free_at);
    double extra = 0.0;
    if (op.fn) extra = op.fn();
    HPRNG_CHECK(extra >= 0.0, "dynamic op duration must be non-negative");
    op.end = op.start + op.duration + extra;
    resource_free_[r] = op.end;
    op.executed = true;
    timeline_.add({op.resource, op.label, op.start, op.end});
    // Release the functional payload and dependency list: only the recorded
    // times are read after execution (end_time/start_time), and holding the
    // closures would pin every captured resource for the engine's whole
    // lifetime.
    op.fn = nullptr;
    op.deps.clear();
    op.deps.shrink_to_fit();
    if (metrics_ != nullptr) {
      ins_.ops_executed->add(1);
      ins_.busy_seconds[r]->add(op.end - op.start);
      // The resource sat idle from free_at to ready waiting for a
      // dependency on another resource: a pipeline stall.
      if (ready > free_at) {
        ins_.dep_stalls[r]->add(1);
        ins_.dep_stall_seconds[r]->add(ready - free_at);
      }
    }
    batch_min = std::min(batch_min, op.start);
    batch_max = std::max(batch_max, op.end);
  }
  if (first_pending_ == ops_.size()) return 0.0;
  first_pending_ = ops_.size();
  now_ = batch_max;
  // The batch drained: the gauge reads 0 between run_all() calls.
  if (metrics_ != nullptr) ins_.queue_depth->set(0.0);
  return batch_max - batch_min;
}

double Engine::end_time(OpId id) const {
  HPRNG_CHECK(id < ops_.size() && ops_[id].executed,
              "end_time: op not yet executed");
  return ops_[id].end;
}

double Engine::start_time(OpId id) const {
  HPRNG_CHECK(id < ops_.size() && ops_[id].executed,
              "start_time: op not yet executed");
  return ops_[id].start;
}

}  // namespace hprng::sim
