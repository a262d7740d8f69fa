#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/timeline.hpp"

namespace hprng::sim {

/// Identifier of a submitted operation; also usable as a dependency handle.
using OpId = std::size_t;
inline constexpr OpId kNoOp = std::numeric_limits<OpId>::max();

/// Discrete-event executor over the four platform resources.
///
/// Operations are submitted with an explicit dependency list (ops submitted
/// earlier), a resource, and a duration in simulated seconds. run_all()
/// computes the schedule — FIFO per resource, respecting dependencies — and
/// executes each op's functional closure in submission order (submission
/// order is required to be a topological order, which the submit()
/// precondition enforces). The resulting Timeline carries the virtual-time
/// schedule; `makespan()` is the simulated completion time.
///
/// This is the substitution for real CUDA streams + PCIe DMA + SM dispatch:
/// the *algebra of overlap* (what the paper's Figures 4/5 measure) is
/// reproduced exactly, while every byte of data still moves for real.
class Engine {
 public:
  /// Submit an operation.
  /// @param deps ops that must complete first; each must be < the returned
  ///        id (submission order is the topological order).
  /// @param fn functional payload; may be empty for pure-delay ops.
  OpId submit(Resource resource, std::string label, double duration_s,
              const std::vector<OpId>& deps, std::function<void()> fn);

  /// Submit an operation whose simulated duration is data dependent: the
  /// payload returns the extra seconds to add to `base_duration_s` (e.g. a
  /// kernel whose per-thread work is only known after it ran).
  OpId submit_dynamic(Resource resource, std::string label,
                      double base_duration_s, const std::vector<OpId>& deps,
                      std::function<double()> fn);

  /// Execute everything submitted since the last run_all(). Returns the
  /// simulated makespan of this batch (max end - min start).
  double run_all();

  /// Measurement fence: advance every resource's free time to now(), so
  /// that work submitted after the fence cannot overlap (in virtual time)
  /// with anything submitted before it. Used at the start of every timed
  /// window — the machine is idle when the stopwatch starts.
  void fence() {
    for (double& r : resource_free_) r = now_;
  }

  /// One stage of chain(): `seconds` of simulated time on `resource`.
  struct Step {
    Resource resource;
    double seconds;
  };

  /// Charge a fenced dependency chain without recording it: fence(), then
  /// each step starts when the previous one ends. now() and the resource
  /// free times end exactly where run_all() leaves them for the same ops
  /// submitted after a fence(), but no op, timeline entry or instrument is
  /// recorded, so a caller charging one chain per request keeps the
  /// engine's storage flat. Returns the chain's simulated seconds.
  /// Requires nothing pending.
  double chain(std::initializer_list<Step> steps);

  /// Simulated end time of an op (valid after run_all()).
  [[nodiscard]] double end_time(OpId id) const;
  [[nodiscard]] double start_time(OpId id) const;

  /// Virtual clock: completion time of everything executed so far.
  [[nodiscard]] double now() const { return now_; }

  /// The virtual-time schedule recorded so far (one entry per executed op).
  [[nodiscard]] const Timeline& timeline() const { return timeline_; }

  /// Drop recorded timeline entries (op bookkeeping is unaffected); used by
  /// the figure harnesses to restrict rendering to a steady-state window.
  void clear_timeline() { timeline_.clear(); }

  /// Total number of ops ever submitted (next OpId).
  [[nodiscard]] OpId next_id() const { return ops_.size(); }

  /// Attach (or with nullptr, detach) a metrics registry. The engine then
  /// maintains the `hprng.sim.*` scheduler instruments — submitted/executed
  /// op counts, queue depth, per-resource busy seconds and dependency-stall
  /// counters (docs/OBSERVABILITY.md lists them all). Instruments are
  /// resolved once here, so the per-op hook cost is a null check and a few
  /// relaxed atomic adds; with no registry attached the hooks are dead
  /// branches.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  struct Op {
    Resource resource;
    std::string label;
    double duration;
    std::vector<OpId> deps;
    std::function<double()> fn;  // returns extra duration (0 for static ops)
    double start = 0.0;
    double end = 0.0;
    bool executed = false;
  };

  /// Scheduler instruments, resolved once in set_metrics().
  struct Instruments {
    obs::Counter* ops_submitted = nullptr;
    obs::Counter* ops_executed = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Counter* busy_seconds[kNumResources] = {};
    obs::Counter* dep_stalls[kNumResources] = {};
    obs::Counter* dep_stall_seconds[kNumResources] = {};
  };

  std::vector<Op> ops_;
  std::size_t first_pending_ = 0;
  double resource_free_[kNumResources] = {0, 0, 0, 0};
  double now_ = 0.0;
  Timeline timeline_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments ins_;
};

}  // namespace hprng::sim
