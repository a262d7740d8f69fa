#pragma once

// Chrome trace_event JSON export of the simulated schedule
// (docs/OBSERVABILITY.md documents the exact event schema). The output
// loads directly in chrome://tracing and https://ui.perfetto.dev.
//
// Layering note: obs sits between util and sim in the link order; this
// header consumes sim::Timeline strictly header-only (entries() and the
// Resource enum), so hprng_obs does not link against hprng_sim.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/timeline.hpp"

namespace hprng::obs {

/// Collects spans/counters in simulated time and serialises them as a
/// Chrome trace_event JSON object ({"traceEvents": [...]}).
///
/// Track model: each simulated machine is a trace *process* (pid); inside
/// a process, tids 1..4 are reserved for the four sim resources (Host,
/// PCIe H2D, PCIe D2H, Device) and add_track() hands out custom tids from
/// 10 upward. Timestamps are simulated seconds on the way in and
/// microseconds (the trace_event unit) in the output.
class TraceWriter {
 public:
  /// Construction registers process 1, named "hprng".
  TraceWriter();

  /// Register another simulated machine (e.g. the pure-device and hybrid
  /// runs of Figure 1 side by side); returns its pid.
  int add_process(const std::string& name);

  /// One complete ("X") event per timeline entry, on the entry's resource
  /// track of process `pid`.
  void add_timeline(const sim::Timeline& timeline, int pid = 1);

  /// Get-or-create a named custom track in `pid`; returns its tid.
  int add_track(int pid, const std::string& name);

  /// Complete event on an explicit track. Spans on one track must not
  /// overlap (trace viewers require proper nesting); for overlapping work
  /// such as pipelined rounds use add_async_span().
  void add_span(int pid, int tid, const std::string& name, double start_s,
                double end_s);

  /// Async ("b"/"e") event pair: the trace viewers render all spans of one
  /// `category` as a shared expandable group, overlap allowed. `id` must
  /// be unique per (category, overlapping-in-time) pair.
  void add_async_span(int pid, const std::string& category, std::uint64_t id,
                      const std::string& name, double start_s, double end_s);

  /// Counter ("C") sample: value of `name` at time `t_s`.
  void add_counter(const std::string& name, double t_s, double value,
                   int pid = 1);

  /// The complete trace as a JSON object string.
  [[nodiscard]] std::string to_json() const;
  /// to_json() straight to a file; false on I/O failure.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  struct TraceEvent {
    char ph;  // 'X', 'b', 'e', 'C'
    std::string name;
    std::string cat;
    int pid = 1;
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;       // 'X' only
    double value = 0.0;        // 'C' only
    std::uint64_t id = 0;      // 'b'/'e' only
  };

  void ensure_resource_tracks(int pid);

  std::vector<TraceEvent> events_;
  std::map<int, std::string> processes_;
  std::map<int, bool> resource_tracks_named_;
  std::map<std::pair<int, std::string>, int> custom_tracks_;
  std::map<int, int> next_custom_tid_;
  int next_pid_ = 1;
};

}  // namespace hprng::obs
