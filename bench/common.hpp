#pragma once

// Shared helpers for the per-table / per-figure reproduction harnesses.
// Every harness prints (a) what the paper reports, (b) what we measured,
// and (c) a shape verdict, so EXPERIMENTS.md can be regenerated by reading
// bench output alone.

// Observability wiring: every harness that calls export_metrics_json /
// export_trace_json accepts --metrics-json=<path> and --trace-json=<path>
// and dumps its MetricsRegistry snapshot / Chrome trace there, making the
// BENCH_*.json trajectories reproducible from CI (docs/OBSERVABILITY.md).

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/backend.hpp"
#include "serve/options.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace hprng::bench {

/// Minimal flat-JSON writer for the BENCH_*.json perf artifacts the CI
/// perf-smoke job uploads and sanity-checks (docs/PERFORMANCE.md). Fields
/// keep insertion order; non-finite numbers are emitted as null so a
/// NaN/inf regression fails the checker instead of producing unparseable
/// JSON.
class BenchJson {
 public:
  void add(const std::string& key, double value) {
    fields_.emplace_back(key, std::isfinite(value)
                                  ? util::strf("%.17g", value)
                                  : std::string("null"));
  }

  void add(const std::string& key, const std::string& value) {
    std::string escaped = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c);
    }
    escaped.push_back('"');
    fields_.emplace_back(key, escaped);
  }

  /// Pre-encoded JSON (arrays, nested objects) — caller's responsibility.
  void add_raw(const std::string& key, const std::string& raw) {
    fields_.emplace_back(key, raw);
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", fields_[i].first.c_str(),
                   fields_[i].second.c_str(),
                   i + 1 < fields_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Write the perf summary to the --bench-json=<path> target, if the flag
/// was given. Returns true when a file was written.
inline bool export_bench_json(const util::Cli& cli, const BenchJson& json) {
  const std::string path = cli.get_string("bench-json", "");
  if (path.empty()) return false;
  if (!json.write(path)) {
    std::fprintf(stderr, "bench-json: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("bench-json: wrote %s\n", path.c_str());
  return true;
}

inline void banner(const char* experiment, const char* paper_claim,
                   const char* scaling_note) {
  std::printf("==============================================================="
              "=========\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("scale: %s\n", scaling_note);
  std::printf("==============================================================="
              "=========\n");
}

inline void verdict(bool holds, const char* shape) {
  std::printf("\nshape check [%s]: %s\n", holds ? "OK" : "MISMATCH", shape);
}

/// Milliseconds with stable formatting for the series tables.
inline std::string ms(double seconds) {
  return util::strf("%.3f", seconds * 1e3);
}

/// Lower-case a display name into a metric-name segment for the
/// `hprng.bench.*` instruments that host-only harnesses emit (generator
/// names like "glibc-rand" or "M.Twister" become "glibc_rand",
/// "m_twister"): alphanumerics are kept, every other run of characters
/// collapses into one '_'.
inline std::string metric_slug(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

/// Write the registry snapshot to the --metrics-json=<path> target, if the
/// flag was given. Returns true when a file was written.
inline bool export_metrics_json(const util::Cli& cli,
                                const obs::MetricsRegistry& registry) {
  const std::string path = cli.get_string("metrics-json", "");
  if (path.empty()) return false;
  if (!registry.write_json(path)) {
    std::fprintf(stderr, "metrics-json: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("metrics-json: wrote %s\n", path.c_str());
  return true;
}

/// Write the trace to the --trace-json=<path> target, if the flag was
/// given. Returns true when a file was written.
inline bool export_trace_json(const util::Cli& cli,
                              const obs::TraceWriter& trace) {
  const std::string path = cli.get_string("trace-json", "");
  if (path.empty()) return false;
  if (!trace.write_json(path)) {
    std::fprintf(stderr, "trace-json: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("trace-json: wrote %s (load in chrome://tracing or "
              "ui.perfetto.dev)\n", path.c_str());
  return true;
}

/// Name on stderr every flag the binary was given but never read. Call it
/// after the binary's last flag read; false means the binary must exit 2,
/// so a misspelled flag cannot silently run the default shape.
inline bool reject_unread_flags(const util::Cli& cli) {
  const std::vector<std::string> unread = cli.unread();
  for (const std::string& key : unread) {
    std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
  }
  return unread.empty();
}

/// The --backend names the serve registry accepts (docs/BACKENDS.md §1),
/// '|'-separated, so help and error text cannot drift from the registry.
inline std::string backend_values() {
  std::string out;
  for (const std::string& name : serve::known_backends()) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

/// Read the service-shape flags the serving binaries share into `opts`:
/// --backend --shards --slots --workers --capacity --coalesce --walk-len
/// --seed --timeout-ms. The default --slots gives the shards room for
/// `lease_demand` leases between them; a demand of 0 keeps opts' own slot
/// count. False, after printing why, on an unknown --backend.
inline bool read_service_shape(const util::Cli& cli,
                               std::uint64_t lease_demand,
                               serve::ServiceOptions* opts) {
  opts->backend = cli.get_string("backend", "hybrid");
  if (!serve::backend_known(opts->backend)) {
    std::fprintf(stderr, "unknown --backend=%s (one of: %s)\n",
                 opts->backend.c_str(), backend_values().c_str());
    return false;
  }
  opts->num_shards = static_cast<int>(cli.get_u64("shards", 4));
  const auto shards = static_cast<std::uint64_t>(opts->num_shards);
  opts->max_leases_per_shard = cli.get_u64(
      "slots", lease_demand == 0 ? opts->max_leases_per_shard
                                 : (lease_demand + shards - 1) / shards);
  opts->num_workers = static_cast<int>(cli.get_u64("workers", 4));
  opts->queue_capacity = cli.get_u64("capacity", 256);
  opts->max_coalesce = cli.get_u64("coalesce", 8);
  // The serving default (walk_len 8) trades battery quality for fill
  // throughput; the quality-certified configuration is 32 (Table III,
  // docs/QUALITY.md §3) — the scrub CI job passes --walk-len=32.
  opts->walk_len = static_cast<int>(
      cli.get_u64("walk-len", static_cast<std::uint64_t>(opts->walk_len)));
  opts->seed = cli.get_u64("seed", opts->seed);
  opts->default_timeout =
      std::chrono::milliseconds(cli.get_u64("timeout-ms", 30000));
  return true;
}

/// Parse --fault-plan (docs/FAULTS.md §3) into `injector`; without the
/// flag `injector` stays empty. False, after printing why, on a malformed
/// plan.
inline bool read_fault_plan(const util::Cli& cli,
                            std::optional<fault::Injector>* injector) {
  const std::string text = cli.get_string("fault-plan", "");
  if (text.empty()) return true;
  std::string error;
  std::optional<fault::FaultPlan> plan = fault::FaultPlan::parse(text, &error);
  if (!plan.has_value()) {
    std::fprintf(stderr, "bad --fault-plan=%s: %s (see docs/FAULTS.md)\n",
                 text.c_str(), error.c_str());
    return false;
  }
  injector->emplace(std::move(*plan));
  return true;
}

}  // namespace hprng::bench
