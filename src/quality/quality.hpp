#pragma once

// hprng::quality — continuous, in-service statistical quality scrubbing
// (docs/QUALITY.md).
//
// The paper validates its hybrid generator with DIEHARD / TestU01 run once,
// offline (PAPER.md §IV-B); a production service needs the same evidence
// *continuously*, and — per Shoverand and the GPU-RNG surveys — it needs it
// through the leased-substream path real traffic uses, because parallel
// substream schemes fail statistically in ways a single offline stream
// never shows. A QualityScrubber is that monitor: it leases real substreams
// from an RngService (same queue, same admission rule, same backend
// shards as client traffic) and scrubs them with a tiered battery stack:
//
//   tier 0 (smoke)  — every pass, per stream: byte-frequency chi-square +
//                     lag-1 serial correlation over a fresh pass_words
//                     draw. Cheap enough to run always.
//   tier 1 (small)  — the SmallCrush-equivalent 15-statistic battery
//                     (stat::crush_battery) drawn through stream 0's lease.
//                     Runs every pass when escalated (or when the resting
//                     tier is >= 1).
//   tier 2 (crush)  — the Crush-tier parameter set (4x samples), triggered
//                     by a tier-1 anomaly or escalate() on demand.
//
// Determinism is the design constraint, exactly as for fault injection:
// a quality verdict must be replayable or it is an unfalsifiable alarm.
// Per-stream smoke draws run in stream order on the scrub thread,
// batteries draw through stream 0, and the battery generator discards its
// partial buffer at every pass boundary — so the QualityReport after N
// run_pass() calls is byte-identical from run to run, and bit-exact
// across checkpoint/restore (the QUAL snapshot section carries cursors,
// tier and history; streams resume via lease adoption).
//
// Wiring: knobs ride on serve::ServiceOptions::scrub; gauges/counters are
// the `hprng.quality.*` catalogue (docs/OBSERVABILITY.md); snapshots get a
// QUAL section through RngService's checkpoint hook; the wire protocol
// exposes the report via the `quality` op (docs/NETWORK.md §3.8); chaos
// tests force verdicts with the quality_feed / quality_verdict fault sites
// (docs/FAULTS.md).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace hprng::state {
class SnapshotWriter;
}  // namespace hprng::state

namespace hprng::quality {

/// Pre-resolve the `hprng.quality.*` catalogue on a registry so snapshots
/// are complete (every documented instrument present at value zero) even
/// before — or entirely without — scrub traffic. The scrubber calls this;
/// docs_lint_test cross-checks it against docs/OBSERVABILITY.md.
void register_catalogue(obs::MetricsRegistry& registry);

/// One entry of the scrubber's bounded anomaly history. `pass` is the
/// 1-based scrub pass that raised it; `tier` is the tier of the evidence.
struct AnomalyRecord {
  std::uint64_t pass = 0;
  int tier = 0;
  std::string what;
};

/// Per-stream scrub state: which lease, how far the scrub cursor has
/// advanced, and the last pass's smoke p-values.
struct StreamReport {
  std::uint64_t lease_id = 0;
  std::uint64_t words = 0;   ///< u64 words drawn through this lease
  double freq_p = 1.0;       ///< byte-frequency chi-square p (last pass)
  double corr_p = 1.0;       ///< lag-1 serial-correlation p (last pass)
  bool adopted = false;      ///< restored mid-stream from a snapshot
};

/// Machine-readable scrub verdict (docs/QUALITY.md §4). Deterministic: a
/// pure function of (service seed, backend, ScrubberOptions, fault plan,
/// run_pass count) — never of wall time or worker interleaving.
struct QualityReport {
  std::string backend;
  int resting_tier = 0;      ///< configured floor (ScrubberOptions::tier)
  int tier = 0;              ///< current escalation tier
  std::uint64_t passes = 0;
  std::uint64_t words = 0;   ///< total u64 words scrubbed (all streams)
  std::uint64_t anomalies = 0;
  std::uint64_t escalations = 0;
  std::uint64_t feed_failures = 0;  ///< scrub draws lost (faults/overload)
  std::uint64_t batteries = 0;      ///< tier-1/2 battery runs
  bool anomalous = false;    ///< latched by a confirmed (tier-2) anomaly
  std::string last_battery;  ///< name of the last battery run ("" if none)
  int last_passed = 0;
  int last_total = 0;
  double last_ks_d = 0.0;    ///< KS-over-p of the last battery
  double last_ks_p = 0.0;
  bool last_ks_valid = false;
  std::vector<StreamReport> streams;
  std::vector<AnomalyRecord> history;

  /// Fraction of the last battery's statistics that passed (1.0 before
  /// any battery has run) — the `hprng.quality.pass_ratio` gauge.
  [[nodiscard]] double pass_ratio() const;

  /// Canonical flat-JSON image (stable field order, %.17g doubles), the
  /// `serve_load --quality-json` artifact. Byte-identical reports compare
  /// equal as strings — the determinism tests pin exactly that.
  [[nodiscard]] std::string to_json() const;
};

/// The scrubber. Construction leases its streams (or re-adopts them from a
/// restored service's QUAL section), registers the service checkpoint hook
/// and resolves the instrument catalogue; destruction detaches the hook
/// and returns the leases. The service must outlive the scrubber.
///
/// Two driving modes: run_pass()/run_passes() for deterministic synchronous
/// scrubbing (tests, serve_load's paced mode), or start()/stop() for the
/// production background thread with duty-cycle pacing (§5: after each
/// pass the thread sleeps pass_time * (1 - duty) / duty, so foreground
/// fills keep the machine).
class QualityScrubber {
 public:
  explicit QualityScrubber(serve::RngService& service,
                           obs::MetricsRegistry* metrics = nullptr);
  ~QualityScrubber();

  QualityScrubber(const QualityScrubber&) = delete;
  QualityScrubber& operator=(const QualityScrubber&) = delete;

  /// Run exactly one scrub pass: per-stream smoke draws in stream order,
  /// then the escalation decision and any tier-1/2 battery. Blocks while a
  /// checkpoint holds the pass fence.
  void run_pass();
  void run_passes(int n);

  /// On-demand escalation: raise the current tier to `tier` (1 or 2); the
  /// next pass runs that battery. A clean battery de-escalates back to the
  /// resting tier.
  void escalate(int tier);

  /// Reset the latched `anomalous` flag (operator acknowledgement). The
  /// anomaly history and counters are NOT cleared.
  void acknowledge();

  /// Background mode. Idempotent; stop() is implicit in the destructor.
  void start();
  void stop();

  /// Snapshot of the current verdict (thread-safe; never blocks on a
  /// running battery longer than the state merge).
  [[nodiscard]] QualityReport report() const;

  /// This backend's index in serve::known_backends() — the target of the
  /// quality_verdict fault site.
  [[nodiscard]] int backend_index() const { return backend_index_; }

 private:
  struct StreamSlot {
    serve::Session session;
    std::uint64_t lease_id = 0;
    std::uint64_t words = 0;
    double freq_p = 1.0;
    double corr_p = 1.0;
    bool adopted = false;
  };

  struct SmokeResult {
    bool fed = false;
    double freq_p = 1.0;
    double corr_p = 1.0;
  };

  struct Instruments {
    obs::Counter* passes = nullptr;
    obs::Counter* words = nullptr;
    obs::Counter* anomalies = nullptr;
    obs::Counter* escalations = nullptr;
    obs::Counter* feed_failures = nullptr;
    obs::Counter* batteries = nullptr;
    obs::Gauge* tier = nullptr;
    obs::Gauge* last_ks_d = nullptr;
    obs::Gauge* last_ks_p = nullptr;
    obs::Gauge* pass_ratio = nullptr;
    obs::Gauge* anomalous = nullptr;
    obs::Gauge* streams = nullptr;
  };

  /// Draw + smoke-test stream `i` (no shared mutation).
  [[nodiscard]] SmokeResult scrub_stream(std::size_t i);
  /// Merge results in stream order, decide escalation, run batteries and
  /// publish instruments. Single-threaded, under pass_mu_.
  void finalize_pass(const std::vector<SmokeResult>& results);
  /// Run the battery for `tier` through stream 0; true if it is anomalous.
  bool run_battery_tier(int tier, std::string* what);
  /// Checkpoint-hook body: append the QUAL section (state_mu_ taken).
  void save_state(state::SnapshotWriter& w) const;
  /// Re-attach to a restored service from its QUAL payload; false when no
  /// usable payload exists (construction then opens fresh streams).
  bool try_restore();
  void open_fresh_streams();
  void publish_instruments();  ///< state_mu_ held

  serve::RngService& service_;
  serve::ScrubberOptions opts_;
  obs::MetricsRegistry* metrics_;
  fault::Injector* injector_;
  int backend_index_ = -1;
  Instruments ins_;

  /// Pass fence: serialises run_pass() against itself and against the
  /// service checkpoint hook (prepare locks it, release unlocks — so a
  /// snapshot always lands on a pass boundary with committed cursors).
  std::mutex pass_mu_;

  /// Guards every field below (report() snapshots under it).
  mutable std::mutex state_mu_;
  std::vector<StreamSlot> streams_;
  int tier_ = 0;
  std::uint64_t passes_ = 0;
  std::uint64_t words_ = 0;
  std::uint64_t anomalies_ = 0;
  std::uint64_t escalations_ = 0;
  std::uint64_t feed_failures_ = 0;
  std::uint64_t batteries_ = 0;
  bool anomalous_ = false;
  int consecutive_smoke_ = 0;
  std::string last_battery_;
  int last_passed_ = 0;
  int last_total_ = 0;
  double last_ks_d_ = 0.0;
  double last_ks_p_ = 0.0;
  bool last_ks_valid_ = false;
  std::vector<AnomalyRecord> history_;

  std::atomic<bool> stopping_{false};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::thread thread_;
};

}  // namespace hprng::quality
