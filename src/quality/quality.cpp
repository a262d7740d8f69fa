#include "quality/quality.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <thread>
#include <utility>

#include "fault/fault.hpp"
#include "serve/backend.hpp"
#include "state/sections.hpp"
#include "state/snapshot.hpp"
#include "stat/battery.hpp"
#include "stat/crush.hpp"
#include "stat/special.hpp"
#include "stat/tests_common.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace hprng::quality {

namespace {

// Fixed scrub policy (docs/QUALITY.md §1).

/// Background-mode pacing: the fraction of wall time spent scrubbing
/// (docs/QUALITY.md §5).
constexpr double kDutyCycle = 0.05;

/// Consecutive smoke-anomalous passes before escalating to tier 1.
constexpr int kEscalateAfter = 3;

/// A smoke statistic below this p-value flags its pass as anomalous.
constexpr double kSmokePLo = 1e-4;

/// A battery whose KS-over-p p-value falls below this (or that fails more
/// than a quarter of its statistics) is an anomaly.
constexpr double kBatteryKsLo = 1e-4;

/// Anomaly-history records retained (and checkpointed); oldest dropped.
constexpr std::size_t kHistoryLimit = 64;

void bump(obs::Counter* c, double v = 1.0) {
  if (c != nullptr) c->add(v);
}

/// prng::Generator over a leased serve stream — what feeds the tier-1/2
/// batteries. Buffered in fixed chunks; a failed fill (rejected scrub
/// request, injected fault) latches !ok() and yields zeros, so the battery finishes
/// mechanically and the caller discards the verdict as a feed failure.
/// The partial buffer is deliberately thrown away with the generator at
/// every pass boundary — fetched words are accounted, so resuming from a
/// checkpoint reproduces the exact draw sequence an uninterrupted scrubber
/// would have made (docs/QUALITY.md §6).
class SessionGenerator final : public prng::Generator {
 public:
  SessionGenerator(serve::Session& session, std::string label)
      : session_(session), label_(std::move(label)), buf_(kChunk) {}

  // The battery consumes the family's canonical u32 quality stream: the
  // high 32 bits of every served u64 word, low half discarded — exactly
  // CpuWalkPrng::next_u32() and core::make_quality_generator. The walk
  // families only claim battery quality for that stream (the raw vertex-
  // id low word is structured); splitting both halves out of each word
  // would score a stream the repo never certifies.
  std::uint32_t next_u32() override {
    return static_cast<std::uint32_t>(next_word() >> 32);
  }

  std::uint64_t next_u64() override {
    const std::uint64_t hi = next_word() >> 32;
    return (hi << 32) | (next_word() >> 32);
  }

  [[nodiscard]] std::string name() const override { return label_; }

  [[nodiscard]] std::unique_ptr<prng::Generator> clone_reseeded(
      std::uint64_t) const override {
    HPRNG_CHECK(false, "SessionGenerator: a leased stream cannot reseed");
    return nullptr;
  }

  /// Words actually drawn through the service (the scrub-cursor advance).
  [[nodiscard]] std::uint64_t words_fetched() const { return fetched_; }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  static constexpr std::size_t kChunk = 1024;

  std::uint64_t next_word() {
    if (pos_ == filled_) {
      if (ok_ &&
          session_.fill(std::span<std::uint64_t>(buf_)) == serve::Status::kOk) {
        fetched_ += buf_.size();
      } else {
        ok_ = false;
        std::fill(buf_.begin(), buf_.end(), std::uint64_t{0});
      }
      filled_ = buf_.size();
      pos_ = 0;
    }
    return buf_[pos_++];
  }

  serve::Session& session_;
  std::string label_;
  std::vector<std::uint64_t> buf_;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  std::uint64_t fetched_ = 0;
  bool ok_ = true;
};

/// Tier-0 smoke statistic 1: byte-frequency chi-square over the pass draw.
double byte_frequency_p(std::span<const std::uint64_t> words) {
  std::vector<double> observed(256, 0.0);
  for (const std::uint64_t w : words) {
    for (int k = 0; k < 8; ++k) {
      observed[(w >> (8 * k)) & 0xFF] += 1.0;
    }
  }
  const double expected_each =
      static_cast<double>(words.size()) * 8.0 / 256.0;
  const std::vector<double> expected(256, expected_each);
  return stat::chi_square_test("byte-freq", observed, expected).p;
}

/// Tier-0 smoke statistic 2: lag-1 serial correlation of the uniform
/// doubles; z = r * sqrt(n-1) is asymptotically standard normal.
double serial_correlation_p(std::span<const std::uint64_t> words) {
  const std::size_t n = words.size();
  if (n < 3) return 1.0;
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = static_cast<double>(words[i] >> 11) * 0x1.0p-53;
  }
  double mean = 0.0;
  for (const double v : u) mean += v;
  mean /= static_cast<double>(n);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = u[i] - mean;
    den += d * d;
    if (i + 1 < n) num += d * (u[i + 1] - mean);
  }
  if (den <= 0.0) return 0.0;  // constant stream: maximally suspicious
  const double r = num / den;
  const double z = r * std::sqrt(static_cast<double>(n - 1));
  return stat::normal_two_sided_p(z);
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

void register_catalogue(obs::MetricsRegistry& registry) {
  registry.counter("hprng.quality.passes");
  registry.counter("hprng.quality.words");
  registry.counter("hprng.quality.anomalies");
  registry.counter("hprng.quality.escalations");
  registry.counter("hprng.quality.feed_failures");
  registry.counter("hprng.quality.batteries");
  registry.gauge("hprng.quality.tier");
  registry.gauge("hprng.quality.last_ks_d");
  registry.gauge("hprng.quality.last_ks_p");
  registry.gauge("hprng.quality.pass_ratio");
  registry.gauge("hprng.quality.anomalous");
  registry.gauge("hprng.quality.streams");
}

double QualityReport::pass_ratio() const {
  if (last_total == 0) return 1.0;
  return static_cast<double>(last_passed) / static_cast<double>(last_total);
}

std::string QualityReport::to_json() const {
  std::string out = "{";
  out += "\"backend\":\"";
  json_escape_into(out, backend);
  out += util::strf("\",\"resting_tier\":%d,\"tier\":%d", resting_tier, tier);
  out += util::strf(",\"passes\":%llu,\"words\":%llu",
                    static_cast<unsigned long long>(passes),
                    static_cast<unsigned long long>(words));
  out += util::strf(",\"anomalies\":%llu,\"escalations\":%llu",
                    static_cast<unsigned long long>(anomalies),
                    static_cast<unsigned long long>(escalations));
  out += util::strf(",\"feed_failures\":%llu,\"batteries\":%llu",
                    static_cast<unsigned long long>(feed_failures),
                    static_cast<unsigned long long>(batteries));
  out += util::strf(",\"anomalous\":%s", anomalous ? "true" : "false");
  out += ",\"last_battery\":\"";
  json_escape_into(out, last_battery);
  out += util::strf("\",\"last_passed\":%d,\"last_total\":%d", last_passed,
                    last_total);
  out += util::strf(",\"last_ks_d\":%.17g,\"last_ks_p\":%.17g", last_ks_d,
                    last_ks_p);
  out += util::strf(",\"last_ks_valid\":%s,\"pass_ratio\":%.17g",
                    last_ks_valid ? "true" : "false", pass_ratio());
  out += ",\"streams\":[";
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const StreamReport& s = streams[i];
    if (i != 0) out += ',';
    out += util::strf(
        "{\"lease_id\":%llu,\"words\":%llu,\"freq_p\":%.17g,"
        "\"corr_p\":%.17g,\"adopted\":%s}",
        static_cast<unsigned long long>(s.lease_id),
        static_cast<unsigned long long>(s.words), s.freq_p, s.corr_p,
        s.adopted ? "true" : "false");
  }
  out += "],\"history\":[";
  for (std::size_t i = 0; i < history.size(); ++i) {
    const AnomalyRecord& a = history[i];
    if (i != 0) out += ',';
    out += util::strf("{\"pass\":%llu,\"tier\":%d,\"what\":\"",
                      static_cast<unsigned long long>(a.pass), a.tier);
    json_escape_into(out, a.what);
    out += "\"}";
  }
  out += "]}";
  return out;
}

QualityScrubber::QualityScrubber(serve::RngService& service,
                                 obs::MetricsRegistry* metrics)
    : service_(service),
      opts_(service.options().scrub),
      metrics_(metrics),
      injector_(service.options().injector) {
  HPRNG_CHECK(opts_.streams >= 1, "QualityScrubber: streams >= 1");
  HPRNG_CHECK(opts_.pass_words >= 16, "QualityScrubber: pass_words >= 16");
  HPRNG_CHECK(opts_.tier >= 0 && opts_.tier <= 2,
              "QualityScrubber: tier in [0, 2]");
  HPRNG_CHECK(opts_.battery_scale > 0.0,
              "QualityScrubber: battery_scale > 0");
  tier_ = opts_.tier;

  const std::vector<std::string> names = serve::known_backends();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == service_.options().backend) {
      backend_index_ = static_cast<int>(i);
      break;
    }
  }
  HPRNG_CHECK(backend_index_ >= 0,
              "QualityScrubber: service backend not in known_backends()");

  if (metrics_ != nullptr) {
    register_catalogue(*metrics_);
    ins_.passes = &metrics_->counter("hprng.quality.passes");
    ins_.words = &metrics_->counter("hprng.quality.words");
    ins_.anomalies = &metrics_->counter("hprng.quality.anomalies");
    ins_.escalations = &metrics_->counter("hprng.quality.escalations");
    ins_.feed_failures = &metrics_->counter("hprng.quality.feed_failures");
    ins_.batteries = &metrics_->counter("hprng.quality.batteries");
    ins_.tier = &metrics_->gauge("hprng.quality.tier");
    ins_.last_ks_d = &metrics_->gauge("hprng.quality.last_ks_d");
    ins_.last_ks_p = &metrics_->gauge("hprng.quality.last_ks_p");
    ins_.pass_ratio = &metrics_->gauge("hprng.quality.pass_ratio");
    ins_.anomalous = &metrics_->gauge("hprng.quality.anomalous");
    ins_.streams = &metrics_->gauge("hprng.quality.streams");
  }

  if (!try_restore()) open_fresh_streams();
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    publish_instruments();
  }

  serve::RngService::CheckpointHook hook;
  hook.prepare = [this] { pass_mu_.lock(); };
  hook.save = [this](state::SnapshotWriter& w) { save_state(w); };
  hook.release = [this] { pass_mu_.unlock(); };
  service_.set_checkpoint_hook(std::move(hook));
}

QualityScrubber::~QualityScrubber() {
  stop();
  service_.set_checkpoint_hook({});
}

void QualityScrubber::open_fresh_streams() {
  streams_.resize(static_cast<std::size_t>(opts_.streams));
  for (StreamSlot& slot : streams_) {
    slot.session = service_.open_session();
    slot.lease_id = slot.session.lease().id;
  }
}

bool QualityScrubber::try_restore() {
  const std::vector<std::string> payloads =
      service_.aux_sections(state::kTagQual);
  if (payloads.empty()) return false;
  const state::Section sec{state::kTagQual, 1, payloads.front()};
  state::SectionReader r(sec);

  const std::string backend = r.get_str();
  const auto backend_index = static_cast<int>(r.get_u32());
  const auto resting = static_cast<int>(r.get_u32());
  const auto tier = static_cast<int>(r.get_u32());
  const std::uint64_t passes = r.get_u64();
  const std::uint64_t words = r.get_u64();
  const std::uint64_t anomalies = r.get_u64();
  const std::uint64_t escalations = r.get_u64();
  const std::uint64_t feed_failures = r.get_u64();
  const std::uint64_t batteries = r.get_u64();
  const bool anomalous = r.get_u32() != 0;
  const auto consecutive = static_cast<int>(r.get_u32());
  const std::string last_battery = r.get_str();
  const auto last_passed = static_cast<int>(r.get_u32());
  const auto last_total = static_cast<int>(r.get_u32());
  const double last_ks_d = r.get_f64();
  const double last_ks_p = r.get_f64();
  const bool last_ks_valid = r.get_u32() != 0;

  const std::uint64_t stream_count = r.get_u64();
  if (!r.ok() || backend != service_.options().backend ||
      backend_index != backend_index_ || stream_count == 0 ||
      stream_count > 4096 || tier < 0 || tier > 2) {
    return false;
  }

  std::vector<StreamSlot> slots(static_cast<std::size_t>(stream_count));
  for (StreamSlot& slot : slots) {
    slot.lease_id = r.get_u64();
    slot.words = r.get_u64();
    slot.freq_p = r.get_f64();
    slot.corr_p = r.get_f64();
  }
  const std::uint64_t history_count = r.get_u64();
  if (!r.ok() || history_count > kHistoryLimit + 4096) return false;
  std::vector<AnomalyRecord> history(
      static_cast<std::size_t>(history_count));
  for (AnomalyRecord& rec : history) {
    rec.pass = r.get_u64();
    rec.tier = static_cast<int>(r.get_u32());
    rec.what = r.get_str();
  }
  if (!r.ok()) return false;

  // Re-claim the scrub leases mid-stream. A lease another client adopted
  // first (or a pruned snapshot) degrades gracefully: that stream restarts
  // on a fresh lease with a zero cursor.
  for (StreamSlot& slot : slots) {
    std::optional<serve::Session> adopted =
        service_.adopt_session(slot.lease_id);
    if (adopted.has_value()) {
      slot.session = *std::move(adopted);
      slot.adopted = true;
    } else {
      slot.session = service_.open_session();
      slot.lease_id = slot.session.lease().id;
      slot.words = 0;
      slot.freq_p = 1.0;
      slot.corr_p = 1.0;
    }
  }

  std::lock_guard<std::mutex> lk(state_mu_);
  streams_ = std::move(slots);
  opts_.tier = resting;  // the snapshot's policy floor wins on resume
  tier_ = tier;
  passes_ = passes;
  words_ = words;
  anomalies_ = anomalies;
  escalations_ = escalations;
  feed_failures_ = feed_failures;
  batteries_ = batteries;
  anomalous_ = anomalous;
  consecutive_smoke_ = consecutive;
  last_battery_ = last_battery;
  last_passed_ = last_passed;
  last_total_ = last_total;
  last_ks_d_ = last_ks_d;
  last_ks_p_ = last_ks_p;
  last_ks_valid_ = last_ks_valid;
  history_ = std::move(history);
  return true;
}

void QualityScrubber::save_state(state::SnapshotWriter& w) const {
  std::lock_guard<std::mutex> lk(state_mu_);
  w.begin_section(state::kTagQual);
  w.put_str(service_.options().backend);
  w.put_u32(static_cast<std::uint32_t>(backend_index_));
  w.put_u32(static_cast<std::uint32_t>(opts_.tier));
  w.put_u32(static_cast<std::uint32_t>(tier_));
  w.put_u64(passes_);
  w.put_u64(words_);
  w.put_u64(anomalies_);
  w.put_u64(escalations_);
  w.put_u64(feed_failures_);
  w.put_u64(batteries_);
  w.put_u32(anomalous_ ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(consecutive_smoke_));
  w.put_str(last_battery_);
  w.put_u32(static_cast<std::uint32_t>(last_passed_));
  w.put_u32(static_cast<std::uint32_t>(last_total_));
  w.put_f64(last_ks_d_);
  w.put_f64(last_ks_p_);
  w.put_u32(last_ks_valid_ ? 1 : 0);
  w.put_u64(streams_.size());
  for (const StreamSlot& slot : streams_) {
    w.put_u64(slot.lease_id);
    w.put_u64(slot.words);
    w.put_f64(slot.freq_p);
    w.put_f64(slot.corr_p);
  }
  w.put_u64(history_.size());
  for (const AnomalyRecord& rec : history_) {
    w.put_u64(rec.pass);
    w.put_u32(static_cast<std::uint32_t>(rec.tier));
    w.put_str(rec.what);
  }
}

QualityScrubber::SmokeResult QualityScrubber::scrub_stream(std::size_t i) {
  SmokeResult out;
  if (injector_ != nullptr) {
    // kQualityFeed: target = stream index. Each stream hits its target
    // exactly once per pass, so plan ordinals count passes.
    const fault::Outcome o = injector_->on_event(
        fault::Site::kQualityFeed, static_cast<int>(i));
    if (o.delay()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(o.delay_seconds));
    }
    if (o.fail()) return out;  // pass draws nothing from this stream
  }
  std::vector<std::uint64_t> buf(opts_.pass_words);
  if (streams_[i].session.fill(buf) != serve::Status::kOk) return out;
  out.fed = true;
  out.freq_p = byte_frequency_p(buf);
  out.corr_p = serial_correlation_p(buf);
  return out;
}

void QualityScrubber::run_pass() {
  std::lock_guard<std::mutex> pass_lk(pass_mu_);
  std::vector<SmokeResult> results(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    results[i] = scrub_stream(i);
  }
  finalize_pass(results);
}

void QualityScrubber::run_passes(int n) {
  for (int i = 0; i < n; ++i) run_pass();
}

void QualityScrubber::finalize_pass(const std::vector<SmokeResult>& results) {
  const auto push_history = [this](AnomalyRecord rec) {
    history_.push_back(std::move(rec));
    while (history_.size() > kHistoryLimit) {
      history_.erase(history_.begin());
    }
  };

  int battery_tier = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ++passes_;
    bump(ins_.passes);
    bool smoke_anomalous = false;
    std::string smoke_what;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      StreamSlot& slot = streams_[i];
      if (!results[i].fed) {
        ++feed_failures_;
        bump(ins_.feed_failures);
        continue;
      }
      slot.words += opts_.pass_words;
      words_ += opts_.pass_words;
      bump(ins_.words, static_cast<double>(opts_.pass_words));
      slot.freq_p = results[i].freq_p;
      slot.corr_p = results[i].corr_p;
      if (slot.freq_p < kSmokePLo || slot.corr_p < kSmokePLo) {
        smoke_anomalous = true;
        if (smoke_what.empty()) {
          smoke_what = util::strf(
              "smoke:stream=%zu freq_p=%.3g corr_p=%.3g", i, slot.freq_p,
              slot.corr_p);
        }
      }
    }
    consecutive_smoke_ = smoke_anomalous ? consecutive_smoke_ + 1 : 0;
    if (consecutive_smoke_ >= kEscalateAfter && tier_ < 1) {
      tier_ = 1;
      ++escalations_;
      bump(ins_.escalations);
      push_history({passes_, 0, smoke_what});
    }
    battery_tier = tier_;
  }

  // The battery draws through the service, so it runs outside state_mu_
  // (pass_mu_ already serialises passes against each other and against
  // checkpoints).
  if (battery_tier >= 1) {
    std::string what;
    const bool anomaly = run_battery_tier(battery_tier, &what);
    std::lock_guard<std::mutex> lk(state_mu_);
    if (anomaly) {
      ++anomalies_;
      bump(ins_.anomalies);
      push_history({passes_, battery_tier, what});
      if (battery_tier == 1) {
        // Tier-1 anomaly: escalate — next pass runs the Crush tier.
        tier_ = 2;
        ++escalations_;
        bump(ins_.escalations);
      } else {
        anomalous_ = true;  // Crush-tier confirmation; latched
      }
    } else if (!what.empty()) {
      // Feed failure mid-battery: no verdict either way, stay escalated.
    } else {
      tier_ = opts_.tier;  // clean battery: de-escalate to the floor
      consecutive_smoke_ = 0;
    }
  }

  if (injector_ != nullptr) {
    // kQualityVerdict: target = backend registry index, one event per
    // pass — a kFail outcome forces a confirmed anomaly on exactly this
    // backend's scrubber (the chaos-test dial; docs/FAULTS.md).
    const fault::Outcome o = injector_->on_event(
        fault::Site::kQualityVerdict, backend_index_);
    if (o.fail()) {
      std::lock_guard<std::mutex> lk(state_mu_);
      ++anomalies_;
      bump(ins_.anomalies);
      if (tier_ < 2) {
        tier_ = 2;
        ++escalations_;
        bump(ins_.escalations);
      }
      anomalous_ = true;
      push_history({passes_, 2, "fault:verdict"});
    }
  }

  std::lock_guard<std::mutex> lk(state_mu_);
  publish_instruments();
}

bool QualityScrubber::run_battery_tier(int tier, std::string* what) {
  stat::CrushTier params =
      tier >= 2 ? stat::crush_tier() : stat::small_crush_tier();
  params.multiplier *= opts_.battery_scale;
  params.name = tier >= 2 ? "scrub-crush" : "scrub-smallcrush";

  SessionGenerator gen(streams_[0].session,
                       "scrub:" + service_.options().backend);
  const stat::BatteryReport rep =
      stat::run_battery(params.name, stat::crush_battery(params), gen);

  std::lock_guard<std::mutex> lk(state_mu_);
  ++batteries_;
  bump(ins_.batteries);
  streams_[0].words += gen.words_fetched();
  words_ += gen.words_fetched();
  bump(ins_.words, static_cast<double>(gen.words_fetched()));
  if (!gen.ok()) {
    ++feed_failures_;
    bump(ins_.feed_failures);
    *what = "battery:feed-failure";
    return false;  // no verdict — the draw itself was lost
  }
  last_battery_ = rep.battery;
  last_passed_ = rep.num_passed();
  last_total_ = rep.num_total();
  last_ks_d_ = rep.ks_d;
  last_ks_p_ = rep.ks_p;
  last_ks_valid_ = rep.ks_valid;
  const int failed = rep.num_total() - rep.num_passed();
  const bool anomaly = (rep.ks_valid && rep.ks_p < kBatteryKsLo) ||
                       failed * 4 > rep.num_total();
  if (anomaly) {
    *what = util::strf("battery:%s %d/%d ks_p=%.3g", rep.battery.c_str(),
                       rep.num_passed(), rep.num_total(), rep.ks_p);
  }
  return anomaly;
}

void QualityScrubber::escalate(int tier) {
  HPRNG_CHECK(tier >= 1 && tier <= 2, "QualityScrubber::escalate: tier 1|2");
  std::lock_guard<std::mutex> lk(state_mu_);
  if (tier > tier_) {
    tier_ = tier;
    ++escalations_;
    bump(ins_.escalations);
    publish_instruments();
  }
}

void QualityScrubber::acknowledge() {
  std::lock_guard<std::mutex> lk(state_mu_);
  anomalous_ = false;
  publish_instruments();
}

void QualityScrubber::publish_instruments() {
  if (ins_.tier == nullptr) return;
  ins_.tier->set(static_cast<double>(tier_));
  ins_.last_ks_d->set(last_ks_d_);
  ins_.last_ks_p->set(last_ks_p_);
  ins_.pass_ratio->set(
      last_total_ == 0
          ? 1.0
          : static_cast<double>(last_passed_) /
                static_cast<double>(last_total_));
  ins_.anomalous->set(anomalous_ ? 1.0 : 0.0);
  ins_.streams->set(static_cast<double>(streams_.size()));
}

QualityReport QualityScrubber::report() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  QualityReport out;
  out.backend = service_.options().backend;
  out.resting_tier = opts_.tier;
  out.tier = tier_;
  out.passes = passes_;
  out.words = words_;
  out.anomalies = anomalies_;
  out.escalations = escalations_;
  out.feed_failures = feed_failures_;
  out.batteries = batteries_;
  out.anomalous = anomalous_;
  out.last_battery = last_battery_;
  out.last_passed = last_passed_;
  out.last_total = last_total_;
  out.last_ks_d = last_ks_d_;
  out.last_ks_p = last_ks_p_;
  out.last_ks_valid = last_ks_valid_;
  out.streams.reserve(streams_.size());
  for (const StreamSlot& slot : streams_) {
    out.streams.push_back(
        {slot.lease_id, slot.words, slot.freq_p, slot.corr_p, slot.adopted});
  }
  out.history = history_;
  return out;
}

void QualityScrubber::start() {
  if (thread_.joinable()) return;
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] {
    while (!stopping_.load(std::memory_order_acquire)) {
      const auto t0 = std::chrono::steady_clock::now();
      run_pass();
      const double pass_seconds =
          std::chrono::duration_cast<std::chrono::duration<double>>(
              std::chrono::steady_clock::now() - t0)
              .count();
      // Duty-cycle pacing: a pass costing t gets t*(1-d)/d of sleep, so
      // scrubbing consumes ~d of one core and foreground fills keep the
      // rest (docs/QUALITY.md §5).
      const double sleep_seconds = std::clamp(
          pass_seconds * (1.0 - kDutyCycle) / kDutyCycle, 0.001, 2.0);
      std::unique_lock<std::mutex> lk(sleep_mu_);
      sleep_cv_.wait_for(
          lk, std::chrono::duration<double>(sleep_seconds),
          [this] { return stopping_.load(std::memory_order_acquire); });
    }
  });
}

void QualityScrubber::stop() {
  stopping_.store(true, std::memory_order_release);
  sleep_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  thread_ = std::thread();
}

}  // namespace hprng::quality
