// perfbench driver: the repository benchmark (see perfbench/README.md).
//
// One process runs one named closed-loop workload against the hybrid RNG
// service — in-process Sessions, or NetServer/NetClient over a Unix
// socket — and reports end-to-end metrics from the driver's own samples
// (exact quantiles, never histogram buckets). Every delivered word is
// folded into a per-lease digest and checked after the timed window
// against an untimed replay through a fresh service (see replay()).
//
// With --trace 1 the run instead produces per-layer metrics: a short
// untraced window (the trace-overhead base), a traced window with metrics
// registries attached and driver spans kept in memory, and a ladder that
// replays the workload's observed pass shape at each layer — the SIMD walk
// kernel, HybridPrng::fill_leased, in-process Sessions and the wire.
//
// Usage:
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics. Exit status 1 on any failed operation or
// verification mismatch, 2 on bad arguments.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/hybrid_prng.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prng/seed_seq.hpp"
#include "prng/splitmix64.hpp"
#include "serve/service.hpp"
#include "sim/device.hpp"
#include "simd/simd.hpp"

namespace {

using namespace hprng;
using Clock = std::chrono::steady_clock;

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
Clock::duration span_of(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Exact sample quantile, linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// A field of /proc/self/status in MiB ("VmHWM", "VmRSS"). VmHWM is this
/// process image's own high-water mark; getrusage's ru_maxrss also carries
/// the peak of whatever process exec'd it.
double status_mb(const char* field) {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    const std::size_t n = std::strlen(field);
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, field, n) == 0 && line[n] == ':') {
        kib = std::strtod(line + n + 1, nullptr);
        break;
      }
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

// -- Workloads ---------------------------------------------------------------

/// The traffic of one workload. Load threads either hold their leases for
/// the whole window (leases_per_client > 0; one fill outstanding per lease)
/// or churn them (leases_per_client == 0: lease, fills_per_session fills,
/// release). Beside the load, a side thread on its own connection
/// checkpoints every kCkptPeriod; when the load opens no sessions itself,
/// the side thread also probes one session every kProbePeriod, as its own
/// tenant, so every workload measures sessions and checkpoints under load.
struct Shape {
  std::string name;
  bool wire = false;
  int clients = 2;
  int leases_per_client = 1;
  std::uint32_t words = 16;  ///< words per fill
  int fills_per_session = 0;
  int idle_leases = 0;       ///< held by the side connection from set-up on
  bool side = true;          ///< run the side thread

  [[nodiscard]] bool churn() const { return leases_per_client == 0; }
};

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> kShapes = {
      {"small_wire", true, 2, 1, 16, 0, 0, true},
      {"bulk_local", false, 2, 16, 8192, 0, 0, true},
      {"churn_ckpt_wire", true, 2, 0, 256, 4, 128, true},
  };
  return kShapes;
}

constexpr auto kCkptPeriod = std::chrono::milliseconds(250);
constexpr auto kProbePeriod = std::chrono::milliseconds(10);
constexpr int kProbeFills = 4;
constexpr std::uint32_t kProbeWords = 256;
constexpr std::uint64_t kProbeTenant = 1;

/// Set-ups per untraced run, before the window and again after it: each
/// time at least kMinSetups, then more until kSetupBudgetS has passed or
/// kMaxSetups ran. setup_s is the median of all of them.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 50;
constexpr double kSetupBudgetS = 0.5;

/// Throughput and fill and session latencies are taken per slice of the
/// window and reported as the median over whole slices, so a stall
/// elsewhere on the machine moves a few samples, not the figure.
constexpr double kSliceS = 1.0;
constexpr std::size_t kMinSliceSamples = 50;

serve::ServiceOptions service_options(std::uint64_t seed) {
  serve::ServiceOptions o;
  o.backend = "hybrid";
  o.walk_len = 32;
  // The pool path races in util::ThreadPool::parallel_for; serial kernels
  // keep every run clear of it.
  o.parallel_kernels = false;
  o.seed = seed;
  return o;
}

// -- Verification ------------------------------------------------------------

std::uint64_t fold(std::uint64_t digest, std::uint64_t word) {
  return prng::splitmix64_mix(digest ^ word);
}

/// The words one lease delivered, in delivery order. For the hybrid backend
/// a lease is a contiguous piece of its slot's stream, so the first word
/// locates the piece at replay and the count and digest check the rest.
struct Segment {
  std::uint64_t lease = 0;  ///< lease id: grant order, so pieces of one
                            ///< slot sort in stream order
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  std::uint64_t digest = 0;

  void add(std::span<const std::uint64_t> words) {
    if (words.empty()) return;
    if (count == 0) first = words[0];
    for (const std::uint64_t w : words) digest = fold(digest, w);
    count += words.size();
  }
};

class Ledger {
 public:
  void commit(const Segment& s) {
    if (s.count == 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    segments_.push_back(s);
  }
  std::vector<Segment> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(segments_);
  }

 private:
  std::mutex mu_;
  std::vector<Segment> segments_;
};

struct Verdict {
  std::uint64_t segments = 0;
  std::uint64_t words = 0;
  std::uint64_t mismatches = 0;
  std::string first_error;

  void fail(const std::string& why) {
    if (mismatches++ == 0) first_error = why;
  }
  void merge(const Verdict& v) {
    segments += v.segments;
    words += v.words;
    if (v.mismatches > 0 && mismatches == 0) first_error = v.first_error;
    mismatches += v.mismatches;
  }
};

/// Replays every recorded segment through a fresh service that holds every
/// slot. Each slot keeps one lookahead word — the next word its stream
/// would serve — so a segment's first word names its slot; the segment's
/// words are then drawn from that slot and compared by digest. A skipped,
/// repeated or foreign word leaves no slot to continue from, or breaks the
/// digest. Segments on distinct slots are drawn concurrently in waves.
Verdict replay(serve::ServiceOptions opts, std::vector<Segment> segs) {
  constexpr std::uint64_t kChunk = 1 << 16;
  // Streams depend only on the seed, walk length and pool shape; a wide
  // coalescing window lets one pass carry a whole shard's wave.
  opts.max_coalesce = 256;
  Verdict v;
  serve::RngService svc(opts);
  std::vector<serve::Session> slots;
  while (auto s = svc.try_open_session()) slots.push_back(*s);

  std::vector<std::uint64_t> next(slots.size());
  {
    std::vector<serve::Ticket> tickets;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      tickets.push_back(slots[i].fill_async({&next[i], 1}));
    }
    for (serve::Ticket& t : tickets) {
      if (t.wait() != serve::Status::kOk) v.fail("replay fill failed");
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> by_next;
  for (std::size_t i = 0; i < slots.size(); ++i) by_next.emplace(next[i], i);

  std::sort(segs.begin(), segs.end(),
            [](const Segment& a, const Segment& b) { return a.lease < b.lease; });

  struct Job {
    const Segment* seg = nullptr;
    std::size_t slot = 0;
    std::uint64_t digest = 0;
    std::uint64_t left = 0;  ///< words still to draw, new lookahead included
    std::vector<std::uint64_t> buf;
    serve::Ticket ticket;
  };
  std::size_t i = 0;
  while (i < segs.size()) {
    std::vector<Job> wave;
    while (i < segs.size()) {
      const auto it = by_next.find(segs[i].first);
      if (it == by_next.end()) {
        if (!wave.empty()) break;  // its slot may be busy in this wave
        v.fail("lease " + std::to_string(segs[i].lease) +
               ": first word continues no slot stream");
        ++i;
        continue;
      }
      Job job;
      job.seg = &segs[i];
      job.slot = it->second;
      job.digest = fold(0, segs[i].first);
      job.left = segs[i].count;
      by_next.erase(it);
      wave.push_back(std::move(job));
      ++i;
    }
    for (bool more = true; more;) {
      more = false;
      for (Job& j : wave) {
        if (j.left == 0) continue;
        j.buf.resize(static_cast<std::size_t>(std::min(j.left, kChunk)));
        j.ticket = slots[j.slot].fill_async(j.buf);
      }
      for (Job& j : wave) {
        if (!j.ticket.valid()) continue;
        if (std::exchange(j.ticket, {}).wait() != serve::Status::kOk) {
          v.fail("replay fill failed");
        }
        const bool last = j.left == j.buf.size();
        const std::size_t n = last ? j.buf.size() - 1 : j.buf.size();
        for (std::size_t k = 0; k < n; ++k) j.digest = fold(j.digest, j.buf[k]);
        if (last) next[j.slot] = j.buf.back();
        j.left -= j.buf.size();
        more = more || j.left > 0;
      }
    }
    for (const Job& j : wave) {
      ++v.segments;
      v.words += j.seg->count;
      if (j.digest != j.seg->digest) {
        v.fail("lease " + std::to_string(j.seg->lease) + ": " +
               std::to_string(j.seg->count) + " words differ from replay");
      }
      by_next.emplace(next[j.slot], j.slot);
    }
  }
  return v;
}

// -- Access paths ------------------------------------------------------------

/// One thread's access path to the service: in-process Sessions or one
/// NetClient connection. Leases are named by their service lease id.
class Port {
 public:
  virtual ~Port() = default;
  virtual std::optional<std::uint64_t> lease() = 0;
  virtual bool release(std::uint64_t lease) = 0;
  /// Synchronous fill.
  virtual bool fill(std::uint64_t lease, std::span<std::uint64_t> out) = 0;
  /// Pipelined fill in pending slot `k`: start(), then finish() the same k.
  virtual void start(std::size_t k, std::uint64_t lease,
                     std::span<std::uint64_t> out) = 0;
  virtual bool finish(std::size_t k) = 0;
  virtual bool checkpoint(const std::string& path) = 0;
  /// Reconnects and timeouts seen so far (wire only).
  [[nodiscard]] virtual std::uint64_t incidents() const { return 0; }
};

class LocalPort final : public Port {
 public:
  LocalPort(serve::RngService& service, std::uint64_t tenant)
      : service_(service) {
    spec_.tenant = tenant;
  }

  std::optional<std::uint64_t> lease() override {
    auto s = service_.try_open_session(spec_);
    if (!s.has_value()) return std::nullopt;
    const std::uint64_t id = s->lease().id;
    sessions_.emplace(id, std::move(*s));
    return id;
  }
  // Dropping the last Session copy returns the slot to the pool.
  bool release(std::uint64_t lease) override {
    return sessions_.erase(lease) > 0;
  }
  bool fill(std::uint64_t lease, std::span<std::uint64_t> out) override {
    return sessions_.at(lease).fill(out) == serve::Status::kOk;
  }
  void start(std::size_t k, std::uint64_t lease,
             std::span<std::uint64_t> out) override {
    if (tickets_.size() <= k) tickets_.resize(k + 1);
    tickets_[k] = sessions_.at(lease).fill_async(out);
  }
  bool finish(std::size_t k) override {
    return std::exchange(tickets_[k], {}).wait() == serve::Status::kOk;
  }
  bool checkpoint(const std::string& path) override {
    return service_.checkpoint(path);
  }

 private:
  serve::RngService& service_;
  serve::RngService::SessionSpec spec_;
  std::map<std::uint64_t, serve::Session> sessions_;
  std::vector<serve::Ticket> tickets_;
};

class WirePort final : public Port {
 public:
  WirePort(const std::string& endpoint, std::uint64_t tenant,
           obs::MetricsRegistry* metrics)
      : client_(options(endpoint, tenant, metrics)) {}

  bool connect() { return client_.connect(); }

  std::optional<std::uint64_t> lease() override { return client_.lease(); }
  bool release(std::uint64_t lease) override { return client_.release(lease); }
  bool fill(std::uint64_t lease, std::span<std::uint64_t> out) override {
    return client_.fill(lease, out) == serve::Status::kOk;
  }
  void start(std::size_t k, std::uint64_t lease,
             std::span<std::uint64_t> out) override {
    if (pending_.size() <= k) pending_.resize(k + 1);
    pending_[k] = {client_.fill_submit(lease,
                                       static_cast<std::uint32_t>(out.size())),
                   out};
  }
  bool finish(std::size_t k) override {
    const auto [id, out] = std::exchange(pending_[k], {});
    return id != 0 && client_.fill_wait(id, out) == serve::Status::kOk;
  }
  bool checkpoint(const std::string& path) override {
    return client_.checkpoint(path);
  }
  [[nodiscard]] std::uint64_t incidents() const override {
    const net::NetClient::Stats s = client_.stats();
    return s.reconnects + s.timeouts;
  }

 private:
  static net::ClientOptions options(const std::string& endpoint,
                                    std::uint64_t tenant,
                                    obs::MetricsRegistry* metrics) {
    net::ClientOptions o;
    o.endpoint = endpoint;
    o.name = "perfbench";
    o.tenant = tenant;
    o.metrics = metrics;
    return o;
  }

  net::NetClient client_;
  std::vector<std::pair<std::uint64_t, std::span<std::uint64_t>>> pending_;
};

// -- Rig: a set-up service, its server and its clients -----------------------

struct Held {
  std::uint64_t lease = 0;
  Segment seg;
  std::vector<std::uint64_t> buf;
};

struct Config {
  std::uint64_t seed = 0;
  std::string work_dir;
};

struct Rig {
  Shape shape;
  serve::ServiceOptions opts;
  std::string sock_path;
  std::string ckpt_path;
  Ledger ledger;
  std::unique_ptr<serve::RngService> service;
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<Port>> ports;  ///< one per load thread
  std::vector<std::vector<Held>> held;       ///< per load thread
  std::unique_ptr<Port> side;                ///< the side thread's port
  std::vector<Held> idle;                    ///< leases the side port holds
  std::uint64_t setup_ops = 0;
  std::uint64_t setup_failed = 0;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Closes clients before the server and the server before the service,
  /// then removes the socket and checkpoint files.
  ~Rig() {
    side.reset();
    ports.clear();
    if (server != nullptr) server->stop();
    server.reset();
    service.reset();
    for (const std::string& p : {sock_path, ckpt_path, ckpt_path + ".tmp"}) {
      if (!p.empty()) ::unlink(p.c_str());
    }
  }

  void flush_ledger() {
    for (std::vector<Held>& hs : held) {
      for (Held& h : hs) ledger.commit(std::exchange(h.seg, {}));
    }
    for (Held& h : idle) ledger.commit(std::exchange(h.seg, {}));
  }

  [[nodiscard]] std::uint64_t incidents() const {
    std::uint64_t n = side != nullptr ? side->incidents() : 0;
    for (const auto& p : ports) n += p->incidents();
    return n;
  }
};

std::unique_ptr<Port> make_port(Rig& rig, std::uint64_t tenant,
                                obs::MetricsRegistry* metrics) {
  if (!rig.shape.wire) return std::make_unique<LocalPort>(*rig.service, tenant);
  auto port = std::make_unique<WirePort>(rig.server->endpoints().front(),
                                         tenant, metrics);
  ++rig.setup_ops;
  if (!port->connect()) ++rig.setup_failed;
  return port;
}

/// Opens a lease on `port` and completes its warm-up fill.
Held open_warm(Rig& rig, Port& port) {
  Held h;
  h.buf.resize(rig.shape.words);
  rig.setup_ops += 2;
  const std::optional<std::uint64_t> id = port.lease();
  if (!id.has_value()) {
    ++rig.setup_failed;
    return h;
  }
  h.lease = *id;
  h.seg.lease = *id;
  if (port.fill(h.lease, h.buf)) {
    h.seg.add(h.buf);
  } else {
    ++rig.setup_failed;
  }
  return h;
}

/// Builds the service (and server and connections) and opens every lease
/// with one warm-up fill. *setup_s covers exactly that.
std::unique_ptr<Rig> set_up(const Shape& shape, const Config& cfg,
                            obs::MetricsRegistry* metrics, double* setup_s) {
  static std::atomic<int> counter{0};
  const std::string tag = cfg.work_dir + "/pb-" + std::to_string(::getpid()) +
                          "-" + std::to_string(counter++);
  auto rig = std::make_unique<Rig>();
  rig->shape = shape;
  rig->opts = service_options(cfg.seed);
  rig->ckpt_path = tag + ".ckpt";

  const auto t0 = Clock::now();
  rig->service = std::make_unique<serve::RngService>(rig->opts, metrics);
  if (shape.wire) {
    rig->sock_path = tag + ".sock";
    net::ServerOptions so;
    so.listen = {"unix:" + rig->sock_path};
    rig->server = std::make_unique<net::NetServer>(*rig->service, so, metrics);
    if (!rig->server->ok()) {
      std::fprintf(stderr, "perfbench: server: %s\n",
                   rig->server->error().c_str());
      std::exit(1);
    }
  }
  for (int c = 0; c < shape.clients; ++c) {
    rig->ports.push_back(make_port(*rig, 0, metrics));
    rig->held.emplace_back();
    for (int k = 0; k < shape.leases_per_client; ++k) {
      rig->held.back().push_back(open_warm(*rig, *rig->ports.back()));
    }
  }
  if (shape.side) {
    rig->side = make_port(*rig, shape.churn() ? 0 : kProbeTenant, metrics);
    for (int k = 0; k < shape.idle_leases; ++k) {
      rig->idle.push_back(open_warm(*rig, *rig->side));
    }
  }
  *setup_s = secs(Clock::now() - t0);
  return rig;
}

// -- Timed window ------------------------------------------------------------

struct SpanRec {
  const char* name;
  int track;
  double start_s;
  double end_s;
  bool async;
};

/// Samples kept per slice of the window, by completion time.
struct Sliced {
  std::vector<std::vector<double>> by_slice;

  void add(std::size_t slice, double v) {
    if (by_slice.size() <= slice) by_slice.resize(slice + 1);
    by_slice[slice].push_back(v);
  }
  void merge(const Sliced& o) {
    if (by_slice.size() < o.by_slice.size()) by_slice.resize(o.by_slice.size());
    for (std::size_t i = 0; i < o.by_slice.size(); ++i) {
      by_slice[i].insert(by_slice[i].end(), o.by_slice[i].begin(),
                         o.by_slice[i].end());
    }
  }
  [[nodiscard]] std::vector<double> all() const {
    std::vector<double> v;
    for (const auto& s : by_slice) v.insert(v.end(), s.begin(), s.end());
    return v;
  }
  /// Median over the first `whole` slices of each slice's q-quantile, when
  /// at least half of them hold kMinSliceSamples samples (only those
  /// count); otherwise the quantile over all samples.
  [[nodiscard]] double quantile_of(double q, std::size_t whole) const {
    std::vector<double> per_slice;
    for (std::size_t i = 0; i < whole && i < by_slice.size(); ++i) {
      if (by_slice[i].size() >= kMinSliceSamples) {
        per_slice.push_back(quantile(by_slice[i], q));
      }
    }
    return 2 * per_slice.size() < whole ? quantile(all(), q)
                                        : quantile(per_slice, 0.5);
  }
  [[nodiscard]] std::size_t size() const { return all().size(); }
};

/// One thread's samples.
struct Tally {
  Sliced fill_us;
  std::vector<std::uint64_t> words;  ///< delivered per slice
  Sliced session_us;
  std::vector<double> lease_us;
  std::vector<double> release_us;
  std::vector<double> ckpt_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t total_words = 0;
  std::vector<SpanRec> spans;

  void merge(Tally&& o) {
    fill_us.merge(o.fill_us);
    session_us.merge(o.session_us);
    if (words.size() < o.words.size()) words.resize(o.words.size(), 0);
    for (std::size_t i = 0; i < o.words.size(); ++i) words[i] += o.words[i];
    for (auto [dst, src] :
         {std::pair{&lease_us, &o.lease_us}, {&release_us, &o.release_us},
          {&ckpt_ms, &o.ckpt_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    attempted += o.attempted;
    failed += o.failed;
    total_words += o.total_words;
  }
};

/// The window clock the threads share: slice bookkeeping and, when
/// tracing, driver spans relative to the window start.
struct Recorder {
  bool tracing = false;
  Clock::time_point t0;
  int track = 0;  ///< the recording thread

  [[nodiscard]] std::size_t slice(Clock::time_point when) const {
    return static_cast<std::size_t>(std::max(0.0, secs(when - t0)) / kSliceS);
  }
  void span(Tally& t, const char* name, Clock::time_point a,
            Clock::time_point b, bool async = false) const {
    if (tracing) {
      t.spans.push_back({name, track, secs(a - t0), secs(b - t0), async});
    }
  }
  /// A completed fill: its latency and words, in the slice it completed in.
  void filled(Tally& t, Clock::time_point a, Clock::time_point b,
              std::size_t words, bool async = false) const {
    const std::size_t s = slice(b);
    if (t.words.size() <= s) t.words.resize(s + 1, 0);
    t.fill_us.add(s, micros(b - a));
    t.words[s] += words;
    t.total_words += words;
    span(t, "fill", a, b, async);
  }
};

/// Closed loop over the leases a thread holds: back-to-back synchronous
/// fills with one lease, otherwise one pipelined fill outstanding per lease.
void run_held(Port& port, std::vector<Held>& held,
              Clock::time_point deadline, const Recorder& rec, Tally& t) {
  if (held.size() == 1) {
    Held& h = held.front();
    while (Clock::now() < deadline) {
      const auto a = Clock::now();
      const bool ok = port.fill(h.lease, h.buf);
      const auto b = Clock::now();
      ++t.attempted;
      if (!ok) {
        ++t.failed;
        continue;
      }
      rec.filled(t, a, b, h.buf.size());
      h.seg.add(h.buf);
    }
    return;
  }
  std::vector<Clock::time_point> started(held.size());
  for (std::size_t k = 0; k < held.size(); ++k) {
    started[k] = Clock::now();
    port.start(k, held[k].lease, held[k].buf);
  }
  std::vector<bool> live(held.size(), true);
  for (std::size_t open = held.size(); open > 0;) {
    for (std::size_t k = 0; k < held.size(); ++k) {
      if (!live[k]) continue;
      const bool ok = port.finish(k);
      const auto b = Clock::now();
      ++t.attempted;
      if (ok) {
        rec.filled(t, started[k], b, held[k].buf.size(), true);
        held[k].seg.add(held[k].buf);
      } else {
        ++t.failed;
      }
      if (b < deadline) {
        started[k] = Clock::now();
        port.start(k, held[k].lease, held[k].buf);
      } else {
        live[k] = false;
        --open;
      }
    }
  }
}

/// One session: lease, `fills` synchronous fills of `words`, release.
void run_session(Port& port, Ledger& ledger, int fills, std::uint32_t words,
                 const Recorder& rec, Tally& t) {
  std::vector<std::uint64_t> buf(words);
  const auto a = Clock::now();
  const std::optional<std::uint64_t> id = port.lease();
  const auto b = Clock::now();
  ++t.attempted;
  if (!id.has_value()) {
    ++t.failed;
    return;
  }
  t.lease_us.push_back(micros(b - a));
  rec.span(t, "lease", a, b);
  Segment seg;
  seg.lease = *id;
  bool ok = true;
  for (int f = 0; f < fills; ++f) {
    const auto c = Clock::now();
    const bool filled = port.fill(*id, buf);
    const auto d = Clock::now();
    ++t.attempted;
    if (!filled) {
      ++t.failed;
      ok = false;
      continue;
    }
    rec.filled(t, c, d, buf.size());
    seg.add(buf);
  }
  const auto e = Clock::now();
  const bool released = port.release(*id);
  const auto g = Clock::now();
  ++t.attempted;
  ledger.commit(seg);
  if (!released) {
    ++t.failed;
    return;
  }
  t.release_us.push_back(micros(g - e));
  rec.span(t, "release", e, g);
  if (ok) {
    t.session_us.add(rec.slice(g), micros(g - a));
    rec.span(t, "session", a, g);
  }
}

/// The side thread: a checkpoint every kCkptPeriod and, for workloads whose
/// load opens no sessions, a probe session every kProbePeriod.
void run_side(Rig& rig, Clock::time_point start, Clock::time_point deadline,
              const Recorder& rec, Tally& t) {
  const bool probe = !rig.shape.churn();
  auto next_ckpt = start + kCkptPeriod;
  auto next_probe = start + kProbePeriod;
  for (;;) {
    const bool ckpt = !probe || next_ckpt <= next_probe;
    const auto tick = ckpt ? next_ckpt : next_probe;
    if (tick >= deadline) return;
    std::this_thread::sleep_until(tick);
    if (!ckpt) {
      run_session(*rig.side, rig.ledger, kProbeFills, kProbeWords, rec, t);
      next_probe += kProbePeriod;
      continue;
    }
    const auto a = Clock::now();
    const bool ok = rig.side->checkpoint(rig.ckpt_path);
    const auto b = Clock::now();
    ++t.attempted;
    next_ckpt += kCkptPeriod;
    if (!ok) {
      ++t.failed;
      continue;
    }
    t.ckpt_ms.push_back(micros(b - a) / 1e3);
    rec.span(t, "checkpoint", a, b);
  }
}

struct Window {
  Tally load;  ///< the load threads
  Tally side;  ///< the side thread
  std::size_t whole = 1;     ///< whole slices in the window
  double cpu_s = 0.0;
  double words_per_s = 0.0;  ///< median over whole slices
  std::vector<double> rates;  ///< words per second of each whole slice

  /// Session samples: the load's own when it churns leases, else the side
  /// thread's probe.
  [[nodiscard]] const Tally& sessions(const Shape& shape) const {
    return shape.churn() ? load : side;
  }
  [[nodiscard]] double fill_us(double q) const {
    return load.fill_us.quantile_of(q, whole);
  }
  [[nodiscard]] double session_us(const Shape& shape, double q) const {
    return sessions(shape).session_us.quantile_of(q, whole);
  }
};

/// Runs the rig's workload for `seconds`: the load threads plus the side
/// thread.
Window run_window(Rig& rig, double seconds, bool traced) {
  const Shape& shape = rig.shape;
  const int n_threads = shape.clients + (shape.side ? 1 : 0);
  std::vector<Tally> tallies(static_cast<std::size_t>(n_threads));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<Recorder> recs(static_cast<std::size_t>(n_threads));

  std::vector<std::thread> threads;
  for (int c = 0; c < n_threads; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto i = static_cast<std::size_t>(c);
      if (c == shape.clients) {
        run_side(rig, start, deadline, recs[i], tallies[i]);
      } else if (!shape.churn()) {
        run_held(*rig.ports[i], rig.held[i], deadline, recs[i], tallies[i]);
      } else {
        while (Clock::now() < deadline) {
          run_session(*rig.ports[i], rig.ledger, shape.fills_per_session,
                      shape.words, recs[i], tallies[i]);
        }
      }
    });
  }
  while (ready.load() < n_threads) std::this_thread::yield();
  const double cpu0 = cpu_seconds();
  start = Clock::now();
  deadline = start + span_of(seconds);
  for (int c = 0; c < n_threads; ++c) {
    recs[static_cast<std::size_t>(c)] = Recorder{traced, start, c};
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  Window w;
  w.cpu_s = cpu_seconds() - cpu0;
  for (int c = 0; c < n_threads; ++c) {
    Tally& t = tallies[static_cast<std::size_t>(c)];
    (c == shape.clients ? w.side : w.load).merge(std::move(t));
  }
  w.whole =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kSliceS));
  w.rates.assign(w.whole, 0.0);
  for (std::size_t i = 0; i < w.whole && i < w.load.words.size(); ++i) {
    w.rates[i] = static_cast<double>(w.load.words[i]) / kSliceS;
  }
  w.words_per_s = quantile(w.rates, 0.5);
  return w;
}

// -- Instrument readings -----------------------------------------------------

/// Sums and counts of the instruments the per-layer metrics read, so a
/// reading over an interval is the difference of two snapshots.
struct Reading {
  std::map<std::string, double> v;

  static Reading take(obs::MetricsRegistry& reg, const serve::RngService& svc) {
    Reading r;
    for (const char* h :
         {"hprng.serve.request_latency_seconds", "hprng.serve.queue_wait_seconds",
          "hprng.serve.fill_wall_seconds", "hprng.serve.fill_sim_seconds",
          "hprng.state.checkpoint_seconds", "hprng.net.fill_seconds"}) {
      const obs::Histogram& hist = reg.histogram(h);
      r.v[std::string(h) + ".sum"] = hist.sum();
      r.v[std::string(h) + ".count"] = static_cast<double>(hist.count());
    }
    for (const char* c :
         {"hprng.state.checkpoint_bytes", "hprng.state.checkpoints",
          "hprng.net.bytes_rx", "hprng.net.bytes_tx", "hprng.net.frames_rx",
          "hprng.net.frames_tx", "hprng.net.fills_ok",
          "hprng.core.serve_overlap_seconds",
          "hprng.core.serve_fill_span_seconds"}) {
      r.v[c] = reg.counter(c).value();
    }
    const serve::RngService::Stats s = svc.stats();
    r.v["completed"] = static_cast<double>(s.completed);
    r.v["batches"] = static_cast<double>(s.batches);
    r.v["numbers_served"] = static_cast<double>(s.numbers_served);
    return r;
  }

  [[nodiscard]] Reading minus(const Reading& base) const {
    Reading d;
    for (const auto& [k, x] : v) d.v[k] = x - base.v.at(k);
    return d;
  }
  [[nodiscard]] double at(const std::string& k) const { return v.at(k); }
  /// sum/count mean of histogram `h`, scaled.
  [[nodiscard]] double hist_mean(const std::string& h, double scale) const {
    const double n = at(h + ".count");
    return n > 0 ? scale * at(h + ".sum") / n : 0.0;
  }
};

// -- Report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Verdict verdict;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void count(const Window& w) {
    attempted += w.load.attempted + w.side.attempted;
    failed += w.load.failed + w.side.failed;
  }
};

/// Verifies the rig's words and folds its set-up and incidents into the
/// report.
void close_rig(std::unique_ptr<Rig> rig, Report& rep) {
  rep.attempted += rig->setup_ops;
  rep.failed += rig->setup_failed + rig->incidents();
  rig->flush_ledger();
  std::vector<Segment> segs = rig->ledger.take();
  const serve::ServiceOptions opts = rig->opts;
  rig.reset();  // stop the service under test before replaying
  rep.verdict.merge(replay(opts, std::move(segs)));
}

// -- Untraced run: end-to-end metrics ----------------------------------------

/// Sets the workload up repeatedly (see kMinSetups), appending each set-up
/// time to *times. Verifies and discards every rig but the last, which it
/// returns.
std::unique_ptr<Rig> set_up_repeatedly(const Shape& shape, const Config& cfg,
                                       std::vector<double>* times,
                                       Report& rep) {
  std::unique_ptr<Rig> rig;
  const auto t0 = Clock::now();
  for (int n = 0; n < kMinSetups || (n < kMaxSetups &&
                                     secs(Clock::now() - t0) < kSetupBudgetS);
       ++n) {
    if (rig != nullptr) close_rig(std::move(rig), rep);
    double s = 0.0;
    rig = set_up(shape, cfg, nullptr, &s);
    times->push_back(s);
  }
  return rig;
}

void untraced(const Shape& shape, const Config& cfg, double seconds,
              Report& rep) {
  std::vector<double> setups;
  std::unique_ptr<Rig> rig = set_up_repeatedly(shape, cfg, &setups, rep);
  const double setup_rss = status_mb("VmHWM");
  const Window w = run_window(*rig, seconds, false);
  rep.count(w);
  close_rig(std::move(rig), rep);
  close_rig(set_up_repeatedly(shape, cfg, &setups, rep), rep);

  const Tally& st = w.sessions(shape);
  rep.add("words_per_s", w.words_per_s, "1/s");
  rep.add("fill_p50_us", w.fill_us(0.5), "us");
  rep.add("fill_p90_us", w.fill_us(0.9), "us");
  rep.add("session_p50_us", w.session_us(shape, 0.5), "us");
  rep.add("session_p90_us", w.session_us(shape, 0.9), "us");
  rep.add("ckpt_p50_ms", quantile(w.side.ckpt_ms, 0.5), "ms");
  rep.add("setup_s", quantile(setups, 0.5), "s");
  rep.add("setup_rss_mb", setup_rss, "MiB");
  std::printf("samples: fills=%zu sessions=%zu checkpoints=%zu setups=%zu\n",
              w.load.fill_us.size(), st.session_us.size(),
              w.side.ckpt_ms.size(), setups.size());
  std::printf("slice words/s: min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g; "
              "window cpu=%.3f s\n",
              quantile(w.rates, 0.0), quantile(w.rates, 0.25),
              quantile(w.rates, 0.5), quantile(w.rates, 0.75),
              quantile(w.rates, 1.0), w.cpu_s);
}

// -- Traced run: per-layer metrics -------------------------------------------

/// Times `fn` until `budget_s` has passed and at least `min_reps` ran;
/// returns the per-call samples in microseconds.
template <typename Fn>
std::vector<double> time_reps(double budget_s, int min_reps, Fn&& fn) {
  std::vector<double> us;
  const auto end = Clock::now() + span_of(budget_s);
  while (static_cast<int>(us.size()) < min_reps || Clock::now() < end) {
    const auto a = Clock::now();
    fn();
    us.push_back(micros(Clock::now() - a));
  }
  return us;
}

/// Ladder rung 1: the lane-batched walk kernel alone, `lanes` walks of
/// `draws` draws over a pre-built feed.
double simd_rung(std::uint64_t seed, int lanes, std::uint32_t draws,
                 std::uint32_t wpd, double budget_s) {
  std::vector<std::uint32_t> feed(static_cast<std::size_t>(lanes) * draws *
                                  wpd);
  simd::derive_fill_u32(seed, 0, feed.data(), feed.size());
  std::vector<std::uint64_t> out(static_cast<std::size_t>(lanes) * draws);
  std::vector<simd::WalkLane> lane(static_cast<std::size_t>(lanes));
  const prng::SeedSequence seq(seed);
  for (int l = 0; l < lanes; ++l) {
    const std::uint64_t v = seq.derive(static_cast<std::uint64_t>(l));
    lane[static_cast<std::size_t>(l)] = {
        static_cast<std::uint32_t>(v), static_cast<std::uint32_t>(v >> 32),
        feed.data() + static_cast<std::size_t>(l) * draws * wpd,
        out.data() + static_cast<std::size_t>(l) * draws};
  }
  const core::HybridPrngConfig cfg;
  return quantile(time_reps(budget_s, 200,
                            [&] {
                              simd::walk_draws(lane.data(), lanes, draws, wpd,
                                               32, cfg.policy,
                                               cfg.finalize_output);
                            }),
                  0.5);
}

/// Ladder rung 2: HybridPrng::fill_leased on a standalone simulated device.
double core_rung(std::uint64_t seed, int lanes, std::uint32_t draws,
                 double budget_s, std::uint32_t* wpd) {
  sim::Device device(sim::DeviceSpec::tesla_c1060(), nullptr);
  core::HybridPrngConfig cfg;
  cfg.seed = seed;
  cfg.walk_len = 32;
  cfg.num_threads = 64;
  core::HybridPrng prng(device, cfg);
  *wpd = static_cast<std::uint32_t>(prng.words_per_draw());
  std::vector<std::vector<std::uint64_t>> bufs(
      static_cast<std::size_t>(lanes), std::vector<std::uint64_t>(draws));
  std::vector<core::HybridPrng::LeasedDraw> list;
  for (int l = 0; l < lanes; ++l) {
    list.push_back({static_cast<std::uint64_t>(l),
                    bufs[static_cast<std::size_t>(l)]});
  }
  prng.fill_leased(list);  // initialise the walks outside the timing
  return quantile(time_reps(budget_s, 200, [&] { prng.fill_leased(list); }),
                  0.5);
}

struct RungResult {
  double fill_p50_us = 0.0;
  double fill_mean_us = 0.0;
  Reading delta;
};

/// Ladder rungs 3 and 4: the workload's fill traffic, without lease churn,
/// idle leases or the side thread, through in-process Sessions or over the
/// wire.
RungResult traffic_rung(const Shape& workload, bool wire, const Config& cfg,
                        double seconds, Report& rep) {
  Shape shape = workload;
  shape.wire = wire;
  shape.leases_per_client = std::max(1, workload.leases_per_client);
  shape.fills_per_session = 0;
  shape.idle_leases = 0;
  shape.side = false;
  obs::MetricsRegistry reg;
  double setup_s = 0.0;
  std::unique_ptr<Rig> rig = set_up(shape, cfg, &reg, &setup_s);
  const Reading before = Reading::take(reg, *rig->service);
  const Window w = run_window(*rig, seconds, false);
  RungResult r;
  r.delta = Reading::take(reg, *rig->service).minus(before);
  const std::vector<double> fills = w.load.fill_us.all();
  r.fill_p50_us = quantile(fills, 0.5);
  r.fill_mean_us = mean(fills);
  rep.count(w);
  close_rig(std::move(rig), rep);
  return r;
}

void write_trace(const std::string& path, const Shape& shape,
                 const Window& w) {
  obs::TraceWriter trace;
  const int pid = trace.add_process("perfbench " + shape.name);
  std::uint64_t id = 0;
  for (const Tally* t : {&w.load, &w.side}) {
    for (const SpanRec& s : t->spans) {
      const std::string track = s.track < shape.clients
                                    ? "client-" + std::to_string(s.track)
                                    : std::string("side");
      if (s.async) {
        trace.add_async_span(pid, track, ++id, s.name, s.start_s, s.end_s);
      } else {
        trace.add_span(pid, trace.add_track(pid, track), s.name, s.start_s,
                       s.end_s);
      }
    }
  }
  if (!trace.write_json(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

void traced(const Shape& shape, const Config& cfg, double seconds,
            Report& rep) {
  // Phase budget: untraced base 30%, traced window 40%, serve and net rungs
  // 10% each, kernel and core rungs 5% each.
  double setup_s = 0.0;
  std::unique_ptr<Rig> base = set_up(shape, cfg, nullptr, &setup_s);
  const Window w0 = run_window(*base, 0.3 * seconds, false);
  rep.count(w0);
  close_rig(std::move(base), rep);

  obs::MetricsRegistry reg;
  std::unique_ptr<Rig> rig = set_up(shape, cfg, &reg, &setup_s);
  const Reading r0 = Reading::take(reg, *rig->service);
  const double rss0 = status_mb("VmRSS");
  const Window w = run_window(*rig, 0.4 * seconds, true);
  const double rss_growth = status_mb("VmRSS") - rss0;
  const Reading d = Reading::take(reg, *rig->service).minus(r0);
  rep.count(w);
  close_rig(std::move(rig), rep);
  const Tally& st = w.sessions(shape);

  // The serve rung runs the workload's fill traffic alone, so its pass
  // shape is the one the kernel and core rungs replay.
  const RungResult sr = traffic_rung(shape, false, cfg, 0.1 * seconds, rep);
  const RungResult nr = traffic_rung(shape, true, cfg, 0.1 * seconds, rep);
  const double reqs_per_pass =
      sr.delta.at("completed") / std::max(1.0, sr.delta.at("batches"));
  const int lanes = std::clamp(static_cast<int>(std::lround(reqs_per_pass)),
                               1, simd::kWalkGroup);
  std::uint32_t wpd = 0;
  const double core_us =
      core_rung(cfg.seed, lanes, shape.words, 0.05 * seconds, &wpd);
  const double simd_us =
      simd_rung(cfg.seed, lanes, shape.words, wpd, 0.05 * seconds);

  const double fills = std::max(1.0, nr.delta.at("hprng.net.fills_ok"));
  const double server_fill_us =
      nr.delta.hist_mean("hprng.net.fill_seconds", 1e6);
  const double served = std::max(1.0, d.at("numbers_served"));

  std::printf("ladder: pass shape %d lanes x %u words\n", lanes, shape.words);
  rep.add("simd.walk_p50_us", simd_us, "us");
  rep.add("core.fill_leased_p50_us", core_us, "us");
  rep.add("serve.fill_p50_us", sr.fill_p50_us, "us");
  rep.add("net.fill_p50_us", nr.fill_p50_us, "us");
  rep.add("core.over_simd", core_us / simd_us, "ratio");
  rep.add("serve.over_core", sr.fill_p50_us / core_us, "ratio");
  rep.add("net.over_serve", nr.fill_p50_us / sr.fill_p50_us, "ratio");
  rep.add("serve.cost_us", sr.fill_p50_us - core_us, "us");
  rep.add("net.cost_us", nr.fill_p50_us - sr.fill_p50_us, "us");
  rep.add("serve.reqs_per_pass", reqs_per_pass, "count");
  rep.add("serve.queue_wait_mean_us",
          sr.delta.hist_mean("hprng.serve.queue_wait_seconds", 1e6), "us");
  rep.add("serve.pass_wall_mean_us",
          sr.delta.hist_mean("hprng.serve.fill_wall_seconds", 1e6), "us");
  rep.add("serve.handoff_mean_us",
          sr.fill_mean_us -
              sr.delta.hist_mean("hprng.serve.request_latency_seconds", 1e6),
          "us");
  rep.add("net.server_fill_mean_us", server_fill_us, "us");
  rep.add("net.wire_mean_us", nr.fill_mean_us - server_fill_us, "us");
  rep.add("net.bytes_per_fill",
          (nr.delta.at("hprng.net.bytes_rx") + nr.delta.at("hprng.net.bytes_tx")) /
              fills,
          "bytes");
  rep.add("net.frames_per_fill",
          (nr.delta.at("hprng.net.frames_rx") +
           nr.delta.at("hprng.net.frames_tx")) /
              fills,
          "count");
  rep.add("core.sim_us_per_kword",
          d.at("hprng.serve.fill_sim_seconds.sum") * 1e6 / (served / 1e3),
          "us/kword");
  rep.add("state.ckpt_mean_ms",
          d.hist_mean("hprng.state.checkpoint_seconds", 1e3), "ms");
  rep.add("state.ckpt_bytes",
          d.at("hprng.state.checkpoint_bytes") /
              std::max(1.0, d.at("hprng.state.checkpoints")),
          "bytes");
  rep.add("session.lease_p50_us", quantile(st.lease_us, 0.5), "us");
  rep.add("session.release_p50_us", quantile(st.release_us, 0.5), "us");
  rep.add("proc.cpu_s_per_mword",
          w.cpu_s / (static_cast<double>(w.load.total_words +
                                         w.side.total_words) /
                     1e6),
          "s/Mword");
  rep.add("proc.rss_growth_mb", rss_growth, "MiB");
  rep.add("trace.words_per_s", w.words_per_s, "1/s");
  rep.add("trace.base_words_per_s", w0.words_per_s, "1/s");
  rep.add("trace.overhead", w.words_per_s / w0.words_per_s, "ratio");

  const double span = d.at("hprng.core.serve_fill_span_seconds");
  std::printf("core.overlap_fraction = %.6g (pipelined passes overlapped / "
              "simulated fill span)\n",
              span > 0 ? d.at("hprng.core.serve_overlap_seconds") / span : 0.0);
  const std::string path =
      cfg.work_dir + "/perfbench-trace-" + shape.name + ".json";
  write_trace(path, shape, w);
  std::printf("trace: %zu driver spans -> %s\n",
              w.load.spans.size() + w.side.spans.size(), path.c_str());
}

// -- Entry -------------------------------------------------------------------

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\nworkloads:");
  for (const Shape& s : shapes()) std::fprintf(stderr, " %s", s.name.c_str());
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      usage();
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  const Shape* shape = nullptr;
  for (const Shape& s : shapes()) {
    if (args.count("workload") != 0 && s.name == args["workload"]) shape = &s;
  }
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  if (shape == nullptr || args.count("seed") == 0 || !(seconds > 0.0) ||
      args.count("work-dir") == 0) {
    usage();
    return 2;
  }
  Config cfg;
  cfg.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  cfg.work_dir = args["work-dir"];
  const bool trace = args["trace"] == "1";

  std::printf("workload=%s seed=%llu seconds=%g trace=%d simd_kernel=%s\n",
              shape->name.c_str(), static_cast<unsigned long long>(cfg.seed),
              seconds, trace ? 1 : 0, simd::kernel_name());
  std::printf("service: backend=hybrid walk_len=32 parallel_kernels=false "
              "threads=%d connections=%d\n",
              shape->clients + (shape->side ? 1 : 0),
              shape->wire ? shape->clients + (shape->side ? 1 : 0) : 0);

  Report rep;
  if (trace) {
    traced(*shape, cfg, seconds, rep);
  } else {
    untraced(*shape, cfg, seconds, rep);
  }
  rep.failed += rep.verdict.mismatches;
  rep.attempted += rep.verdict.segments;
  const bool correct = rep.failed == 0;

  std::printf("verification: %s (%llu leases, %llu words replayed%s%s)\n",
              rep.verdict.mismatches == 0 ? "OK" : "MISMATCH",
              static_cast<unsigned long long>(rep.verdict.segments),
              static_cast<unsigned long long>(rep.verdict.words),
              rep.verdict.mismatches == 0 ? "" : "; first: ",
              rep.verdict.first_error.c_str());
  std::printf("fail_ratio = %.6g (%llu of %llu operations)\n",
              static_cast<double>(rep.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, rep.attempted)),
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  for (const Metric& m : rep.metrics) {
    std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", rep.metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + rep.metrics[i].name +
            "\": {\"value\": " + num + ", \"unit\": \"" +
            rep.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
