#pragma once

// net::NetServer — RNG-as-a-service over the wire (docs/NETWORK.md).
//
// A poll()-driven event loop accepts TCP / Unix-domain connections and
// speaks the frame protocol of net/frame.hpp, mapping every op 1:1 onto
// serve::RngService: kLease → try_open_session, kFill → Session::
// fill_async (the request lands on the service's existing bounded MPMC
// worker queue — the wire adds no second queue, so the serve layer's
// full-queue rule, an immediate kRejected, IS the network backpressure;
// fill_async never waits on a worker, and serves at most a 256-word fill
// on the loop thread), kAdopt → adopt_session / the
// orphan table, kCkpt → checkpoint.
//
// Threading: one event-loop thread owns every connection (read buffers,
// write buffers, the lease→Session maps) and is the server's only thread.
// Each kFill is submitted with a settle hook: whichever thread settles the
// request appends it to a small done list, and the loop encodes the
// kFillAck and flushes it in the same iteration. An idle service serves
// a small fill on the loop thread itself, inside fill_async (docs/
// SERVING.md §4), and its reply goes out in that iteration's flush; only
// a fill another thread settles wakes the loop through a self-pipe.
// Nothing blocks on a fill, so a ready reply never queues behind another
// connection's slow one. The loop also abandons fills
// still queued at their deadline (kTimeout, as Ticket::wait() would). All
// session open/release/adopt calls happen on the loop thread, which is
// what makes kCkpt safe to run inline (RngService::checkpoint demands no
// concurrent lease churn).
//
// Disconnect semantics (docs/NETWORK.md §6): a connection that drops
// without releasing its leases orphans them — the streams stay live and a
// later connection re-claims them with kAdopt, which is how a client
// rides a reconnect (or a server rolling restart, where restore() makes
// every checkpointed lease adoptable) without losing its substream.
//
// Fault sites (docs/FAULTS.md): kNetAccept per accepted connection,
// kNetRead per readable event, kNetWrite per write flush. A kFail outcome
// drops the connection — exactly the torn-read / dead-peer weather the
// chaos suite replays deterministically.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "quality/quality.hpp"
#include "serve/service.hpp"

namespace hprng::net {

/// Pre-resolve the full `hprng.net.*` catalogue (server and client
/// instruments; docs/OBSERVABILITY.md) so registry snapshots are complete
/// before traffic. NetServer / NetClient call this on attach.
void register_catalogue(obs::MetricsRegistry& registry);

struct ServerOptions {
  /// Endpoints to listen on (unix:PATH / tcp:HOST:PORT). At least one;
  /// all of them serve the same RngService.
  std::vector<std::string> listen;

  /// Per-connection in-flight fill window. The (N+1)th concurrent fill on
  /// one connection is shed with kError/kBackpressure instead of queueing
  /// — protocol-level backpressure in front of the service queue's own
  /// full-queue rejection.
  std::size_t max_pending_fills = 64;

  /// Optional deterministic fault injection at the net sites; not owned.
  fault::Injector* injector = nullptr;

  /// Optional quality scrubber whose report the kQuality op serves; not
  /// owned, must outlive the server. Absent → kQualityAck with present=0
  /// (docs/NETWORK.md §3.8).
  quality::QualityScrubber* scrubber = nullptr;
};

class NetServer {
 public:
  /// Binds every endpoint and starts the loop thread. On any listen
  /// failure nothing runs: ok() is false and error() explains.
  /// The service must outlive the server; stop the server first.
  NetServer(serve::RngService& service, ServerOptions opts,
            obs::MetricsRegistry* metrics = nullptr);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::string error() const { return error_; }

  /// Resolved listen endpoints (tcp:*:0 reports the kernel port).
  [[nodiscard]] std::vector<std::string> endpoints() const;

  /// Stop accepting, join the loop thread, wait until every accepted
  /// fill has settled (a fill still queued is abandoned at its deadline,
  /// so a paused service delays this by at most the open fills'
  /// timeouts), then close all connections. Unflushed replies are
  /// dropped. Idempotent.
  void stop();

  /// Graceful-restart drain (docs/NETWORK.md §8): stop accepting AND stop
  /// reading — requests already on the wire stay unread (so they are
  /// never served, and the peer's retry-after-EOF is bit-exact) — while
  /// in-flight fills settle and their replies flush. Poll quiescent()
  /// until true, then stop(). This ordering is what makes serve_net's
  /// checkpoint-shutdown-restore cycle lossless: no fill is ever both
  /// served and unreplied.
  void begin_drain();

  /// True when no fill is in flight and every reply has hit the socket.
  [[nodiscard]] bool quiescent() const;

  /// Ground-truth wire accounting (exact at quiescent fences).
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t frames_rx = 0;
    std::uint64_t frames_tx = 0;
    std::uint64_t bytes_rx = 0;
    std::uint64_t bytes_tx = 0;
    std::uint64_t frame_errors = 0;     ///< kBad decodes (framing/CRC)
    std::uint64_t protocol_errors = 0;  ///< kError replies sent
    std::uint64_t fills = 0;            ///< kFill frames accepted
    std::uint64_t fills_ok = 0;
    std::uint64_t fills_rejected = 0;   ///< non-kOk statuses + shed window
    std::uint64_t leases_opened = 0;
    std::uint64_t leases_adopted = 0;
    std::uint64_t leases_released = 0;
    std::uint64_t checkpoints = 0;
    std::size_t connections = 0;        ///< currently open
    std::size_t orphaned = 0;           ///< leases parked for re-adoption
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::string rbuf;
    std::string wbuf;
    bool hello_done = false;
    bool closing = false;  ///< flush wbuf, then close
    std::size_t pending_fills = 0;
    std::map<std::uint64_t, serve::Session> sessions;  ///< by lease id
  };

  /// An accepted kFill whose reply is not queued yet. `buf` is the
  /// request's output span, so it stays put until the fill settles.
  struct Fill {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    std::uint64_t lease_id = 0;
    std::vector<std::uint64_t> buf;
    serve::Ticket ticket;
    std::chrono::steady_clock::time_point start;  ///< before fill_async
  };

  /// What a fill's settle hook reports to the loop.
  struct Settled {
    std::uint64_t fill = 0;  ///< key in inflight_fills_
    serve::Status status = serve::Status::kOk;
    std::chrono::steady_clock::time_point at;  ///< when it settled
  };

  /// Wire events, one per counted Stats field. count() bumps an event's
  /// Stats slot and its catalogued instrument together.
  enum Event : std::size_t {
    kAccepted,
    kDisconnects,
    kFramesRx,
    kFramesTx,
    kBytesRx,
    kBytesTx,
    kFrameErrors,
    kProtocolErrors,
    kFills,
    kFillsOk,
    kFillsRejected,
    kLeasesOpened,
    kLeasesAdopted,
    kLeasesReleased,
    kCheckpoints,
    kNumEvents,
  };

  /// The server's `hprng.net.*` instruments (docs/OBSERVABILITY.md),
  /// resolved once at construction. All null when no registry is attached.
  struct Instruments {
    /// Per-event counters; null also for events with no instrument.
    std::array<obs::Counter*, kNumEvents> events{};
    obs::Gauge* connections = nullptr;
    obs::Gauge* orphaned = nullptr;
    obs::Histogram* fill_seconds = nullptr;
  };

  void count(Event event, std::uint64_t n = 1);       // mu_ held
  /// Set the connection and orphan gauges to the current table sizes.
  void publish_gauges();                              // mu_ held
  void loop();
  void wake();
  /// The settle hook's body: may run on any thread — a worker, or the
  /// loop itself under mu_ — so it takes only done_mu_. Writes the
  /// self-pipe only off the loop thread.
  void on_settled(const Settled& settled);
  /// Abandon every fill still queued past its deadline; returns the poll
  /// timeout (ms) that wakes the loop at the next open deadline.
  int sweep_deadlines();                             // mu_ held
  /// Queue the kFillAck of every fill on the done list.
  void reply_settled();                              // mu_ held
  void accept_ready(std::size_t listener_idx);       // mu_ held
  void read_ready(const std::shared_ptr<Conn>& c);   // mu_ held
  void write_ready(const std::shared_ptr<Conn>& c);  // mu_ held
  void drop(const std::shared_ptr<Conn>& c);         // mu_ held
  void handle_frame(const std::shared_ptr<Conn>& c,
                    const Frame& frame);             // mu_ held
  void send(const std::shared_ptr<Conn>& c, const Frame& frame);  // mu_ held
  void send_error(const std::shared_ptr<Conn>& c, std::uint64_t request_id,
                  ErrCode code, const std::string& message);      // mu_ held

  serve::RngService& service_;
  ServerOptions opts_;
  obs::MetricsRegistry* metrics_;
  Instruments ins_;

  bool ok_ = false;
  std::string error_;

  struct Listener {
    int fd = -1;
    Endpoint resolved;
  };
  std::vector<Listener> listeners_;
  int wake_pipe_[2] = {-1, -1};

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  std::map<std::uint64_t, serve::Session> orphans_;  ///< by lease id
  std::uint64_t next_conn_id_ = 1;
  Stats stats_;
  /// Accepted fills whose reply is not queued yet, by a server-wide
  /// sequence number (mu_).
  std::map<std::uint64_t, Fill> inflight_fills_;
  std::uint64_t next_fill_ = 1;

  std::mutex done_mu_;
  std::vector<Settled> done_;  ///< settled, reply not yet queued (done_mu_)

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::thread loop_thread_;
};

}  // namespace hprng::net
