#pragma once

// net::NetClient — the client half of RNG-as-a-service (docs/NETWORK.md).
//
// A NetClient owns one connection to a NetServer and exposes the protocol
// as typed calls: lease/adopt/release, synchronous fill, pipelined
// fill_submit/fill_wait, stat, checkpoint. The load-bearing feature is
// reconnection: the client remembers every lease id it holds, and when
// the connection dies (server restart, injected net fault, plain TCP
// reset) it transparently re-dials, re-runs the hello handshake, re-adopts
// its leases (the server parked them as orphans on disconnect, or restored
// them from a checkpoint after a rolling restart) and retries the
// synchronous call that observed the failure. Combined with serve_net's
// drain-then-checkpoint shutdown this makes a rolling restart invisible:
// the retried fill continues the substream bit-exactly.
//
// Retry scope: only the synchronous fill() and lease()/lease_on() calls
// retry transparently, and only when the failure arrived *before* a reply —
// after an EOF with no FillAck the graceful-shutdown contract guarantees
// the fill was not served, so re-issuing cannot skip words. Pipelined
// fills (fill_submit) do NOT retry on their own: with several requests in
// flight the client cannot know which were served, so fill_wait surfaces
// kClosed and the caller decides (docs/NETWORK.md §6).
//
// Thread safety: one mutex serialises the connection; concurrent callers
// interleave whole requests. Pipelining depth comes from fill_submit, not
// from concurrent threads.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "quality/quality.hpp"
#include "serve/options.hpp"

namespace hprng::net {

struct ClientOptions {
  /// Server endpoint (unix:PATH / tcp:HOST:PORT).
  std::string endpoint;

  /// Client name sent in the hello (diagnostic only).
  std::string name = "hprng-client";

  /// Per-request wall deadline (send + await reply). A request that
  /// misses it closes the connection — a late straggler reply would
  /// otherwise desynchronise the request/reply stream.
  std::chrono::milliseconds timeout{5000};

  /// Reconnect attempts per operation before giving up.
  int max_reconnects = 8;

  /// Base reconnect backoff, doubled per attempt (capped at 500ms) —
  /// rides out the restart window of a rolling restart.
  std::chrono::milliseconds reconnect_backoff{20};

  /// Tenant id sent in every lease request (docs/QOS.md §2). Leases this
  /// client opens bill against that tenant's rate/quota policy; 0 is the
  /// default tenant (the pre-QoS behaviour).
  std::uint64_t tenant = 0;

  /// Optional `hprng.net.client.*` instruments; not owned.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What the server said in its hello ack.
struct ServerInfo {
  std::uint32_t proto = 0;
  std::string backend;
  std::uint32_t num_shards = 0;
  std::uint64_t max_fill_words = 0;
};

/// kStatAck image — service + wire-layer counters (docs/NETWORK.md §3.6).
struct NetStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t closed = 0;
  std::uint64_t failed = 0;
  std::uint64_t numbers_served = 0;
  std::uint64_t active_leases = 0;
  std::uint64_t healthy_shards = 0;
  std::uint64_t adoptable = 0;
  std::uint64_t connections = 0;
  std::uint64_t rejected_quota = 0;  ///< v2 field; 0 from a v1 server
};

class NetClient {
 public:
  explicit NetClient(ClientOptions opts);
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Dial + hello. Called lazily by every operation; explicit connect()
  /// is for checking reachability up front.
  bool connect(std::string* error = nullptr);
  [[nodiscard]] bool connected() const;

  /// Close the connection (held lease ids are remembered — a later call
  /// reconnects and re-adopts them).
  void close();

  /// Valid after the first successful connect.
  [[nodiscard]] ServerInfo server_info() const;

  // -- Leases ---------------------------------------------------------------

  /// Open a fresh lease; nullopt + *error on exhaustion or failure.
  std::optional<std::uint64_t> lease(std::string* error = nullptr);
  /// Open with shard affinity (shard_key % num_shards).
  std::optional<std::uint64_t> lease_on(std::uint64_t shard_key,
                                        std::string* error = nullptr);
  /// Return a lease to the pool (also forgets it locally).
  bool release(std::uint64_t lease_id, std::string* error = nullptr);
  /// Re-claim an orphaned / restored lease by id.
  bool adopt(std::uint64_t lease_id, std::string* error = nullptr);
  /// Lease ids the server would let us adopt right now.
  std::vector<std::uint64_t> adoptables(std::string* error = nullptr);

  // -- Fills ----------------------------------------------------------------

  /// Synchronous fill with transparent reconnect + re-adopt + retry.
  /// Returns the terminal serve::Status; non-kOk leaves `out` untouched.
  serve::Status fill(std::uint64_t lease_id, std::span<std::uint64_t> out,
                     std::string* error = nullptr);

  /// Pipelined submit: sends the kFill and returns its request id without
  /// waiting (0 on send failure). Up to the server's per-connection
  /// window may be in flight; collect each with fill_wait.
  std::uint64_t fill_submit(std::uint64_t lease_id, std::uint32_t words);

  /// Await the reply for a fill_submit id. No transparent retry: a dead
  /// connection surfaces kClosed and the caller re-submits (the server's
  /// orphan table has kept the lease alive).
  serve::Status fill_wait(std::uint64_t request_id,
                          std::span<std::uint64_t> out,
                          std::string* error = nullptr);

  // -- Control --------------------------------------------------------------

  std::optional<NetStats> stat(std::string* error = nullptr);
  /// Ask the server to checkpoint itself to a server-side path.
  bool checkpoint(const std::string& path, std::string* error = nullptr);
  /// Fetch the server's quality-scrubber report (docs/NETWORK.md §3.8).
  /// Doubles travel as IEEE-754 bit images, so the returned report is
  /// byte-identical to the server-side QualityScrubber::report().
  /// nullopt with *error = "no scrubber" when none is attached.
  std::optional<quality::QualityReport> quality(std::string* error = nullptr);

  struct Stats {
    std::uint64_t connects = 0;
    std::uint64_t reconnects = 0;  ///< connects after the first
    std::uint64_t requests = 0;
    std::uint64_t retries = 0;     ///< synchronous ops re-issued
    std::uint64_t timeouts = 0;
    std::uint64_t adoptions = 0;   ///< successful kAdopt acks
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// Client events, one per Stats field. count() bumps an event's Stats
  /// slot and its catalogued instrument together.
  enum Event : std::size_t {
    kConnects,
    kReconnects,
    kRequests,
    kRetries,
    kTimeouts,
    kAdoptions,
    kNumEvents,
  };

  void count(Event event);  // mu_ held

  /// Dial + hello + re-adopt held leases. mu_ held.
  bool ensure_connected(std::string* error);
  /// One dial + hello, no retry. mu_ held.
  bool connect_once(std::string* error);
  void disconnect();  // mu_ held
  /// Write a whole encoded frame; false (+ disconnect) on error. mu_ held.
  bool send_frame(const Frame& frame);
  /// Pump the socket until the reply for `request_id` arrives or
  /// `deadline` passes. nullopt = connection lost or deadline (the
  /// connection is closed either way; *timed_out says which). mu_ held.
  std::optional<Frame> await(std::uint64_t request_id,
                             std::chrono::steady_clock::time_point deadline,
                             bool* timed_out);
  /// send + await for one synchronous request. mu_ held.
  std::optional<Frame> roundtrip(Op op, std::string payload,
                                 bool* timed_out);
  /// ensure_connected + roundtrip, re-issued while the connection drops
  /// before a reply (at most max_reconnects times). nullopt = gave up;
  /// *error says why ("<what> timed out" or "connection lost"). mu_ held.
  std::optional<Frame> request(Op op, const std::string& payload,
                               const char* what, std::string* error,
                               bool* timed_out);
  /// The kLease path of lease() (no key) and lease_on(). Takes mu_.
  std::optional<std::uint64_t> open_lease(
      std::optional<std::uint64_t> shard_key, std::string* error);
  /// Re-adopt every held lease on a fresh connection. mu_ held.
  bool readopt_leases(std::string* error);

  ClientOptions opts_;
  Endpoint endpoint_;
  bool endpoint_ok_ = false;
  std::string endpoint_error_;
  /// Each event's `hprng.net.client.*` counter; null without a registry
  /// or for an event with no instrument of its own.
  std::array<obs::Counter*, kNumEvents> ins_{};

  mutable std::mutex mu_;
  int fd_ = -1;
  bool ever_connected_ = false;
  std::string rbuf_;
  std::uint64_t next_request_id_ = 1;
  std::map<std::uint64_t, Frame> replies_;  ///< out-of-order arrivals
  std::set<std::uint64_t> held_;            ///< lease ids we own
  ServerInfo info_;
  Stats stats_;
};

}  // namespace hprng::net
