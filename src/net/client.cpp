#include "net/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <thread>

namespace hprng::net {

namespace {

void set_error(std::string* error, const std::string& text) {
  if (error != nullptr) *error = text;
}

serve::Status status_from_wire(std::uint32_t raw) {
  switch (raw) {
    case 0: return serve::Status::kOk;
    case 1: return serve::Status::kRejected;
    case 2: return serve::Status::kShed;
    case 3: return serve::Status::kTimeout;
    case 4: return serve::Status::kClosed;
    case 6: return serve::Status::kRejectedQuota;
    default: return serve::Status::kFailed;
  }
}

/// Protocol errors that arrive instead of a FillAck, mapped onto the
/// serve-layer status a local caller would have seen.
serve::Status status_from_err(ErrCode code) {
  switch (code) {
    case ErrCode::kBackpressure: return serve::Status::kRejected;
    case ErrCode::kClosing: return serve::Status::kClosed;
    default: return serve::Status::kFailed;
  }
}

/// Decode the reply to a kFill: its kFillAck, or the kError the server
/// sent instead. Only a kOk ack writes `out`.
serve::Status read_fill_reply(const Frame& reply, std::span<std::uint64_t> out,
                              std::string* error) {
  WireReader r(reply.payload);
  if (reply.op == Op::kError) {
    const auto code = static_cast<ErrCode>(r.get_u32());
    set_error(error, std::string(to_string(code)) + ": " + r.get_str());
    return status_from_err(code);
  }
  if (reply.op != Op::kFillAck) {
    set_error(error, "unexpected reply op");
    return serve::Status::kFailed;
  }
  (void)r.get_u64();  // lease id echo
  const serve::Status status = status_from_wire(r.get_u32());
  const std::uint32_t nwords = r.get_u32();
  if (status != serve::Status::kOk) return status;
  if (nwords != out.size()) {
    set_error(error, "fill ack word-count mismatch");
    return serve::Status::kFailed;
  }
  r.get_words(out);
  if (!r.ok()) {
    set_error(error, "malformed fill ack");
    return serve::Status::kFailed;
  }
  return serve::Status::kOk;
}

/// Each client event's Stats slot and catalogued counter, in
/// NetClient::Event order; nullptr where the event has no instrument.
struct EventSlot {
  std::uint64_t NetClient::Stats::*stat;
  const char* instrument;
};
constexpr EventSlot kEvents[] = {
    {&NetClient::Stats::connects, "hprng.net.client.connects"},
    {&NetClient::Stats::reconnects, "hprng.net.client.reconnects"},
    {&NetClient::Stats::requests, "hprng.net.client.requests"},
    {&NetClient::Stats::retries, nullptr},
    {&NetClient::Stats::timeouts, "hprng.net.client.timeouts"},
    {&NetClient::Stats::adoptions, "hprng.net.client.adoptions"},
};

}  // namespace

NetClient::NetClient(ClientOptions opts) : opts_(std::move(opts)) {
  const auto ep = Endpoint::parse(opts_.endpoint, &endpoint_error_);
  if (ep.has_value()) {
    endpoint_ = *ep;
    endpoint_ok_ = true;
  }
  if (opts_.metrics != nullptr) {
    static_assert(std::size(kEvents) == kNumEvents);
    for (std::size_t e = 0; e < kNumEvents; ++e) {
      if (kEvents[e].instrument != nullptr) {
        ins_[e] = &opts_.metrics->counter(kEvents[e].instrument);
      }
    }
  }
}

void NetClient::count(Event event) {
  ++(stats_.*kEvents[event].stat);
  if (ins_[event] != nullptr) ins_[event]->add();
}

NetClient::~NetClient() {
  std::lock_guard<std::mutex> lk(mu_);
  disconnect();
}

bool NetClient::connect(std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  return ensure_connected(error);
}

bool NetClient::connected() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fd_ >= 0;
}

void NetClient::close() {
  std::lock_guard<std::mutex> lk(mu_);
  disconnect();
}

ServerInfo NetClient::server_info() const {
  std::lock_guard<std::mutex> lk(mu_);
  return info_;
}

NetClient::Stats NetClient::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void NetClient::disconnect() {
  close_fd(fd_);
  fd_ = -1;
  rbuf_.clear();
  replies_.clear();  // stragglers from the dead connection are meaningless
}

bool NetClient::connect_once(std::string* error) {
  if (!endpoint_ok_) {
    set_error(error, endpoint_error_);
    return false;
  }
  std::string err;
  const int fd = dial(endpoint_, &err);
  if (fd < 0) {
    set_error(error, err);
    return false;
  }
  fd_ = fd;
  WireWriter w;
  w.put_u32(kHelloMagic);
  w.put_u32(kWireVersion);
  w.put_str(opts_.name);
  Frame hello;
  hello.op = Op::kHello;
  hello.request_id = next_request_id_++;
  hello.payload = w.take();
  if (!send_frame(hello)) {
    set_error(error, "hello send failed");
    return false;
  }
  bool timed_out = false;
  const auto reply =
      await(hello.request_id,
            std::chrono::steady_clock::now() + opts_.timeout, &timed_out);
  if (!reply.has_value()) {
    set_error(error, timed_out ? "hello timed out" : "hello: connection lost");
    return false;
  }
  if (reply->op != Op::kHelloAck) {
    WireReader r(reply->payload);
    const auto code = static_cast<ErrCode>(r.get_u32());
    set_error(error, std::string("hello rejected: ") + to_string(code) +
                         ": " + r.get_str());
    disconnect();
    return false;
  }
  WireReader r(reply->payload);
  info_.proto = r.get_u32();
  info_.backend = r.get_str();
  info_.num_shards = r.get_u32();
  info_.max_fill_words = r.get_u64();
  if (!r.ok()) {
    set_error(error, "malformed hello ack");
    disconnect();
    return false;
  }
  count(kConnects);
  if (ever_connected_) count(kReconnects);
  ever_connected_ = true;
  return true;
}

bool NetClient::readopt_leases(std::string* error) {
  for (const std::uint64_t lease_id : held_) {
    WireWriter w;
    w.put_u64(lease_id);
    bool timed_out = false;
    const auto reply = roundtrip(Op::kAdopt, w.take(), &timed_out);
    if (!reply.has_value() || reply->op != Op::kAdoptAck) {
      set_error(error,
                "re-adopt of lease " + std::to_string(lease_id) + " failed");
      disconnect();
      return false;
    }
    WireReader r(reply->payload);
    (void)r.get_u64();
    if (r.get_u8() == 0 || !r.ok()) {
      set_error(error, "server refused re-adopt of lease " +
                           std::to_string(lease_id));
      disconnect();
      return false;
    }
    count(kAdoptions);
  }
  return true;
}

bool NetClient::ensure_connected(std::string* error) {
  if (fd_ >= 0) return true;
  std::string err;
  auto backoff = opts_.reconnect_backoff;
  const int attempts = std::max(1, opts_.max_reconnects);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(500));
    }
    if (!connect_once(&err)) {
      disconnect();
      continue;
    }
    if (!readopt_leases(&err)) {
      continue;  // readopt_leases disconnected already
    }
    return true;
  }
  set_error(error, err.empty() ? "connect failed" : err);
  return false;
}

bool NetClient::send_frame(const Frame& frame) {
  const std::string bytes = encode(frame);
  std::size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a server that vanished mid-send is EPIPE, not SIGPIPE.
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      disconnect();
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  count(kRequests);
  return true;
}

std::optional<Frame> NetClient::await(
    std::uint64_t request_id, std::chrono::steady_clock::time_point deadline,
    bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  for (;;) {
    const auto it = replies_.find(request_id);
    if (it != replies_.end()) {
      Frame frame = std::move(it->second);
      replies_.erase(it);
      return frame;
    }
    if (fd_ < 0) return std::nullopt;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      // A straggler reply after a timeout would answer the wrong request;
      // the only safe recovery is a fresh connection.
      if (timed_out != nullptr) *timed_out = true;
      count(kTimeouts);
      disconnect();
      return std::nullopt;
    }
    const auto wait_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    pollfd pfd{fd_, POLLIN, 0};
    const int rc =
        poll(&pfd, 1, static_cast<int>(std::min<long long>(wait_ms, 100)));
    if (rc < 0 && errno != EINTR) {
      disconnect();
      return std::nullopt;
    }
    if (rc <= 0) continue;
    char tmp[1 << 16];
    const ssize_t n = read(fd_, tmp, sizeof(tmp));
    if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
      disconnect();
      return std::nullopt;
    }
    if (n > 0) rbuf_.append(tmp, static_cast<std::size_t>(n));
    for (;;) {
      Frame frame;
      std::size_t consumed = 0;
      std::string err;
      const Decode dr = decode(rbuf_, &frame, &consumed, &err);
      if (dr == Decode::kNeedMore) break;
      if (dr == Decode::kBad) {  // a damaged server frame — give up
        disconnect();
        return std::nullopt;
      }
      rbuf_.erase(0, consumed);
      replies_[frame.request_id] = std::move(frame);
    }
  }
}

std::optional<Frame> NetClient::roundtrip(Op op, std::string payload,
                                          bool* timed_out) {
  Frame req;
  req.op = op;
  req.request_id = next_request_id_++;
  req.payload = std::move(payload);
  if (!send_frame(req)) return std::nullopt;
  return await(req.request_id, std::chrono::steady_clock::now() + opts_.timeout,
               timed_out);
}

std::optional<Frame> NetClient::request(Op op, const std::string& payload,
                                        const char* what, std::string* error,
                                        bool* timed_out) {
  for (int attempt = 0;; ++attempt) {
    if (!ensure_connected(error)) return std::nullopt;
    auto reply = roundtrip(op, payload, timed_out);
    if (reply.has_value()) return reply;
    if (!*timed_out && attempt < opts_.max_reconnects) {
      // EOF before any reply: the graceful-shutdown contract means the
      // request was never served, so re-issuing it cannot skip words
      // (docs/NETWORK.md §6).
      count(kRetries);
      continue;
    }
    set_error(error, *timed_out ? std::string(what) + " timed out"
                                : std::string("connection lost"));
    return std::nullopt;
  }
}

std::optional<std::uint64_t> NetClient::lease(std::string* error) {
  return open_lease(std::nullopt, error);
}

std::optional<std::uint64_t> NetClient::lease_on(std::uint64_t shard_key,
                                                 std::string* error) {
  return open_lease(shard_key, error);
}

std::optional<std::uint64_t> NetClient::open_lease(
    std::optional<std::uint64_t> shard_key, std::string* error) {
  WireWriter w;
  w.put_u8(shard_key.has_value() ? 1 : 0);
  w.put_u64(shard_key.value_or(0));
  w.put_u64(opts_.tenant);  // v2 lease payload (docs/NETWORK.md §3.2)
  std::lock_guard<std::mutex> lk(mu_);
  bool timed_out = false;
  const auto reply = request(Op::kLease, w.str(), "lease", error, &timed_out);
  if (!reply.has_value()) return std::nullopt;
  WireReader r(reply->payload);
  if (reply->op != Op::kLeaseAck) {
    const auto code = static_cast<ErrCode>(r.get_u32());
    set_error(error, std::string(to_string(code)) + ": " + r.get_str());
    return std::nullopt;
  }
  const std::uint64_t id = r.get_u64();
  if (!r.ok()) {
    set_error(error, "malformed lease ack");
    return std::nullopt;
  }
  held_.insert(id);
  return id;
}

bool NetClient::release(std::uint64_t lease_id, std::string* error) {
  WireWriter w;
  w.put_u64(lease_id);
  std::lock_guard<std::mutex> lk(mu_);
  held_.erase(lease_id);  // forget locally even if the wire call fails
  if (!ensure_connected(error)) return false;
  bool timed_out = false;
  const auto reply = roundtrip(Op::kRelease, w.str(), &timed_out);
  if (!reply.has_value() || reply->op != Op::kReleaseAck) {
    set_error(error, "release failed");
    return false;
  }
  WireReader r(reply->payload);
  (void)r.get_u64();
  return r.get_u8() != 0 && r.ok();
}

bool NetClient::adopt(std::uint64_t lease_id, std::string* error) {
  WireWriter w;
  w.put_u64(lease_id);
  std::lock_guard<std::mutex> lk(mu_);
  if (!ensure_connected(error)) return false;
  bool timed_out = false;
  const auto reply = roundtrip(Op::kAdopt, w.str(), &timed_out);
  if (!reply.has_value() || reply->op != Op::kAdoptAck) {
    set_error(error, "adopt failed");
    return false;
  }
  WireReader r(reply->payload);
  (void)r.get_u64();
  const bool ok = r.get_u8() != 0 && r.ok();
  if (ok) {
    held_.insert(lease_id);
    count(kAdoptions);
  } else {
    set_error(error, "server refused adopt of lease " +
                         std::to_string(lease_id));
  }
  return ok;
}

std::vector<std::uint64_t> NetClient::adoptables(std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!ensure_connected(error)) return {};
  bool timed_out = false;
  const auto reply = roundtrip(Op::kAdoptables, std::string(), &timed_out);
  if (!reply.has_value() || reply->op != Op::kAdoptablesAck) {
    set_error(error, "adoptables failed");
    return {};
  }
  WireReader r(reply->payload);
  const std::uint32_t count = r.get_u32();
  std::vector<std::uint64_t> ids;
  ids.reserve(count);
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    ids.push_back(r.get_u64());
  }
  if (!r.ok()) {
    set_error(error, "malformed adoptables ack");
    return {};
  }
  return ids;
}

serve::Status NetClient::fill(std::uint64_t lease_id,
                              std::span<std::uint64_t> out,
                              std::string* error) {
  if (out.empty() || out.size() > kMaxFillWords) {
    set_error(error, "fill size out of range");
    return serve::Status::kFailed;
  }
  WireWriter w;
  w.put_u64(lease_id);
  w.put_u32(static_cast<std::uint32_t>(out.size()));
  w.put_u32(0);  // server-default fill timeout
  std::lock_guard<std::mutex> lk(mu_);
  bool timed_out = false;
  const auto reply = request(Op::kFill, w.str(), "fill", error, &timed_out);
  if (!reply.has_value()) {
    return timed_out ? serve::Status::kTimeout : serve::Status::kClosed;
  }
  return read_fill_reply(*reply, out, error);
}

std::uint64_t NetClient::fill_submit(std::uint64_t lease_id,
                                     std::uint32_t words) {
  if (words == 0 || words > kMaxFillWords) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  if (!ensure_connected(nullptr)) return 0;
  WireWriter w;
  w.put_u64(lease_id);
  w.put_u32(words);
  w.put_u32(0);
  Frame req;
  req.op = Op::kFill;
  req.request_id = next_request_id_++;
  req.payload = w.take();
  if (!send_frame(req)) return 0;
  return req.request_id;
}

serve::Status NetClient::fill_wait(std::uint64_t request_id,
                                   std::span<std::uint64_t> out,
                                   std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  bool timed_out = false;
  const auto reply = await(
      request_id, std::chrono::steady_clock::now() + opts_.timeout,
      &timed_out);
  if (!reply.has_value()) {
    set_error(error, timed_out ? "fill timed out" : "connection lost");
    return timed_out ? serve::Status::kTimeout : serve::Status::kClosed;
  }
  return read_fill_reply(*reply, out, error);
}

std::optional<NetStats> NetClient::stat(std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!ensure_connected(error)) return std::nullopt;
  bool timed_out = false;
  const auto reply = roundtrip(Op::kStat, std::string(), &timed_out);
  if (!reply.has_value() || reply->op != Op::kStatAck) {
    set_error(error, "stat failed");
    return std::nullopt;
  }
  WireReader r(reply->payload);
  NetStats s;
  s.submitted = r.get_u64();
  s.completed = r.get_u64();
  s.rejected = r.get_u64();
  s.shed = r.get_u64();
  s.timed_out = r.get_u64();
  s.closed = r.get_u64();
  s.failed = r.get_u64();
  s.numbers_served = r.get_u64();
  s.active_leases = r.get_u64();
  s.healthy_shards = r.get_u64();
  s.adoptable = r.get_u64();
  s.connections = r.get_u64();
  // v2 acks append the QoS rejection total; a v1 ack simply ends here.
  if (reply->version >= 2) s.rejected_quota = r.get_u64();
  if (!r.ok()) {
    set_error(error, "malformed stat ack");
    return std::nullopt;
  }
  return s;
}

bool NetClient::checkpoint(const std::string& path, std::string* error) {
  WireWriter w;
  w.put_str(path);
  std::lock_guard<std::mutex> lk(mu_);
  if (!ensure_connected(error)) return false;
  bool timed_out = false;
  const auto reply = roundtrip(Op::kCkpt, w.str(), &timed_out);
  if (!reply.has_value() || reply->op != Op::kCkptAck) {
    set_error(error, "checkpoint request failed");
    return false;
  }
  WireReader r(reply->payload);
  const bool ok = r.get_u8() != 0;
  const std::string server_error = r.get_str();
  if (!ok) set_error(error, server_error);
  return ok && r.ok();
}

std::optional<quality::QualityReport> NetClient::quality(std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!ensure_connected(error)) return std::nullopt;
  bool timed_out = false;
  const auto reply = roundtrip(Op::kQuality, std::string(), &timed_out);
  if (!reply.has_value() || reply->op != Op::kQualityAck) {
    set_error(error, "quality request failed");
    return std::nullopt;
  }
  WireReader r(reply->payload);
  if (r.get_u8() == 0) {
    if (r.ok()) set_error(error, "no scrubber");
    else set_error(error, "malformed quality ack");
    return std::nullopt;
  }
  quality::QualityReport rep;
  rep.backend = r.get_str();
  rep.resting_tier = static_cast<int>(r.get_u32());
  rep.tier = static_cast<int>(r.get_u32());
  rep.passes = r.get_u64();
  rep.words = r.get_u64();
  rep.anomalies = r.get_u64();
  rep.escalations = r.get_u64();
  rep.feed_failures = r.get_u64();
  rep.batteries = r.get_u64();
  rep.anomalous = r.get_u8() != 0;
  rep.last_battery = r.get_str();
  rep.last_passed = static_cast<int>(r.get_u32());
  rep.last_total = static_cast<int>(r.get_u32());
  rep.last_ks_d = std::bit_cast<double>(r.get_u64());
  rep.last_ks_p = std::bit_cast<double>(r.get_u64());
  rep.last_ks_valid = r.get_u8() != 0;
  const std::uint32_t nstreams = r.get_u32();
  if (!r.ok() || nstreams > 65536) {
    set_error(error, "malformed quality ack");
    return std::nullopt;
  }
  rep.streams.resize(nstreams);
  for (quality::StreamReport& s : rep.streams) {
    s.lease_id = r.get_u64();
    s.words = r.get_u64();
    s.freq_p = std::bit_cast<double>(r.get_u64());
    s.corr_p = std::bit_cast<double>(r.get_u64());
    s.adopted = r.get_u8() != 0;
  }
  const std::uint32_t nhistory = r.get_u32();
  if (!r.ok() || nhistory > 65536) {
    set_error(error, "malformed quality ack");
    return std::nullopt;
  }
  rep.history.resize(nhistory);
  for (quality::AnomalyRecord& a : rep.history) {
    a.pass = r.get_u64();
    a.tier = static_cast<int>(r.get_u32());
    a.what = r.get_str();
  }
  if (!r.ok()) {
    set_error(error, "malformed quality ack");
    return std::nullopt;
  }
  return rep;
}

}  // namespace hprng::net
