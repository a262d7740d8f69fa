#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/check.hpp"

namespace hprng::net {

namespace {

/// Longest poll() wait of the loop, and of stop() waiting out fills.
constexpr std::chrono::milliseconds kMaxPollWait{100};

/// Wall sleep for an injected kDelay outcome (net I/O is host-side, so
/// delays are wall-clock, like the kWorker site).
void apply_delay(const fault::Outcome& outcome) {
  if (outcome.delay() && outcome.delay_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(outcome.delay_seconds));
  }
}

/// Each wire event's Stats slot and catalogued counter, in NetServer::Event
/// order; nullptr where the event has no instrument of its own.
struct EventSlot {
  std::uint64_t NetServer::Stats::*stat;
  const char* instrument;
};
constexpr EventSlot kEvents[] = {
    {&NetServer::Stats::accepted, "hprng.net.accepted"},
    {&NetServer::Stats::disconnects, "hprng.net.disconnects"},
    {&NetServer::Stats::frames_rx, "hprng.net.frames_rx"},
    {&NetServer::Stats::frames_tx, "hprng.net.frames_tx"},
    {&NetServer::Stats::bytes_rx, "hprng.net.bytes_rx"},
    {&NetServer::Stats::bytes_tx, "hprng.net.bytes_tx"},
    {&NetServer::Stats::frame_errors, "hprng.net.frame_errors"},
    {&NetServer::Stats::protocol_errors, "hprng.net.protocol_errors"},
    {&NetServer::Stats::fills, nullptr},
    {&NetServer::Stats::fills_ok, "hprng.net.fills_ok"},
    {&NetServer::Stats::fills_rejected, "hprng.net.fills_rejected"},
    {&NetServer::Stats::leases_opened, "hprng.net.leases_opened"},
    {&NetServer::Stats::leases_adopted, "hprng.net.leases_adopted"},
    {&NetServer::Stats::leases_released, "hprng.net.leases_released"},
    {&NetServer::Stats::checkpoints, "hprng.net.checkpoints"},
};

/// The server whose event loop runs on this thread, if any.
thread_local const NetServer* t_loop_server = nullptr;

/// Read a nonblocking fd until it is empty (the self-pipe's wake bytes).
void drain_fd(int fd) {
  char buf[256];
  while (read(fd, buf, sizeof(buf)) > 0) {
  }
}

}  // namespace

void register_catalogue(obs::MetricsRegistry& registry) {
  for (const EventSlot& e : kEvents) {
    if (e.instrument != nullptr) registry.counter(e.instrument);
  }
  registry.gauge("hprng.net.connections");
  registry.gauge("hprng.net.orphaned_leases");
  registry.histogram("hprng.net.fill_seconds");
  registry.counter("hprng.net.client.connects");
  registry.counter("hprng.net.client.reconnects");
  registry.counter("hprng.net.client.requests");
  registry.counter("hprng.net.client.timeouts");
  registry.counter("hprng.net.client.adoptions");
}

NetServer::NetServer(serve::RngService& service, ServerOptions opts,
                     obs::MetricsRegistry* metrics)
    : service_(service), opts_(std::move(opts)), metrics_(metrics) {
  if (metrics_ != nullptr) {
    register_catalogue(*metrics_);
    static_assert(std::size(kEvents) == kNumEvents);
    for (std::size_t e = 0; e < kNumEvents; ++e) {
      if (kEvents[e].instrument != nullptr) {
        ins_.events[e] = &metrics_->counter(kEvents[e].instrument);
      }
    }
    ins_.connections = &metrics_->gauge("hprng.net.connections");
    ins_.orphaned = &metrics_->gauge("hprng.net.orphaned_leases");
    ins_.fill_seconds = &metrics_->histogram("hprng.net.fill_seconds");
  }
  if (opts_.listen.empty()) {
    error_ = "NetServer: no listen endpoints";
    return;
  }
  for (const std::string& text : opts_.listen) {
    std::string err;
    const auto ep = Endpoint::parse(text, &err);
    if (!ep.has_value()) {
      error_ = err;
      break;
    }
    Listener lis;
    lis.fd = listen_on(*ep, &lis.resolved, &err);
    if (lis.fd < 0) {
      error_ = err;
      break;
    }
    set_nonblocking(lis.fd);
    listeners_.push_back(lis);
  }
  if (!error_.empty() || pipe(wake_pipe_) != 0) {
    if (error_.empty()) error_ = "NetServer: pipe failed";
    for (const Listener& lis : listeners_) close_fd(lis.fd);
    listeners_.clear();
    return;
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
  ok_ = true;
  loop_thread_ = std::thread([this] { loop(); });
}

NetServer::~NetServer() { stop(); }

std::vector<std::string> NetServer::endpoints() const {
  std::vector<std::string> out;
  out.reserve(listeners_.size());
  for (const Listener& lis : listeners_) {
    out.push_back(lis.resolved.to_string());
  }
  return out;
}

void NetServer::wake() {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = write(wake_pipe_[1], &byte, 1);
}

void NetServer::stop() {
  if (stopping_.exchange(true)) {
    if (loop_thread_.joinable()) loop_thread_.join();
    return;
  }
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  std::unique_lock<std::mutex> lk(mu_);
  // Every accepted fill's settle hook calls into this server, so wait for
  // all of them before tearing down. The sweep abandons fills still
  // queued at their deadline, so a paused service cannot hold stop()
  // past the open fills' timeouts.
  for (;;) {
    const int timeout_ms = sweep_deadlines();
    reply_settled();
    if (inflight_fills_.empty()) break;
    lk.unlock();
    pollfd pfd{wake_pipe_[0], POLLIN, 0};
    poll(&pfd, 1, timeout_ms);
    drain_fd(wake_pipe_[0]);
    lk.lock();
  }
  for (auto& [id, c] : conns_) {
    // Leases still bound to live connections park as orphans so a future
    // server over the same (still-running) service could hand them back.
    for (auto& [lease_id, session] : c->sessions) {
      orphans_.emplace(lease_id, std::move(session));
    }
    close_fd(c->fd);
  }
  conns_.clear();
  for (const Listener& lis : listeners_) {
    close_fd(lis.fd);
    if (lis.resolved.kind == Endpoint::Kind::kUnix) {
      ::unlink(lis.resolved.path.c_str());
    }
  }
  listeners_.clear();
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

void NetServer::begin_drain() {
  draining_.store(true, std::memory_order_relaxed);
  wake();
}

bool NetServer::quiescent() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (!inflight_fills_.empty()) return false;
  for (const auto& [id, c] : conns_) {
    if (!c->wbuf.empty()) return false;
  }
  return true;
}

NetServer::Stats NetServer::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats out = stats_;
  out.connections = conns_.size();
  out.orphaned = orphans_.size();
  return out;
}

void NetServer::count(Event event, std::uint64_t n) {
  stats_.*kEvents[event].stat += n;
  if (ins_.events[event] != nullptr) {
    ins_.events[event]->add(static_cast<double>(n));
  }
}

void NetServer::publish_gauges() {
  if (ins_.connections == nullptr) return;
  ins_.connections->set(static_cast<double>(conns_.size()));
  ins_.orphaned->set(static_cast<double>(orphans_.size()));
}

void NetServer::loop() {
  t_loop_server = this;
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> conn_of_pfd;  // 0 = not a connection slot
  int timeout_ms = static_cast<int>(kMaxPollWait.count());
  while (!stopping_.load(std::memory_order_relaxed)) {
    const bool draining = draining_.load(std::memory_order_relaxed);
    pfds.clear();
    conn_of_pfd.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    conn_of_pfd.push_back(0);
    for (const Listener& lis : listeners_) {
      // While draining: listener stays bound (the endpoint is still ours)
      // but no new connections are admitted.
      pfds.push_back({lis.fd, static_cast<short>(draining ? 0 : POLLIN), 0});
      conn_of_pfd.push_back(0);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (const auto& [id, c] : conns_) {
        // While draining: never read — bytes left on the wire were never
        // served, which is the whole graceful-restart guarantee.
        short events = draining ? 0 : POLLIN;
        if (!c->wbuf.empty()) events |= POLLOUT;
        pfds.push_back({c->fd, events, 0});
        conn_of_pfd.push_back(id);
      }
    }
    const int rc =
        poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (stopping_.load(std::memory_order_relaxed)) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failing is unrecoverable for the loop
    }
    std::lock_guard<std::mutex> lk(mu_);
    // Drained before reply_settled() takes the done list, so a hook that
    // lists a fill after that always leaves a wake byte for the next poll.
    if ((pfds[0].revents & POLLIN) != 0) drain_fd(wake_pipe_[0]);
    for (std::size_t i = 0; i < listeners_.size(); ++i) {
      if (!draining && (pfds[1 + i].revents & POLLIN) != 0) {
        accept_ready(i);
      }
    }
    for (std::size_t i = 1 + listeners_.size(); i < pfds.size(); ++i) {
      const std::uint64_t id = conn_of_pfd[i];
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // dropped while handling others
      const std::shared_ptr<Conn> c = it->second;
      if ((pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        drop(c);
        continue;
      }
      if (!draining && (pfds[i].revents & POLLIN) != 0) read_ready(c);
    }
    timeout_ms = sweep_deadlines();
    reply_settled();
    // Flush every dirty connection once per iteration: replies written by
    // op handlers and fill acks queued above go out now instead of
    // waiting for the next POLLOUT wakeup.
    std::vector<std::shared_ptr<Conn>> dirty;
    for (const auto& [id, c] : conns_) {
      if (!c->wbuf.empty()) dirty.push_back(c);
    }
    for (const std::shared_ptr<Conn>& c : dirty) write_ready(c);
  }
}

void NetServer::accept_ready(std::size_t listener_idx) {
  const Listener& lis = listeners_[listener_idx];
  for (;;) {
    const int fd = accept(lis.fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; poll will retry
    }
    if (opts_.injector != nullptr) {
      const fault::Outcome outcome = opts_.injector->on_event(
          fault::Site::kNetAccept, static_cast<int>(listener_idx));
      apply_delay(outcome);
      if (outcome.fail()) {
        // Injected accept fault: the peer sees an immediate disconnect —
        // the "listener flake" weather a reconnecting client must ride.
        close_fd(fd);
        continue;
      }
    }
    set_nonblocking(fd);
    auto c = std::make_shared<Conn>();
    c->fd = fd;
    c->id = next_conn_id_++;
    conns_.emplace(c->id, c);
    count(kAccepted);
    publish_gauges();
  }
}

void NetServer::read_ready(const std::shared_ptr<Conn>& c) {
  if (opts_.injector != nullptr) {
    const fault::Outcome outcome = opts_.injector->on_event(
        fault::Site::kNetRead, static_cast<int>(c->id & 0x7FFFFFFF));
    apply_delay(outcome);
    if (outcome.fail()) {
      drop(c);
      return;
    }
  }
  char tmp[1 << 16];
  for (;;) {
    const ssize_t n = read(c->fd, tmp, sizeof(tmp));
    if (n > 0) {
      c->rbuf.append(tmp, static_cast<std::size_t>(n));
      count(kBytesRx, static_cast<std::uint64_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(tmp)) break;
      continue;
    }
    if (n == 0) {  // orderly EOF
      drop(c);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    drop(c);
    return;
  }
  while (!c->closing) {
    Frame frame;
    std::size_t consumed = 0;
    std::string err;
    const Decode dr = decode(c->rbuf, &frame, &consumed, &err);
    if (dr == Decode::kNeedMore) break;
    if (dr == Decode::kBad) {
      count(kFrameErrors);
      send_error(c, 0, ErrCode::kBadFrame, err);
      break;
    }
    c->rbuf.erase(0, consumed);
    count(kFramesRx);
    handle_frame(c, frame);
    if (conns_.count(c->id) == 0) return;  // handler dropped the conn
  }
}

void NetServer::write_ready(const std::shared_ptr<Conn>& c) {
  if (c->wbuf.empty()) return;
  if (opts_.injector != nullptr) {
    const fault::Outcome outcome = opts_.injector->on_event(
        fault::Site::kNetWrite, static_cast<int>(c->id & 0x7FFFFFFF));
    apply_delay(outcome);
    if (outcome.fail()) {
      drop(c);
      return;
    }
  }
  // MSG_NOSIGNAL: a peer that closed mid-reply must surface as EPIPE,
  // never as a process-wide SIGPIPE.
  const ssize_t n =
      ::send(c->fd, c->wbuf.data(), c->wbuf.size(), MSG_NOSIGNAL);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    drop(c);
    return;
  }
  count(kBytesTx, static_cast<std::uint64_t>(n));
  c->wbuf.erase(0, static_cast<std::size_t>(n));
  if (c->wbuf.empty() && c->closing) drop(c);
}

void NetServer::drop(const std::shared_ptr<Conn>& c) {
  if (conns_.erase(c->id) == 0) return;  // already dropped
  // Park the connection's leases for re-adoption instead of releasing:
  // a vanished peer is indistinguishable from one about to reconnect,
  // and the substream must survive for kAdopt (docs/NETWORK.md §6).
  for (auto& [lease_id, session] : c->sessions) {
    orphans_.emplace(lease_id, std::move(session));
  }
  c->sessions.clear();
  close_fd(c->fd);
  c->fd = -1;
  count(kDisconnects);
  publish_gauges();
}

void NetServer::send(const std::shared_ptr<Conn>& c, const Frame& frame) {
  c->wbuf += encode(frame);
  count(kFramesTx);
}

void NetServer::send_error(const std::shared_ptr<Conn>& c,
                           std::uint64_t request_id, ErrCode code,
                           const std::string& message) {
  WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(code));
  w.put_str(message);
  Frame reply;
  reply.op = Op::kError;
  reply.request_id = request_id;
  reply.payload = w.take();
  send(c, reply);
  count(kProtocolErrors);
  if (fatal(code)) c->closing = true;
}

void NetServer::handle_frame(const std::shared_ptr<Conn>& c,
                             const Frame& frame) {
  if (frame.version < kMinWireVersion || frame.version > kWireVersion) {
    send_error(c, frame.request_id, ErrCode::kVersionMismatch,
               "wire version " + std::to_string(frame.version) +
                   ", this server speaks " +
                   std::to_string(kMinWireVersion) + ".." +
                   std::to_string(kWireVersion));
    return;
  }
  if (!known_op(static_cast<std::uint8_t>(frame.op))) {
    send_error(c, frame.request_id, ErrCode::kBadRequest, "unknown op");
    return;
  }
  if (!c->hello_done && frame.op != Op::kHello) {
    send_error(c, frame.request_id, ErrCode::kBadRequest,
               "first frame must be hello");
    return;
  }
  WireReader r(frame.payload);
  switch (frame.op) {
    case Op::kHello: {
      const std::uint32_t magic = r.get_u32();
      const std::uint32_t proto = r.get_u32();
      const std::string client = r.get_str();
      (void)client;
      if (!r.ok() || magic != kHelloMagic) {
        send_error(c, frame.request_id, ErrCode::kBadRequest, "bad hello");
        return;
      }
      if (proto < kMinWireVersion || proto > kWireVersion) {
        send_error(c, frame.request_id, ErrCode::kVersionMismatch,
                   "hello proto " + std::to_string(proto) +
                       ", this server speaks " +
                       std::to_string(kMinWireVersion) + ".." +
                       std::to_string(kWireVersion));
        return;
      }
      c->hello_done = true;
      WireWriter w;
      // Echo the client's (accepted) proto: within the window the client
      // keeps speaking its own version and the server parses per-frame.
      w.put_u32(proto);
      w.put_str(service_.options().backend);
      w.put_u32(static_cast<std::uint32_t>(service_.num_shards()));
      w.put_u64(static_cast<std::uint64_t>(kMaxFillWords));
      Frame reply;
      reply.op = Op::kHelloAck;
      reply.request_id = frame.request_id;
      reply.payload = w.take();
      send(c, reply);
      return;
    }
    case Op::kLease: {
      const std::uint8_t has_key = r.get_u8();
      const std::uint64_t key = r.get_u64();
      // v2 appends the tenant id; v1 peers land on the default tenant 0
      // (docs/NETWORK.md §3.2, docs/QOS.md §2).
      const std::uint64_t tenant = frame.version >= 2 ? r.get_u64() : 0;
      if (!r.ok()) {
        send_error(c, frame.request_id, ErrCode::kBadRequest, "bad lease");
        return;
      }
      serve::RngService::SessionSpec spec;
      spec.tenant = tenant;
      if (has_key != 0) spec.shard_key = key;
      auto session = service_.try_open_session(spec);
      if (!session.has_value()) {
        send_error(c, frame.request_id, ErrCode::kLeaseExhausted,
                   "lease pool exhausted");
        return;
      }
      const serve::Lease lease = session->lease();
      c->sessions.emplace(lease.id, *session);
      count(kLeasesOpened);
      WireWriter w;
      w.put_u64(lease.id);
      w.put_u32(static_cast<std::uint32_t>(lease.shard));
      w.put_u64(lease.slot);
      Frame reply;
      reply.op = Op::kLeaseAck;
      reply.request_id = frame.request_id;
      reply.payload = w.take();
      send(c, reply);
      return;
    }
    case Op::kFill: {
      const std::uint64_t lease_id = r.get_u64();
      const std::uint32_t words = r.get_u32();
      const std::uint32_t timeout_ms = r.get_u32();
      if (!r.ok() || words == 0 ||
          static_cast<std::size_t>(words) > kMaxFillWords) {
        send_error(c, frame.request_id, ErrCode::kBadRequest, "bad fill");
        return;
      }
      const auto it = c->sessions.find(lease_id);
      if (it == c->sessions.end()) {
        send_error(c, frame.request_id, ErrCode::kUnknownLease,
                   "lease " + std::to_string(lease_id) +
                       " is not bound to this connection");
        return;
      }
      if (c->pending_fills >= opts_.max_pending_fills) {
        // Protocol-level shed: the connection's fill window is full. The
        // client sees an explicit kBackpressure reply, not a stall.
        count(kFillsRejected);
        send_error(c, frame.request_id, ErrCode::kBackpressure,
                   "per-connection fill window full");
        return;
      }
      const std::chrono::nanoseconds timeout =
          timeout_ms == 0 ? std::chrono::nanoseconds{}
                          : std::chrono::milliseconds(timeout_ms);
      const std::uint64_t key = next_fill_++;
      Fill& fill = inflight_fills_[key];
      fill.conn_id = c->id;
      fill.request_id = frame.request_id;
      fill.lease_id = lease_id;
      fill.buf.resize(words);
      fill.start = std::chrono::steady_clock::now();
      fill.ticket = it->second.fill_async(
          fill.buf, timeout, [this, key](serve::Status status) {
            on_settled({key, status, std::chrono::steady_clock::now()});
          });
      ++c->pending_fills;
      count(kFills);
      return;
    }
    case Op::kRelease: {
      const std::uint64_t lease_id = r.get_u64();
      if (!r.ok()) {
        send_error(c, frame.request_id, ErrCode::kBadRequest, "bad release");
        return;
      }
      bool released = c->sessions.erase(lease_id) > 0;
      if (!released) released = orphans_.erase(lease_id) > 0;
      if (released) {
        count(kLeasesReleased);
        publish_gauges();
      }
      WireWriter w;
      w.put_u64(lease_id);
      w.put_u8(released ? 1 : 0);
      Frame reply;
      reply.op = Op::kReleaseAck;
      reply.request_id = frame.request_id;
      reply.payload = w.take();
      send(c, reply);
      return;
    }
    case Op::kAdopt: {
      const std::uint64_t lease_id = r.get_u64();
      if (!r.ok()) {
        send_error(c, frame.request_id, ErrCode::kBadRequest, "bad adopt");
        return;
      }
      bool ok = c->sessions.count(lease_id) > 0;  // idempotent re-adopt
      if (!ok) {
        const auto orphan = orphans_.find(lease_id);
        if (orphan != orphans_.end()) {
          c->sessions.emplace(lease_id, std::move(orphan->second));
          orphans_.erase(orphan);
          ok = true;
        } else {
          auto session = service_.adopt_session(lease_id);
          if (session.has_value()) {
            c->sessions.emplace(lease_id, *session);
            ok = true;
          }
        }
        if (ok) {
          count(kLeasesAdopted);
          publish_gauges();
        }
      }
      WireWriter w;
      w.put_u64(lease_id);
      w.put_u8(ok ? 1 : 0);
      Frame reply;
      reply.op = Op::kAdoptAck;
      reply.request_id = frame.request_id;
      reply.payload = w.take();
      send(c, reply);
      return;
    }
    case Op::kAdoptables: {
      std::vector<std::uint64_t> ids = service_.adoptable_lease_ids();
      for (const auto& [lease_id, session] : orphans_) {
        ids.push_back(lease_id);
      }
      std::sort(ids.begin(), ids.end());
      WireWriter w;
      w.put_u32(static_cast<std::uint32_t>(ids.size()));
      for (const std::uint64_t id : ids) w.put_u64(id);
      Frame reply;
      reply.op = Op::kAdoptablesAck;
      reply.request_id = frame.request_id;
      reply.payload = w.take();
      send(c, reply);
      return;
    }
    case Op::kStat: {
      const serve::RngService::Stats s = service_.stats();
      WireWriter w;
      w.put_u64(s.submitted);
      w.put_u64(s.completed);
      w.put_u64(s.rejected);
      w.put_u64(s.shed);
      w.put_u64(s.timed_out);
      w.put_u64(s.closed);
      w.put_u64(s.failed);
      w.put_u64(s.numbers_served);
      w.put_u64(s.active_leases);
      w.put_u64(static_cast<std::uint64_t>(service_.healthy_shards()));
      w.put_u64(static_cast<std::uint64_t>(
          service_.adoptable_lease_ids().size() + orphans_.size()));
      w.put_u64(static_cast<std::uint64_t>(conns_.size()));
      // v2 appends the QoS rejection total; the ack mirrors the request's
      // version so a v1 peer sees exactly the v1 payload shape.
      if (frame.version >= 2) w.put_u64(s.rejected_quota);
      Frame reply;
      reply.version = frame.version;
      reply.op = Op::kStatAck;
      reply.request_id = frame.request_id;
      reply.payload = w.take();
      send(c, reply);
      return;
    }
    case Op::kCkpt: {
      const std::string path = r.get_str();
      if (!r.ok() || path.empty()) {
        send_error(c, frame.request_id, ErrCode::kBadRequest, "bad ckpt");
        return;
      }
      // Safe inline: the loop thread is the only session opener/releaser,
      // so the no-lease-churn precondition of checkpoint() holds by
      // construction while we block here.
      std::string err;
      const bool ok = service_.checkpoint(path, &err);
      if (ok) count(kCheckpoints);
      WireWriter w;
      w.put_u8(ok ? 1 : 0);
      w.put_str(err);
      Frame reply;
      reply.op = Op::kCkptAck;
      reply.request_id = frame.request_id;
      reply.payload = w.take();
      send(c, reply);
      return;
    }
    case Op::kQuality: {
      WireWriter w;
      if (opts_.scrubber == nullptr) {
        w.put_u8(0);
      } else {
        // Doubles cross the wire as their IEEE-754 bit images so the
        // client-side report is byte-identical to the server's (the
        // determinism contract extends across the wire).
        const quality::QualityReport rep = opts_.scrubber->report();
        w.put_u8(1);
        w.put_str(rep.backend);
        w.put_u32(static_cast<std::uint32_t>(rep.resting_tier));
        w.put_u32(static_cast<std::uint32_t>(rep.tier));
        w.put_u64(rep.passes);
        w.put_u64(rep.words);
        w.put_u64(rep.anomalies);
        w.put_u64(rep.escalations);
        w.put_u64(rep.feed_failures);
        w.put_u64(rep.batteries);
        w.put_u8(rep.anomalous ? 1 : 0);
        w.put_str(rep.last_battery);
        w.put_u32(static_cast<std::uint32_t>(rep.last_passed));
        w.put_u32(static_cast<std::uint32_t>(rep.last_total));
        w.put_u64(std::bit_cast<std::uint64_t>(rep.last_ks_d));
        w.put_u64(std::bit_cast<std::uint64_t>(rep.last_ks_p));
        w.put_u8(rep.last_ks_valid ? 1 : 0);
        w.put_u32(static_cast<std::uint32_t>(rep.streams.size()));
        for (const quality::StreamReport& s : rep.streams) {
          w.put_u64(s.lease_id);
          w.put_u64(s.words);
          w.put_u64(std::bit_cast<std::uint64_t>(s.freq_p));
          w.put_u64(std::bit_cast<std::uint64_t>(s.corr_p));
          w.put_u8(s.adopted ? 1 : 0);
        }
        w.put_u32(static_cast<std::uint32_t>(rep.history.size()));
        for (const quality::AnomalyRecord& a : rep.history) {
          w.put_u64(a.pass);
          w.put_u32(static_cast<std::uint32_t>(a.tier));
          w.put_str(a.what);
        }
      }
      Frame reply;
      reply.op = Op::kQualityAck;
      reply.request_id = frame.request_id;
      reply.payload = w.take();
      send(c, reply);
      return;
    }
    default:
      send_error(c, frame.request_id, ErrCode::kBadRequest,
                 std::string("server does not accept op ") +
                     net::to_string(frame.op));
      return;
  }
}

void NetServer::on_settled(const Settled& settled) {
  std::lock_guard<std::mutex> lk(done_mu_);
  done_.push_back(settled);
  // The loop itself settles fills it served in place, rejections and
  // expired fills; its reply_settled() later in the same iteration
  // answers them, so it writes no wake byte. Another thread's first entry
  // wakes the loop; later ones ride the same wake-up. The write stays
  // under done_mu_: once stop() has taken the last entry, no hook touches
  // this server again.
  if (done_.size() == 1 && t_loop_server != this) wake();
}

int NetServer::sweep_deadlines() {
  const auto now = std::chrono::steady_clock::now();
  auto next = now + kMaxPollWait;
  for (auto& [key, fill] : inflight_fills_) {
    const auto deadline = fill.ticket.deadline();
    if (deadline > now) {
      next = std::min(next, deadline);
    } else {
      // Still queued: it settles kTimeout here and its hook lists it.
      // Claimed by a worker: it settles when served.
      fill.ticket.abandon();
    }
  }
  return static_cast<int>(
      std::chrono::ceil<std::chrono::milliseconds>(next - now).count());
}

void NetServer::reply_settled() {
  std::vector<Settled> settled;
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    settled.swap(done_);
  }
  for (const Settled& s : settled) {
    const auto node = inflight_fills_.extract(s.fill);
    HPRNG_CHECK(!node.empty(), "NetServer: settled fill is not in flight");
    const Fill& fill = node.mapped();
    count(s.status == serve::Status::kOk ? kFillsOk : kFillsRejected);
    if (ins_.fill_seconds != nullptr) {
      ins_.fill_seconds->observe(
          std::chrono::duration<double>(s.at - fill.start).count());
    }
    const auto it = conns_.find(fill.conn_id);
    if (it == conns_.end()) continue;  // peer left; words are orphaned
    const std::shared_ptr<Conn>& c = it->second;
    if (c->pending_fills > 0) --c->pending_fills;
    WireWriter w;
    w.put_u64(fill.lease_id);
    w.put_u32(static_cast<std::uint32_t>(s.status));
    if (s.status == serve::Status::kOk) {
      w.put_u32(static_cast<std::uint32_t>(fill.buf.size()));
      w.put_words(fill.buf);
    } else {
      w.put_u32(0);
    }
    Frame reply;
    reply.op = Op::kFillAck;
    reply.request_id = fill.request_id;
    reply.payload = w.take();
    send(c, reply);
  }
}

}  // namespace hprng::net
