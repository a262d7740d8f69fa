// End-to-end tests of NetServer + NetClient over real sockets
// (docs/NETWORK.md): the hello gate, lease/fill/release round trips that
// must be bit-identical to an in-process reference service, pipelining,
// protocol-level backpressure, full-queue rejection that never stalls the
// poll loop, a one-thread server whose replies go out as their fills
// settle, wire deadlines, orphan adoption across connections, and
// transparent client reconnection. Unix-domain sockets are the primary
// transport (always available); the TCP test skips itself where the
// sandbox forbids binding.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "quality/quality.hpp"
#include "serve/service.hpp"

namespace hprng {
namespace {

std::string unique_unix_endpoint() {
  static int counter = 0;
  return "unix:/tmp/hprng-nt-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter) + ".sock";
}

serve::ServiceOptions small_options(const std::string& backend = "hybrid") {
  serve::ServiceOptions opts;
  opts.backend = backend;
  opts.num_shards = 2;
  opts.max_leases_per_shard = 8;
  opts.num_workers = 2;
  opts.queue_capacity = 64;
  opts.max_coalesce = 4;
  return opts;
}

net::ClientOptions client_options(const std::string& endpoint) {
  net::ClientOptions opts;
  opts.endpoint = endpoint;
  opts.timeout = std::chrono::milliseconds(10000);
  return opts;
}

TEST(NetService, HelloReportsBackendAndLimits) {
  serve::RngService service(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  ASSERT_TRUE(client.connect(&err)) << err;
  const net::ServerInfo info = client.server_info();
  EXPECT_EQ(info.proto, net::kWireVersion);
  EXPECT_EQ(info.backend, "hybrid");
  EXPECT_EQ(info.num_shards, 2u);
  EXPECT_EQ(info.max_fill_words, net::kMaxFillWords);
}

// The golden equivalence: words served over the wire are bit-identical to
// the same lease sequence on an in-process service with the same options.
TEST(NetService, WireFillsAreBitIdenticalToInProcessService) {
  serve::RngService service(small_options());
  serve::RngService reference(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  const auto lease = client.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;

  auto ref_session = reference.try_open_session();
  ASSERT_TRUE(ref_session.has_value());
  ASSERT_EQ(*lease, ref_session->lease().id);

  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint64_t> wire(257);
    std::vector<std::uint64_t> local(257);
    ASSERT_EQ(client.fill(*lease, wire, &err), serve::Status::kOk) << err;
    ASSERT_EQ(ref_session->fill(local), serve::Status::kOk);
    EXPECT_EQ(wire, local) << "round " << round;
  }
  EXPECT_TRUE(client.release(*lease, &err)) << err;

  const net::NetServer::Stats stats = server.stats();
  EXPECT_EQ(stats.fills_ok, 3u);
  EXPECT_EQ(stats.leases_opened, 1u);
  EXPECT_EQ(stats.leases_released, 1u);
  EXPECT_EQ(stats.frame_errors, 0u);
}

TEST(NetService, PipelinedFillsPreserveStreamOrder) {
  serve::RngService service(small_options());
  serve::RngService reference(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  const auto lease = client.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;
  auto ref_session = reference.try_open_session();
  ASSERT_TRUE(ref_session.has_value());

  constexpr int kDepth = 8;
  constexpr std::uint32_t kWords = 64;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kDepth; ++i) {
    const std::uint64_t id = client.fill_submit(*lease, kWords);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  std::vector<std::uint64_t> wire;
  for (const std::uint64_t id : ids) {
    std::vector<std::uint64_t> chunk(kWords);
    ASSERT_EQ(client.fill_wait(id, chunk, &err), serve::Status::kOk) << err;
    wire.insert(wire.end(), chunk.begin(), chunk.end());
  }
  std::vector<std::uint64_t> local(kDepth * kWords);
  ASSERT_EQ(ref_session->fill(local), serve::Status::kOk);
  EXPECT_EQ(wire, local);
}

// Sequential small fills on an idle service: every fill but the lease's
// first is served on the loop thread itself (docs/NETWORK.md §5), and the
// words still match an in-process reference.
TEST(NetService, SequentialSmallFillsAfterTheFirstAreServedInPlace) {
  serve::RngService service(small_options());
  serve::RngService reference(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  const auto lease = client.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;
  auto ref_session = reference.try_open_session();
  ASSERT_TRUE(ref_session.has_value());

  constexpr int kFills = 8;
  for (int i = 0; i < kFills; ++i) {
    std::vector<std::uint64_t> wire(16);
    std::vector<std::uint64_t> local(16);
    ASSERT_EQ(client.fill(*lease, wire, &err), serve::Status::kOk) << err;
    ASSERT_EQ(ref_session->fill(local), serve::Status::kOk);
    EXPECT_EQ(wire, local) << "fill " << i;
    service.drain();  // the next fill finds the service idle
  }
  EXPECT_EQ(service.stats().served_in_place,
            static_cast<std::uint64_t>(kFills - 1));
  EXPECT_EQ(server.stats().fills_ok, static_cast<std::uint64_t>(kFills));
}

TEST(NetService, BackpressureWindowShedsWithExplicitReply) {
  serve::RngService service(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}, .max_pending_fills = 1});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  const auto lease = client.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;

  service.pause();  // the first fill cannot complete while paused
  const std::uint64_t first = client.fill_submit(*lease, 32);
  ASSERT_NE(first, 0u);
  const std::uint64_t second = client.fill_submit(*lease, 32);
  ASSERT_NE(second, 0u);
  // The second submit exceeded max_pending_fills=1: explicit shed reply.
  std::vector<std::uint64_t> out(32);
  EXPECT_EQ(client.fill_wait(second, out, &err), serve::Status::kRejected);
  EXPECT_NE(err.find("backpressure"), std::string::npos) << err;
  service.resume();
  EXPECT_EQ(client.fill_wait(first, out, &err), serve::Status::kOk) << err;
  EXPECT_GE(server.stats().fills_rejected, 1u);
}

// Overload must never freeze the wire front-end. The poll loop submits
// every fill itself, so a full service queue has to answer kRejected at
// once while every other connection keeps being served.
TEST(NetService, FullQueueRejectsWithoutStallingOtherConnections) {
  serve::ServiceOptions opts = small_options();
  opts.queue_capacity = 1;
  opts.default_timeout = std::chrono::seconds(3);
  serve::RngService service(opts);
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient a(client_options(ep));
  std::string err;
  const auto lease = a.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;

  service.pause();  // the first fill takes the only queue slot and stays
  const std::uint64_t first = a.fill_submit(*lease, 32);
  const std::uint64_t second = a.fill_submit(*lease, 32);
  ASSERT_NE(first, 0u);
  ASSERT_NE(second, 0u);
  for (int i = 0; i < 500 && service.stats().submitted < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(service.stats().submitted, 2u) << "fills never reached the loop";

  const auto start = std::chrono::steady_clock::now();
  net::NetClient b(client_options(ep));
  ASSERT_TRUE(b.connect(&err)) << err;
  const auto stat = b.stat(&err);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(stat.has_value()) << err;
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "the poll loop stalled behind a full queue";

  std::vector<std::uint64_t> out(32);
  EXPECT_EQ(a.fill_wait(second, out, &err), serve::Status::kRejected) << err;
  service.resume();
  EXPECT_EQ(a.fill_wait(first, out, &err), serve::Status::kOk) << err;
}

std::size_t thread_count() {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    (void)entry;
    ++n;
  }
  return ec ? 0 : n;
}

// The poll loop is the server's only thread: no thread waits on a fill.
TEST(NetService, ServerStartsExactlyOneThread) {
  serve::RngService service(small_options());
  const std::size_t before = thread_count();
  if (before == 0) GTEST_SKIP() << "/proc/self/task is not readable here";
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();
  EXPECT_EQ(thread_count(), before + 1);
}

// A reply goes out as soon as its fill settles: fills stalled on one
// shard must not hold back another connection's ready reply.
TEST(NetService, ReadyReplyIsNotHeldBehindStalledFills) {
  auto plan = fault::FaultPlan::parse("shard:0:delay:0:2:1.0");
  ASSERT_TRUE(plan.has_value());
  fault::Injector injector(*plan);
  serve::ServiceOptions opts = small_options();
  opts.num_workers = 4;
  opts.injector = &injector;
  serve::RngService service(opts);
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient a(client_options(ep));
  net::NetClient b(client_options(ep));
  net::NetClient c(client_options(ep));
  std::string err;
  const auto lease_a = a.lease_on(0, &err);
  ASSERT_TRUE(lease_a.has_value()) << err;
  const auto lease_b = b.lease_on(0, &err);
  ASSERT_TRUE(lease_b.has_value()) << err;
  const auto lease_c = c.lease_on(1, &err);
  ASSERT_TRUE(lease_c.has_value()) << err;

  const std::uint64_t id_a = a.fill_submit(*lease_a, 16);
  const std::uint64_t id_b = b.fill_submit(*lease_b, 16);
  ASSERT_NE(id_a, 0u);
  ASSERT_NE(id_b, 0u);
  // Both stalled fills are popped before the third is sent, so no worker
  // can batch the third behind them.
  const auto popped = [&] {
    const serve::RngService::Stats st = service.stats();
    return st.submitted == 2 && st.queue_depth == 0;
  };
  for (int i = 0; i < 500 && !popped(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(popped()) << "fills never reached the workers";

  std::vector<std::uint64_t> out(16);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_EQ(c.fill(*lease_c, out, &err), serve::Status::kOk) << err;
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(300))
      << "a ready reply waited behind fills stalled on another shard";

  EXPECT_EQ(a.fill_wait(id_a, out, &err), serve::Status::kOk) << err;
  EXPECT_EQ(b.fill_wait(id_b, out, &err), serve::Status::kOk) << err;
}

// Nothing waits on a wire fill's ticket, so the server itself must time
// out a fill still queued at its deadline, and the abandoned request must
// not consume any words of the lease's stream.
TEST(NetService, QueuedFillTimesOutAtItsDeadlineAndConsumesNothing) {
  serve::ServiceOptions opts = small_options();
  opts.default_timeout = std::chrono::milliseconds(300);
  serve::RngService service(opts);
  serve::RngService reference(opts);
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  const auto lease = client.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;
  auto ref_session = reference.try_open_session();
  ASSERT_TRUE(ref_session.has_value());
  ASSERT_EQ(*lease, ref_session->lease().id);

  service.pause();
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t id = client.fill_submit(*lease, 32);
  ASSERT_NE(id, 0u);
  std::vector<std::uint64_t> out(32);
  EXPECT_EQ(client.fill_wait(id, out, &err), serve::Status::kTimeout) << err;
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  service.resume();

  std::vector<std::uint64_t> wire(32);
  std::vector<std::uint64_t> local(32);
  ASSERT_EQ(client.fill(*lease, wire, &err), serve::Status::kOk) << err;
  ASSERT_EQ(ref_session->fill(local), serve::Status::kOk);
  EXPECT_EQ(wire, local);
}

// stop() waits for accepted fills to settle, but a paused service holds
// it only until the open fill's deadline, not until resume().
TEST(NetService, StopWaitsForAQueuedFillOnlyUntilItsDeadline) {
  serve::ServiceOptions opts = small_options();
  opts.default_timeout = std::chrono::milliseconds(300);
  serve::RngService service(opts);
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  const auto lease = client.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;
  service.pause();
  ASSERT_NE(client.fill_submit(*lease, 32), 0u);
  for (int i = 0; i < 500 && service.stats().submitted < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.stats().submitted, 1u) << "fill never reached the loop";

  // Resumes the service after 5 s, so a stop() that waits for the service
  // instead of the deadline fails below rather than hanging.
  std::atomic<bool> stopped{false};
  std::thread resumer([&] {
    for (int i = 0; i < 500 && !stopped.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    service.resume();
  });
  const auto start = std::chrono::steady_clock::now();
  server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stopped.store(true);
  resumer.join();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_EQ(service.stats().timed_out, 1u);
  EXPECT_EQ(server.stats().fills_rejected, 1u);
}

TEST(NetService, FillOnForeignLeaseIsUnknownLease) {
  serve::RngService service(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  std::vector<std::uint64_t> out(16);
  EXPECT_EQ(client.fill(99999, out, &err), serve::Status::kFailed);
  EXPECT_NE(err.find("unknown_lease"), std::string::npos) << err;
  // Non-fatal: the connection survives and can still open a lease.
  EXPECT_TRUE(client.lease(&err).has_value()) << err;
}

TEST(NetService, LeasePoolExhaustionIsExplicit) {
  serve::ServiceOptions opts = small_options();
  opts.num_shards = 1;
  opts.max_leases_per_shard = 1;
  serve::RngService service(opts);
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  ASSERT_TRUE(client.lease(&err).has_value()) << err;
  EXPECT_FALSE(client.lease(&err).has_value());
  EXPECT_NE(err.find("lease_exhausted"), std::string::npos) << err;
}

// Cross-version hello: a frame announcing a future protocol version in
// its hello payload is rejected with kVersionMismatch and the connection
// closes (fatal) — the hard gate of docs/NETWORK.md §7.
TEST(NetService, HelloVersionGateRejectsFutureProto) {
  serve::RngService service(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  const auto parsed = net::Endpoint::parse(ep);
  ASSERT_TRUE(parsed.has_value());
  const int fd = net::dial(*parsed);
  ASSERT_GE(fd, 0);

  net::WireWriter w;
  w.put_u32(net::kHelloMagic);
  w.put_u32(net::kWireVersion + 1);
  w.put_str("future-client");
  net::Frame hello;
  hello.op = net::Op::kHello;
  hello.request_id = 1;
  hello.payload = w.take();
  const std::string wire = net::encode(hello);
  ASSERT_EQ(write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  std::string rbuf;
  char tmp[4096];
  for (;;) {  // read until EOF: the reply, then the server-side close
    const ssize_t n = read(fd, tmp, sizeof(tmp));
    if (n <= 0) break;
    rbuf.append(tmp, static_cast<std::size_t>(n));
  }
  net::close_fd(fd);

  net::Frame reply;
  std::size_t consumed = 0;
  std::string derr;
  ASSERT_EQ(net::decode(rbuf, &reply, &consumed, &derr), net::Decode::kFrame)
      << derr;
  ASSERT_EQ(reply.op, net::Op::kError);
  net::WireReader r(reply.payload);
  EXPECT_EQ(static_cast<net::ErrCode>(r.get_u32()),
            net::ErrCode::kVersionMismatch);
}

// Disconnect-orphan-adopt: a vanished client's lease survives on the
// server and a second client continues the stream bit-exactly.
TEST(NetService, OrphanedLeaseAdoptsAcrossConnections) {
  serve::RngService service(small_options());
  serve::RngService reference(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  auto ref_session = reference.try_open_session();
  ASSERT_TRUE(ref_session.has_value());
  std::vector<std::uint64_t> local_a(100), local_b(100);
  ASSERT_EQ(ref_session->fill(local_a), serve::Status::kOk);
  ASSERT_EQ(ref_session->fill(local_b), serve::Status::kOk);

  std::uint64_t lease_id = 0;
  {
    net::NetClient first(client_options(ep));
    std::string err;
    const auto lease = first.lease(&err);
    ASSERT_TRUE(lease.has_value()) << err;
    lease_id = *lease;
    std::vector<std::uint64_t> wire_a(100);
    ASSERT_EQ(first.fill(lease_id, wire_a, &err), serve::Status::kOk) << err;
    EXPECT_EQ(wire_a, local_a);
  }  // destructor closes the connection without releasing — orphan

  net::NetClient second(client_options(ep));
  std::string err;
  // The orphan must be discoverable, then adoptable.
  const std::vector<std::uint64_t> ids = second.adoptables(&err);
  ASSERT_NE(std::find(ids.begin(), ids.end(), lease_id), ids.end()) << err;
  ASSERT_TRUE(second.adopt(lease_id, &err)) << err;
  std::vector<std::uint64_t> wire_b(100);
  ASSERT_EQ(second.fill(lease_id, wire_b, &err), serve::Status::kOk) << err;
  EXPECT_EQ(wire_b, local_b);  // continues exactly where A stopped
}

// Transparent reconnect: close the client's socket under it; the next
// fill re-dials, re-adopts the held lease and continues the stream.
TEST(NetService, ClientReconnectsAndReadoptsTransparently) {
  serve::RngService service(small_options());
  serve::RngService reference(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  auto ref_session = reference.try_open_session();
  ASSERT_TRUE(ref_session.has_value());

  net::NetClient client(client_options(ep));
  std::string err;
  const auto lease = client.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;

  std::vector<std::uint64_t> wire(64), local(64);
  ASSERT_EQ(client.fill(*lease, wire, &err), serve::Status::kOk) << err;
  ASSERT_EQ(ref_session->fill(local), serve::Status::kOk);
  EXPECT_EQ(wire, local);

  client.close();  // simulated connection loss

  ASSERT_EQ(client.fill(*lease, wire, &err), serve::Status::kOk) << err;
  ASSERT_EQ(ref_session->fill(local), serve::Status::kOk);
  EXPECT_EQ(wire, local);
  EXPECT_GE(client.stats().reconnects, 1u);
  EXPECT_GE(client.stats().adoptions, 1u);
}

TEST(NetService, StatReflectsServiceCounters) {
  serve::RngService service(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  const auto lease = client.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;
  std::vector<std::uint64_t> out(128);
  ASSERT_EQ(client.fill(*lease, out, &err), serve::Status::kOk) << err;

  const auto stats = client.stat(&err);
  ASSERT_TRUE(stats.has_value()) << err;
  EXPECT_GE(stats->submitted, 1u);
  EXPECT_GE(stats->completed, 1u);
  EXPECT_GE(stats->numbers_served, 128u);
  EXPECT_EQ(stats->active_leases, 1u);
  EXPECT_EQ(stats->healthy_shards, 2u);
  EXPECT_EQ(stats->connections, 1u);
}

TEST(NetService, QualityOpWithoutScrubberIsExplicitlyAbsent) {
  serve::RngService service(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  const auto report = client.quality(&err);
  EXPECT_FALSE(report.has_value());
  EXPECT_EQ(err, "no scrubber");
}

TEST(NetService, QualityReportRoundTripsByteIdentical) {
  // The wire carries doubles as IEEE-754 bit images, so the client-side
  // report must re-serialise to the exact JSON the server-side scrubber
  // produces (docs/NETWORK.md §3.8).
  serve::ServiceOptions opts = small_options();
  opts.scrub.enabled = true;
  opts.scrub.streams = 2;
  opts.scrub.pass_words = 256;
  serve::RngService service(opts);
  quality::QualityScrubber scrubber(service);
  scrubber.run_passes(3);

  const std::string ep = unique_unix_endpoint();
  net::ServerOptions server_opts{.listen = {ep}};
  server_opts.scrubber = &scrubber;
  net::NetServer server(service, std::move(server_opts));
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(client_options(ep));
  std::string err;
  const auto wire_report = client.quality(&err);
  ASSERT_TRUE(wire_report.has_value()) << err;
  EXPECT_EQ(wire_report->to_json(), scrubber.report().to_json());
  EXPECT_EQ(wire_report->backend, "hybrid");
  EXPECT_EQ(wire_report->passes, 3u);
  ASSERT_EQ(wire_report->streams.size(), 2u);
  EXPECT_EQ(wire_report->streams[0].words, 3u * 256u);
}

TEST(NetService, MultipleClientsGetDisjointStreams) {
  serve::RngService service(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  std::vector<std::vector<std::uint64_t>> streams;
  for (int i = 0; i < 3; ++i) {
    net::NetClient client(client_options(ep));
    std::string err;
    const auto lease = client.lease(&err);
    ASSERT_TRUE(lease.has_value()) << err;
    std::vector<std::uint64_t> out(200);
    ASSERT_EQ(client.fill(*lease, out, &err), serve::Status::kOk) << err;
    streams.push_back(std::move(out));
  }
  // Disjointness carries over the wire: no value in two streams.
  for (std::size_t a = 0; a < streams.size(); ++a) {
    for (std::size_t b = a + 1; b < streams.size(); ++b) {
      for (const std::uint64_t v : streams[a]) {
        EXPECT_EQ(std::count(streams[b].begin(), streams[b].end(), v), 0)
            << "collision between wire streams " << a << " and " << b;
      }
    }
  }
}

// v2 tenancy over the wire (docs/QOS.md §2, docs/NETWORK.md §3.2): the
// client's configured tenant rides every kLease, the server bills that
// tenant's policy, and QoS rejections surface as kRejectedQuota statuses
// plus the v2 kStatAck rejected_quota counter.
TEST(NetService, TenantRidesTheLeaseOpAndQuotaRejectsOverTheWire) {
  serve::ServiceOptions sopts = small_options();
  serve::TenantPolicy capped;
  capped.quota_words = 100;
  sopts.tenants.overrides[6] = capped;
  serve::RngService service(sopts);
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  net::ClientOptions copts = client_options(ep);
  copts.tenant = 6;
  net::NetClient client(copts);
  std::string err;
  const auto lease = client.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;
  EXPECT_EQ(service.tenant_stats(6).leases, 1u);

  std::vector<std::uint64_t> out(60);
  EXPECT_EQ(client.fill(*lease, out, &err), serve::Status::kOk) << err;
  // 60 of 100 words consumed: the next 60-word fill breaches the quota.
  EXPECT_EQ(client.fill(*lease, out, &err), serve::Status::kRejectedQuota);

  const auto stats = client.stat(&err);
  ASSERT_TRUE(stats.has_value()) << err;
  EXPECT_EQ(stats->rejected_quota, 1u);
  EXPECT_EQ(service.tenant_stats(6).quota_used, 60u);
}

// Rolling-restart compatibility: a v1 peer (hello proto 1, frames
// version 1) still gets service — its leases land on the default tenant
// 0 and its kStatAck carries exactly the v1 payload shape, with no
// rejected_quota field appended (docs/NETWORK.md §7).
TEST(NetService, V1PeerLandsOnDefaultTenantAndGetsV1StatShape) {
  serve::RngService service(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  const auto parsed = net::Endpoint::parse(ep);
  ASSERT_TRUE(parsed.has_value());
  const int fd = net::dial(*parsed);
  ASSERT_GE(fd, 0);

  std::string rbuf;
  const auto roundtrip = [&](net::Frame frame) {
    frame.version = 1;
    const std::string wire = net::encode(frame);
    EXPECT_EQ(write(fd, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    net::Frame reply;
    std::size_t consumed = 0;
    std::string derr;
    for (;;) {
      const net::Decode d = net::decode(rbuf, &reply, &consumed, &derr);
      if (d == net::Decode::kFrame) {
        rbuf.erase(0, consumed);
        return reply;
      }
      EXPECT_EQ(d, net::Decode::kNeedMore) << derr;
      char tmp[4096];
      const ssize_t n = read(fd, tmp, sizeof(tmp));
      if (n <= 0) {
        ADD_FAILURE() << "server closed on a v1 frame";
        return reply;
      }
      rbuf.append(tmp, static_cast<std::size_t>(n));
    }
  };

  net::Frame hello;
  hello.op = net::Op::kHello;
  hello.request_id = 1;
  {
    net::WireWriter w;
    w.put_u32(net::kHelloMagic);
    w.put_u32(1);  // v1 peer
    w.put_str("v1-client");
    hello.payload = w.take();
  }
  const net::Frame hello_ack = roundtrip(hello);
  ASSERT_EQ(hello_ack.op, net::Op::kHelloAck);
  {
    net::WireReader r(hello_ack.payload);
    EXPECT_EQ(r.get_u32(), 1u) << "ack must echo the negotiated proto";
  }

  net::Frame lease;
  lease.op = net::Op::kLease;
  lease.request_id = 2;
  {
    net::WireWriter w;
    w.put_u8(0);    // no shard key
    w.put_u64(0);
    lease.payload = w.take();  // v1 schema: no tenant field
  }
  const net::Frame lease_ack = roundtrip(lease);
  ASSERT_EQ(lease_ack.op, net::Op::kLeaseAck);
  std::uint64_t lease_id = 0;
  {
    net::WireReader r(lease_ack.payload);
    lease_id = r.get_u64();
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(service.tenant_stats(0).leases, 1u)
      << "a v1 lease must land on the default tenant";

  net::Frame stat;
  stat.op = net::Op::kStat;
  stat.request_id = 3;
  const net::Frame stat_ack = roundtrip(stat);
  ASSERT_EQ(stat_ack.op, net::Op::kStatAck);
  EXPECT_EQ(stat_ack.version, 1u);
  // Exactly the 12 v1 u64 fields — nothing appended.
  EXPECT_EQ(stat_ack.payload.size(), 12u * 8u);

  (void)lease_id;
  net::close_fd(fd);
}

TEST(NetService, TcpTransportWhenSandboxAllows) {
  serve::RngService service(small_options());
  net::NetServer server(service, {.listen = {"tcp:127.0.0.1:0"}});
  if (!server.ok()) {
    GTEST_SKIP() << "TCP bind unavailable here: " << server.error();
  }
  const std::vector<std::string> eps = server.endpoints();
  ASSERT_EQ(eps.size(), 1u);

  net::NetClient client(client_options(eps[0]));
  std::string err;
  if (!client.connect(&err)) {
    GTEST_SKIP() << "TCP connect unavailable here: " << err;
  }
  const auto lease = client.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;
  std::vector<std::uint64_t> out(64);
  EXPECT_EQ(client.fill(*lease, out, &err), serve::Status::kOk) << err;
}

}  // namespace
}  // namespace hprng
