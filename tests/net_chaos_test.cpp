// Network chaos suite (docs/NETWORK.md §6, docs/FAULTS.md): torn frames,
// garbage on the wire, mid-fill disconnects, reconnect storms driven by
// deterministic kNetAccept/kNetRead fault plans, and a seeded replay run
// (rotate with HPRNG_CHAOS_SEED; any failure names the seed).
//
// The invariant under all of it: connection weather never corrupts a
// substream. A client that rides reconnects with lease re-adoption gets
// the SAME words an undisturbed in-process session would have produced —
// accept/read faults drop requests before they are served, so the
// client's retry-after-EOF continues bit-exactly. (Write faults can lose
// an already-served reply, which is why serve_net's graceful drain exists;
// here they only have to leave the server consistent and the lease
// adoptable.)

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/service.hpp"

namespace hprng {
namespace {

std::string unique_unix_endpoint() {
  static int counter = 0;
  return "unix:/tmp/hprng-nc-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter) + ".sock";
}

serve::ServiceOptions small_options() {
  serve::ServiceOptions opts;
  opts.backend = "philox";  // cheap, checkpointable, counter-exact
  opts.num_shards = 2;
  opts.max_leases_per_shard = 8;
  opts.num_workers = 2;
  opts.queue_capacity = 64;
  opts.max_coalesce = 4;
  return opts;
}

net::ClientOptions chaos_client_options(const std::string& endpoint) {
  net::ClientOptions opts;
  opts.endpoint = endpoint;
  opts.timeout = std::chrono::milliseconds(10000);
  opts.max_reconnects = 50;
  opts.reconnect_backoff = std::chrono::milliseconds(2);
  return opts;
}

// A frame delivered one byte at a time must decode exactly like one
// delivered whole — the server's read loop reassembles torn frames.
TEST(NetChaos, TornFrameReassembles) {
  serve::RngService service(small_options());
  serve::RngService reference(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  auto ref_session = reference.try_open_session();
  ASSERT_TRUE(ref_session.has_value());
  std::vector<std::uint64_t> local(40);
  ASSERT_EQ(ref_session->fill(local), serve::Status::kOk);

  const auto parsed = net::Endpoint::parse(ep);
  ASSERT_TRUE(parsed.has_value());
  const int fd = net::dial(*parsed);
  ASSERT_GE(fd, 0);

  // hello + lease + fill, all dribbled one byte at a time.
  std::string wire;
  {
    net::WireWriter w;
    w.put_u32(net::kHelloMagic);
    w.put_u32(net::kWireVersion);
    w.put_str("torn");
    net::Frame f;
    f.op = net::Op::kHello;
    f.request_id = 1;
    f.payload = w.take();
    wire += net::encode(f);
  }
  {
    net::WireWriter w;
    w.put_u8(0);
    w.put_u64(0);
    w.put_u64(0);  // v2 lease payload carries the tenant id
    net::Frame f;
    f.op = net::Op::kLease;
    f.request_id = 2;
    f.payload = w.take();
    wire += net::encode(f);
  }
  for (const char byte : wire) {
    ASSERT_EQ(write(fd, &byte, 1), 1);
  }

  // Collect replies until the lease ack arrives.
  std::string rbuf;
  std::uint64_t lease_id = 0;
  bool got_lease = false;
  char tmp[4096];
  while (!got_lease) {
    const ssize_t n = read(fd, tmp, sizeof(tmp));
    ASSERT_GT(n, 0) << "server closed a healthy torn-frame connection";
    rbuf.append(tmp, static_cast<std::size_t>(n));
    for (;;) {
      net::Frame reply;
      std::size_t consumed = 0;
      std::string derr;
      const net::Decode dr = net::decode(rbuf, &reply, &consumed, &derr);
      if (dr != net::Decode::kFrame) break;
      rbuf.erase(0, consumed);
      if (reply.op == net::Op::kLeaseAck) {
        net::WireReader r(reply.payload);
        lease_id = r.get_u64();
        got_lease = true;
      }
    }
  }
  ASSERT_NE(lease_id, 0u);

  // Now the torn fill: 40 words, written in 3-byte shreds.
  {
    net::WireWriter w;
    w.put_u64(lease_id);
    w.put_u32(40);
    w.put_u32(0);
    net::Frame f;
    f.op = net::Op::kFill;
    f.request_id = 3;
    f.payload = w.take();
    const std::string fill_wire = net::encode(f);
    for (std::size_t i = 0; i < fill_wire.size(); i += 3) {
      const std::size_t n = std::min<std::size_t>(3, fill_wire.size() - i);
      ASSERT_EQ(write(fd, fill_wire.data() + i, n),
                static_cast<ssize_t>(n));
    }
  }
  std::vector<std::uint64_t> words(40);
  bool got_fill = false;
  while (!got_fill) {
    const ssize_t n = read(fd, tmp, sizeof(tmp));
    ASSERT_GT(n, 0);
    rbuf.append(tmp, static_cast<std::size_t>(n));
    net::Frame reply;
    std::size_t consumed = 0;
    std::string derr;
    if (net::decode(rbuf, &reply, &consumed, &derr) == net::Decode::kFrame) {
      ASSERT_EQ(reply.op, net::Op::kFillAck);
      net::WireReader r(reply.payload);
      (void)r.get_u64();
      ASSERT_EQ(r.get_u32(), 0u);  // serve::Status::kOk
      ASSERT_EQ(r.get_u32(), 40u);
      r.get_words(words);
      ASSERT_TRUE(r.ok());
      got_fill = true;
    }
  }
  net::close_fd(fd);
  EXPECT_EQ(words, local);  // torn delivery, identical stream
  EXPECT_EQ(server.stats().frame_errors, 0u);
}

TEST(NetChaos, GarbageAfterHelloClosesWithBadFrame) {
  serve::RngService service(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  const auto parsed = net::Endpoint::parse(ep);
  const int fd = net::dial(*parsed);
  ASSERT_GE(fd, 0);
  // A plausible length followed by garbage: rejected by CRC, connection
  // closed after the kError/bad_frame reply.
  std::string junk;
  const std::uint32_t len = 64;
  for (int i = 0; i < 4; ++i) {
    junk.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  junk.append(80, '\x5A');
  ASSERT_EQ(write(fd, junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));

  std::string rbuf;
  char tmp[4096];
  for (;;) {
    const ssize_t n = read(fd, tmp, sizeof(tmp));
    if (n <= 0) break;  // EOF: the promised close
    rbuf.append(tmp, static_cast<std::size_t>(n));
  }
  net::close_fd(fd);
  net::Frame reply;
  std::size_t consumed = 0;
  std::string derr;
  ASSERT_EQ(net::decode(rbuf, &reply, &consumed, &derr), net::Decode::kFrame);
  EXPECT_EQ(reply.op, net::Op::kError);
  net::WireReader r(reply.payload);
  EXPECT_EQ(static_cast<net::ErrCode>(r.get_u32()), net::ErrCode::kBadFrame);
  EXPECT_EQ(server.stats().frame_errors, 1u);
}

// A client that vanishes mid-fill leaves a consistent server: the fill
// either served (words discarded) or not, the lease orphans, and an
// adopting client continues the stream from wherever the service
// actually is — measured through stat(), then verified bit-exactly.
TEST(NetChaos, MidFillDisconnectOrphansConsistently) {
  serve::RngService service(small_options());
  serve::RngService reference(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}});
  ASSERT_TRUE(server.ok()) << server.error();

  auto ref_session = reference.try_open_session();
  ASSERT_TRUE(ref_session.has_value());

  std::uint64_t lease_id = 0;
  {
    net::NetClient victim(chaos_client_options(ep));
    std::string err;
    const auto lease = victim.lease(&err);
    ASSERT_TRUE(lease.has_value()) << err;
    lease_id = *lease;
    std::vector<std::uint64_t> wire(100), local(100);
    ASSERT_EQ(victim.fill(lease_id, wire, &err), serve::Status::kOk) << err;
    ASSERT_EQ(ref_session->fill(local), serve::Status::kOk);
    ASSERT_EQ(wire, local);
    // Submit and vanish — the fill races the disconnect.
    ASSERT_NE(victim.fill_submit(lease_id, 500), 0u);
  }
  service.drain();  // settle whatever the race admitted

  net::NetClient rescuer(chaos_client_options(ep));
  std::string err;
  ASSERT_TRUE(rescuer.adopt(lease_id, &err)) << err;
  const auto stats = rescuer.stat(&err);
  ASSERT_TRUE(stats.has_value()) << err;
  ASSERT_GE(stats->numbers_served, 100u);
  // Catch the reference up to the service's true stream position.
  const std::uint64_t skipped = stats->numbers_served - 100;
  ASSERT_TRUE(skipped == 0 || skipped == 500)
      << "mid-fill race produced a partial fill: " << skipped;
  if (skipped > 0) {
    std::vector<std::uint64_t> scratch(skipped);
    ASSERT_EQ(ref_session->fill(scratch), serve::Status::kOk);
  }
  std::vector<std::uint64_t> wire(100), local(100);
  ASSERT_EQ(rescuer.fill(lease_id, wire, &err), serve::Status::kOk) << err;
  ASSERT_EQ(ref_session->fill(local), serve::Status::kOk);
  EXPECT_EQ(wire, local) << "stream corrupted by mid-fill disconnect";
}

// Reconnect storm: a deterministic plan drops fresh connections at the
// accept site and tears established ones at the read site. Accept/read
// faults strike BEFORE a request is served, so the client's retries stay
// bit-exact — every fill must both succeed and match the reference.
TEST(NetChaos, ReconnectStormUnderAcceptAndReadFaults) {
  fault::FaultPlan plan;
  // Drop connections 2..4 at accept (the client's first reconnects), then
  // periodically tear reads: trip after every 5th read event, 1 burst.
  plan.add({.site = fault::Site::kNetAccept,
            .target = fault::kAnyTarget,
            .after = 1,
            .count = 3,
            .action = fault::Action::kFail});
  for (std::uint64_t after = 5; after < 60; after += 12) {
    plan.add({.site = fault::Site::kNetRead,
              .target = fault::kAnyTarget,
              .after = after,
              .count = 1,
              .action = fault::Action::kFail});
  }
  fault::Injector injector(plan);

  serve::RngService service(small_options());
  serve::RngService reference(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}, .injector = &injector});
  ASSERT_TRUE(server.ok()) << server.error();

  auto ref_session = reference.try_open_session();
  ASSERT_TRUE(ref_session.has_value());

  net::NetClient client(chaos_client_options(ep));
  std::string err;
  const auto lease = client.lease(&err);
  ASSERT_TRUE(lease.has_value()) << err;

  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint64_t> wire(64), local(64);
    ASSERT_EQ(client.fill(*lease, wire, &err), serve::Status::kOk)
        << "round " << round << ": " << err;
    ASSERT_EQ(ref_session->fill(local), serve::Status::kOk);
    ASSERT_EQ(wire, local) << "stream diverged in round " << round;
  }
  EXPECT_GT(injector.injected_total(), 0u) << "storm plan never tripped";
  EXPECT_GE(client.stats().reconnects, 1u);
  EXPECT_GE(server.stats().disconnects, 1u);
}

// lease_on() takes lease()'s retry path: a connection torn before the
// kLeaseAck is re-dialled and the pinned request re-issued, so the lease
// still lands on its shard and serves its stream.
TEST(NetChaos, PinnedLeaseSurvivesADroppedConnection) {
  // Connection 1's second read event carries the kLease.
  fault::Injector injector(*fault::FaultPlan::parse("net_read:1:fail:1:1"));
  serve::RngService service(small_options());
  serve::RngService reference(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}, .injector = &injector});
  ASSERT_TRUE(server.ok()) << server.error();

  net::NetClient client(chaos_client_options(ep));
  std::string err;
  const auto lease = client.lease_on(1, &err);
  ASSERT_TRUE(lease.has_value()) << err;
  EXPECT_EQ(injector.injected_total(), 1u);
  EXPECT_EQ(client.stats().retries, 1u);
  EXPECT_EQ(client.stats().reconnects, 1u);

  auto ref_session = reference.try_open_session({.shard_key = 1});
  ASSERT_TRUE(ref_session.has_value());
  EXPECT_EQ(ref_session->lease().shard, 1);
  ASSERT_EQ(ref_session->lease().id, *lease);
  std::vector<std::uint64_t> wire(64), local(64);
  ASSERT_EQ(client.fill(*lease, wire, &err), serve::Status::kOk) << err;
  ASSERT_EQ(ref_session->fill(local), serve::Status::kOk);
  EXPECT_EQ(wire, local);
}

// Seeded replay (the CI chaos job rotates HPRNG_CHAOS_SEED): derive a
// deterministic accept/read fault plan from the seed, run a multi-lease
// workload through it, and require every stream to stay bit-exact. Same
// seed, same plan, same verdict — the debugging contract of docs/FAULTS.md.
TEST(NetChaos, SeededStormReplaysDeterministically) {
  std::uint64_t chaos_seed = 0x7E75EED;
  if (const char* env = std::getenv("HPRNG_CHAOS_SEED")) {
    chaos_seed = std::strtoull(env, nullptr, 0);
  }
  SCOPED_TRACE("HPRNG_CHAOS_SEED=" + std::to_string(chaos_seed));

  // Seed -> plan, arithmetically (SplitMix-style), so the plan text in a
  // failure report reproduces with the seed alone.
  fault::FaultPlan plan;
  std::uint64_t x = chaos_seed;
  const auto next = [&x]() {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  //
  // Only storms a client can ride out are derived. A net_read ordinal
  // counts per connection id (docs/FAULTS.md §2), so a `*` read fault
  // trips at the same ordinal on every connection: one that strikes the
  // first three reads of a connection (hello, re-adopt, one fill) fails
  // every reconnect as well, and no retry budget gets a fill through.
  // Read faults therefore skip 3 to 13 reads; the 14th read is each
  // client's last fill, so a read fault always trips. The first point is
  // always one, so every seed derives a storm. Accept ordinals count per
  // listener, so an accept fault spends its count once, whenever it starts.
  for (int i = 0; i < 6; ++i) {
    const bool read = i == 0 || (next() & 1) != 0;
    const std::uint64_t after = read ? 3 + next() % 11 : next() % 12;
    plan.add({.site = read ? fault::Site::kNetRead : fault::Site::kNetAccept,
              .target = fault::kAnyTarget,
              .after = after,
              .count = 1 + (next() % 3),
              .action = fault::Action::kFail});
  }
  SCOPED_TRACE("plan=" + plan.to_string());
  fault::Injector injector(plan);

  serve::RngService service(small_options());
  serve::RngService reference(small_options());
  const std::string ep = unique_unix_endpoint();
  net::NetServer server(service, {.listen = {ep}, .injector = &injector});
  ASSERT_TRUE(server.ok()) << server.error();

  constexpr int kClients = 3;
  std::vector<std::unique_ptr<net::NetClient>> clients;
  std::vector<std::uint64_t> leases;
  std::vector<serve::Session> ref_sessions;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(
        std::make_unique<net::NetClient>(chaos_client_options(ep)));
    std::string err;
    const auto lease = clients.back()->lease(&err);
    ASSERT_TRUE(lease.has_value()) << err;
    leases.push_back(*lease);
    auto ref = reference.try_open_session();
    ASSERT_TRUE(ref.has_value());
    ASSERT_EQ(ref->lease().id, *lease);
    ref_sessions.push_back(*ref);
  }
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < kClients; ++i) {
      std::vector<std::uint64_t> wire(48), local(48);
      std::string err;
      ASSERT_EQ(clients[i]->fill(leases[i], wire, &err), serve::Status::kOk)
          << "client " << i << " round " << round << ": " << err;
      ASSERT_EQ(ref_sessions[i].fill(local), serve::Status::kOk);
      ASSERT_EQ(wire, local)
          << "client " << i << " diverged in round " << round;
    }
  }
  EXPECT_GT(injector.injected_total(), 0u) << "storm plan never tripped";
}

}  // namespace
}  // namespace hprng
