// serve_net — the standalone wire server (docs/NETWORK.md §8): an
// RngService wrapped in a net::NetServer, run as its own process. This is
// the multi-process half of the rolling-restart contract that
// net_restart_test pins in-process: on SIGTERM/SIGINT (or --run-seconds
// expiry) the server drains the wire, checkpoints the service with every
// lease still live, writes a NETC sidecar recording its listen endpoints,
// and exits; a successor started with --restore-from re-listens on the
// same endpoints and clients re-adopt their leases bit-exactly.
//
// Shutdown sequence (the order is the correctness argument):
//   1. stop the background checkpointer     — no kCkpt mid-drain
//   2. server.begin_drain()                 — stop accepting AND reading;
//                                             requests still on the wire
//                                             stay unread, so the peer's
//                                             retry-after-EOF is bit-exact
//   3. poll server.quiescent()              — in-flight fills settle and
//                                             every reply hits the socket
//   4. server.stop()                        — connections close; their
//                                             leases park as orphans (live)
//   5. service.checkpoint(path)             — loop thread joined, so the
//                                             no-concurrent-lease-churn
//                                             rule holds trivially
//   6. write <path>.net sidecar (kTagNetc)  — listen endpoints, so
//                                             --restore-from needs no flags
//
// Periodic checkpoints (--checkpoint-every) go through a loopback
// NetClient issuing kCkpt: the server runs checkpoints inline on its loop
// thread, where all lease open/release/adopt also happen, which is exactly
// the serialisation RngService::checkpoint demands. Calling
// service.checkpoint() directly from a background thread here would race
// lease churn on the loop thread.
//
// Flags: --listen=EP[,EP...] (unix:PATH | tcp:HOST:PORT)
//        --backend --shards --slots --workers --capacity --coalesce
//        --walk-len --timeout-ms --seed
//        --max-pending-fills
//        --restore-from=<path>     rebuild from a snapshot; listen
//                                  endpoints come from <path>.net unless
//                                  --listen overrides them
//        --checkpoint-path=<path>  shutdown (and periodic) snapshot
//                                  destination (default serve-net.snap)
//        --checkpoint-every=MS     periodic wire checkpoints (0 = off)
//        --run-seconds=S           exit after S seconds (0 = run until
//                                  SIGTERM/SIGINT)
//        --drain-timeout-ms=MS     cap on the quiescence wait (step 3)
//        --fault-plan=<plan>       deterministic chaos (docs/FAULTS.md §3),
//                                  e.g. "net_read:*:fail:20:3"
//        --metrics-json=<path> --bench-json=<path> --help

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "fault/fault.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "state/checkpointer.hpp"
#include "state/sections.hpp"
#include "state/snapshot.hpp"
#include "util/cli.hpp"

using namespace hprng;

namespace {

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig); }

void print_help() {
  std::printf(
      "serve_net — standalone RNG-as-a-service wire server "
      "(docs/NETWORK.md)\n\n"
      "usage: serve_net [--flag=value ...]\n\n"
      "  --listen=EP[,EP...]    unix:PATH | tcp:HOST:PORT (tcp port 0 = "
      "kernel-assigned)\n"
      "  --backend=%s\n"
      "  --shards=N --slots=N --workers=N --capacity=N --coalesce=N\n"
      "  --walk-len=N --timeout-ms=MS --seed=S\n"
      "  --max-pending-fills=N\n"
      "  --restore-from=PATH    rebuild from a snapshot; endpoints come\n"
      "                         from PATH.net unless --listen is given\n"
      "  --checkpoint-path=PATH snapshot destination (serve-net.snap)\n"
      "  --checkpoint-every=MS  periodic wire checkpoints (0 = off)\n"
      "  --run-seconds=S        exit after S seconds (0 = until signal)\n"
      "  --drain-timeout-ms=MS  quiescence cap during shutdown (5000)\n"
      "  --fault-plan=PLAN      deterministic chaos (docs/FAULTS.md §3)\n"
      "  --metrics-json=PATH --bench-json=PATH --help\n",
      bench::backend_values().c_str());
}

std::vector<std::string> split_endpoints(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The NETC sidecar (docs/NETWORK.md §8): a tiny snapshot file at
/// `<snapshot>.net` whose kTagNetc section records the listen endpoints,
/// so a successor process needs only --restore-from to come back on the
/// same addresses.
bool write_sidecar(const std::string& snapshot_path,
                   const std::vector<std::string>& endpoints,
                   std::string* error) {
  state::SnapshotWriter w;
  w.begin_section(state::kTagMeta);
  std::string json = "{\"kind\": \"serve_net sidecar\", \"snapshot\": \"" +
                     snapshot_path + "\", \"endpoints\": " +
                     std::to_string(endpoints.size()) + "}\n";
  w.put_raw(json);
  w.begin_section(state::kTagNetc);
  w.put_u32(static_cast<std::uint32_t>(endpoints.size()));
  for (const std::string& ep : endpoints) w.put_str(ep);
  return w.write_file(snapshot_path + ".net", error);
}

std::vector<std::string> read_sidecar(const std::string& snapshot_path,
                                      std::string* error) {
  auto snap = state::Snapshot::read_file(snapshot_path + ".net", error);
  if (!snap.has_value()) return {};
  const state::Section* section = snap->find(state::kTagNetc);
  if (section == nullptr) {
    if (error != nullptr) *error = "sidecar has no NETC section";
    return {};
  }
  state::SectionReader r(*section);
  const std::uint32_t count = r.get_u32();
  std::vector<std::string> endpoints;
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    endpoints.push_back(r.get_str());
  }
  if (!r.ok()) {
    if (error != nullptr) *error = "sidecar NETC section: " + r.error();
    return {};
  }
  return endpoints;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (cli.has("help")) {
    print_help();
    return 0;
  }
  if (cli.has("completers")) {
    // Removed flag: fail loudly rather than silently run another shape.
    std::fprintf(stderr, "serve_net: --completers was removed: the server "
                         "replies from its one loop thread\n");
    return 2;
  }

  const std::string restore_from = cli.get_string("restore-from", "");
  const std::string ckpt_path =
      cli.get_string("checkpoint-path", "serve-net.snap");
  const std::uint64_t checkpoint_every_ms = cli.get_u64("checkpoint-every", 0);
  const double run_seconds = cli.get_double("run-seconds", 0.0);
  const std::uint64_t drain_timeout_ms = cli.get_u64("drain-timeout-ms", 5000);

  obs::MetricsRegistry registry;

  // Deterministic chaos: same plan grammar as every other harness.
  std::optional<fault::Injector> injector;
  if (!bench::read_fault_plan(cli, &injector)) return 2;
  fault::Injector* inj = injector.has_value() ? &*injector : nullptr;

  // --- Build the service: fresh from flags, or restored from a snapshot.
  std::unique_ptr<serve::RngService> owned;
  std::vector<std::string> listen = split_endpoints(cli.get_string(
      "listen", "unix:/tmp/hprng-serve-net-" +
                    std::to_string(static_cast<long>(::getpid())) + ".sock"));
  if (!restore_from.empty()) {
    std::string err;
    serve::RngService::RestoreOptions ro;
    ro.metrics = &registry;
    ro.injector = inj;
    owned = serve::RngService::restore(restore_from, ro, &err);
    if (owned == nullptr) {
      std::fprintf(stderr, "serve_net: restore failed: %s\n", err.c_str());
      return 2;
    }
    if (!cli.has("listen")) {
      // The previous generation recorded where it listened.
      const std::vector<std::string> saved = read_sidecar(restore_from, &err);
      if (saved.empty()) {
        std::fprintf(stderr,
                     "serve_net: no --listen and no usable sidecar "
                     "(%s.net): %s\n",
                     restore_from.c_str(), err.c_str());
        return 2;
      }
      listen = saved;
    }
    std::printf("serve_net: restored %s (backend=%s shards=%d, %zu "
                "adoptable leases)\n",
                restore_from.c_str(), owned->options().backend.c_str(),
                owned->num_shards(), owned->adoptable_lease_ids().size());
  } else {
    serve::ServiceOptions opts;
    opts.max_leases_per_shard = 16;  // the default --slots
    if (!bench::read_service_shape(cli, 0, &opts)) return 2;
    opts.injector = inj;
    owned = std::make_unique<serve::RngService>(opts, &registry);
  }
  serve::RngService& service = *owned;

  if (listen.empty()) {
    std::fprintf(stderr, "serve_net: --listen is empty\n");
    return 2;
  }

  net::ServerOptions sopts;
  sopts.listen = listen;
  sopts.max_pending_fills = cli.get_u64("max-pending-fills", 64);
  sopts.injector = inj;
  net::NetServer server(service, sopts, &registry);
  if (!server.ok()) {
    std::fprintf(stderr, "serve_net: %s\n", server.error().c_str());
    return 2;
  }

  const std::vector<std::string> resolved = server.endpoints();
  std::printf("serve_net: backend=%s shards=%d, listening on:\n",
              service.options().backend.c_str(), service.num_shards());
  for (const std::string& ep : resolved) {
    std::printf("serve_net:   %s\n", ep.c_str());
  }
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Periodic checkpoints ride the wire (see the header comment for why).
  std::unique_ptr<net::NetClient> loopback;
  std::unique_ptr<state::BackgroundCheckpointer> checkpointer;
  if (checkpoint_every_ms > 0) {
    net::ClientOptions copts;
    copts.endpoint = resolved.front();
    copts.name = "serve_net-checkpointer";
    loopback = std::make_unique<net::NetClient>(copts);
    checkpointer = std::make_unique<state::BackgroundCheckpointer>(
        std::chrono::milliseconds(checkpoint_every_ms), [&] {
          std::string err;
          const bool ok = loopback->checkpoint(ckpt_path, &err);
          if (!ok) {
            std::fprintf(stderr, "serve_net: periodic checkpoint failed: %s\n",
                         err.c_str());
          }
          return ok;
        });
  }

  // --- Serve until the clock or a signal says stop.
  const auto started = std::chrono::steady_clock::now();
  for (;;) {
    if (g_signal.load() != 0) break;
    if (run_seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      if (elapsed >= run_seconds) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int why = g_signal.load();
  std::printf("serve_net: shutting down (%s)\n",
              why != 0 ? (why == SIGTERM ? "SIGTERM" : "SIGINT")
                       : "--run-seconds elapsed");

  // --- The six-step graceful exit (header comment).
  if (checkpointer != nullptr) checkpointer->stop();
  loopback.reset();
  server.begin_drain();
  const auto drain_start = std::chrono::steady_clock::now();
  while (!server.quiescent()) {
    if (std::chrono::steady_clock::now() - drain_start >
        std::chrono::milliseconds(drain_timeout_ms)) {
      std::fprintf(stderr, "serve_net: drain timed out after %llu ms\n",
                   static_cast<unsigned long long>(drain_timeout_ms));
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.stop();

  std::string err;
  if (!service.checkpoint(ckpt_path, &err)) {
    std::fprintf(stderr, "serve_net: shutdown checkpoint failed: %s\n",
                 err.c_str());
    return 1;
  }
  if (!write_sidecar(ckpt_path, resolved, &err)) {
    std::fprintf(stderr, "serve_net: sidecar write failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("serve_net: checkpointed to %s (+ %s.net sidecar), %zu leases "
              "adoptable\n",
              ckpt_path.c_str(), ckpt_path.c_str(),
              service.adoptable_lease_ids().size() +
                  server.stats().orphaned);

  const net::NetServer::Stats stats = server.stats();
  std::printf("serve_net: accepted=%llu frames_rx=%llu frames_tx=%llu "
              "fills_ok=%llu fills_rejected=%llu frame_errors=%llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.frames_rx),
              static_cast<unsigned long long>(stats.frames_tx),
              static_cast<unsigned long long>(stats.fills_ok),
              static_cast<unsigned long long>(stats.fills_rejected),
              static_cast<unsigned long long>(stats.frame_errors));

  bench::BenchJson json;
  json.add("bench", std::string("serve_net"));
  json.add("backend", service.options().backend);
  json.add("endpoints", static_cast<double>(resolved.size()));
  json.add("accepted", static_cast<double>(stats.accepted));
  json.add("frames_rx", static_cast<double>(stats.frames_rx));
  json.add("frames_tx", static_cast<double>(stats.frames_tx));
  json.add("fills_ok", static_cast<double>(stats.fills_ok));
  json.add("fills_rejected", static_cast<double>(stats.fills_rejected));
  json.add("frame_errors", static_cast<double>(stats.frame_errors));
  json.add("checkpoints", static_cast<double>(stats.checkpoints));
  bench::export_bench_json(cli, json);
  bench::export_metrics_json(cli, registry);
  return bench::reject_unread_flags(cli) ? 0 : 2;
}
