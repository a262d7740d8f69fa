#include "sim/device.hpp"

#include <algorithm>
#include <vector>

namespace hprng::sim {

Device::Device(DeviceSpec spec) : spec_(std::move(spec)) {}

void Device::set_metrics(obs::MetricsRegistry* registry) {
  engine_.set_metrics(registry);
  metrics_ = registry;
  ins_ = {};
  if (registry == nullptr) return;
  ins_.copy_bytes_h2d = &registry->counter("hprng.sim.copy_bytes_h2d");
  ins_.copy_bytes_d2h = &registry->counter("hprng.sim.copy_bytes_d2h");
  ins_.kernel_launches = &registry->counter("hprng.sim.kernel_launches");
  ins_.kernel_threads = &registry->counter("hprng.sim.kernel_threads");
  ins_.host_tasks = &registry->counter("hprng.sim.host_tasks");
}

double Device::copy_seconds(std::size_t bytes) const {
  return spec_.pcie_latency_us * 1e-6 +
         static_cast<double>(bytes) / (spec_.pcie_bandwidth_gb_s * 1e9);
}

double Device::kernel_seconds(std::uint64_t threads,
                              const KernelCost& cost) const {
  const double clock = spec_.core_clock_hz();
  const double cores = spec_.total_cores();
  // Throughput-bound: all cores busy, total ops / aggregate issue rate.
  const double throughput =
      cost.ops_per_thread * spec_.cycles_per_op *
      static_cast<double>(threads) / (cores * clock);
  // Latency floor: one thread's dependent-op chain cannot finish faster
  // than its pipeline depth allows. With enough resident threads this is
  // hidden and the throughput term dominates instead.
  const double latency =
      cost.ops_per_thread * spec_.latency_cycles_per_op / clock;
  const double mem = cost.bytes_per_thread * static_cast<double>(threads) /
                     (spec_.gmem_bandwidth_gb_s * 1e9);
  return spec_.kernel_launch_overhead_us * 1e-6 +
         std::max(throughput, std::max(latency, mem));
}

OpId Device::launch(Stream& stream, std::string label, std::uint64_t threads,
                    const KernelCost& cost,
                    std::function<void(std::uint64_t)> body,
                    const std::vector<OpId>& extra_deps) {
  if (metrics_ != nullptr) {
    ins_.kernel_launches->add(1);
    ins_.kernel_threads->add(static_cast<double>(threads));
  }
  auto deps = with_stream_dep(stream, extra_deps);
  const double duration = kernel_seconds(threads, cost);
  const OpId id = engine_.submit(
      Resource::kDevice, std::move(label), duration, deps,
      [threads, body = std::move(body)] {
        for (std::uint64_t t = 0; t < threads; ++t) body(t);
      });
  stream.set_last(id);
  return id;
}

OpId Device::launch_batched(Stream& stream, std::string label,
                            std::uint64_t threads, const KernelCost& cost,
                            std::uint64_t group,
                            std::function<void(std::uint64_t, std::uint64_t)> body,
                            const std::vector<OpId>& extra_deps) {
  HPRNG_CHECK(group > 0, "launch_batched: group width must be positive");
  if (metrics_ != nullptr) {
    ins_.kernel_launches->add(1);
    ins_.kernel_threads->add(static_cast<double>(threads));
  }
  auto deps = with_stream_dep(stream, extra_deps);
  const double duration = kernel_seconds(threads, cost);
  const OpId id = engine_.submit(
      Resource::kDevice, std::move(label), duration, deps,
      [threads, group, body = std::move(body)] {
        for (std::uint64_t lo = 0; lo < threads; lo += group) {
          body(lo, std::min(threads, lo + group));
        }
      });
  stream.set_last(id);
  return id;
}

OpId Device::launch_dynamic(Stream& stream, std::string label,
                            std::uint64_t threads,
                            const KernelCost& base_cost,
                            std::function<double(std::uint64_t)> body,
                            const std::vector<OpId>& extra_deps) {
  if (metrics_ != nullptr) {
    ins_.kernel_launches->add(1);
    ins_.kernel_threads->add(static_cast<double>(threads));
  }
  auto deps = with_stream_dep(stream, extra_deps);
  const double base = kernel_seconds(threads, base_cost);
  const OpId id = engine_.submit_dynamic(
      Resource::kDevice, std::move(label), base, deps,
      [this, threads, body = std::move(body)]() -> double {
        // Realised ops are summed per fixed 2048-thread chunk, then the
        // chunk totals in order. The simulated clock depends on this
        // floating-point order (sim_device_test pins it), so it must not
        // become one running sum.
        constexpr std::uint64_t kChunk = 2048;
        double total_ops = 0.0;
        for (std::uint64_t lo = 0; lo < threads; lo += kChunk) {
          const std::uint64_t hi = std::min(threads, lo + kChunk);
          double ops = 0.0;
          for (std::uint64_t t = lo; t < hi; ++t) ops += body(t);
          total_ops += ops;
        }
        // Convert realised ops into seconds through the same cost model,
        // without double charging the launch overhead (already in `base`).
        const double extra = kernel_seconds(
            threads, KernelCost{total_ops / static_cast<double>(threads),
                                0.0});
        return extra - spec_.kernel_launch_overhead_us * 1e-6;
      });
  stream.set_last(id);
  return id;
}

OpId Device::host_task(Stream& stream, std::string label, double seconds,
                       std::function<void()> fn,
                       const std::vector<OpId>& extra_deps) {
  if (metrics_ != nullptr) ins_.host_tasks->add(1);
  auto deps = with_stream_dep(stream, extra_deps);
  const OpId id = engine_.submit(Resource::kHost, std::move(label), seconds,
                                 deps, std::move(fn));
  stream.set_last(id);
  return id;
}

std::vector<OpId> Device::with_stream_dep(
    Stream& stream, const std::vector<OpId>& extra) const {
  std::vector<OpId> deps = extra;
  if (stream.last() != kNoOp) deps.push_back(stream.last());
  for (OpId w : stream.take_pending_waits()) deps.push_back(w);
  return deps;
}

}  // namespace hprng::sim
