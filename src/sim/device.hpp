#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "sim/buffer.hpp"
#include "sim/engine.hpp"
#include "sim/spec.hpp"

namespace hprng::sim {

/// Per-thread work description used by the kernel cost model.
struct KernelCost {
  /// Simple ALU/control ops each thread executes.
  double ops_per_thread = 1.0;
  /// Global-memory bytes each thread moves.
  double bytes_per_thread = 0.0;
};

/// A recorded point in a stream's execution, CUDA-event style: other
/// streams can wait on it, and its completion time can be queried after a
/// synchronize.
struct Event {
  OpId marker = kNoOp;
  [[nodiscard]] bool valid() const { return marker != kNoOp; }
};

/// An in-order queue of device operations, CUDA-stream style: each op chains
/// on the stream's previous op plus any explicit extra dependencies, which
/// is how copy/compute overlap across streams is expressed.
class Stream {
 public:
  [[nodiscard]] OpId last() const { return last_; }
  void set_last(OpId id) { last_ = id; }

  /// Record the stream's current tail as an event (cudaEventRecord).
  [[nodiscard]] Event record_event() const { return Event{last_}; }

  /// Make this stream's NEXT operation wait for `e` (cudaStreamWaitEvent).
  void wait_event(Event e) {
    if (e.valid()) pending_waits_.push_back(e.marker);
  }

  /// Consume the accumulated wait list (used by Device when enqueuing).
  std::vector<OpId> take_pending_waits() {
    return std::exchange(pending_waits_, {});
  }

 private:
  OpId last_ = kNoOp;
  std::vector<OpId> pending_waits_;
};

/// The simulated GPU + PCIe + host platform. All simulated durations come
/// from `spec`; all functional effects run (in dependency order) on the
/// thread that calls synchronize().
class Device {
 public:
  /// @param spec cost-model parameters of the simulated platform.
  explicit Device(DeviceSpec spec = DeviceSpec::tesla_c1060());

  /// Compatibility shim for the frozen perfbench/ driver, which still
  /// passes a null worker pool: identical to Device(spec).
  Device(DeviceSpec spec, std::nullptr_t) : Device(std::move(spec)) {}

  /// The cost-model parameters this platform was built with.
  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  /// The underlying discrete-event executor (fences, op timestamps).
  [[nodiscard]] Engine& engine() { return engine_; }

  /// The engine's recorded virtual-time schedule.
  [[nodiscard]] const Timeline& timeline() const {
    return engine_.timeline();
  }

  /// Attach (or with nullptr, detach) a metrics registry to this platform:
  /// forwards to Engine::set_metrics for the scheduler instruments and
  /// additionally maintains the device-level `hprng.sim.*` counters (copy
  /// bytes per direction, kernel launches and threads, host tasks).
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attach (or with nullptr, detach) a fault injector (docs/FAULTS.md):
  /// every transfer enqueue then consults `injector` at Site::kH2D/kD2H
  /// with `target` (the owner's id — the serve layer passes its shard
  /// index). An injected delay lengthens the transfer's simulated
  /// duration; an injected failure charges full PCIe time but skips the
  /// data movement — the simulated equivalent of a dropped DMA — and is
  /// reported through take_transfer_faults().
  void set_fault_injector(fault::Injector* injector, int target = 0) {
    fault_injector_ = injector;
    fault_target_ = target;
  }

  /// Failed transfers executed since the last call (consume-on-read).
  /// Pipelines poll this after synchronize() to turn dropped copies into
  /// an explicit fill failure instead of silent stream corruption.
  std::uint64_t take_transfer_faults() {
    return transfer_faults_.exchange(0, std::memory_order_acq_rel);
  }

  /// Simulated duration of one H2D/D2H transfer of `bytes`.
  [[nodiscard]] double copy_seconds(std::size_t bytes) const;

  /// Simulated duration of a kernel with `threads` threads of cost `cost`:
  /// launch overhead + max(throughput-bound compute, latency floor) +
  /// global-memory time.
  [[nodiscard]] double kernel_seconds(std::uint64_t threads,
                                      const KernelCost& cost) const;

  /// Enqueue an async host->device copy on `stream`.
  template <typename T>
  OpId memcpy_h2d(Stream& stream, std::span<const T> src, Buffer<T>& dst,
                  const std::vector<OpId>& extra_deps = {}) {
    HPRNG_CHECK(src.size() <= dst.size(), "memcpy_h2d overflows buffer");
    if (metrics_ != nullptr) {
      ins_.copy_bytes_h2d->add(static_cast<double>(src.size_bytes()));
    }
    auto deps = with_stream_dep(stream, extra_deps);
    double duration = copy_seconds(src.size_bytes());
    const bool drop = consult_fault(fault::Site::kH2D, &duration);
    const OpId id = engine_.submit(
        Resource::kPcieH2D, "Transfer", duration, deps,
        [this, drop, src, out = dst.device_span()]() mutable {
          if (drop) {
            transfer_faults_.fetch_add(1, std::memory_order_acq_rel);
            return;
          }
          std::copy(src.begin(), src.end(), out.begin());
        });
    stream.set_last(id);
    return id;
  }

  /// Enqueue an async device->host copy on `stream`.
  template <typename T>
  OpId memcpy_d2h(Stream& stream, const Buffer<T>& src, std::span<T> dst,
                  const std::vector<OpId>& extra_deps = {}) {
    HPRNG_CHECK(dst.size() >= src.size(), "memcpy_d2h overflows span");
    if (metrics_ != nullptr) {
      ins_.copy_bytes_d2h->add(static_cast<double>(src.size_bytes()));
    }
    auto deps = with_stream_dep(stream, extra_deps);
    double duration = copy_seconds(src.size_bytes());
    const bool drop = consult_fault(fault::Site::kD2H, &duration);
    const OpId id = engine_.submit(
        Resource::kPcieD2H, "transfer-d2h", duration, deps,
        [this, drop, in = src.device_span(), dst]() mutable {
          if (drop) {
            transfer_faults_.fetch_add(1, std::memory_order_acq_rel);
            return;
          }
          std::copy(in.begin(), in.end(), dst.begin());
        });
    stream.set_last(id);
    return id;
  }

  /// Enqueue a kernel of `threads` linear threads; `body(tid)` runs for
  /// every thread, in tid order.
  OpId launch(Stream& stream, std::string label, std::uint64_t threads,
              const KernelCost& cost,
              std::function<void(std::uint64_t)> body,
              const std::vector<OpId>& extra_deps = {});

  /// Like launch(), but the functional body receives contiguous tid ranges:
  /// `body(lo, hi)` covers tids [lo, hi) with hi - lo <= `group`, so a
  /// lane-batched body can advance a group of threads in vector lockstep.
  /// Simulated cost, label and thread accounting are exactly launch()'s:
  /// batching is a host-side execution detail, invisible to the
  /// virtual-time schedule.
  OpId launch_batched(Stream& stream, std::string label,
                      std::uint64_t threads, const KernelCost& cost,
                      std::uint64_t group,
                      std::function<void(std::uint64_t, std::uint64_t)> body,
                      const std::vector<OpId>& extra_deps = {});

  /// Like launch(), for kernels whose work is data dependent: `body(tid)`
  /// returns the simple-op count that thread actually executed, and the
  /// kernel's simulated duration is computed from the realised totals
  /// (plus `base_cost` charged statically per thread).
  OpId launch_dynamic(Stream& stream, std::string label,
                      std::uint64_t threads, const KernelCost& base_cost,
                      std::function<double(std::uint64_t)> body,
                      const std::vector<OpId>& extra_deps = {});

  /// Enqueue host work (simulated `seconds` on the CPU resource).
  OpId host_task(Stream& stream, std::string label, double seconds,
                 std::function<void()> fn,
                 const std::vector<OpId>& extra_deps = {});

  /// Run all queued ops; returns the simulated makespan of the batch.
  double synchronize() { return engine_.run_all(); }

 private:
  std::vector<OpId> with_stream_dep(Stream& stream,
                                    const std::vector<OpId>& extra) const;

  /// Consult the fault injector (if any) at a transfer site. Adds any
  /// injected delay to *duration; returns true when the transfer must
  /// drop its payload. Consulted at enqueue time — enqueues are already
  /// serialised by the device owner's lock, keeping event ordinals
  /// deterministic (docs/FAULTS.md §2).
  bool consult_fault(fault::Site site, double* duration) {
    if (fault_injector_ == nullptr) return false;
    const fault::Outcome o = fault_injector_->on_event(site, fault_target_);
    *duration += o.delay_seconds;
    return o.fail();
  }

  /// Device-level instruments, resolved once in set_metrics().
  struct Instruments {
    obs::Counter* copy_bytes_h2d = nullptr;
    obs::Counter* copy_bytes_d2h = nullptr;
    obs::Counter* kernel_launches = nullptr;
    obs::Counter* kernel_threads = nullptr;
    obs::Counter* host_tasks = nullptr;
  };

  DeviceSpec spec_;
  Engine engine_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments ins_;
  fault::Injector* fault_injector_ = nullptr;
  int fault_target_ = 0;
  std::atomic<std::uint64_t> transfer_faults_{0};
};

}  // namespace hprng::sim
