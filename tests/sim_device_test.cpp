#include <gtest/gtest.h>

#include <ios>
#include <numeric>
#include <vector>

#include "sim/buffer.hpp"
#include "sim/device.hpp"

namespace hprng::sim {
namespace {

TEST(DeviceSpec, TeslaC1060Defaults) {
  const auto spec = DeviceSpec::tesla_c1060();
  EXPECT_EQ(spec.num_sms, 30);
  EXPECT_EQ(spec.total_cores(), 240);
  EXPECT_NEAR(spec.core_clock_hz(), 1.296e9, 1.0);
  EXPECT_DOUBLE_EQ(spec.pcie_bandwidth_gb_s, 8.0);
}

TEST(Device, CopySecondsModel) {
  Device dev;
  // latency + bytes / bandwidth.
  const double t = dev.copy_seconds(8ull << 30);  // 8 GiB
  EXPECT_NEAR(t, 10e-6 + (8.0 * (1ull << 30)) / 8e9, 1e-9);
  // Latency floor for tiny copies.
  EXPECT_GT(dev.copy_seconds(4), 9e-6);
}

TEST(Device, KernelSecondsThroughputRegime) {
  Device dev;
  const auto& spec = dev.spec();
  // Far more threads than cores: throughput-bound, exactly the aggregate
  // issue rate.
  const double t = dev.kernel_seconds(240000, KernelCost{100.0, 0.0});
  const double expected = spec.kernel_launch_overhead_us * 1e-6 +
                          100.0 * 240000 / (240.0 * spec.core_clock_hz());
  EXPECT_NEAR(t, expected, expected * 1e-9);
}

TEST(Device, KernelSecondsLatencyFloor) {
  Device dev;
  // Up to latency_cycles/cycles_per_op waves the pipeline hides the extra
  // threads: 1, 240 and 960 threads all take one serial chain's time.
  const double t1 = dev.kernel_seconds(1, KernelCost{1000.0, 0.0});
  const double t960 = dev.kernel_seconds(960, KernelCost{1000.0, 0.0});
  EXPECT_NEAR(t1, t960, 1e-12);
  // Beyond the hiding capacity, time grows with thread count.
  const double t9600 = dev.kernel_seconds(9600, KernelCost{1000.0, 0.0});
  EXPECT_GT(t9600, 3.0 * t960);
}

TEST(Device, KernelSecondsMemoryBound) {
  Device dev;
  const double t =
      dev.kernel_seconds(1000000, KernelCost{1.0, 1000.0});
  // 1 GB of traffic at 102 GB/s ~= 9.8 ms, dwarfing compute.
  EXPECT_GT(t, 9e-3);
}

TEST(Device, MemcpyRoundTrip) {
  Device dev;
  Stream s;
  std::vector<std::uint32_t> src(100);
  std::iota(src.begin(), src.end(), 0u);
  Buffer<std::uint32_t> buf(100);
  std::vector<std::uint32_t> dst(100, 0);
  dev.memcpy_h2d(s, std::span<const std::uint32_t>(src), buf);
  dev.memcpy_d2h(s, buf, std::span<std::uint32_t>(dst));
  dev.synchronize();
  EXPECT_EQ(src, dst);
}

TEST(Device, LaunchRunsEveryThreadOnce) {
  Device dev;
  Stream s;
  std::vector<int> hits(1000, 0);
  dev.launch(s, "k", 1000, KernelCost{1.0, 0.0},
             [&](std::uint64_t tid) { ++hits[tid]; });
  dev.synchronize();
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Device, StreamChainingOrdersOps) {
  Device dev;
  Stream s;
  std::vector<int> order;
  dev.host_task(s, "first", 1.0, [&] { order.push_back(1); });
  dev.launch(s, "second", 1, KernelCost{1.0, 0.0},
             [&](std::uint64_t) { order.push_back(2); });
  dev.synchronize();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // Virtual time: the kernel started only after the 1s host task.
  const auto& entries = dev.timeline().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_GE(entries[1].start, entries[0].end);
}

TEST(Device, IndependentStreamsOverlapInVirtualTime) {
  Device dev;
  Stream a, b;
  dev.host_task(a, "host", 5.0, nullptr);
  dev.launch(b, "kernel", 1, KernelCost{1e6, 0.0},
             [](std::uint64_t) {});
  dev.synchronize();
  const auto& entries = dev.timeline().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_DOUBLE_EQ(entries[0].start, 0.0);
  EXPECT_DOUBLE_EQ(entries[1].start, 0.0);
}

TEST(Device, LaunchDynamicChargesRealisedWork) {
  Device dev;
  Stream s;
  // 240 threads x 1e6 realised ops each.
  const OpId id = dev.launch_dynamic(
      s, "dyn", 240, KernelCost{0.0, 0.0},
      [](std::uint64_t) -> double { return 1e6; });
  dev.synchronize();
  const double dur =
      dev.engine().end_time(id) - dev.engine().start_time(id);
  // Throughput model: 240 * 1e6 ops / (240 cores * 1.296 GHz) ~= 0.77 ms,
  // but the latency floor (4 cycles/op, 1 wave) gives ~3.1 ms.
  EXPECT_NEAR(dur, 4.0 * 1e6 / 1.296e9 + 5e-6, 1e-4);
}

TEST(Device, LaunchDynamicZeroExtraIsFree) {
  Device dev;
  Stream s;
  const OpId id = dev.launch_dynamic(
      s, "dyn0", 16, KernelCost{10.0, 0.0},
      [](std::uint64_t) -> double { return 0.0; });
  dev.synchronize();
  const double dur =
      dev.engine().end_time(id) - dev.engine().start_time(id);
  EXPECT_NEAR(dur, dev.kernel_seconds(16, KernelCost{10.0, 0.0}), 1e-12);
}

TEST(Device, LaunchDynamicChunkedSumIsPinned) {
  // The realised ops are summed per 2048-thread chunk, then chunk by chunk:
  // 5000 threads are two full chunks and a ragged 904. The body's ops are
  // not exactly representable, so the summation order reaches the
  // simulated clock; one running sum over all threads gives
  // 0x1.a6d00d83438f8p-10 instead. Recorded with gcc 12 on x86-64.
  Device dev;
  Stream s;
  const OpId id = dev.launch_dynamic(
      s, "dyn-chunked", 5000, KernelCost{3.0, 8.0},
      [](std::uint64_t t) -> double {
        return 1e5 + 1.0 / static_cast<double>(t + 1);
      });
  dev.synchronize();
  const double dur =
      dev.engine().end_time(id) - dev.engine().start_time(id);
  EXPECT_EQ(dur, 0x1.a6d00d83438ffp-10) << std::hexfloat << dur;
}

TEST(Device, EventsSynchroniseStreams) {
  Device dev;
  Stream producer, consumer;
  dev.host_task(producer, "produce", 5.0, nullptr);
  const Event done = producer.record_event();
  ASSERT_TRUE(done.valid());
  consumer.wait_event(done);
  const OpId use = dev.launch(consumer, "consume", 1, KernelCost{1.0, 0.0},
                              [](std::uint64_t) {});
  dev.synchronize();
  // The consumer kernel could not start before the producer finished.
  EXPECT_GE(dev.engine().start_time(use), 5.0);
}

TEST(Device, UnwaitedStreamsStayConcurrent) {
  Device dev;
  Stream producer, consumer;
  dev.host_task(producer, "produce", 5.0, nullptr);
  const OpId use = dev.launch(consumer, "consume", 1, KernelCost{1.0, 0.0},
                              [](std::uint64_t) {});
  dev.synchronize();
  EXPECT_DOUBLE_EQ(dev.engine().start_time(use), 0.0);
}

TEST(Device, EmptyStreamRecordsInvalidEvent) {
  Stream s;
  EXPECT_FALSE(s.record_event().valid());
  // Waiting on an invalid event is a no-op.
  s.wait_event(Event{});
  EXPECT_TRUE(s.take_pending_waits().empty());
}

TEST(Device, WaitEventAppliesOnlyToNextOp) {
  Device dev;
  Stream producer, consumer;
  dev.host_task(producer, "produce", 5.0, nullptr);
  consumer.wait_event(producer.record_event());
  const OpId first = dev.launch(consumer, "first", 1, KernelCost{1.0, 0.0},
                                [](std::uint64_t) {});
  dev.synchronize();
  EXPECT_GE(dev.engine().start_time(first), 5.0);
  // A fresh op on another stream is unaffected by the consumed wait.
  Stream other;
  const OpId free_op = dev.host_task(other, "free", 0.5, nullptr);
  dev.synchronize();
  EXPECT_LT(dev.engine().start_time(free_op), 5.0 + 1e-9);
}

TEST(Buffer, ResizePreservesSizeSemantics) {
  Buffer<double> b;
  EXPECT_EQ(b.size(), 0u);
  b.resize(10);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b.size_bytes(), 80u);
  b.device_span()[5] = 3.5;
  EXPECT_DOUBLE_EQ(b.device_span()[5], 3.5);
}

}  // namespace
}  // namespace hprng::sim
