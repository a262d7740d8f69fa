#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "expander/bit_reader.hpp"
#include "expander/gabber_galil.hpp"
#include "fault/fault.hpp"
#include "expander/walk.hpp"
#include "host/bit_feeder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/buffer.hpp"
#include "sim/device.hpp"
#include "util/check.hpp"

namespace hprng::state {
class SnapshotWriter;
class SectionReader;
}  // namespace hprng::state

namespace hprng::core {

/// Configuration of the hybrid expander-walk PRNG (Sec. III).
///
/// Most fields feed the FEED -> TRANSFER -> GENERATE schedule, not just
/// the output stream: anything that changes the bits consumed per draw
/// changes the FEED and TRANSFER durations of every round, and with them
/// the overlap picture of Figures 4/5. Per-field notes below say which
/// side(s) of that balance each knob moves.
struct HybridPrngConfig {
  /// Seeds both the host feeder stream and (through it) every walk's start
  /// vertex. No effect on the schedule — two runs with different seeds
  /// produce identical timelines and different numbers.
  std::uint64_t seed = 0x243F6A8885A308D3ull;

  /// Length of the initialisation walk (Algorithm 1; the paper uses 64).
  /// Paid once, outside the figures' timed windows: it scales the one-off
  /// FEED/TRANSFER/GENERATE triple of initialize() and nothing else.
  int init_walk_len = 64;

  /// Walk steps per output (Algorithm 2's l): the quality/throughput dial.
  /// 32 steps consume 96 host bits per 64-bit output — the smallest l at
  /// which the raw vertex ids pass the BigCrush-scale battery (see
  /// bench/ablation_walk_length). Applications that only need coin flips
  /// or seeds run at l = 8.
  ///
  /// Schedule: l multiplies the bits per draw, so FEED (host seconds),
  /// TRANSFER (bytes over PCIe) and GENERATE (walk steps) all scale with
  /// it — it shifts throughput but barely moves the overlap *ratios*.
  int walk_len = 32;

  /// Neighbour selection from each 3-bit draw (DESIGN.md §5.1). Schedule:
  /// kRejection overprovisions the feed 1.5x (bits_for_walk), lengthening
  /// FEED and TRANSFER per round while GENERATE is unchanged — it tilts
  /// the pipeline further towards feed-bound. kMod7/kSevenStays use the
  /// fixed 3-bits-per-step budget.
  expander::NeighborPolicy policy = expander::NeighborPolicy::kMod7;

  /// Forward-only (paper) vs alternating walk (ablation-only; DESIGN.md
  /// §5.2). Same bit budget per step, so no schedule effect.
  expander::WalkMode mode = expander::WalkMode::kForwardOnly;

  /// Optional SplitMix64 output finaliser (OFF = paper-faithful raw vertex
  /// ids; see the walk-length ablation for why you might want it at tiny
  /// l). Device-side arithmetic only; no measurable schedule effect.
  bool finalize_output = false;

  /// Device walk count for the on-demand application API (the batched
  /// generate() chooses its own thread count from the batch size).
  /// Schedule: more threads = bigger rounds — every stage's per-round
  /// duration grows, amortising the fixed launch/API overheads.
  std::uint64_t num_threads = 7680;  // 30 SMs x 256 resident threads

  /// Host generator that produces the raw feed bits (paper: glibc LCG).
  /// Quality dial for the ablations; the FEED *cost model* is
  /// generator-independent (spec.host_ns_per_random_bit), so swapping it
  /// changes the stream, not the simulated schedule.
  std::string feeder_generator = "glibc-lcg";
};
// NOTE: configuration changes alter the schedule and the stream; every
// (policy x mode x walk_len) combination is contract-tested in
// tests/config_sweep_test.cpp.

/// The paper's on-demand hybrid CPU+GPU pseudo random number generator:
/// per-thread independent random walks on the 7-regular Gabber-Galil
/// expander on 2^65 nodes, with neighbour choices driven by a cheap
/// host-side bit stream delivered asynchronously over PCIe.
///
/// Two usage modes:
///  * Batched: generate(n, batch_size) — the Figure 3/5 driver. Rounds of
///    one number per thread are pipelined FEED -> TRANSFER -> GENERATE.
///  * On-demand: an application kernel obtains a ThreadRng per device
///    thread and calls next() as many times as it likes within the round's
///    provisioned budget (Algorithms 1/2; used by list ranking & photon).
class HybridPrng {
 public:
  HybridPrng(sim::Device& device, HybridPrngConfig cfg = {});

  /// Algorithm 1: place every walk at a seed vertex and mix with an
  /// init_walk_len-step walk, with FEED/TRANSFER/GENERATE pipelined.
  /// Called lazily by the other entry points; idempotent per thread count.
  /// Growing is incremental: only walks [current, threads) are initialised
  /// and live walks keep their positions, so the serving layer can attach
  /// new leases mid-traffic without resetting anyone's stream.
  /// Returns false when an injected transfer/feed fault corrupted the init
  /// round (docs/FAULTS.md): the fresh walks stay uninitialised and the
  /// next call re-runs Algorithm 1 for them. Always true without faults.
  bool initialize(std::uint64_t threads);

  /// Generate n 64-bit numbers into device memory (throughput path used by
  /// the figures; results stay on the GPU exactly as in the paper's
  /// comparison). batch_size is the paper's S: numbers per thread.
  /// Returns simulated seconds for the whole pipelined run.
  double generate_device(std::uint64_t n, std::uint64_t batch_size,
                         sim::Buffer<std::uint64_t>& out);

  /// Convenience: generate n numbers and copy them back to the host.
  std::vector<std::uint64_t> generate(std::uint64_t n,
                                      std::uint64_t batch_size = 100);

  // -- On-demand application API ------------------------------------------

  /// One provisioned feed round for an application kernel.
  struct Round {
    sim::OpId ready = sim::kNoOp;  // add to the consuming kernel's deps
    int slot = 0;
    std::uint64_t threads = 0;
    std::uint64_t words_per_thread = 0;
  };

  /// Enqueue FEED (host) + TRANSFER (PCIe) for `draws_per_thread` on-demand
  /// draws by each of `threads` threads. The kernel that consumes the round
  /// must list round.ready in its deps and be registered via end_round().
  Round begin_round(std::uint64_t threads, std::uint64_t draws_per_thread);

  /// Register the kernel op that consumed `round`, freeing its buffer slot
  /// once that kernel completes (double-buffer discipline).
  void end_round(const Round& round, sim::OpId consumer);

  /// Device-side per-thread handle; construct inside a kernel body.
  class ThreadRng {
   public:
    /// Empty handle (usable as a placeholder in strategy-switching kernels;
    /// calling next() on it is a contract violation).
    ThreadRng() = default;

    /// The paper's GetNextRand(): advance this thread's walk walk_len steps
    /// and return the reached vertex id.
    std::uint64_t next();

    /// Uniform double in [0, 1) from the top 53 bits of next().
    double next_double() {
      return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

   private:
    friend class HybridPrng;
    ThreadRng(expander::WalkState* state, expander::BitReader bits,
              const HybridPrngConfig* cfg)
        : state_(state), bits_(bits), cfg_(cfg) {}

    expander::WalkState* state_ = nullptr;
    expander::BitReader bits_;
    const HybridPrngConfig* cfg_ = nullptr;
  };

  /// Handle for thread `tid` over its slice of the round's bit buffer.
  ThreadRng thread_rng(const Round& round, std::uint64_t tid);

  /// Cost-model entry for application kernels: device ops that `draws`
  /// on-demand draws cost inside a kernel (for KernelCost accounting).
  [[nodiscard]] double device_ops_for_draws(double draws) const;

  /// The same for walks inlined in application kernels, whose bin access is
  /// coalesced (see core/calibration.hpp).
  [[nodiscard]] double device_ops_for_draws_inline(double draws) const;

  /// The configuration this generator was constructed with.
  [[nodiscard]] const HybridPrngConfig& config() const { return cfg_; }

  /// The simulated platform this generator schedules onto.
  [[nodiscard]] sim::Device& device() { return device_; }

  /// Words of feed needed per draw (3 bits/step, rejection margin included).
  [[nodiscard]] std::uint64_t words_per_draw() const;

  // -- Serving-layer hook (docs/SERVING.md) --------------------------------

  /// One leased-walk fill: walk `walk` advances `out.size()` draws and
  /// writes them to host memory. Walks are the serving layer's lease unit —
  /// each leased client stream is one device walk, so streams of different
  /// leases can never overlap (independent walk positions).
  struct LeasedDraw {
    std::uint64_t walk = 0;
    std::span<std::uint64_t> out;
  };

  /// Result of one serve-layer fill: whether it landed, and the fenced
  /// simulated seconds the attempt cost (charged whether or not it landed —
  /// a dropped DMA still burns PCIe time).
  struct LeasedFill {
    bool ok = true;
    double sim_seconds = 0.0;
  };

  /// Serve-layer batched fill (hprng::serve::RngService): ONE fenced,
  /// synchronous FEED/TRANSFER/GENERATE pass with a packed feed slice per
  /// listed walk and one kernel thread per listed walk — this is how small
  /// client requests coalesce. Each walk may appear at most once per call.
  /// The pass runs directly, not as engine ops: it charges the simulated
  /// clock through sim::Engine::chain, so engine storage does not grow
  /// with the number of fills.
  ///
  /// Reproducibility contract (the serving layer's bit-identical-replay
  /// guarantee rests on it): each walk draws from its own counter-addressed
  /// feed — word k of walk w is a pure function of (config seed, w, k) —
  /// and each draw starts on a fresh word-aligned reader. A walk's output
  /// stream therefore depends only on how many draws it has made, never on
  /// which requests it was coalesced with or on scheduler timing.
  ///
  /// Faults are decided before any data moves: on an injected feed or
  /// transfer fault (result.ok = false) the pass is charged but moves
  /// nothing — walk states, feed positions and the caller's buffers are
  /// unchanged — so a retry, possibly in a different batch, serves exactly
  /// the words the failed attempt owed.
  LeasedFill fill_leased(std::span<const LeasedDraw> draws);

  /// Attach (or with nullptr, detach) a fault injector (docs/FAULTS.md):
  /// forwards to Device::set_fault_injector and BitFeeder::
  /// set_fault_injector, and is itself consulted at Site::kFeedFill and
  /// Site::kH2D by every fill_leased() pass. With an injector attached,
  /// initialize() and fill_leased() turn injected transfer/feed failures
  /// into explicit failed results that leave the walks as they were (see
  /// their contracts).
  void set_fault_injector(fault::Injector* injector, int target = 0) {
    device_.set_fault_injector(injector, target);
    feeder_.set_fault_injector(injector, target);
    fault_injector_ = injector;
    fault_target_ = target;
  }

  // -- Checkpoint/restore (docs/STATE.md) -----------------------------------

  /// Serialise the generator's complete deterministic state into the
  /// currently-open snapshot section: a config echo, the feeder's stream
  /// position, every initialised walk's vertex, and the serve feed
  /// cursors (fill_leased commits them before it returns).
  void save_state(state::SnapshotWriter& writer) const;

  /// Restore state written by save_state() into a generator constructed
  /// with the same config. Validates the config echo field by field, so a
  /// snapshot can never be silently replayed onto a generator that would
  /// diverge from it. Returns false (with *error) on any mismatch or
  /// malformed section; the generator must be discarded on failure.
  bool load_state(state::SectionReader& reader, std::string* error);

  // -- Observability (docs/OBSERVABILITY.md) -------------------------------

  /// Attach (or with nullptr, detach) a metrics registry to the whole
  /// pipeline: forwards to Device::set_metrics and BitFeeder::set_metrics,
  /// and additionally maintains the `hprng.core.*` pipeline instruments —
  /// rounds, numbers generated, refill/consumer stall counters, and
  /// per-round FEED/TRANSFER/GENERATE duration histograms. While a
  /// registry is attached, generate_device() also keeps per-round op
  /// records so annotate_trace() can add round spans.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Add the last generate_device() run's pipeline rounds to a trace, as
  /// async spans (rounds overlap — that is the point of the pipeline) plus
  /// a cumulative `hprng.core.numbers_generated` counter track. Requires a
  /// registry attached before the run; a no-op otherwise.
  void annotate_trace(obs::TraceWriter& trace, int pid = 1) const;

 private:
  /// FEED+TRANSFER+walk kernel for one batched round; returns the kernel op.
  sim::OpId enqueue_batch_round(std::uint64_t threads, std::uint64_t round,
                                sim::Buffer<std::uint64_t>& out,
                                std::uint64_t out_offset,
                                std::uint64_t count);

  /// Root of walk `walk`'s serve-path counter feed (see fill_leased) —
  /// cached per walk: it is a pure function of (cfg_.seed, walk), so the
  /// two SeedSequence splits are paid once per walk, not once per fill.
  [[nodiscard]] std::uint64_t serve_feed_root(std::uint64_t walk);

  /// Pipeline instruments, resolved once in set_metrics().
  struct Instruments {
    obs::Counter* rounds = nullptr;
    obs::Counter* numbers_generated = nullptr;
    obs::Counter* feed_refill_stalls = nullptr;
    obs::Counter* transfer_consumer_stalls = nullptr;
    obs::Gauge* initialized_threads = nullptr;
    obs::Histogram* round_feed_seconds = nullptr;
    obs::Histogram* round_transfer_seconds = nullptr;
    obs::Histogram* round_generate_seconds = nullptr;
    obs::Gauge* simd_kernel = nullptr;  ///< simd::Kernel id (0/1/2)
    obs::Gauge* simd_lanes = nullptr;   ///< u32 lanes of that kernel
  };

  /// Ops of one batched pipeline round (recorded only while a metrics
  /// registry is attached; reset by each generate_device() call).
  struct RoundRecord {
    sim::OpId feed;
    sim::OpId transfer;
    sim::OpId kernel;
    std::uint64_t count;  // numbers this round produced
  };

  sim::Device& device_;
  HybridPrngConfig cfg_;
  host::BitFeeder feeder_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments ins_;
  std::vector<RoundRecord> round_records_;
  sim::OpId last_feed_op_ = sim::kNoOp;

  sim::Buffer<expander::WalkState> states_;
  std::uint64_t initialized_threads_ = 0;

  // Double-buffered feed path: host staging + device bin, two slots.
  std::vector<std::uint32_t> host_bin_[2];
  sim::Buffer<std::uint32_t> device_bin_[2];
  sim::OpId slot_consumer_[2] = {sim::kNoOp, sim::kNoOp};
  sim::OpId slot_transfer_[2] = {sim::kNoOp, sim::kNoOp};
  int next_slot_ = 0;
  sim::Stream feed_stream_;
  sim::Stream compute_stream_;

  // -- Serve-path fill state (fill_leased) -----------------------------------
  //
  // One feed buffer and one scratch arena, reused by every fill, so
  // steady-state fills grow none of them. A fill derives its feed, walks
  // and commits feed positions only once no fault fired, so a failed
  // fill's retry replays the exact words the failure owed.

  /// GENERATE for listed draws [lo, hi) (at most simd::kWalkGroup): the
  /// walks advance their common draw-count prefix in vector lockstep
  /// (simd::walk_draws) and finish ragged per-walk remainders on the
  /// scalar per-draw path. Configurations the lanes cannot run
  /// (simd::walk_vectorizable) take the scalar path for every draw. Both
  /// paths are exact per draw, so outputs do not depend on the grouping.
  void serve_walk_group(std::span<const LeasedDraw> draws, std::uint64_t wpd,
                        std::size_t lo, std::size_t hi);

  std::vector<std::uint32_t> serve_bin_;     ///< the pass's packed feed
  std::vector<std::uint64_t> serve_offset_;  ///< packed-bin bounds, n + 1

  std::vector<std::uint64_t> serve_feed_pos_;  ///< committed words per walk
  std::vector<std::uint64_t> serve_root_cache_;
  std::vector<char> serve_root_known_;
  std::vector<char> serve_seen_;  ///< duplicate-walk check arena

  fault::Injector* fault_injector_ = nullptr;
  int fault_target_ = 0;
};

}  // namespace hprng::core
