#include "core/hybrid_prng.hpp"

#include <algorithm>

#include "core/calibration.hpp"
#include "prng/seed_seq.hpp"
#include "prng/splitmix64.hpp"
#include "simd/simd.hpp"
#include "state/snapshot.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace hprng::core {

using expander::BitReader;
using expander::GabberGalilFull;
using expander::Side;
using expander::Vertex;
using expander::WalkState;

HybridPrng::HybridPrng(sim::Device& device, HybridPrngConfig cfg)
    : device_(device),
      cfg_(cfg),
      feeder_(device.spec(), cfg.feeder_generator, cfg.seed) {
  HPRNG_CHECK(cfg_.walk_len >= 1, "walk_len must be at least 1");
  HPRNG_CHECK(cfg_.init_walk_len >= 0, "init_walk_len must be >= 0");
}

void HybridPrng::set_metrics(obs::MetricsRegistry* registry) {
  device_.set_metrics(registry);
  feeder_.set_metrics(registry);
  metrics_ = registry;
  ins_ = {};
  round_records_.clear();
  if (registry == nullptr) return;
  ins_.rounds = &registry->counter("hprng.core.rounds");
  ins_.numbers_generated = &registry->counter("hprng.core.numbers_generated");
  ins_.feed_refill_stalls =
      &registry->counter("hprng.core.feed_refill_stalls");
  ins_.transfer_consumer_stalls =
      &registry->counter("hprng.core.transfer_consumer_stalls");
  ins_.initialized_threads =
      &registry->gauge("hprng.core.initialized_threads");
  ins_.round_feed_seconds =
      &registry->histogram("hprng.core.round_feed_seconds");
  ins_.round_transfer_seconds =
      &registry->histogram("hprng.core.round_transfer_seconds");
  ins_.round_generate_seconds =
      &registry->histogram("hprng.core.round_generate_seconds");
  // Info gauges, set eagerly: the dispatch decision is process-global and
  // fixed by the time a registry is attached.
  ins_.simd_kernel = &registry->gauge("hprng.core.simd_kernel");
  ins_.simd_lanes = &registry->gauge("hprng.core.simd_lanes");
  ins_.simd_kernel->set(static_cast<int>(simd::active_kernel()));
  ins_.simd_lanes->set(simd::lane_width_u32());
  ins_.initialized_threads->set(
      static_cast<double>(initialized_threads_));
}

void HybridPrng::annotate_trace(obs::TraceWriter& trace, int pid) const {
  sim::Engine& engine = device_.engine();
  double produced = 0.0;
  std::uint64_t index = 0;
  for (const RoundRecord& r : round_records_) {
    trace.add_async_span(
        pid, "pipeline", index, util::strf("round %llu",
            static_cast<unsigned long long>(index)),
        engine.start_time(r.feed), engine.end_time(r.kernel));
    produced += static_cast<double>(r.count);
    trace.add_counter("hprng.core.numbers_generated",
                      engine.end_time(r.kernel), produced, pid);
    ++index;
  }
}

std::uint64_t HybridPrng::words_per_draw() const {
  return BitReader::words_needed(
      1, static_cast<int>(expander::bits_for_walk(
             static_cast<std::uint64_t>(cfg_.walk_len), cfg_.policy)));
}

double HybridPrng::device_ops_for_draws(double draws) const {
  return draws * cfg_.walk_len * kWalkStepDeviceOps;
}

double HybridPrng::device_ops_for_draws_inline(double draws) const {
  return draws * cfg_.walk_len * kWalkStepInlineOps;
}

bool HybridPrng::initialize(std::uint64_t threads) {
  if (threads <= initialized_threads_) return true;
  // Growing the state array may reallocate storage that pending kernels
  // hold pointers into: flush them first. This also completes any earlier
  // fault-checked work, so the consume below scopes the fault counters to
  // this init round alone.
  device_.synchronize();
  (void)device_.take_transfer_faults();
  (void)feeder_.take_faults();
  const std::uint64_t first = initialized_threads_;
  const std::uint64_t fresh = threads - first;
  states_.resize(threads);

  // Algorithm 1, incrementally: the CPU supplies 64 bits per FRESH thread
  // for the start vertex plus the bits for the init_walk_len mixing walk;
  // the transfer is asynchronous and the device kernel performs the walks.
  // Walks below `first` are live and keep their positions.
  const std::uint64_t init_bits =
      64 + expander::bits_for_walk(
               static_cast<std::uint64_t>(cfg_.init_walk_len), cfg_.policy);
  const std::uint64_t wpt = (init_bits + 31) / 32;
  const std::uint64_t words = wpt * fresh;
  if (host_bin_[0].size() < words) host_bin_[0].resize(words);
  if (device_bin_[0].size() < words) device_bin_[0].resize(words);

  const sim::OpId feed = device_.host_task(
      feed_stream_, "FEED", feeder_.seconds_for_words(words),
      [this, words] {
        feeder_.fill(
            std::span(host_bin_[0]).first(static_cast<std::size_t>(words)));
      });
  sim::Stream xfer;
  const sim::OpId copy = device_.memcpy_h2d(
      xfer,
      std::span<const std::uint32_t>(host_bin_[0])
          .first(static_cast<std::size_t>(words)),
      device_bin_[0], {feed});

  const int init_len = cfg_.init_walk_len;
  const auto policy = cfg_.policy;
  const auto mode = cfg_.mode;
  const sim::KernelCost cost{
      /*ops_per_thread=*/64 + init_len * kWalkStepDeviceOps,
      /*bytes_per_thread=*/static_cast<double>(wpt) * 4.0 +
          sizeof(WalkState)};
  const sim::OpId kernel = device_.launch(
      compute_stream_, "Generate(init)", fresh, cost,
      [this, first, wpt, init_len, policy, mode](std::uint64_t tid) {
        auto bin = device_bin_[0].device_span().subspan(
            static_cast<std::size_t>(tid * wpt),
            static_cast<std::size_t>(wpt));
        BitReader bits{bin};
        WalkState s;
        const std::uint64_t hi = bits.read(24);
        const std::uint64_t mid = bits.read(24);
        const std::uint64_t lo = bits.read(16);
        s.v = Vertex::from_id((hi << 40) | (mid << 16) | lo);
        s.side = Side::X;
        expander::walk(s, bits, init_len, policy, mode);
        states_.device_span()[static_cast<std::size_t>(first + tid)] = s;
      },
      {copy});
  slot_consumer_[0] = kernel;
  slot_transfer_[0] = copy;
  device_.synchronize();
  if (device_.take_transfer_faults() + feeder_.take_faults() != 0) {
    // The init round lost its payload: the fresh walks' states are garbage.
    // initialized_threads_ stays at `first`, so the next call re-runs
    // Algorithm 1 for them (docs/FAULTS.md).
    return false;
  }
  initialized_threads_ = threads;
  if (metrics_ != nullptr) {
    ins_.initialized_threads->set(static_cast<double>(threads));
  }
  return true;
}

HybridPrng::Round HybridPrng::begin_round(std::uint64_t threads,
                                          std::uint64_t draws_per_thread) {
  HPRNG_CHECK(threads >= 1, "begin_round needs at least one thread");
  HPRNG_CHECK(draws_per_thread >= 1, "begin_round needs at least one draw");
  initialize(threads);

  const int slot = next_slot_;
  next_slot_ ^= 1;
  const std::uint64_t wpt = words_per_draw() * draws_per_thread;
  const std::uint64_t words = wpt * threads;
  if (host_bin_[slot].size() < words || device_bin_[slot].size() < words) {
    // Growth may reallocate storage that pending ops hold spans into:
    // flush them before touching the buffers. (Shrinking never moves
    // storage, so the common shrinking-workload case — e.g. list ranking —
    // keeps the pipeline fully overlapped.)
    device_.synchronize();
    host_bin_[slot].resize(words);
    device_bin_[slot].resize(words);
  }

  // FEED: may not overwrite the staging buffer until its previous transfer
  // has read it (the host resource otherwise pipelines freely).
  std::vector<sim::OpId> feed_deps;
  if (slot_transfer_[slot] != sim::kNoOp) {
    feed_deps.push_back(slot_transfer_[slot]);
  }
  if (metrics_ != nullptr) {
    ins_.rounds->add(1);
    // Structural stall edges: rounds whose FEED had to wait for the slot's
    // previous TRANSFER, and (below) whose TRANSFER had to wait for the
    // slot's previous consumer kernel. Realised stall *time* is measured
    // by the engine's hprng.sim.dep_stall_seconds.* counters.
    if (!feed_deps.empty()) ins_.feed_refill_stalls->add(1);
    if (slot_consumer_[slot] != sim::kNoOp) {
      ins_.transfer_consumer_stalls->add(1);
    }
  }
  const sim::OpId feed = device_.host_task(
      feed_stream_, "FEED",
      feeder_.seconds_for_words(words) +
          device_.spec().host_api_call_overhead_us * 1e-6,
      [this, slot, words] {
        feeder_.fill(std::span(host_bin_[slot]).first(
            static_cast<std::size_t>(words)));
      },
      feed_deps);

  // TRANSFER: may not overwrite the device bin until the kernel that
  // consumed it last has finished (double-buffer discipline).
  std::vector<sim::OpId> copy_deps{feed};
  if (slot_consumer_[slot] != sim::kNoOp) {
    copy_deps.push_back(slot_consumer_[slot]);
  }
  sim::Stream xfer;
  const sim::OpId copy = device_.memcpy_h2d(
      xfer,
      std::span<const std::uint32_t>(host_bin_[slot])
          .first(static_cast<std::size_t>(words)),
      device_bin_[slot], copy_deps);
  slot_transfer_[slot] = copy;
  last_feed_op_ = feed;
  return Round{copy, slot, threads, wpt};
}

void HybridPrng::end_round(const Round& round, sim::OpId consumer) {
  slot_consumer_[round.slot] = consumer;
}

HybridPrng::ThreadRng HybridPrng::thread_rng(const Round& round,
                                             std::uint64_t tid) {
  HPRNG_CHECK(tid < round.threads, "thread_rng: tid out of round range");
  auto bin = device_bin_[round.slot].device_span().subspan(
      static_cast<std::size_t>(tid * round.words_per_thread),
      static_cast<std::size_t>(round.words_per_thread));
  return ThreadRng(&states_.device_span()[static_cast<std::size_t>(tid)],
                   BitReader{bin}, &cfg_);
}

std::uint64_t HybridPrng::ThreadRng::next() {
  HPRNG_CHECK(state_ != nullptr, "next() on an empty ThreadRng");
  expander::walk(*state_, bits_, cfg_->walk_len, cfg_->policy, cfg_->mode);
  const std::uint64_t id = state_->v.id();
  return cfg_->finalize_output ? prng::splitmix64_mix(id) : id;
}

namespace {
/// Split domain separating the serve-path counter feed from every other
/// SeedSequence child of the generator's seed.
constexpr std::uint64_t kServeFeedDomain = 0x5EEDF00Dull;
}  // namespace

std::uint64_t HybridPrng::serve_feed_root(std::uint64_t walk) {
  // Pure function of (cfg_.seed, walk): derived once per walk, then served
  // from the cache — the old path paid two SeedSequence splits per listed
  // walk on every fill.
  const auto w = static_cast<std::size_t>(walk);
  if (w >= serve_root_cache_.size()) {
    serve_root_cache_.resize(w + 1, 0);
    serve_root_known_.resize(w + 1, 0);
  }
  if (serve_root_known_[w] == 0) {
    serve_root_cache_[w] = prng::SeedSequence(cfg_.seed)
                               .split(kServeFeedDomain)
                               .split(walk)
                               .root();
    serve_root_known_[w] = 1;
  }
  return serve_root_cache_[w];
}

HybridPrng::LeasedFill HybridPrng::fill_leased(
    std::span<const LeasedDraw> draws) {
  LeasedFill res;
  if (draws.empty()) return res;
  std::uint64_t threads = 0;
  std::uint64_t max_draws = 1;
  for (const LeasedDraw& d : draws) {
    threads = std::max(threads, d.walk + 1);
    max_draws = std::max<std::uint64_t>(max_draws, d.out.size());
  }
  if (!initialize(threads)) {  // incremental: live walks keep their state
    res.ok = false;            // nothing was charged
    return res;
  }

  // One packed wpd-per-draw feed slice per listed walk, one kernel thread
  // per listed walk (walks not listed cost nothing — unlike the batched
  // path, the serve pass is sized by the requests, not the walk range).
  const std::uint64_t wpd = words_per_draw();
  serve_offset_.resize(draws.size() + 1);
  serve_offset_[0] = 0;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    serve_offset_[i + 1] = serve_offset_[i] + wpd * draws[i].out.size();
  }
  const std::uint64_t words = serve_offset_.back();
  if (serve_feed_pos_.size() < threads) {
    serve_feed_pos_.resize(static_cast<std::size_t>(threads), 0);
    serve_seen_.resize(static_cast<std::size_t>(threads), 0);
  }

  // Duplicate-walk check over the reusable arena (flags reset below).
  for (const LeasedDraw& d : draws) {
    char& flag = serve_seen_[static_cast<std::size_t>(d.walk)];
    HPRNG_CHECK(flag == 0, "fill_leased: walk listed twice");
    flag = 1;
  }
  for (const LeasedDraw& d : draws) {
    serve_seen_[static_cast<std::size_t>(d.walk)] = 0;
  }

  // The pass is one fenced FEED -> TRANSFER -> GENERATE chain, each stage
  // starting when the previous one ends. FEED is charged at the feeder's
  // production cost model. Both fault sites are consulted on every pass,
  // in this order and under the owner's lock, so event ordinals are
  // deterministic (docs/FAULTS.md); an injected delay lengthens its stage
  // and a failed pass is still charged all three.
  double feed_seconds =
      feeder_.seconds_for_words(static_cast<std::size_t>(words)) +
      device_.spec().host_api_call_overhead_us * 1e-6;
  double copy_seconds = device_.copy_seconds(
      static_cast<std::size_t>(words) * sizeof(std::uint32_t));
  bool dropped = false;
  const auto consult = [&](fault::Site site, double* seconds) {
    if (fault_injector_ == nullptr) return;
    const fault::Outcome o = fault_injector_->on_event(site, fault_target_);
    *seconds += o.delay_seconds;
    dropped = dropped || o.fail();
  };
  consult(fault::Site::kFeedFill, &feed_seconds);
  consult(fault::Site::kH2D, &copy_seconds);
  const sim::KernelCost cost{
      device_ops_for_draws(static_cast<double>(max_draws)),
      static_cast<double>(wpd * max_draws) * 4.0 +
          8.0 * static_cast<double>(max_draws)};
  res.sim_seconds = device_.engine().chain(
      {{sim::Resource::kHost, feed_seconds},
       {sim::Resource::kPcieH2D, copy_seconds},
       {sim::Resource::kDevice,
        device_.kernel_seconds(draws.size(), cost)}});
  if (metrics_ != nullptr) ins_.rounds->add(1);
  if (dropped) {
    // A dropped feed slice or transfer moves nothing: walk states, feed
    // positions and the caller's buffers are untouched, so the retry
    // serves exactly the words this pass owed.
    res.ok = false;
    return res;
  }

  // FEED: each listed walk's counter-addressed words, from its committed
  // feed position — word k is a pure function of (root, pos + k), and
  // simd::derive_fill_u32 vectorises the walk's whole range.
  if (serve_bin_.size() < words) {
    serve_bin_.resize(static_cast<std::size_t>(words));
  }
  for (std::size_t i = 0; i < draws.size(); ++i) {
    simd::derive_fill_u32(
        serve_feed_root(draws[i].walk),
        serve_feed_pos_[static_cast<std::size_t>(draws[i].walk)],
        serve_bin_.data() + serve_offset_[i],
        static_cast<std::size_t>(serve_offset_[i + 1] - serve_offset_[i]));
  }
  // GENERATE, in fixed groups of simd::kWalkGroup walks.
  for (std::size_t lo = 0; lo < draws.size(); lo += simd::kWalkGroup) {
    serve_walk_group(draws, wpd, lo,
                     std::min<std::size_t>(draws.size(),
                                           lo + simd::kWalkGroup));
  }
  for (const LeasedDraw& d : draws) {
    serve_feed_pos_[static_cast<std::size_t>(d.walk)] += wpd * d.out.size();
  }
  return res;
}

void HybridPrng::serve_walk_group(std::span<const LeasedDraw> draws,
                                  std::uint64_t wpd, std::size_t lo,
                                  std::size_t hi) {
  simd::WalkLane lanes[simd::kWalkGroup];
  const int n = static_cast<int>(hi - lo);
  const std::uint32_t* bin = serve_bin_.data();
  const auto states = states_.device_span();
  // Listed walks differ in draw count; the lanes advance their common
  // prefix in lockstep and each lane's ragged remainder finishes on the
  // per-draw scalar path. Configurations the lanes cannot run have no
  // lockstep prefix. Every draw starts on a fresh word-aligned reader over
  // its own wpd-word slice — the per-draw budget the batched path
  // provisions per round — so a walk's stream is invariant to how its
  // draws are batched across fills.
  std::uint64_t common = simd::walk_vectorizable(cfg_.policy, cfg_.mode)
                             ? draws[lo].out.size()
                             : 0;
  for (int l = 0; l < n; ++l) {
    const std::size_t i = lo + static_cast<std::size_t>(l);
    const LeasedDraw& d = draws[i];
    const WalkState& s = states[static_cast<std::size_t>(d.walk)];
    lanes[l] = simd::WalkLane{s.v.x, s.v.y, bin + serve_offset_[i],
                              d.out.data()};
    common = std::min<std::uint64_t>(common, d.out.size());
  }
  if (common > 0) {
    simd::walk_draws(lanes, n, common, static_cast<std::uint32_t>(wpd),
                     cfg_.walk_len, cfg_.policy, cfg_.finalize_output);
  }
  for (int l = 0; l < n; ++l) {
    const std::size_t i = lo + static_cast<std::size_t>(l);
    const LeasedDraw& d = draws[i];
    WalkState* state = &states[static_cast<std::size_t>(d.walk)];
    state->v = Vertex{lanes[l].x, lanes[l].y};
    for (std::size_t j = static_cast<std::size_t>(common); j < d.out.size();
         ++j) {
      BitReader bits{std::span<const std::uint32_t>(
          bin + serve_offset_[i] + j * wpd, static_cast<std::size_t>(wpd))};
      ThreadRng rng(state, bits, &cfg_);
      d.out[j] = rng.next();
    }
  }
}

sim::OpId HybridPrng::enqueue_batch_round(std::uint64_t threads,
                                          std::uint64_t round_index,
                                          sim::Buffer<std::uint64_t>& out,
                                          std::uint64_t out_offset,
                                          std::uint64_t count) {
  Round round = begin_round(threads, 1);
  const sim::KernelCost cost{
      device_ops_for_draws(1.0),
      static_cast<double>(round.words_per_thread) * 4.0 + 8.0};
  sim::OpId kernel;
  if (simd::walk_vectorizable(cfg_.policy, cfg_.mode)) {
    kernel = device_.launch_batched(
        compute_stream_,
        round_index == 0 ? "Generate" : "Generate+",  // same 'G' mark
        count, cost, simd::kWalkGroup,
        [this, round, out_span = out.device_span(), out_offset](
            std::uint64_t lo, std::uint64_t hi) mutable {
          simd::WalkLane lanes[simd::kWalkGroup];
          const int n = static_cast<int>(hi - lo);
          const std::uint32_t* bin =
              device_bin_[round.slot].device_span().data();
          const auto states = states_.device_span();
          for (int l = 0; l < n; ++l) {
            const std::size_t tid = static_cast<std::size_t>(lo) + l;
            const WalkState& s = states[tid];
            lanes[l] = simd::WalkLane{
                s.v.x, s.v.y, bin + tid * round.words_per_thread,
                out_span.data() + static_cast<std::size_t>(out_offset) + tid};
          }
          simd::walk_draws(lanes, n, 1,
                           static_cast<std::uint32_t>(round.words_per_thread),
                           cfg_.walk_len, cfg_.policy, cfg_.finalize_output);
          for (int l = 0; l < n; ++l) {
            const std::size_t tid = static_cast<std::size_t>(lo) + l;
            states[tid].v = Vertex{lanes[l].x, lanes[l].y};
          }
        },
        {round.ready});
  } else {
    kernel = device_.launch(
        compute_stream_,
        round_index == 0 ? "Generate" : "Generate+",  // same 'G' mark
        count, cost,
        [this, round, out_span = out.device_span(), out_offset](
            std::uint64_t tid) mutable {
          ThreadRng rng = thread_rng(round, tid);
          out_span[static_cast<std::size_t>(out_offset + tid)] = rng.next();
        },
        {round.ready});
  }
  end_round(round, kernel);
  if (metrics_ != nullptr) {
    round_records_.push_back(
        RoundRecord{last_feed_op_, round.ready, kernel, count});
  }
  return kernel;
}

double HybridPrng::generate_device(std::uint64_t n, std::uint64_t batch_size,
                                   sim::Buffer<std::uint64_t>& out) {
  HPRNG_CHECK(n >= 1, "generate_device needs n >= 1");
  HPRNG_CHECK(batch_size >= 1, "batch_size must be >= 1");
  const std::uint64_t threads = (n + batch_size - 1) / batch_size;
  initialize(threads);  // one-time setup, excluded from the timed window
  if (out.size() < n) {
    device_.synchronize();  // pending kernels may hold spans into `out`
    out.resize(n);
  }

  round_records_.clear();  // trace annotations cover the latest run only
  device_.engine().fence();  // timed window starts on an idle machine
  const double sim_start = device_.engine().now();
  std::uint64_t produced = 0;
  std::uint64_t round = 0;
  while (produced < n) {
    const std::uint64_t count = std::min(threads, n - produced);
    enqueue_batch_round(threads, round, out, produced, count);
    produced += count;
    ++round;
  }
  device_.synchronize();
  if (metrics_ != nullptr) {
    ins_.numbers_generated->add(static_cast<double>(n));
    sim::Engine& engine = device_.engine();
    for (const RoundRecord& r : round_records_) {
      ins_.round_feed_seconds->observe(engine.end_time(r.feed) -
                                       engine.start_time(r.feed));
      ins_.round_transfer_seconds->observe(engine.end_time(r.transfer) -
                                           engine.start_time(r.transfer));
      ins_.round_generate_seconds->observe(engine.end_time(r.kernel) -
                                           engine.start_time(r.kernel));
    }
  }
  return device_.engine().now() - sim_start;
}

std::vector<std::uint64_t> HybridPrng::generate(std::uint64_t n,
                                                std::uint64_t batch_size) {
  sim::Buffer<std::uint64_t> out(n);
  generate_device(n, batch_size, out);
  std::vector<std::uint64_t> host(n);
  sim::Stream s;
  device_.memcpy_d2h(s, out, std::span<std::uint64_t>(host));
  device_.synchronize();
  return host;
}

void HybridPrng::save_state(state::SnapshotWriter& writer) const {
  // Config echo: enough to prove a restore target would replay the exact
  // stream. Everything here changes either the feed stream or the walk.
  writer.put_u64(cfg_.seed);
  writer.put_u32(static_cast<std::uint32_t>(cfg_.init_walk_len));
  writer.put_u32(static_cast<std::uint32_t>(cfg_.walk_len));
  writer.put_u32(static_cast<std::uint32_t>(cfg_.policy));
  writer.put_u32(static_cast<std::uint32_t>(cfg_.mode));
  writer.put_u32(cfg_.finalize_output ? 1 : 0);
  writer.put_str(cfg_.feeder_generator);
  // Feeder stream position: initialize() of walks beyond the checkpoint
  // consumes feeder words from here, so the position — not just the seed —
  // is load-bearing for post-restore initialisation equivalence.
  writer.put_u64(feeder_.words_produced());
  writer.put_u64(initialized_threads_);
  const auto states = states_.device_span();
  for (std::uint64_t w = 0; w < initialized_threads_; ++w) {
    const WalkState& s = states[static_cast<std::size_t>(w)];
    writer.put_u32(s.v.x);
    writer.put_u32(s.v.y);
    writer.put_u32(static_cast<std::uint32_t>(s.side));
  }
  writer.put_u64(serve_feed_pos_.size());
  for (const std::uint64_t pos : serve_feed_pos_) writer.put_u64(pos);
}

bool HybridPrng::load_state(state::SectionReader& reader, std::string* error) {
  const std::uint64_t seed = reader.get_u64();
  const auto init_walk_len = static_cast<int>(reader.get_u32());
  const auto walk_len = static_cast<int>(reader.get_u32());
  const std::uint32_t policy = reader.get_u32();
  const std::uint32_t mode = reader.get_u32();
  const std::uint32_t finalize = reader.get_u32();
  const std::string feeder_name = reader.get_str();
  if (reader.ok()) {
    if (seed != cfg_.seed || init_walk_len != cfg_.init_walk_len ||
        walk_len != cfg_.walk_len ||
        policy != static_cast<std::uint32_t>(cfg_.policy) ||
        mode != static_cast<std::uint32_t>(cfg_.mode) ||
        finalize != (cfg_.finalize_output ? 1u : 0u) ||
        feeder_name != cfg_.feeder_generator) {
      reader.fail("generator config mismatch (snapshot taken under a "
                  "different HybridPrngConfig)");
    }
  }
  const std::uint64_t feeder_words = reader.get_u64();
  const std::uint64_t threads = reader.get_u64();
  if (reader.ok() && threads > (1ull << 32)) {
    reader.fail("implausible initialised-thread count");
  }
  if (reader.ok()) {
    device_.synchronize();
    states_.resize(static_cast<std::size_t>(threads));
    const auto states = states_.device_span();
    for (std::uint64_t w = 0; w < threads && reader.ok(); ++w) {
      WalkState s;
      const std::uint32_t x = reader.get_u32();
      const std::uint32_t y = reader.get_u32();
      const std::uint32_t side = reader.get_u32();
      s.v = Vertex{x, y};
      s.side = side == 0 ? Side::X : Side::Y;
      states[static_cast<std::size_t>(w)] = s;
    }
  }
  const std::uint64_t pos_count = reader.get_u64();
  if (reader.ok() && pos_count > (1ull << 32)) {
    reader.fail("implausible feed-cursor count");
  }
  std::vector<std::uint64_t> pos(reader.ok()
                                     ? static_cast<std::size_t>(pos_count)
                                     : 0);
  for (auto& p : pos) p = reader.get_u64();
  if (!reader.ok()) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  initialized_threads_ = threads;
  feeder_.advance_to(feeder_words);
  serve_feed_pos_ = std::move(pos);
  serve_seen_.assign(serve_feed_pos_.size(), 0);
  // Root caches are pure functions of (seed, walk): recomputed on demand.
  serve_root_cache_.clear();
  serve_root_known_.clear();
  if (metrics_ != nullptr) {
    ins_.initialized_threads->set(static_cast<double>(threads));
  }
  return true;
}

}  // namespace hprng::core
