#include "serve/backend.hpp"

#include <utility>
#include <vector>

#include "core/cpu_walk_prng.hpp"
#include "core/hybrid_prng.hpp"
#include "obs/metrics.hpp"
#include "prng/registry.hpp"
#include "prng/seed_seq.hpp"
#include "serve/counter_backend.hpp"
#include "sim/device.hpp"
#include "state/snapshot.hpp"
#include "util/check.hpp"

namespace hprng::serve {

namespace {

/// Per-slot bookkeeping for the seed-addressed host backends: their
/// generators are pure functions of (seed, draws so far), so that pair IS
/// the slot's checkpointable state (the restore path replays the draws).
struct SlotMeta {
  bool attached = false;
  std::uint64_t seed = 0;
  std::uint64_t draws = 0;
};

void save_slot_metas(state::SnapshotWriter& writer,
                     const std::vector<SlotMeta>& metas) {
  writer.put_u64(metas.size());
  for (const SlotMeta& m : metas) {
    writer.put_u32(m.attached ? 1 : 0);
    writer.put_u64(m.seed);
    writer.put_u64(m.draws);
  }
}

bool load_slot_metas(state::SectionReader& reader, std::size_t want,
                     std::vector<SlotMeta>* metas, std::string* error) {
  const std::uint64_t count = reader.get_u64();
  if (reader.ok() && count != want) {
    reader.fail("slot count mismatch (snapshot has " + std::to_string(count) +
                ", shard has " + std::to_string(want) + ")");
  }
  std::vector<SlotMeta> restored(reader.ok() ? want : 0);
  for (SlotMeta& m : restored) {
    m.attached = reader.get_u32() != 0;
    m.seed = reader.get_u64();
    m.draws = reader.get_u64();
  }
  if (!reader.ok()) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  *metas = std::move(restored);
  return true;
}

/// The paper's generator as a pool member: one simulated device per shard,
/// one device walk per lease slot. attach/detach are no-ops by design —
/// a slot's stream identity IS its walk: start vertices derive from the
/// shard feed through Algorithm 1 (the audited init path), every walk is
/// independent by construction, and a reclaimed slot simply continues its
/// walk from wherever the previous lease left it — still disjoint from
/// every other stream, which is the non-overlap property leases need.
/// The per-lease client_seed is therefore unused here (it exists for
/// backends whose streams are seed-addressed).
class HybridShard final : public ShardBackend {
 public:
  HybridShard(const ServiceOptions& opts, std::uint64_t shard_seed) {
    core::HybridPrngConfig cfg;
    cfg.seed = shard_seed;
    cfg.walk_len = opts.walk_len;
    cfg.num_threads = opts.max_leases_per_shard;
    prng_ = std::make_unique<core::HybridPrng>(device_, cfg);
  }

  void attach(std::uint64_t slot, std::uint64_t /*client_seed*/) override {
    // Warm the walk state eagerly so first-fill latency is not charged the
    // Algorithm 1 initialisation of the whole prefix. A fault-corrupted
    // init reports false and is retried by the first fill's initialize.
    (void)prng_->initialize(slot + 1);
  }

  void detach(std::uint64_t /*slot*/) override {}

  FillResult fill(std::span<const Fill> fills) override {
    const core::HybridPrng::LeasedFill r = prng_->fill_leased(to_draws(fills));
    return FillResult{r.ok, r.sim_seconds};
  }

  void set_fault_injector(fault::Injector* injector, int target) override {
    prng_->set_fault_injector(injector, target);
  }

  void set_metrics(obs::MetricsRegistry* registry) override {
    prng_->set_metrics(registry);
  }

  bool save_state(state::SnapshotWriter& writer,
                  std::string* error) const override {
    (void)error;
    prng_->save_state(writer);
    return true;
  }

  bool load_state(state::SectionReader& reader, std::string* error) override {
    return prng_->load_state(reader, error);
  }

  [[nodiscard]] std::string name() const override { return "hybrid"; }

 private:
  std::span<const core::HybridPrng::LeasedDraw> to_draws(
      std::span<const Fill> fills) {
    draws_.clear();
    draws_.reserve(fills.size());
    for (const Fill& f : fills) {
      draws_.push_back({f.slot, f.out});
    }
    return draws_;
  }

  sim::Device device_;
  std::unique_ptr<core::HybridPrng> prng_;
  std::vector<core::HybridPrng::LeasedDraw> draws_;
};

/// The paper's CPU-only variant: one CpuWalkPrng per slot, seeded from the
/// lease's SeedSequence-derived client seed.
class CpuWalkShard final : public ShardBackend {
 public:
  explicit CpuWalkShard(const ServiceOptions& opts) {
    cfg_.walk_len = opts.walk_len;
    slots_.resize(static_cast<std::size_t>(opts.max_leases_per_shard));
    metas_.resize(slots_.size());
  }

  void attach(std::uint64_t slot, std::uint64_t client_seed) override {
    slots_.at(static_cast<std::size_t>(slot)) =
        std::make_unique<core::CpuWalkPrng>(client_seed, cfg_);
    metas_.at(static_cast<std::size_t>(slot)) = {true, client_seed, 0};
  }

  void detach(std::uint64_t slot) override {
    slots_.at(static_cast<std::size_t>(slot)).reset();
    metas_.at(static_cast<std::size_t>(slot)) = {};
  }

  FillResult fill(std::span<const Fill> fills) override {
    for (const Fill& f : fills) {
      core::CpuWalkPrng* g = slots_.at(static_cast<std::size_t>(f.slot)).get();
      HPRNG_CHECK(g != nullptr, "CpuWalkShard::fill: slot not attached");
      for (std::uint64_t& out : f.out) out = g->next_u64();
      metas_.at(static_cast<std::size_t>(f.slot)).draws += f.out.size();
    }
    return {};
  }

  bool save_state(state::SnapshotWriter& writer,
                  std::string* error) const override {
    (void)error;
    save_slot_metas(writer, metas_);
    return true;
  }

  bool load_state(state::SectionReader& reader, std::string* error) override {
    std::vector<SlotMeta> metas;
    if (!load_slot_metas(reader, slots_.size(), &metas, error)) return false;
    // CpuWalkPrng::discard() is documented draw-exact (the lease
    // reclamation contract), so seed + replay lands on the same vertex.
    for (std::size_t s = 0; s < metas.size(); ++s) {
      if (!metas[s].attached) {
        slots_[s].reset();
        continue;
      }
      slots_[s] = std::make_unique<core::CpuWalkPrng>(metas[s].seed, cfg_);
      slots_[s]->discard(metas[s].draws);
    }
    metas_ = std::move(metas);
    return true;
  }

  [[nodiscard]] std::string name() const override { return "cpu-walk"; }

 private:
  core::CpuWalkConfig cfg_;
  std::vector<std::unique_ptr<core::CpuWalkPrng>> slots_;
  std::vector<SlotMeta> metas_;
};

/// Counter backends ("philox", "md5-counter"): one stateless block
/// function per shard, one CounterStream coordinate per slot. Everything
/// a walk backend does with stored state, this family does with
/// arithmetic (docs/BACKENDS.md §3):
///
///  * attach is O(1) — the lease's SeedSequence-derived client seed IS
///    the stream coordinate, collision-free at any fan-out;
///  * the per-slot checkpoint is the fixed triple {attached, stream,
///    draws} (20 bytes), and restore is an O(1) CounterStream::jump_to —
///    never a replay of the draw history;
///  * fills are pure functions of the coordinates, so there is nothing
///    to roll back.
class CounterShard final : public ShardBackend {
 public:
  CounterShard(const ServiceOptions& opts, std::uint64_t shard_seed,
               std::unique_ptr<CounterBackend> engine)
      : engine_(std::move(engine)), key_(shard_seed) {
    slots_.resize(static_cast<std::size_t>(opts.max_leases_per_shard));
    metas_.resize(slots_.size());
  }

  void attach(std::uint64_t slot, std::uint64_t client_seed) override {
    slots_.at(static_cast<std::size_t>(slot)) =
        CounterStream(engine_.get(), key_, client_seed);
    metas_.at(static_cast<std::size_t>(slot)) = {true, client_seed, 0};
  }

  void detach(std::uint64_t slot) override {
    slots_.at(static_cast<std::size_t>(slot)) = CounterStream();
    metas_.at(static_cast<std::size_t>(slot)) = {};
  }

  FillResult fill(std::span<const Fill> fills) override {
    std::uint64_t blocks = 0;
    for (const Fill& f : fills) {
      CounterStream& s = slots_.at(static_cast<std::size_t>(f.slot));
      HPRNG_CHECK(s.valid(), "CounterShard::fill: slot not attached");
      if (!f.out.empty()) {
        const std::uint64_t first = s.position() >> 1;
        const std::uint64_t last = (s.position() + f.out.size() - 1) >> 1;
        blocks += last - first + 1;
      }
      for (std::uint64_t& out : f.out) out = s.next_u64();
      metas_.at(static_cast<std::size_t>(f.slot)).draws += f.out.size();
    }
    if (counter_blocks_ != nullptr) {
      counter_blocks_->add(static_cast<double>(blocks));
    }
    return {};
  }

  void set_metrics(obs::MetricsRegistry* registry) override {
    if (registry == nullptr) {
      counter_blocks_ = nullptr;
      counter_jumps_ = nullptr;
      return;
    }
    counter_blocks_ = &registry->counter("hprng.serve.backend.counter_blocks");
    counter_jumps_ = &registry->counter("hprng.serve.backend.counter_jumps");
  }

  bool save_state(state::SnapshotWriter& writer,
                  std::string* error) const override {
    (void)error;
    save_slot_metas(writer, metas_);
    return true;
  }

  bool load_state(state::SectionReader& reader, std::string* error) override {
    std::vector<SlotMeta> metas;
    if (!load_slot_metas(reader, slots_.size(), &metas, error)) return false;
    // O(1) per slot: draw k of a stream is a pure function of
    // (key, stream, k), so restore is a reposition, never a replay —
    // the counter-backend checkpoint contract (docs/BACKENDS.md §5).
    std::uint64_t jumps = 0;
    for (std::size_t s = 0; s < metas.size(); ++s) {
      if (!metas[s].attached) {
        slots_[s] = CounterStream();
        continue;
      }
      slots_[s] = CounterStream(engine_.get(), key_, metas[s].seed);
      slots_[s].jump_to(metas[s].draws);
      ++jumps;
    }
    metas_ = std::move(metas);
    if (counter_jumps_ != nullptr) {
      counter_jumps_->add(static_cast<double>(jumps));
    }
    return true;
  }

  [[nodiscard]] std::string name() const override { return engine_->name(); }

 private:
  std::unique_ptr<CounterBackend> engine_;
  std::uint64_t key_;
  std::vector<CounterStream> slots_;
  std::vector<SlotMeta> metas_;
  obs::Counter* counter_blocks_ = nullptr;
  obs::Counter* counter_jumps_ = nullptr;
};

/// Any registry baseline ("mt19937", "xorwow", ...): one generator
/// instance per slot — the apples-to-apples comparison backend.
class BaselineShard final : public ShardBackend {
 public:
  BaselineShard(const ServiceOptions& opts, std::string generator)
      : generator_(std::move(generator)) {
    slots_.resize(static_cast<std::size_t>(opts.max_leases_per_shard));
    metas_.resize(slots_.size());
  }

  void attach(std::uint64_t slot, std::uint64_t client_seed) override {
    slots_.at(static_cast<std::size_t>(slot)) =
        prng::make_by_name(generator_, client_seed);
    metas_.at(static_cast<std::size_t>(slot)) = {true, client_seed, 0};
  }

  void detach(std::uint64_t slot) override {
    slots_.at(static_cast<std::size_t>(slot)).reset();
    metas_.at(static_cast<std::size_t>(slot)) = {};
  }

  FillResult fill(std::span<const Fill> fills) override {
    for (const Fill& f : fills) {
      prng::Generator* g = slots_.at(static_cast<std::size_t>(f.slot)).get();
      HPRNG_CHECK(g != nullptr, "BaselineShard::fill: slot not attached");
      for (std::uint64_t& out : f.out) out = g->next_u64();
      metas_.at(static_cast<std::size_t>(f.slot)).draws += f.out.size();
    }
    return {};
  }

  bool save_state(state::SnapshotWriter& writer,
                  std::string* error) const override {
    (void)error;
    save_slot_metas(writer, metas_);
    return true;
  }

  bool load_state(state::SectionReader& reader, std::string* error) override {
    std::vector<SlotMeta> metas;
    if (!load_slot_metas(reader, slots_.size(), &metas, error)) return false;
    // Replay through next_u64() rather than discard_u32(): generators with
    // a native 64-bit path (mt19937-64, splitmix64) are not 2-u32-per-u64,
    // so only replaying the exact call sequence is draw-exact.
    for (std::size_t s = 0; s < metas.size(); ++s) {
      if (!metas[s].attached) {
        slots_[s].reset();
        continue;
      }
      slots_[s] = prng::make_by_name(generator_, metas[s].seed);
      for (std::uint64_t d = 0; d < metas[s].draws; ++d) {
        (void)slots_[s]->next_u64();
      }
    }
    metas_ = std::move(metas);
    return true;
  }

  [[nodiscard]] std::string name() const override { return generator_; }

 private:
  std::string generator_;
  std::vector<std::unique_ptr<prng::Generator>> slots_;
  std::vector<SlotMeta> metas_;
};

}  // namespace

std::unique_ptr<ShardBackend> make_shard_backend(const ServiceOptions& opts,
                                                 int shard_index) {
  // Per-shard seed domain: a SeedSequence split keyed by shard index, so
  // hybrid shard feeds (and through them every walk start vertex) are
  // disjoint across the pool.
  const std::uint64_t shard_seed =
      prng::SeedSequence(opts.seed)
          .split(static_cast<std::uint64_t>(shard_index))
          .root();
  if (opts.backend == "hybrid") {
    return std::make_unique<HybridShard>(opts, shard_seed);
  }
  if (opts.backend == "cpu-walk") {
    return std::make_unique<CpuWalkShard>(opts);
  }
  if (auto engine = make_counter_backend(opts.backend)) {
    return std::make_unique<CounterShard>(opts, shard_seed, std::move(engine));
  }
  HPRNG_CHECK(backend_known(opts.backend),
              ("make_shard_backend: unknown backend '" + opts.backend + "'")
                  .c_str());
  return std::make_unique<BaselineShard>(opts, opts.backend);
}

std::vector<std::string> known_backends() {
  std::vector<std::string> names{"hybrid", "cpu-walk"};
  for (const std::string& n : known_counter_backends()) names.push_back(n);
  for (const std::string& n : prng::known_generators()) names.push_back(n);
  return names;
}

bool backend_known(const std::string& name) {
  for (const std::string& n : known_backends()) {
    if (n == name) return true;
  }
  return false;
}

}  // namespace hprng::serve
