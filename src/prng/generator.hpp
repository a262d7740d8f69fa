#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace hprng::prng {

/// Runtime-polymorphic view of a pseudo random number generator.
///
/// Concrete generators (MT19937, XORWOW, ...) are plain structs with inline
/// `next_u32()/next_u64()` fast paths; this interface is what the statistical
/// batteries and the comparison harnesses consume, where one virtual call per
/// draw is irrelevant next to the test statistics themselves.
class Generator {
 public:
  virtual ~Generator() = default;

  /// Next 32 uniform bits.
  virtual std::uint32_t next_u32() = 0;

  /// Next 64 uniform bits. Default composes two 32-bit draws.
  virtual std::uint64_t next_u64() {
    const std::uint64_t hi = next_u32();
    return (hi << 32) | next_u32();
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1) with 24 random bits.
  float next_float() {
    return static_cast<float>(next_u32() >> 8) * 0x1.0p-24f;
  }

  /// Uniform integer in [0, bound) by rejection (unbiased).
  std::uint64_t next_below(std::uint64_t bound);

  /// Human-readable generator name, used in reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Fresh instance of the same algorithm re-seeded with `seed`.
  [[nodiscard]] virtual std::unique_ptr<Generator> clone_reseeded(
      std::uint64_t seed) const = 0;

  // -- Bulk hooks (feeder refills and fast-forward) -------------------------

  /// Advance the stream past `n` next_u32() draws. The default draws and
  /// drops (O(n)); generators with a closed-form jump (LCG affine power,
  /// counter add) override it.
  virtual void discard_u32(std::uint64_t n) {
    while (n-- != 0) (void)next_u32();
  }

  /// Fill `out` with out.size() consecutive next_u32() draws, leaving the
  /// stream exactly where that many single draws would. The default is the
  /// serial loop; generators with a lane-parallel formulation (SplitMix64,
  /// GlibcLcg) override it to dispatch through hprng::simd — bit-identical
  /// output either way.
  virtual void fill_u32(std::span<std::uint32_t> out) {
    for (auto& w : out) w = next_u32();
  }
};

/// Wraps a concrete generator type G (providing next_u32(), optionally
/// next_u64(), constructible from a u64 seed) behind the Generator interface.
template <typename G>
class Adapter final : public Generator {
 public:
  explicit Adapter(std::uint64_t seed) : g_(seed) {}

  std::uint32_t next_u32() override { return g_.next_u32(); }

  std::uint64_t next_u64() override {
    if constexpr (requires(G& g) { g.next_u64(); }) {
      return g_.next_u64();
    } else {
      return Generator::next_u64();
    }
  }

  [[nodiscard]] std::string name() const override { return G::kName; }

  [[nodiscard]] std::unique_ptr<Generator> clone_reseeded(
      std::uint64_t seed) const override {
    return std::make_unique<Adapter<G>>(seed);
  }

  void discard_u32(std::uint64_t n) override {
    if constexpr (requires(G& g) { g.discard_u32(n); }) {
      g_.discard_u32(n);
    } else {
      Generator::discard_u32(n);
    }
  }

  void fill_u32(std::span<std::uint32_t> out) override {
    if constexpr (requires(G& g) { g.fill_u32(out); }) {
      g_.fill_u32(out);
    } else {
      for (auto& w : out) w = g_.next_u32();
    }
  }

  /// Access to the wrapped concrete generator (used by tests).
  G& raw() { return g_; }

 private:
  G g_;
};

template <typename G>
std::unique_ptr<Generator> make_generator(std::uint64_t seed) {
  return std::make_unique<Adapter<G>>(seed);
}

}  // namespace hprng::prng
