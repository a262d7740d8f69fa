#pragma once

#include <array>
#include <cstdint>

namespace hprng::prng {

/// Philox4x32-10 counter-based generator (Salmon et al., SC'11).
/// Included as the "future work" style extension: a modern counter-based
/// design that, like the paper's hybrid PRNG, supports on-demand per-thread
/// streams without shared state.
struct Philox4x32 {
  static constexpr const char* kName = "philox4x32-10";
  static constexpr std::uint32_t kM0 = 0xD2511F53u;
  static constexpr std::uint32_t kM1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kW0 = 0x9E3779B9u;
  static constexpr std::uint32_t kW1 = 0xBB67AE85u;

  explicit Philox4x32(std::uint64_t seed)
      : key{static_cast<std::uint32_t>(seed),
            static_cast<std::uint32_t>(seed >> 32)},
        counter{0, 0, 0, 0} {}

  /// Evaluate the 10-round bijection for an explicit counter (pure function;
  /// this is what makes the generator trivially parallel).
  static std::array<std::uint32_t, 4> block(std::array<std::uint32_t, 4> ctr,
                                            std::array<std::uint32_t, 2> k) {
    for (int round = 0; round < 10; ++round) {
      const std::uint64_t p0 = static_cast<std::uint64_t>(kM0) * ctr[0];
      const std::uint64_t p1 = static_cast<std::uint64_t>(kM1) * ctr[2];
      const std::uint32_t hi0 = static_cast<std::uint32_t>(p0 >> 32);
      const std::uint32_t lo0 = static_cast<std::uint32_t>(p0);
      const std::uint32_t hi1 = static_cast<std::uint32_t>(p1 >> 32);
      const std::uint32_t lo1 = static_cast<std::uint32_t>(p1);
      ctr = {hi1 ^ ctr[1] ^ k[0], lo1, hi0 ^ ctr[3] ^ k[1], lo0};
      k[0] += kW0;
      k[1] += kW1;
    }
    return ctr;
  }

  std::uint32_t next_u32() {
    if (lane == 0) {
      out = block(counter, key);
      // 128-bit counter increment.
      if (++counter[0] == 0 && ++counter[1] == 0 && ++counter[2] == 0) {
        ++counter[3];
      }
    }
    const std::uint32_t v = out[lane];
    lane = (lane + 1) & 3;
    return v;
  }

  std::uint64_t next_u64() {
    const std::uint64_t hi = next_u32();
    return (hi << 32) | next_u32();
  }

  /// O(1) jump-ahead over n u32 draws — counter arithmetic, no block
  /// evaluations beyond at most one for a mid-block landing. Equivalent to
  /// n next_u32() calls; prng::Adapter forwards Generator::discard_u32 here.
  void discard_u32(std::uint64_t n) {
    if (lane != 0) {
      const std::uint64_t left = static_cast<std::uint64_t>(4 - lane);
      if (n < left) {
        lane += static_cast<int>(n);
        return;
      }
      n -= left;
      lane = 0;
    }
    add_counter(n >> 2);
    const int rem = static_cast<int>(n & 3);
    if (rem != 0) {
      out = block(counter, key);
      add_counter(1);
      lane = rem;
    }
  }

  std::array<std::uint32_t, 2> key;
  std::array<std::uint32_t, 4> counter;
  std::array<std::uint32_t, 4> out{};
  int lane = 0;

 private:
  /// 128-bit counter += n.
  void add_counter(std::uint64_t n) {
    std::uint64_t lo = (static_cast<std::uint64_t>(counter[1]) << 32) |
                       counter[0];
    std::uint64_t hi = (static_cast<std::uint64_t>(counter[3]) << 32) |
                       counter[2];
    lo += n;
    if (lo < n) ++hi;
    counter = {static_cast<std::uint32_t>(lo),
               static_cast<std::uint32_t>(lo >> 32),
               static_cast<std::uint32_t>(hi),
               static_cast<std::uint32_t>(hi >> 32)};
  }
};

}  // namespace hprng::prng
