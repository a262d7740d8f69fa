#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace hprng::prng {

/// RFC 1321 MD5, implemented from the specification. Used by the CUDPP-style
/// generator below; also exposed directly for tests against the RFC test
/// vectors. (MD5 is cryptographically broken as a hash; as a bit mixer for a
/// statistical RNG — its role in CUDPP rand() — it remains excellent.)
class Md5 {
 public:
  using Digest = std::array<std::uint32_t, 4>;

  /// Hash an arbitrary byte message (full padding per RFC 1321).
  static Digest hash(const std::uint8_t* data, std::size_t len);

  /// Digest rendered as the conventional 32-hex-digit string.
  static std::string hex(const Digest& d);

  /// One raw compression-function application on a single 16-word block
  /// with the standard initial chaining values. This is the hot path used
  /// by the CUDPP-style generator (no padding, fixed-size input).
  static Digest compress_block(const std::array<std::uint32_t, 16>& block);
};

/// CUDPP-style MD5 counter generator (Tzeng & Wei, I3D'08): each thread
/// hashes (seed, thread id, counter) and emits the four 32-bit digest words.
/// This is the "CUDPP" row of Table I / Table II.
struct CudppMd5Rng {
  static constexpr const char* kName = "cudpp-md5";

  explicit CudppMd5Rng(std::uint64_t seed, std::uint32_t thread_id = 0)
      : seed_lo(static_cast<std::uint32_t>(seed)),
        seed_hi(static_cast<std::uint32_t>(seed >> 32)),
        tid(thread_id) {}

  std::uint32_t next_u32() {
    if (lane == 0) {
      std::array<std::uint32_t, 16> block{};
      block[0] = seed_lo;
      block[1] = seed_hi;
      block[2] = tid;
      block[3] = counter_lo;
      block[4] = counter_hi;
      // Remaining words carry fixed domain-separation constants, mirroring
      // CUDPP's use of a fully-specified input block.
      for (int i = 5; i < 16; ++i) {
        block[static_cast<std::size_t>(i)] = 0x5A827999u * static_cast<std::uint32_t>(i);
      }
      out = Md5::compress_block(block);
      if (++counter_lo == 0) ++counter_hi;
    }
    const std::uint32_t v = out[static_cast<std::size_t>(lane)];
    lane = (lane + 1) & 3;
    return v;
  }

  /// O(1) jump-ahead over n u32 draws — counter arithmetic plus at most
  /// one compress_block for a mid-block landing. Equivalent to n
  /// next_u32() calls; prng::Adapter forwards Generator::discard_u32 here.
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
      // Re-evaluate the landing block the same way next_u32 would.
      std::array<std::uint32_t, 16> block{};
      block[0] = seed_lo;
      block[1] = seed_hi;
      block[2] = tid;
      block[3] = counter_lo;
      block[4] = counter_hi;
      for (int i = 5; i < 16; ++i) {
        block[static_cast<std::size_t>(i)] =
            0x5A827999u * static_cast<std::uint32_t>(i);
      }
      out = Md5::compress_block(block);
      add_counter(1);
      lane = rem;
    }
  }

  std::uint32_t seed_lo, seed_hi, tid;
  std::uint32_t counter_lo = 0, counter_hi = 0;
  Md5::Digest out{};
  int lane = 0;

 private:
  /// 64-bit counter += n.
  void add_counter(std::uint64_t n) {
    std::uint64_t c = (static_cast<std::uint64_t>(counter_hi) << 32) |
                      counter_lo;
    c += n;
    counter_lo = static_cast<std::uint32_t>(c);
    counter_hi = static_cast<std::uint32_t>(c >> 32);
  }
};

}  // namespace hprng::prng
