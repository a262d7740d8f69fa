#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "prng/generator.hpp"
#include "sim/spec.hpp"

namespace hprng::host {

/// The FEED work unit (Sec. IV-A): the host-side producer of raw random
/// bits that drive the device walks. The paper uses glibc rand(); any
/// registered generator can be plugged in (the quality ablation swaps it).
///
/// fill() does the real work (the words are genuinely produced here) and
/// returns the simulated host time the production costs under the spec's
/// host model, which is what the pipeline charges to the CPU resource.
class BitFeeder {
 public:
  /// @param spec supplies the host production cost model
  ///        (host_ns_per_random_bit).
  /// @param generator_name any name registered in prng::make_by_name.
  /// @param seed seed of the underlying generator (the feed stream is
  ///        fully determined by (generator_name, seed)).
  BitFeeder(const sim::DeviceSpec& spec, const std::string& generator_name,
            std::uint64_t seed);

  /// Produce words of random bits into `out` on the calling thread
  /// (Generator::fill_u32); returns simulated seconds.
  double fill(std::span<std::uint32_t> out);

  /// Simulated host seconds to produce `words` 32-bit words.
  [[nodiscard]] double seconds_for_words(std::size_t words) const;

  /// Name of the generator producing the feed (the FEED quality dial).
  [[nodiscard]] const std::string& generator_name() const { return name_; }

  /// Attach (or with nullptr, detach) a metrics registry: fill() then
  /// maintains the `hprng.host.*` producer instruments — bits produced,
  /// fill calls, simulated feed seconds, and the occupancy (in words) of
  /// the staging buffer last filled.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attach (or with nullptr, detach) a fault injector (docs/FAULTS.md):
  /// fill() then consults Site::kFeedFill with `target`. An injected
  /// delay lengthens the returned simulated seconds (a feeder stall); an
  /// injected failure is an underrun — no words are produced and, key for
  /// retry reproducibility, the generator does NOT advance, so the next
  /// successful fill produces exactly the words the failed one owed.
  void set_fault_injector(fault::Injector* injector, int target = 0) {
    fault_injector_ = injector;
    fault_target_ = target;
  }

  /// Failed (underrun) fills since the last call (consume-on-read).
  std::uint64_t take_faults() {
    return faults_.exchange(0, std::memory_order_acq_rel);
  }

  /// Words successfully produced over the feeder's lifetime — the feed
  /// stream position. Together with (generator_name, seed) this is the
  /// feeder's complete state, which is what checkpoints store
  /// (docs/STATE.md): failed fills do not advance it, matching the
  /// retry-reproducibility contract above.
  [[nodiscard]] std::uint64_t words_produced() const {
    return words_produced_;
  }

  /// Fast-forward a freshly-constructed feeder to stream position `words`
  /// (restore path). Requires words >= words_produced(); the skipped words
  /// are discarded through the generator so the next fill() produces
  /// exactly what an uninterrupted feeder would have produced.
  void advance_to(std::uint64_t words);

 private:
  /// Producer instruments, resolved once in set_metrics().
  struct Instruments {
    obs::Counter* bits_produced = nullptr;
    obs::Counter* fill_calls = nullptr;
    obs::Counter* feed_seconds = nullptr;
    obs::Gauge* buffer_occupancy_words = nullptr;
    obs::Gauge* simd_kernel = nullptr;  ///< simd::Kernel id (0/1/2)
    obs::Gauge* simd_lanes = nullptr;   ///< u32 lanes of that kernel
  };

  std::unique_ptr<prng::Generator> gen_;
  std::string name_;
  double ns_per_bit_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments ins_;
  fault::Injector* fault_injector_ = nullptr;
  int fault_target_ = 0;
  std::atomic<std::uint64_t> faults_{0};
  std::uint64_t words_produced_ = 0;  // guarded by the owner's serialisation
};

}  // namespace hprng::host
