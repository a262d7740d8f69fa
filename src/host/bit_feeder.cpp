#include "host/bit_feeder.hpp"

#include "prng/registry.hpp"
#include "simd/simd.hpp"
#include "util/check.hpp"

namespace hprng::host {

BitFeeder::BitFeeder(const sim::DeviceSpec& spec,
                     const std::string& generator_name, std::uint64_t seed)
    : gen_(prng::make_by_name(generator_name, seed)),
      name_(generator_name),
      ns_per_bit_(spec.host_ns_per_random_bit) {}

double BitFeeder::fill(std::span<std::uint32_t> out) {
  double seconds = seconds_for_words(out.size());
  if (fault_injector_ != nullptr) {
    const fault::Outcome o =
        fault_injector_->on_event(fault::Site::kFeedFill, fault_target_);
    seconds += o.delay_seconds;
    if (o.fail()) {
      // Underrun: the words are owed, not produced, and the generator
      // keeps its position so a retry replays the exact fault-free feed.
      faults_.fetch_add(1, std::memory_order_acq_rel);
      return seconds;
    }
  }
  gen_->fill_u32(out);
  words_produced_ += out.size();
  if (metrics_ != nullptr) {
    ins_.bits_produced->add(static_cast<double>(out.size()) * 32.0);
    ins_.fill_calls->add(1);
    ins_.feed_seconds->add(seconds);
    ins_.buffer_occupancy_words->set(static_cast<double>(out.size()));
  }
  return seconds;
}

void BitFeeder::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  ins_ = {};
  if (registry == nullptr) return;
  ins_.bits_produced = &registry->counter("hprng.host.bits_produced");
  ins_.fill_calls = &registry->counter("hprng.host.fill_calls");
  ins_.feed_seconds = &registry->counter("hprng.host.feed_seconds");
  ins_.buffer_occupancy_words =
      &registry->gauge("hprng.host.buffer_occupancy_words");
  // Info gauges, set eagerly: the dispatch decision is process-global and
  // fixed by the time a registry is attached.
  ins_.simd_kernel = &registry->gauge("hprng.host.simd_kernel");
  ins_.simd_lanes = &registry->gauge("hprng.host.simd_lanes");
  ins_.simd_kernel->set(static_cast<int>(simd::active_kernel()));
  ins_.simd_lanes->set(simd::lane_width_u32());
}

void BitFeeder::advance_to(std::uint64_t words) {
  HPRNG_CHECK(words >= words_produced_,
              "BitFeeder::advance_to: cannot rewind the feed stream");
  gen_->discard_u32(words - words_produced_);
  words_produced_ = words;
}

double BitFeeder::seconds_for_words(std::size_t words) const {
  return static_cast<double>(words) * 32.0 * ns_per_bit_ * 1e-9;
}

}  // namespace hprng::host
