#include "obs/trace.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "util/file.hpp"
#include "util/table.hpp"

namespace hprng::obs {

namespace {

constexpr double kSecondsToUs = 1e6;

/// Display names of the four reserved resource tracks, tid = index + 1.
constexpr const char* kResourceTrackNames[sim::kNumResources] = {
    "Host (CPU)", "PCIe H2D", "PCIe D2H", "Device (GPU)"};

int resource_tid(sim::Resource r) { return static_cast<int>(r) + 1; }

}  // namespace

TraceWriter::TraceWriter() { add_process("hprng"); }

int TraceWriter::add_process(const std::string& name) {
  const int pid = next_pid_++;
  processes_[pid] = name;
  next_custom_tid_[pid] = 10;
  return pid;
}

void TraceWriter::ensure_resource_tracks(int pid) {
  resource_tracks_named_[pid] = true;
}

void TraceWriter::add_timeline(const sim::Timeline& timeline, int pid) {
  ensure_resource_tracks(pid);
  for (const auto& e : timeline.entries()) {
    events_.push_back(TraceEvent{
        .ph = 'X',
        .name = e.label,
        .cat = "sim",
        .pid = pid,
        .tid = resource_tid(e.resource),
        .ts_us = e.start * kSecondsToUs,
        .dur_us = (e.end - e.start) * kSecondsToUs,
    });
  }
}

int TraceWriter::add_track(int pid, const std::string& name) {
  const auto key = std::make_pair(pid, name);
  auto it = custom_tracks_.find(key);
  if (it != custom_tracks_.end()) return it->second;
  const int tid = next_custom_tid_[pid]++;
  custom_tracks_[key] = tid;
  return tid;
}

void TraceWriter::add_span(int pid, int tid, const std::string& name,
                           double start_s, double end_s) {
  events_.push_back(TraceEvent{
      .ph = 'X',
      .name = name,
      .cat = "obs",
      .pid = pid,
      .tid = tid,
      .ts_us = start_s * kSecondsToUs,
      .dur_us = (end_s - start_s) * kSecondsToUs,
  });
}

void TraceWriter::add_async_span(int pid, const std::string& category,
                                 std::uint64_t id, const std::string& name,
                                 double start_s, double end_s) {
  events_.push_back(TraceEvent{.ph = 'b',
                               .name = name,
                               .cat = category,
                               .pid = pid,
                               .ts_us = start_s * kSecondsToUs,
                               .id = id});
  events_.push_back(TraceEvent{.ph = 'e',
                               .name = name,
                               .cat = category,
                               .pid = pid,
                               .ts_us = end_s * kSecondsToUs,
                               .id = id});
}

void TraceWriter::add_counter(const std::string& name, double t_s,
                              double value, int pid) {
  events_.push_back(TraceEvent{.ph = 'C',
                               .name = name,
                               .cat = "obs",
                               .pid = pid,
                               .ts_us = t_s * kSecondsToUs,
                               .value = value});
}

std::string TraceWriter::to_json() const {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&out, &first](const std::string& line) {
    out += first ? "  " : ",\n  ";
    out += line;
    first = false;
  };

  // Metadata first: process names, reserved resource-track names (for the
  // pids that carry a timeline), custom-track names, sort order.
  for (const auto& [pid, name] : processes_) {
    emit(util::strf(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
        "\"args\": {\"name\": \"%s\"}}",
        pid, json::escape(name).c_str()));
  }
  for (const auto& [pid, named] : resource_tracks_named_) {
    if (!named) continue;
    for (int r = 0; r < sim::kNumResources; ++r) {
      emit(util::strf(
          "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, "
          "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
          pid, r + 1, kResourceTrackNames[r]));
    }
  }
  for (const auto& [key, tid] : custom_tracks_) {
    emit(util::strf(
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, "
        "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
        key.first, tid, json::escape(key.second).c_str()));
  }

  // Events sorted by timestamp (keeps 'b' before its 'e' and makes the
  // file diffable); std::stable_sort preserves submission order at ties.
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events_.size());
  for (const auto& e : events_) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->ts_us < b->ts_us;
                   });

  for (const TraceEvent* e : ordered) {
    switch (e->ph) {
      case 'X':
        emit(util::strf(
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"ts\": %.6f, \"dur\": %.6f, \"pid\": %d, \"tid\": %d}",
            json::escape(e->name).c_str(), json::escape(e->cat).c_str(),
            e->ts_us, e->dur_us, e->pid, e->tid));
        break;
      case 'b':
      case 'e':
        emit(util::strf(
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
            "\"ts\": %.6f, \"pid\": %d, \"tid\": %d, \"id\": \"0x%llx\"}",
            json::escape(e->name).c_str(), json::escape(e->cat).c_str(),
            e->ph, e->ts_us, e->pid, e->tid,
            static_cast<unsigned long long>(e->id)));
        break;
      case 'C':
        emit(util::strf(
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"C\", "
            "\"ts\": %.6f, \"pid\": %d, \"tid\": %d, "
            "\"args\": {\"value\": %.17g}}",
            json::escape(e->name).c_str(), json::escape(e->cat).c_str(),
            e->ts_us, e->pid, e->tid, e->value));
        break;
      default: break;
    }
  }
  out += "\n], \"displayTimeUnit\": \"ns\"}\n";
  return out;
}

bool TraceWriter::write_json(const std::string& path) const {
  return util::write_file(path, to_json());
}

}  // namespace hprng::obs
