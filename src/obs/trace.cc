#include "obs/trace.h"

#include "obs/metrics.h"  // JsonEscapeString

namespace quasaq::obs {

namespace {

// "plan.enumerate" -> "plan"; names without a dot are their own
// category.
std::string CategoryOf(std::string_view name) {
  size_t dot = name.find('.');
  return std::string(dot == std::string_view::npos ? name
                                                   : name.substr(0, dot));
}

}  // namespace

int64_t Tracer::NewTrack(std::string_view name) {
  if (!options_.enabled) return 0;
  MutexLock lock(&mu_);
  int64_t track = next_track_++;
  track_names_.emplace(track, std::string(name));
  return track;
}

void Tracer::Record(Event event) {
  if (events_.size() >= options_.max_events) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void Tracer::Begin(int64_t track, std::string_view name, SimTime now,
                   Args args) {
  if (!options_.enabled) return;
  MutexLock lock(&mu_);
  open_spans_[track].emplace_back(name);
  Event event;
  event.phase = 'B';
  event.track = track;
  event.ts = now;
  event.name = std::string(name);
  event.category = CategoryOf(name);
  event.args = std::move(args);
  Record(std::move(event));
}

void Tracer::End(int64_t track, SimTime now, Args args) {
  if (!options_.enabled) return;
  MutexLock lock(&mu_);
  auto it = open_spans_.find(track);
  if (it == open_spans_.end() || it->second.empty()) {
    ++unbalanced_ends_;
    return;
  }
  std::string name = std::move(it->second.back());
  it->second.pop_back();
  Event event;
  event.phase = 'E';
  event.track = track;
  event.ts = now;
  event.category = CategoryOf(name);
  event.args = std::move(args);
  // Even past max_events, End must be recorded (minus the cap would
  // leave previously recorded Begins unclosed). Record drops only
  // B/i events because End bypasses it here.
  events_.push_back(std::move(event));
}

void Tracer::EndAll(int64_t track, SimTime now) {
  if (!options_.enabled) return;
  MutexLock lock(&mu_);
  auto it = open_spans_.find(track);
  if (it == open_spans_.end()) return;
  while (!it->second.empty()) {
    std::string name = std::move(it->second.back());
    it->second.pop_back();
    Event event;
    event.phase = 'E';
    event.track = track;
    event.ts = now;
    event.category = CategoryOf(name);
    events_.push_back(std::move(event));
  }
}

void Tracer::Instant(int64_t track, std::string_view name, SimTime now,
                     Args args) {
  if (!options_.enabled) return;
  MutexLock lock(&mu_);
  Event event;
  event.phase = 'i';
  event.track = track;
  event.ts = now;
  event.name = std::string(name);
  event.category = CategoryOf(name);
  event.args = std::move(args);
  Record(std::move(event));
}

int Tracer::OpenSpans(int64_t track) const {
  MutexLock lock(&mu_);
  auto it = open_spans_.find(track);
  return it == open_spans_.end() ? 0 : static_cast<int>(it->second.size());
}

size_t Tracer::event_count() const {
  MutexLock lock(&mu_);
  return events_.size();
}

size_t Tracer::dropped_events() const {
  MutexLock lock(&mu_);
  return dropped_;
}

size_t Tracer::unbalanced_ends() const {
  MutexLock lock(&mu_);
  return unbalanced_ends_;
}

std::vector<Tracer::Event> Tracer::snapshot() const {
  MutexLock lock(&mu_);
  return events_;
}

std::string Tracer::ChromeTraceJson() const {
  MutexLock lock(&mu_);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto emit = [&](const std::string& body) {
    if (!first) out += ',';
    first = false;
    out += "\n  {" + body + "}";
  };
  // Metadata: name each track's row after its delivery.
  for (const auto& [track, name] : track_names_) {
    emit("\"ph\": \"M\", \"pid\": 1, \"tid\": " + std::to_string(track) +
         ", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
         JsonEscapeString(name) + "\"}");
  }
  for (const Event& event : events_) {
    std::string body = "\"ph\": \"";
    body += event.phase;
    body += "\", \"pid\": 1, \"tid\": " + std::to_string(event.track) +
            ", \"ts\": " + std::to_string(event.ts);
    if (!event.name.empty()) {
      body += ", \"name\": \"" + JsonEscapeString(event.name) + "\"";
    }
    if (!event.category.empty()) {
      body += ", \"cat\": \"" + JsonEscapeString(event.category) + "\"";
    }
    if (event.phase == 'i') body += ", \"s\": \"t\"";  // thread-scoped
    if (!event.args.empty()) {
      body += ", \"args\": {";
      bool first_arg = true;
      for (const auto& [key, value] : event.args) {
        if (!first_arg) body += ", ";
        first_arg = false;
        body.append("\"").append(JsonEscapeString(key)).append("\": \"")
            .append(JsonEscapeString(value)).append("\"");
      }
      body += '}';
    }
    emit(body);
  }
  out += "\n]}\n";
  return out;
}

}  // namespace quasaq::obs
