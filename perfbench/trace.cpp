#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Self time of each span of one tracer: its duration minus its direct
/// children's durations (children nest strictly inside their parent on
/// the same thread).
std::vector<std::int64_t> self_ns(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

}  // namespace

std::map<std::string, SpanSummary> summarize(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanSummary> out;
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    const std::vector<std::int64_t> self = self_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanSummary& s = out[spans[i].name];
      s.duration_ms.push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6);
      s.self_ms.push_back(static_cast<double>(self[i]) / 1e6);
    }
  }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "{\"spans\": [";
  bool first = true;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    const std::vector<std::int64_t> self = self_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"thread\": " << t << ", \"id\": " << i
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << self[i] << "}";
      first = false;
    }
  }
  f << "\n]}\n";
}

}  // namespace perfbench
