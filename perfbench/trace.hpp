// Spans around the benchmark's own calls into each layer of the system.
// One Tracer per client thread, so recording takes no lock; spans stay in
// memory and are written out once the run ends.  A disabled Tracer
// records nothing: the untraced runs execute the same code with only a
// branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";     ///< a string literal naming the layer call
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index in the same tracer, -1 for a root
  std::uint64_t request = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  /// Closes its span when destroyed, on exception paths too.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    friend class Tracer;
    Scope(Tracer* t, std::int32_t index) : tracer_(t), index_(index) {}
    Tracer* tracer_;
    std::int32_t index_;
  };

  [[nodiscard]] Scope span(const char* name, std::uint64_t request) {
    if (!enabled_) return Scope(nullptr, -1);
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0,
                      open_.empty() ? -1 : open_.back(), request});
    open_.push_back(index);
    return Scope(this, index);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Per span name: every span's duration and self time (duration minus the
/// time its child spans cover), in ms.
struct SpanSummary {
  std::vector<double> duration_ms;
  std::vector<double> self_ms;
};
std::map<std::string, SpanSummary> summarize(
    const std::vector<const Tracer*>& tracers);

/// Write every span, with its self time, as one JSON document.
void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
