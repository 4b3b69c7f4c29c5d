// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into the
// toolchain's public functions; the program itself carries no tracing.
// All spans of one request share its id and nest by an explicit parent
// index. Spans stay in memory until the run ends, then are summarised per
// name (calls, total and self time) and written as a Chrome trace-event
// file (the "X" complete-event form of the Trace Event Format, viewable
// offline in chrome://tracing or Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;    ///< index into names_
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root
    std::int64_t request = 0;  ///< id of the request the span serves
    int lane = 0;              ///< in-flight slot; the trace file's tid
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Per-name totals; self time is each span's duration minus what its
  /// direct children cover (stats::self_time).
  struct Summary {
    long calls = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Request id and lane stamped on every span opened from now on.
  void set_request(std::int64_t id, int lane) {
    request_ = id;
    lane_ = lane;
  }

  /// Opens a span as a child of the innermost open span (a root when none
  /// is open).
  void open(const std::string& name, Clock::time_point begin = Clock::now()) {
    if (!enabled_) return;
    stack_.push_back(push(name, begin, begin));
  }

  /// Closes the innermost open span.
  void close(Clock::time_point end = Clock::now()) {
    if (!enabled_) return;
    if (stack_.empty()) throw std::logic_error("Tracer::close without open");
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = ns(end);
    stack_.pop_back();
  }

  /// Records an already finished span as a child of the innermost open one.
  void add(const std::string& name, Clock::time_point begin,
           Clock::time_point end) {
    if (enabled_) push(name, begin, end);
  }

  /// RAII open/close around one call.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name) : tracer_(tracer) {
      tracer_.open(name);
    }
    ~Scope() { tracer_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  std::map<std::string, Summary> summarize() const {
    std::vector<std::vector<stats::Interval>> children(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0)
        children[static_cast<std::size_t>(s.parent)].push_back(interval(s));
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Summary& sum = out[names_[s.name]];
      sum.calls += 1;
      sum.total_us += (s.end_ns - s.begin_ns) / 1e3;
      sum.self_us += stats::self_time(interval(s), children[i]) / 1e3;
    }
    return out;
  }

  /// Writes every span as a Chrome trace-event "X" event: ts/dur in µs,
  /// tid = lane, args = {request, span, parent}. Returns false when the
  /// file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string& name = names_[s.name];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"request\":%lld,\"span\":%zu,\"parent\":%d}}",
                   i == 0 ? "" : ",", name.c_str(),
                   name.substr(0, name.find('.')).c_str(), s.begin_ns / 1e3,
                   (s.end_ns - s.begin_ns) / 1e3, s.lane,
                   static_cast<long long>(s.request), i,
                   static_cast<int>(s.parent));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static stats::Interval interval(const Span& s) {
    return {static_cast<double>(s.begin_ns), static_cast<double>(s.end_ns)};
  }

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  std::int32_t push(const std::string& name, Clock::time_point begin,
                    Clock::time_point end) {
    auto [it, inserted] =
        ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (inserted) names_.push_back(name);
    Span s;
    s.name = it->second;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request_;
    s.lane = lane_;
    s.begin_ns = ns(begin);
    s.end_ns = ns(end);
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::int64_t request_ = 0;
  int lane_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

}  // namespace perfbench
