// In-memory span log for the benchmark's traced runs.
//
// A span is one named interval (start, end, parent) recorded around a call
// into one of the program's layers. Spans stay in memory while the workload
// runs and are written out once, when it ends, so writing never lands inside
// a timed interval. A disabled log records nothing: untraced runs pay one
// branch per Open().
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

using SteadyClock = std::chrono::steady_clock;

/// Seconds since the first call in this process (taken during static
/// initialization by spans.cc, i.e. before main()).
double ProcessSeconds();

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< Index of the enclosing span, -1 at top level.
    double start_s = 0.0;
    double end_s = 0.0;
    double seconds() const { return end_s - start_s; }
  };

  /// Ends its span when destroyed (no-op for a disabled log).
  class Scope {
   public:
    Scope(SpanLog* log, int index) : log_(log), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ != nullptr) log_->Close(index_);
    }

   private:
    SpanLog* log_;
    int index_;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span whose parent is the innermost span still open.
  [[nodiscard]] Scope Open(std::string_view name);

  /// Sum of the durations of every span called `name`.
  double TotalSeconds(std::string_view name) const;

  /// Sum over spans called `name` of their duration minus the part their
  /// direct children cover (the layer's self time).
  double SelfSeconds(std::string_view name) const;

  /// Writes the spans as a JSON array, one object per line.
  void Write(std::ostream& out) const;

 private:
  void Close(int index);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace e2ebench
