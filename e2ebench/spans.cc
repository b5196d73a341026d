#include "spans.h"

#include <cstdio>

namespace e2ebench {
namespace {

const SteadyClock::time_point kProcessStart = SteadyClock::now();

}  // namespace

double ProcessSeconds() {
  return std::chrono::duration<double>(SteadyClock::now() - kProcessStart)
      .count();
}

SpanLog::Scope SpanLog::Open(std::string_view name) {
  if (!enabled_) return Scope(nullptr, -1);
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::string(name), open_.empty() ? -1 : open_.back(),
                        ProcessSeconds(), 0.0});
  open_.push_back(index);
  return Scope(this, index);
}

void SpanLog::Close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = ProcessSeconds();
  open_.pop_back();
}

double SpanLog::TotalSeconds(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

double SpanLog::SelfSeconds(std::string_view name) const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_seconds[static_cast<std::size_t>(s.parent)] += s.seconds();
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += spans_[i].seconds() - child_seconds[i];
  }
  return total;
}

void SpanLog::Write(std::ostream& out) const {
  out << "[\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"parent\": %d, \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"name\": \"",
                  i, s.parent, s.start_s, s.end_s);
    out << line << s.name << "\"}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]";
}

}  // namespace e2ebench
