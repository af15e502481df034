#include "tracer.hpp"

#include "stats.hpp"

namespace qplec::e2e {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope Tracer::span(const char* name) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(
      SpanRecord{name, now_us(), 0.0, open_.empty() ? -1 : open_.back(), request_});
  open_.push_back(index);
  return Scope(*this, index);
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  // Scopes nest lexically, so the closing span is the innermost open one.
  open_.pop_back();
}

std::vector<double> Tracer::self_times_us() const {
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back({s.start_us, s.end_us});
    }
  }
  std::vector<double> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[i] = self_time({spans_[i].start_us, spans_[i].end_us}, std::move(children[i]));
  }
  return out;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"request\":" << s.request
        << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace qplec::e2e
