#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace qplec::e2e {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

std::size_t samples_beyond(std::size_t n, double p) {
  // Nearest rank: the ceil(p/100 * n)-th smallest sample; the rest lie beyond.
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

TailPercentile tail_percentile(const std::vector<double>& samples) {
  TailPercentile out;
  out.samples = samples.size();
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(samples.size(), p) >= 10) {
      out.p = p;
      out.value = percentile(samples, p);
      return out;
    }
  }
  return out;
}

double self_time(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double reach = parent.start;  // everything before `reach` is already counted
  for (const Interval& c : children) {
    const double start = std::max(c.start, reach);
    const double end = std::min(c.end, parent.end);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return (parent.end - parent.start) - covered;
}

bool valid_metric_name(std::string_view name) {
  return !name.empty() && std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '.' || c == '-';
  });
}

void MetricReport::set(std::string_view name, std::string_view unit, double value) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("malformed metric name '" + std::string(name) + "'");
  }
  if (unit.empty()) throw std::invalid_argument("metric " + std::string(name) + " has no unit");
  for (const Entry& e : entries_) {
    if (e.name == name) throw std::invalid_argument("metric " + e.name + " set twice");
  }
  entries_.push_back({std::string(name), std::string(unit), value});
}

void MetricReport::print() const {
  for (const Entry& e : entries_) {
    std::printf("  %-32s = %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

std::string MetricReport::json(bool correct, const OutcomeTally& tally) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
      << tally.attempted << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out << (i == 0 ? "" : ", ") << '"' << e.name << "\": {\"value\": " << e.value
        << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace qplec::e2e
