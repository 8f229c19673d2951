#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

void Tracer::Add(uint64_t request, const char* layer, const char* parent,
                 Clock::time_point start, Clock::time_point end) {
  Span span;
  span.request = request;
  span.layer = layer;
  span.parent = parent;
  span.start_ms = MillisBetween(origin_, start);
  span.duration_ms = MillisBetween(start, end);
  spans_.push_back(span);
  samples_[layer].push_back(span.duration_ms);
}

double Tracer::Median(const std::string& layer) const {
  auto it = samples_.find(layer);
  return it == samples_.end() ? 0 : Quantile(it->second, 0.5);
}

size_t Tracer::Count(const std::string& layer) const {
  auto it = samples_.find(layer);
  return it == samples_.end() ? 0 : it->second.size();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"request\":%llu,\"layer\":\"%s\",\"parent\":\"%s\","
                 "\"start_ms\":%.6f,\"duration_ms\":%.6f}\n",
                 static_cast<unsigned long long>(s.request), s.layer, s.parent,
                 s.start_ms, s.duration_ms);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
