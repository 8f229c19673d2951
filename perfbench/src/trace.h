// In-memory spans for the traced run: one span per call into a layer,
// kept in a vector and written out as JSON lines when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median (and other quantiles) by nearest rank on a sorted copy.
double Quantile(std::vector<double> values, double q);

struct Span {
  uint64_t request = 0;     ///< replayed request; shared by its layers
  const char* layer = "";   ///< boundary the call crossed
  const char* parent = "";  ///< enclosing layer, "" at the top
  double start_ms = 0;      ///< since the trace began
  double duration_ms = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Records one call and files its duration under `layer`.
  void Add(uint64_t request, const char* layer, const char* parent,
           Clock::time_point start, Clock::time_point end);
  /// Files a duration that is not a call (a hit attributed zero time).
  void AddValue(const char* layer, double ms) { samples_[layer].push_back(ms); }

  double Median(const std::string& layer) const;
  size_t Count(const std::string& layer) const;

  /// Writes every span as one JSON object per line; false on I/O error.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
