#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing of the Session churn benchmark: the percentile rule,
// the benchmark's own model of the live fact set, view digests, the span
// recorder and the result-line writer. Nothing here is timed as part of the
// system under test.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"

namespace perfbench {

// --- Percentile rule --------------------------------------------------------

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. `sorted` must be ascending and non-empty.
double NearestRank(const std::vector<double>& sorted, double p);

// Samples strictly beyond the nearest-rank position of percentile p.
size_t SamplesBeyond(size_t n, double p);

// The highest percentile of the ladder 50, 90, 95, 99, 99.9 that has at
// least ten samples beyond it; 0 when not even the median does (n < 20).
double HighestSupportedPercentile(size_t n);

// Median and top supported percentile of a set of timings.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double top_percentile = 0;  // 0 when unsupported.
  double top_value = 0;
};
Summary Summarize(std::vector<double> samples);

double Median(std::vector<double> samples);

// Nearest-rank percentile p of unsorted samples; 0 when there are none.
double Percentile(std::vector<double> samples, double p);

// --- Seeded input stream ----------------------------------------------------

// SplitMix64: the benchmark's own generator, so its input streams do not
// change when the library's generators do.
class Stream {
 public:
  explicit Stream(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

// --- Live fact model --------------------------------------------------------

// The benchmark's independent model of the session's base facts, including
// soft state: a fact inserted with a time-to-live dies once the clock
// reaches its deadline (deadline <= now), as SoftStateClock expires it, and
// renewing a live soft fact only moves its deadline.
class LiveFactModel {
 public:
  void Insert(const std::string& relation, const recnet::Tuple& fact);
  void Delete(const std::string& relation, const recnet::Tuple& fact);
  void InsertWithTtl(const std::string& relation, const recnet::Tuple& fact,
                     double ttl);
  void AdvanceTime(double t);

  double now() const { return now_; }
  bool Contains(const std::string& relation, const recnet::Tuple& fact) const;
  // Live facts of `relation`, sorted.
  std::vector<recnet::Tuple> Live(const std::string& relation) const;
  size_t size() const { return deadline_.size(); }

 private:
  using Key = std::pair<std::string, recnet::Tuple>;
  double now_ = 0;
  // Fact -> deadline; permanent facts carry +infinity.
  std::map<Key, double> deadline_;
};

// --- View digests -----------------------------------------------------------

// FNV-1a over a relation name and its rows (exact value bits, so any change
// of a converged view changes the digest). Chain calls to digest several
// views.
uint64_t DigestRows(uint64_t h, const std::string& relation,
                    const std::vector<recnet::Tuple>& rows);
constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

// --- Spans ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* layer;
  const char* name;
  uint64_t iteration;  // Loop iteration the call belongs to (0 = set-up).
  Clock::time_point start;
  Clock::time_point end;
};

// Keeps spans in memory; written once, when the run ends.
class SpanLog {
 public:
  void Add(const char* layer, const char* name, uint64_t iteration,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{layer, name, iteration, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }
  // Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  // Chrome trace-event JSON (one complete event per span, tid = iteration).
  bool WriteChromeTrace(const std::string& path,
                        Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
};

// --- Result line ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// {"correct":...,"attempted":...,"failed":...,"metrics":{name:{value,unit}}}
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

// Peak resident set size of this process, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
