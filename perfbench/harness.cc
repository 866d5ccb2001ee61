#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

size_t RankIndex(size_t n, double p) {
  // 1-based nearest rank ceil(p/100 * n), clamped to [1, n]; the epsilon
  // keeps exact products (95% of 200 = 190) from rounding up.
  double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  size_t rank = r < 1 ? 1 : static_cast<size_t>(r);
  return std::min(rank, n);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double p) {
  return sorted[RankIndex(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - RankIndex(n, p);
}

double HighestSupportedPercentile(size_t n) {
  static const double kLadder[] = {99.9, 99, 95, 90, 50};
  for (double p : kLadder) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 50);
  s.top_percentile = HighestSupportedPercentile(s.n);
  if (s.top_percentile > 0) {
    s.top_value = NearestRank(samples, s.top_percentile);
  }
  return s;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, p);
}

uint64_t Stream::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void LiveFactModel::Insert(const std::string& relation,
                           const recnet::Tuple& fact) {
  deadline_[{relation, fact}] = std::numeric_limits<double>::infinity();
}

void LiveFactModel::Delete(const std::string& relation,
                           const recnet::Tuple& fact) {
  deadline_.erase({relation, fact});
}

void LiveFactModel::InsertWithTtl(const std::string& relation,
                                  const recnet::Tuple& fact, double ttl) {
  deadline_[{relation, fact}] = now_ + ttl;
}

void LiveFactModel::AdvanceTime(double t) {
  now_ = t;
  for (auto it = deadline_.begin(); it != deadline_.end();) {
    if (it->second <= now_) {
      it = deadline_.erase(it);
    } else {
      ++it;
    }
  }
}

bool LiveFactModel::Contains(const std::string& relation,
                             const recnet::Tuple& fact) const {
  return deadline_.count({relation, fact}) > 0;
}

std::vector<recnet::Tuple> LiveFactModel::Live(
    const std::string& relation) const {
  std::vector<recnet::Tuple> out;
  for (const auto& [key, deadline] : deadline_) {
    if (key.first == relation) out.push_back(key.second);
  }
  return out;
}

namespace {

uint64_t Fnv(uint64_t h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t DigestRows(uint64_t h, const std::string& relation,
                    const std::vector<recnet::Tuple>& rows) {
  h = Fnv(h, relation.data(), relation.size());
  uint64_t count = rows.size();
  h = Fnv(h, &count, sizeof(count));
  for (const recnet::Tuple& row : rows) {
    uint64_t arity = row.size();
    h = Fnv(h, &arity, sizeof(arity));
    for (size_t i = 0; i < row.size(); ++i) {
      const recnet::Value& v = row.at(i);
      unsigned char tag = v.is_int() ? 0 : v.is_double() ? 1 : 2;
      h = Fnv(h, &tag, 1);
      if (v.is_int()) {
        int64_t x = v.AsInt();
        h = Fnv(h, &x, sizeof(x));
      } else if (v.is_double()) {
        double x = v.AsDouble();
        uint64_t bits = 0;
        std::memcpy(&bits, &x, sizeof(bits));
        h = Fnv(h, &bits, sizeof(bits));
      } else {
        const std::string& s = v.AsString();
        uint64_t len = s.size();
        h = Fnv(h, &len, sizeof(len));
        h = Fnv(h, s.data(), s.size());
      }
    }
  }
  return h;
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(1e6 * Seconds(s.start, s.end));
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path,
                               Clock::time_point origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"iteration\":%llu}}%s\n",
                 s.name, s.layer, 1e6 * Seconds(origin, s.start),
                 1e6 * Seconds(s.start, s.end),
                 static_cast<unsigned long long>(s.iteration),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
