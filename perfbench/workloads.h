#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three closed-loop Session churn workloads and the run loop that
// drives them. Each workload owns one long-lived recnet::Session, feeds it a
// seeded stream through the public Session/View API, and can compare every
// view with the reference oracles in src/queries/reference.h.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/session.h"
#include "harness.h"

namespace perfbench {

// Counts operations and their failures, times the calls whose latency is an
// end-to-end metric (Apply and reads), and, in a traced run, records a span
// around every call into a layer.
class Meter {
 public:
  explicit Meter(bool trace) : trace_(trace) {}

  // One call into a layer: counted, and spanned while tracing.
  template <typename F>
  recnet::Status Call(const char* layer, const char* name, F&& f) {
    if (!spanning_) return Count(f());
    Clock::time_point t0 = Clock::now();
    recnet::Status st = f();
    spans_.Add(layer, name, iteration_, t0, Clock::now());
    return Count(std::move(st));
  }

  // Session::Apply: always timed (apply latency samples in the steady
  // phase); the next read is the first one after this Apply.
  template <typename F>
  recnet::Status Apply(F&& f) {
    Clock::time_point t0 = Clock::now();
    recnet::Status st = f();
    Clock::time_point t1 = Clock::now();
    if (spanning_) spans_.Add("engine", "Apply", iteration_, t0, t1);
    if (steady_) apply_s_.push_back(Seconds(t0, t1));
    first_read_pending_ = true;
    return Count(std::move(st));
  }

  // View::Lookup / Contains: always timed. `f` maps an absent key to OK.
  template <typename F>
  recnet::Status Read(const char* name, F&& f) {
    Clock::time_point t0 = Clock::now();
    recnet::Status st = f();
    Clock::time_point t1 = Clock::now();
    bool first = first_read_pending_;
    first_read_pending_ = false;
    if (spanning_) {
      spans_.Add(first ? "engine.first_read" : "engine", name, iteration_, t0,
                 t1);
    }
    if (steady_) {
      (first ? first_read_s_ : later_read_s_).push_back(Seconds(t0, t1));
    }
    return Count(std::move(st));
  }

  // An oracle comparison (outside every timed region).
  void Oracle(uint64_t mismatches) {
    ++oracle_checks_;
    oracle_mismatches_ += mismatches;
    ++attempted_;
    if (mismatches != 0) ++failed_;
  }

  recnet::Status Count(recnet::Status st) {
    ++attempted_;
    if (!st.ok()) ++failed_;
    return st;
  }

  // Whether spans are being recorded right now (traced runs only).
  bool spanning() const { return spanning_; }
  void set_spanning(bool on) { spanning_ = trace_ && on; }
  void set_iteration(uint64_t i) { iteration_ = i; }
  uint64_t iteration() const { return iteration_; }
  void set_steady(bool on) { steady_ = on; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t oracle_checks() const { return oracle_checks_; }
  uint64_t oracle_mismatches() const { return oracle_mismatches_; }
  const std::vector<double>& apply_s() const { return apply_s_; }
  const std::vector<double>& first_read_s() const { return first_read_s_; }
  const std::vector<double>& later_read_s() const { return later_read_s_; }
  SpanLog& spans() { return spans_; }

 private:
  bool trace_;
  bool spanning_ = false;
  bool steady_ = false;
  bool first_read_pending_ = false;
  uint64_t iteration_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t oracle_checks_ = 0;
  uint64_t oracle_mismatches_ = 0;
  std::vector<double> apply_s_;
  std::vector<double> first_read_s_;
  std::vector<double> later_read_s_;
  SpanLog spans_;
};

// Fixed shape of a workload's run. A run does a fixed amount of work for a
// given --seconds, so its traffic counters are a pure function of the seed
// and a faster commit finishes the same work sooner.
struct Plan {
  int shards = 1;
  // Steady-phase iterations per requested second: about what a 4-core x86
  // host completed per second at the commit that defined the benchmark.
  // A run does seconds * iterations_per_second iterations.
  double iterations_per_second = 1;
  // Oracle comparison every this many iterations, and at the end.
  uint64_t oracle_every = 100;
  // Sessions the steady phase is split across, each set up fresh with its
  // own stream. Cost under churn wanders with a session's history for
  // several flap cycles; independent sessions average that out.
  int sessions = 4;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual Plan plan() const = 0;
  // Datalog programs the workload installs (timed via PlanSource too).
  virtual std::vector<std::string> programs() const = 0;

  // Builds a fresh session: construction, AddProgram, bulk load and the
  // first converged Apply. Restarts the input stream from `stream`.
  virtual recnet::Status Setup(Meter& meter, uint64_t stream,
                               std::vector<double>* add_program_s) = 0;
  // One closed-loop iteration: a fixed-size batch of base updates, Apply,
  // then the workload's reads. Adds the base updates sent to *updates.
  virtual recnet::Status Step(Meter& meter, uint64_t* updates) = 0;
  // Compares every view with the oracle over the modelled fact set;
  // returns the number of mismatching rows.
  virtual uint64_t CheckOracle() = 0;
  // Digest of every view's converged contents.
  virtual uint64_t Digest() = 0;
  // End-of-run work outside the steady phase (the persist round trip).
  // Returns false when it found the system at fault.
  virtual bool Finish(Meter& meter, std::vector<std::string>* info,
                      std::vector<Metric>* layer) {
    (void)meter;
    (void)info;
    (void)layer;
    return true;
  }

  recnet::Session& session() { return *session_; }
  // Destroys the current session (outside the set-up clock).
  void Teardown() { session_.reset(); }

 protected:
  std::unique_ptr<recnet::Session> session_;
};

// NotFound for unknown names; `out_dir` receives checkpoints.
recnet::StatusOr<std::unique_ptr<Workload>> MakeWorkload(
    const std::string& name, uint64_t seed, const std::string& out_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
