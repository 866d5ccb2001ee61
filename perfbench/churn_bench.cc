// Session churn benchmark: drives one closed-loop workload through the
// public Session/View API for a fixed time and prints every metric.
//
//   churn_bench --workload reach_churn|region_ttl|routes_sharded
//               --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and writes a Chrome trace-event file to DIR. The last line of
// stdout is the result object. Exit status: 0 when every operation
// succeeded and every view matched its oracle, 1 otherwise, 2 on bad usage.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "datalog/planner.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "churn_bench: %s\nusage: churn_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      if (!ParseUint(v, &n)) Usage("--seed takes a whole number");
      a.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(v, &n) || n == 0 || n > 3600) {
        Usage("--seconds takes a whole number from 1 to 3600");
      }
      a.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds) {
    Usage("--workload, --seed and --seconds are required");
  }
  return a;
}

// Session-wide counters sampled at phase boundaries: traffic summed over
// every view's port namespace, drain progress, and the shared BDD manager.
struct Counters {
  uint64_t messages = 0;
  uint64_t kill_messages = 0;
  uint64_t bytes = 0;
  uint64_t local_messages = 0;
  uint64_t batches = 0;
  uint64_t prov_bytes = 0;
  uint64_t prov_samples = 0;
  uint64_t delivered = 0;
  uint64_t generations = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t unique_probes = 0;
  uint64_t gc_runs = 0;
  uint64_t stripe_contention = 0;
  uint64_t store_segments = 0;
};

Counters Sample(recnet::Session& session) {
  Counters c;
  recnet::Substrate& sub = *session.substrate();
  const recnet::Router& router = sub.router();
  for (int ns = 0; ns < router.num_namespaces(); ++ns) {
    recnet::NetworkStats s = router.stats(ns);
    c.messages += s.messages;
    c.kill_messages += s.kill_messages;
    c.bytes += s.bytes;
    c.local_messages += s.local_messages;
    c.batches += s.batches;
    c.prov_bytes += s.prov_bytes;
    c.prov_samples += s.prov_samples;
  }
  c.delivered = router.delivered();
  c.generations = router.generations_begun();
  const recnet::bdd::Manager& bdd = *sub.bdd_manager();
  c.cache_hits = bdd.cache_hits();
  c.cache_lookups = bdd.cache_lookups();
  c.unique_probes = bdd.unique_probes();
  c.gc_runs = bdd.gc_runs();
  c.stripe_contention = bdd.stripe_contention();
  c.store_segments = bdd.store_segments();
  return c;
}

// Adds the steady-phase change from `a` to `b`; store_segments keeps the
// largest store seen.
void AddDelta(Counters* d, const Counters& a, const Counters& b) {
  d->messages += b.messages - a.messages;
  d->kill_messages += b.kill_messages - a.kill_messages;
  d->bytes += b.bytes - a.bytes;
  d->local_messages += b.local_messages - a.local_messages;
  d->batches += b.batches - a.batches;
  d->prov_bytes += b.prov_bytes - a.prov_bytes;
  d->prov_samples += b.prov_samples - a.prov_samples;
  d->delivered += b.delivered - a.delivered;
  d->generations += b.generations - a.generations;
  d->cache_hits += b.cache_hits - a.cache_hits;
  d->cache_lookups += b.cache_lookups - a.cache_lookups;
  d->unique_probes += b.unique_probes - a.unique_probes;
  d->gc_runs += b.gc_runs - a.gc_runs;
  d->stripe_contention += b.stripe_contention - a.stripe_contention;
  d->store_segments = std::max(d->store_segments, b.store_segments);
}

// Cost of recording one span as the Meter does (two clock reads and an
// append), measured on a scratch log: the traced run's overhead over an
// untraced one is spans times this.
double SpanCostS() {
  constexpr int kN = 200000;
  SpanLog scratch;
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kN; ++i) {
    Clock::time_point a = Clock::now();
    scratch.Add("engine", "Insert", 0, a, Clock::now());
  }
  return Seconds(t0, Clock::now()) / kN;
}

// Stream seed of session k of a run: the k-th draw of the run seed.
uint64_t StreamSeed(uint64_t seed, int k) {
  Stream s(seed);
  uint64_t v = s.Next();
  for (int i = 0; i < k; ++i) v = s.Next();
  return v;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<double> Scaled(const std::vector<double>& v, double k) {
  std::vector<double> out;
  out.reserve(v.size());
  for (double x : v) out.push_back(x * k);
  return out;
}

// Per-layer metrics in the order BENCHMARK.json lists them; a workload that
// never exercises a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"datalog.plan_ms", "ms"},
      {"engine.add_program_ms", "ms"},
      {"engine.ingest_us.p50", "us"},
      {"engine.advance_time_us.p50", "us"},
      {"engine.first_read_us.p50", "us"},
      {"engine.read_us.p50", "us"},
      {"net.messages_per_update", "count"},
      {"net.kill_messages_per_update", "count"},
      {"net.bytes_per_update", "bytes"},
      {"net.local_messages_per_update", "count"},
      {"net.deliveries_per_batch", "count"},
      {"net.supersteps_per_apply", "count"},
      {"bdd.cache_hit_rate", "ratio"},
      {"bdd.cache_lookups", "count"},
      {"bdd.cache_lookups_per_update", "count"},
      {"bdd.unique_probes_per_update", "count"},
      {"bdd.gc_runs", "count"},
      {"bdd.stripe_contention", "count"},
      {"bdd.live_nodes.max", "count"},
      {"bdd.allocated_nodes.max", "count"},
      {"bdd.store_segments", "count"},
      {"provenance.bytes_per_tuple", "bytes"},
      {"operators.state_mb", "MiB"},
      {"operators.ship_demotions", "count"},
      {"persist.checkpoint_ms.p50", "ms"},
      {"persist.snapshot_mb", "MiB"},
      {"persist.restore_ms", "ms"},
      {"oracle.checks", "count"},
      {"oracle.mismatches", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return kList;
}

// Fresh sessions set up per run; setup_s is their median.
constexpr int kSetupReps = 21;
// Floor on steady-phase iterations: ten Apply samples beyond p95 and, at
// two reads per iteration, ten read samples beyond p99.
constexpr uint64_t kMinIterations = 500;
// Iteration whose traffic counters and view digest form the determinism
// record that does not depend on --seconds (odd, so a flapping link is
// down and the graph views differ from their full-topology contents).
constexpr uint64_t kRecordAt = 101;

std::string DeterminismLine(const char* where, const Counters& c,
                            uint64_t digest) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "determinism %s: messages=%" PRIu64 " kill_messages=%" PRIu64
                " bytes=%" PRIu64 " digest=%016" PRIx64,
                where, c.messages, c.kill_messages, c.bytes, digest);
  return line;
}

int Run(const Args& args) {
  mkdir(args.out_dir.c_str(), 0755);
  recnet::StatusOr<std::unique_ptr<Workload>> made =
      MakeWorkload(args.workload, args.seed, args.out_dir);
  if (!made.ok()) Usage(made.status().ToString().c_str());
  Workload& w = **made;
  const Plan plan = w.plan();
  Meter meter(args.trace);
  Clock::time_point origin = Clock::now();
  std::vector<std::string> info;
  bool sound = true;  // No failed call, no oracle or digest mismatch.

  // --- Set-up, timed several times ----------------------------------------
  std::vector<double> plan_ms;
  std::vector<double> setup_s;
  std::vector<double> add_program_ms;
  meter.set_spanning(true);
  for (int rep = 0; rep < kSetupReps && sound; ++rep) {
    for (const std::string& source : w.programs()) {
      Clock::time_point t0 = Clock::now();
      recnet::StatusOr<recnet::datalog::PlanSpec> planned =
          recnet::datalog::PlanSource(source);
      plan_ms.push_back(1e3 * Seconds(t0, Clock::now()));
      meter.Count(planned.status());
    }
    w.Teardown();
    std::vector<double> add_s;
    Clock::time_point t0 = Clock::now();
    recnet::Status st = w.Setup(meter, StreamSeed(args.seed, 0), &add_s);
    setup_s.push_back(Seconds(t0, Clock::now()));
    double add_total = 0;
    for (double s : add_s) add_total += s;
    add_program_ms.push_back(1e3 * add_total);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      sound = false;
    }
    meter.Oracle(w.CheckOracle());
  }

  // --- Steady phase, split across fresh sessions ---------------------------
  const uint64_t per_session =
      std::max<uint64_t>(kMinIterations,
                         static_cast<uint64_t>(args.seconds *
                                               plan.iterations_per_second)) /
      plan.sessions;
  const uint64_t total = per_session * plan.sessions;
  uint64_t updates = 0;
  std::vector<double> step_s;  // Wall time of each iteration.
  size_t live_max = 0, allocated_max = 0;
  Counters d;  // Steady-phase deltas summed over sessions.
  uint64_t g = 0;  // Iterations so far, over all sessions.
  for (int k = 0; k < plan.sessions && sound; ++k) {
    w.Teardown();
    std::vector<double> unused;
    meter.set_spanning(false);
    recnet::Status setup = w.Setup(meter, StreamSeed(args.seed, k), &unused);
    if (!setup.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", setup.ToString().c_str());
      sound = false;
      break;
    }
    recnet::bdd::Manager& bdd = *w.session().substrate()->bdd_manager();
    Counters c0 = Sample(w.session());
    meter.set_steady(true);
    for (uint64_t i = 1; i <= per_session; ++i) {
      ++g;
      meter.set_iteration(g);
      meter.set_spanning(true);
      Clock::time_point t0 = Clock::now();
      recnet::Status st = w.Step(meter, &updates);
      double dt = Seconds(t0, Clock::now());
      step_s.push_back(dt);
      if (args.trace) {
        live_max = std::max(live_max, bdd.live_nodes());
        allocated_max = std::max(allocated_max, bdd.allocated_nodes());
      }
      if (!st.ok()) {
        std::fprintf(stderr, "iteration %" PRIu64 ": %s\n", g,
                     st.ToString().c_str());
      }
      if (k == 0 && i == kRecordAt) {
        info.push_back(DeterminismLine("at iteration 101",
                                       Sample(w.session()), w.Digest()));
      }
      if (i % plan.oracle_every == 0) meter.Oracle(w.CheckOracle());
    }
    meter.set_steady(false);
    meter.set_spanning(false);
    Counters c1 = Sample(w.session());
    AddDelta(&d, c0, c1);
    meter.Oracle(w.CheckOracle());
    if (k + 1 == plan.sessions) {
      info.push_back(DeterminismLine("at end of the last session", c1,
                                     w.Digest()));
    }
  }
  if (sound) {
    double steady_s = 0;
    for (double dt : step_s) steady_s += dt;

    char line[512];
    std::snprintf(line, sizeof(line),
                  "steady phase: %d sessions x %" PRIu64
                  " iterations, %" PRIu64 " base updates in %.3f s",
                  plan.sessions, per_session, updates, steady_s);
    info.push_back(line);

    std::vector<Metric> layer_extra;
    meter.set_iteration(total + 1);
    if (!w.Finish(meter, &info, &layer_extra)) sound = false;

    // --- Metrics ---------------------------------------------------------
    double u = static_cast<double>(updates);
    std::vector<double> reads_us = Scaled(meter.first_read_s(), 1e6);
    std::vector<double> later_us = Scaled(meter.later_read_s(), 1e6);
    reads_us.insert(reads_us.end(), later_us.begin(), later_us.end());
    Summary apply = Summarize(Scaled(meter.apply_s(), 1e3));
    Summary reads = Summarize(reads_us);
    std::vector<Metric> e2e = {
        {"updates_per_s", Ratio(u, steady_s), "1/s"},
        {"apply_p50_ms", apply.p50, "ms"},
        {"apply_p95_ms", Percentile(Scaled(meter.apply_s(), 1e3), 95), "ms"},
        {"read_p50_us", reads.p50, "us"},
        {"read_p99_us", Percentile(reads_us, 99), "us"},
        {"setup_s", Median(setup_s), "s"},
        {"comm_kb_per_update", Ratio(d.bytes / 1024.0, u), "KiB"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    std::snprintf(line, sizeof(line),
                  "samples: apply n=%zu (highest supported p%g = %.6g ms), "
                  "reads n=%zu (p%g = %.6g us), setups n=%zu",
                  apply.n, apply.top_percentile, apply.top_value, reads.n,
                  reads.top_percentile, reads.top_value, setup_s.size());
    info.push_back(line);
    if (SamplesBeyond(apply.n, 95) < 10 || SamplesBeyond(reads.n, 99) < 10) {
      info.push_back("WARNING: fewer than ten samples beyond a reported "
                     "percentile");
    }

    std::map<std::string, double> layer;
    layer["datalog.plan_ms"] = Median(plan_ms);
    layer["engine.add_program_ms"] = Median(add_program_ms);
    std::vector<double> ingest_us;
    for (const char* name : {"Insert", "Delete", "InsertWithTtl"}) {
      std::vector<double> us = meter.spans().DurationsUs(name);
      ingest_us.insert(ingest_us.end(), us.begin(), us.end());
    }
    layer["engine.ingest_us.p50"] = Median(ingest_us);
    layer["engine.advance_time_us.p50"] =
        Median(meter.spans().DurationsUs("AdvanceTime"));
    layer["engine.first_read_us.p50"] =
        Median(Scaled(meter.first_read_s(), 1e6));
    layer["engine.read_us.p50"] = Median(later_us);
    layer["net.messages_per_update"] = Ratio(d.messages, u);
    layer["net.kill_messages_per_update"] = Ratio(d.kill_messages, u);
    layer["net.bytes_per_update"] = Ratio(d.bytes, u);
    layer["net.local_messages_per_update"] = Ratio(d.local_messages, u);
    layer["net.deliveries_per_batch"] = Ratio(d.delivered, d.batches);
    layer["net.supersteps_per_apply"] = Ratio(d.generations, apply.n);
    layer["bdd.cache_hit_rate"] = Ratio(d.cache_hits, d.cache_lookups);
    layer["bdd.cache_lookups"] = d.cache_lookups;
    layer["bdd.cache_lookups_per_update"] = Ratio(d.cache_lookups, u);
    layer["bdd.unique_probes_per_update"] = Ratio(d.unique_probes, u);
    layer["bdd.gc_runs"] = d.gc_runs;
    layer["bdd.stripe_contention"] =
        d.stripe_contention;
    layer["bdd.live_nodes.max"] = live_max;
    layer["bdd.allocated_nodes.max"] = allocated_max;
    layer["bdd.store_segments"] = d.store_segments;
    layer["provenance.bytes_per_tuple"] = Ratio(d.prov_bytes, d.prov_samples);
    double state_mb = 0;
    double demotions = 0;
    for (size_t i = 0; i < w.session().num_views(); ++i) {
      recnet::RunMetrics m = w.session().view(i)->Metrics();
      state_mb += m.state_mb;
      demotions += m.ship_demotions;
    }
    layer["operators.state_mb"] = state_mb;
    layer["operators.ship_demotions"] = demotions;
    for (const Metric& m : layer_extra) layer[m.name] = m.value;
    layer["oracle.checks"] = meter.oracle_checks();
    layer["oracle.mismatches"] = meter.oracle_mismatches();
    layer["trace.spans"] = meter.spans().spans().size();
    layer["trace.overhead_pct"] =
        100.0 * Ratio(meter.spans().spans().size() * SpanCostS(), steady_s);

    if (meter.failed() != 0) sound = false;
    double error_rate = Ratio(meter.failed(), meter.attempted());

    // --- Report ------------------------------------------------------------
    long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d nproc=%ld "
                "shards=%d build_type=%s\n",
                args.workload.c_str(), args.seed, args.seconds,
                args.trace ? 1 : 0, nproc, plan.shards, PERFBENCH_BUILD_TYPE);
    for (const std::string& l : info) std::printf("%s\n", l.c_str());
    std::printf("error_rate %.6g ratio (%" PRIu64 " failed of %" PRIu64
                " attempted; %" PRIu64 " oracle checks, %" PRIu64
                " mismatching rows)\n",
                error_rate, meter.failed(), meter.attempted(),
                meter.oracle_checks(), meter.oracle_mismatches());
    std::vector<Metric> out;
    if (args.trace) {
      std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                         std::to_string(args.seed) + ".json";
      if (meter.spans().WriteChromeTrace(path, origin)) {
        std::printf("trace: %zu spans written to %s\n",
                    meter.spans().spans().size(), path.c_str());
      } else {
        std::printf("trace: could not write %s\n", path.c_str());
      }
      for (const auto& [name, unit] : LayerMetrics()) {
        out.push_back({name, layer.count(name) ? layer[name] : 0.0, unit});
      }
    } else {
      out = e2e;
    }
    for (const Metric& m : out) {
      std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%s\n", ResultLine(sound, meter.attempted(), meter.failed(),
                                   out)
                            .c_str());
    std::fflush(stdout);
    return sound ? 0 : 1;
  }
  std::printf("%s\n",
              ResultLine(false, meter.attempted(), meter.failed() + 1, {})
                  .c_str());
  return 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::Parse(argc, argv));
}
