#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <utility>

#include "queries/reference.h"
#include "topology/sensor_grid.h"
#include "topology/transit_stub.h"
#include "topology/workload.h"

namespace perfbench {

using recnet::Status;
using recnet::StatusOr;
using recnet::Tuple;

namespace {

constexpr char kReachable[] = R"(
  reachable(x,y) :- link(x,y).
  reachable(x,y) :- link(x,z), reachable(z,y).
)";

constexpr char kShortestPath[] = R"(
  path(x,y,c) :- wlink(x,y,c).
  path(x,y,c) :- wlink(x,z,c), path(z,y,c2).
  minCost(x,y,min<c>) :- path(x,y,c).
)";

constexpr char kRegion[] = R"(
  activeRegion(r,x) :- seed(r,x), triggered(x).
  activeRegion(r,y) :- activeRegion(r,x), triggered(x), near(x,y).
  regionSizes(r,count<x>) :- activeRegion(r,x).
)";

// A fact built the way Session's numeric overloads build one: integral
// numbers become ints, so model keys and session keys agree.
Tuple Fact(std::initializer_list<double> values) {
  std::vector<recnet::Value> out;
  for (double d : values) {
    if (std::floor(d) == d) {
      out.emplace_back(static_cast<int64_t>(d));
    } else {
      out.emplace_back(d);
    }
  }
  return Tuple(std::move(out));
}

// Absent keys are an answer, not a failure.
Status AbsentIsOk(const Status& st) {
  return st.code() == recnet::StatusCode::kNotFound ? Status::OK() : st;
}

std::vector<Tuple> ScanOrEmpty(const recnet::View& view,
                               const std::string& relation) {
  StatusOr<std::vector<Tuple>> rows = view.Scan(relation);
  return rows.ok() ? std::move(rows).value() : std::vector<Tuple>{};
}

// Rows of `expected` missing from `actual` plus rows of `actual` not in
// `expected`; both sorted.
uint64_t SymmetricDifference(const std::vector<Tuple>& expected,
                             const std::vector<Tuple>& actual) {
  std::vector<Tuple> diff;
  std::set_symmetric_difference(expected.begin(), expected.end(),
                                actual.begin(), actual.end(),
                                std::back_inserter(diff));
  return diff.size();
}

// --- Link flaps ----------------------------------------------------------------

// Link failures and recoveries over a fixed topology. Each cycle visits
// every undirected link once, in a seeded order: the link fails (one Apply)
// and comes back (the next Apply). Every cycle does the same set of updates,
// so the topology never drifts and the seed changes only their order.
class LinkFlaps {
 public:
  struct Flip {
    int a;
    int b;
    double cost;
    bool up;  // true: the link comes back (insert); false: it fails.
  };

  LinkFlaps(std::vector<recnet::TopoLink> links, uint64_t seed)
      : links_(std::move(links)), order_(links_.size()), rng_(seed) {
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  }

  Flip Next() {
    if (!down_ && pos_ == 0) {
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.Below(i)]);
      }
    }
    const recnet::TopoLink& l = links_[order_[pos_]];
    Flip f{l.a, l.b, l.cost_ms, down_};
    if (down_) pos_ = (pos_ + 1) % order_.size();
    down_ = !down_;
    return f;
  }

 private:
  std::vector<recnet::TopoLink> links_;
  std::vector<size_t> order_;
  Stream rng_;
  size_t pos_ = 0;
  bool down_ = false;  // The current link is down; the next flip restores it.
};

std::vector<recnet::LinkTuple> LiveLinks(const LiveFactModel& model,
                                         const std::string& relation) {
  std::vector<recnet::LinkTuple> out;
  for (const Tuple& t : model.Live(relation)) {
    recnet::LinkTuple l;
    l.src = static_cast<int>(t.IntAt(0));
    l.dst = static_cast<int>(t.IntAt(1));
    if (t.size() > 2) {
      l.cost_ms = t.at(2).is_int() ? static_cast<double>(t.IntAt(2))
                                   : t.DoubleAt(2);
    }
    out.push_back(l);
  }
  return out;
}

// reachable(x, y) rows the oracle derives from the live links.
std::vector<Tuple> ExpectedReachable(int num_nodes,
                                     const std::vector<recnet::LinkTuple>& l) {
  std::vector<Tuple> rows;
  std::vector<std::set<int>> reach = recnet::ReferenceReachability(num_nodes, l);
  for (int x = 0; x < num_nodes; ++x) {
    for (int y : reach[static_cast<size_t>(x)]) {
      rows.push_back(Tuple::OfInts({x, y}));
    }
  }
  return rows;
}

// Session options shared by set-up and the persist round trip.
recnet::SessionOptions SessionFor(int num_nodes, int shards) {
  recnet::SessionOptions options;
  options.num_nodes = num_nodes;
  options.num_physical = 12;
  options.shards = shards;
  return options;
}

recnet::EngineOptions GraphView(int num_nodes) {
  recnet::EngineOptions options;
  options.num_nodes = num_nodes;
  options.runtime.prov = recnet::ProvMode::kAbsorption;
  options.runtime.ship = recnet::ShipMode::kLazy;
  return options;
}

// AddProgram, counted and timed.
StatusOr<recnet::View*> AddProgram(Meter& meter, recnet::Session& session,
                                   const char* source,
                                   const recnet::EngineOptions& options,
                                   std::vector<double>* add_program_s) {
  Clock::time_point t0 = Clock::now();
  StatusOr<recnet::View*> view = session.AddProgram(source, options);
  add_program_s->push_back(Seconds(t0, Clock::now()));
  meter.Count(view.status());
  if (meter.spanning()) {
    meter.spans().Add("engine", "AddProgram", meter.iteration(), t0,
                      Clock::now());
  }
  return view;
}

// One fixed dense transit-stub topology for both graph workloads, the
// paper's shape (four transit nodes, eight-node stubs) at about 50
// undirected links; the sensor grid's seed sensors use the same seed. The
// run seed drives the flap order, not the topology, so runs under different
// seeds do the same work. At the paper's 200 links one fail/recover cycle
// over every link took 64-97 s on a 4-core x86 host and grew the BDD store
// to 8M nodes, too slow for a closed loop measured in seconds.
constexpr int kTargetLinks = 50;
constexpr uint64_t kTopologySeed = 1;

// --- reach_churn ----------------------------------------------------------------

// Query 1, Absorption Lazy, one shard. Link flaps drive BDD provenance and
// MinShip; two Contains probes per Apply (the flapped link's endpoints)
// give the read metrics without making reads a real share of the loop.
class ReachChurn : public Workload {
 public:
  ReachChurn()
      : topo_(recnet::MakeTransitStubWithTargetLinks(kTargetLinks, true,
                                                     kTopologySeed)) {}

  Plan plan() const override {
    Plan p;
    p.shards = 1;
    p.iterations_per_second = 80;
    p.oracle_every = 250;
    return p;
  }
  std::vector<std::string> programs() const override { return {kReachable}; }

  Status Setup(Meter& meter, uint64_t stream,
               std::vector<double>* add_program_s) override {
    flaps_ = std::make_unique<LinkFlaps>(topo_.links, stream);
    model_ = LiveFactModel();
    session_ = std::make_unique<recnet::Session>(
        SessionFor(topo_.num_nodes, plan().shards));
    StatusOr<recnet::View*> view =
        AddProgram(meter, *session_, kReachable, GraphView(topo_.num_nodes),
                   add_program_s);
    if (!view.ok()) return view.status();
    view_ = *view;
    for (const recnet::LinkTuple& l : recnet::DirectedLinks(topo_)) {
      Link(meter, l.src, l.dst, true);
    }
    return meter.Apply([&] { return session_->Apply(); });
  }

  Status Step(Meter& meter, uint64_t* updates) override {
    LinkFlaps::Flip f = flaps_->Next();
    Link(meter, f.a, f.b, f.up);
    Link(meter, f.b, f.a, f.up);
    ++*updates;
    Status st = meter.Apply([&] { return session_->Apply(); });
    for (auto [x, y] : {std::pair(f.a, f.b), std::pair(f.b, f.a)}) {
      meter.Read("Contains", [&] {
        return view_->Contains("reachable", {double(x), double(y)}).status();
      });
    }
    return st;
  }

  uint64_t CheckOracle() override {
    return SymmetricDifference(
        ExpectedReachable(session_->num_nodes(), LiveLinks(model_, "link")),
        ScanOrEmpty(*view_, "reachable"));
  }

  uint64_t Digest() override {
    return DigestRows(kDigestSeed, "reachable",
                      ScanOrEmpty(*view_, "reachable"));
  }

 private:
  void Link(Meter& meter, int a, int b, bool up) {
    Tuple fact = Fact({double(a), double(b)});
    if (up) {
      model_.Insert("link", fact);
      meter.Call("engine", "Insert",
                 [&] { return session_->Insert("link", fact); });
    } else {
      model_.Delete("link", fact);
      meter.Call("engine", "Delete",
                 [&] { return session_->Delete("link", fact); });
    }
  }

  recnet::Topology topo_;
  std::unique_ptr<LinkFlaps> flaps_;
  LiveFactModel model_;
  recnet::View* view_ = nullptr;
};

// --- region_ttl -----------------------------------------------------------------

// Query 3 with the regionSizes count, Relative Lazy, one shard, on a 20x20
// sensor grid. Each tick one fire hotspot per region wanders near its seed
// sensor and refreshes triggered(x) soft state around it, the seed sensor
// included; one AdvanceTime per tick expires the sensors that stopped
// reporting, so regions change shape at their rim. Reads follow every tick.
// No BDD work: relative provenance never touches the manager.
class RegionTtl : public Workload {
 public:
  RegionTtl() {
    recnet::SensorGridOptions grid;
    grid.grid_dim = kDim;
    grid.spacing_m = 10.0;
    grid.k = 20.0;
    grid.num_seeds = 5;
    grid.seed = kTopologySeed;
    field_ = recnet::MakeSensorGrid(grid);
  }

  Plan plan() const override {
    Plan p;
    p.shards = 1;
    p.iterations_per_second = 180;
    p.oracle_every = 500;
    return p;
  }
  std::vector<std::string> programs() const override { return {kRegion}; }

  Status Setup(Meter& meter, uint64_t stream,
               std::vector<double>* add_program_s) override {
    rng_ = Stream(stream);
    model_ = LiveFactModel();
    hotspots_.clear();
    for (int s : field_.seed_sensors) hotspots_.push_back({s, 0, 0});
    session_ = std::make_unique<recnet::Session>(
        SessionFor(field_.num_sensors, plan().shards));
    recnet::EngineOptions options;
    options.field = field_;
    options.runtime.prov = recnet::ProvMode::kRelative;
    options.runtime.ship = recnet::ShipMode::kLazy;
    StatusOr<recnet::View*> view =
        AddProgram(meter, *session_, kRegion, options, add_program_s);
    if (!view.ok()) return view.status();
    view_ = *view;
    // Ignition: every sensor within reach of each hotspot reports.
    for (const Hotspot& h : hotspots_) {
      for (int dy = -kRadius; dy <= kRadius; ++dy) {
        for (int dx = -kRadius; dx <= kRadius; ++dx) {
          int x = SensorAt(h, dx, dy);
          if (x >= 0) Refresh(meter, x);
        }
      }
    }
    return meter.Apply([&] { return session_->Apply(); });
  }

  Status Step(Meter& meter, uint64_t* updates) override {
    for (Hotspot& h : hotspots_) {
      h.ox = std::clamp(h.ox + static_cast<int>(rng_.Below(3)) - 1, -kWander,
                        kWander);
      h.oy = std::clamp(h.oy + static_cast<int>(rng_.Below(3)) - 1, -kWander,
                        kWander);
      Refresh(meter, h.seed_sensor);
      ++*updates;
      for (int i = 1; i < kRefreshPerHotspot;) {
        int x = SensorAt(h, static_cast<int>(rng_.Below(2 * kRadius + 1)) -
                                kRadius,
                         static_cast<int>(rng_.Below(2 * kRadius + 1)) -
                             kRadius);
        if (x < 0) continue;
        Refresh(meter, x);
        ++i;
        ++*updates;
      }
    }
    double t = model_.now() + 1;
    model_.AdvanceTime(t);
    meter.Call("engine", "AdvanceTime",
               [&] { return session_->AdvanceTime(t); });
    Status st = meter.Apply([&] { return session_->Apply(); });
    for (size_t r = 0; r < field_.seed_sensors.size(); ++r) {
      meter.Read("Lookup", [&] {
        return AbsentIsOk(view_->Lookup("regionSizes", {double(r)}).status());
      });
    }
    for (int i = 0; i < kContainsPerTick; ++i) {
      double r = static_cast<double>(rng_.Below(field_.seed_sensors.size()));
      double x = static_cast<double>(rng_.Below(field_.num_sensors));
      meter.Read("Contains", [&] {
        return view_->Contains("activeRegion", {r, x}).status();
      });
    }
    return st;
  }

  uint64_t CheckOracle() override {
    std::vector<bool> triggered(static_cast<size_t>(field_.num_sensors));
    for (const Tuple& t : model_.Live("triggered")) {
      triggered[static_cast<size_t>(t.IntAt(0))] = true;
    }
    std::vector<std::set<int>> regions =
        recnet::ReferenceRegions(field_, triggered);
    std::vector<Tuple> members;
    std::vector<Tuple> sizes;
    for (size_t r = 0; r < regions.size(); ++r) {
      for (int x : regions[r]) {
        members.push_back(Tuple::OfInts({static_cast<int64_t>(r), x}));
      }
      if (!regions[r].empty()) {
        sizes.push_back(Tuple::OfInts(
            {static_cast<int64_t>(r), static_cast<int64_t>(regions[r].size())}));
      }
    }
    std::sort(members.begin(), members.end());
    return SymmetricDifference(members, ScanOrEmpty(*view_, "activeRegion")) +
           SymmetricDifference(sizes, ScanOrEmpty(*view_, "regionSizes"));
  }

  uint64_t Digest() override {
    uint64_t h = DigestRows(kDigestSeed, "activeRegion",
                            ScanOrEmpty(*view_, "activeRegion"));
    return DigestRows(h, "regionSizes", ScanOrEmpty(*view_, "regionSizes"));
  }

 private:
  static constexpr int kDim = 20;
  // Hotspots refresh sensors within this Chebyshev radius of their centre
  // and wander at most kWander cells from their seed sensor. The seed
  // itself reports every tick: when it was left to chance, whole regions
  // vanished and regrew often enough that the cost of a run swung by a
  // third between seeds.
  static constexpr int kRadius = 3;
  static constexpr int kWander = 3;
  static constexpr int kRefreshPerHotspot = 40;
  static constexpr int kContainsPerTick = 3;
  static constexpr double kTtl = 3.0;

  struct Hotspot {
    int seed_sensor;
    int ox;
    int oy;
  };

  // Sensor at offset (dx, dy) from the hotspot's centre, -1 off the grid.
  // The centre itself always lies on the grid.
  int SensorAt(const Hotspot& h, int dx, int dy) const {
    int col = std::clamp(h.seed_sensor % kDim + h.ox, 0, kDim - 1) + dx;
    int row = std::clamp(h.seed_sensor / kDim + h.oy, 0, kDim - 1) + dy;
    if (col < 0 || col >= kDim || row < 0 || row >= kDim) return -1;
    return row * kDim + col;
  }

  void Refresh(Meter& meter, int sensor) {
    Tuple fact = Tuple::OfInts({sensor});
    model_.InsertWithTtl("triggered", fact, kTtl);
    meter.Call("engine", "InsertWithTtl", [&] {
      return session_->InsertWithTtl("triggered", fact, kTtl);
    });
  }

  recnet::SensorField field_;
  Stream rng_{0};
  std::vector<Hotspot> hotspots_;
  LiveFactModel model_;
  recnet::View* view_ = nullptr;
};

// --- routes_sharded -------------------------------------------------------------

// Query 2 over wlink(x,y,c) and Query 1 over link(x,y), co-resident on one
// two-shard Session, Absorption Lazy. One flip stream feeds both views;
// minCost lookups follow every Apply and a Checkpoint every kCheckpointEvery
// Applies. Finish() restores the last checkpoint into a fresh session,
// replays the flips after it and compares digests with the live session.
class RoutesSharded : public Workload {
 public:
  RoutesSharded(uint64_t seed, std::string out_dir)
      : topo_(recnet::MakeTransitStubWithTargetLinks(kTargetLinks, true,
                                                     kTopologySeed)),
        ckpt_path_(out_dir + "/routes_sharded-" + std::to_string(seed) +
                   ".ckpt") {}

  Plan plan() const override {
    Plan p;
    p.shards = 2;
    p.iterations_per_second = 44;
    p.oracle_every = 100;
    return p;
  }
  std::vector<std::string> programs() const override {
    return {kShortestPath, kReachable};
  }

  Status Setup(Meter& meter, uint64_t stream,
               std::vector<double>* add_program_s) override {
    flaps_ = std::make_unique<LinkFlaps>(topo_.links, stream);
    rng_ = Stream(~stream);
    model_ = LiveFactModel();
    since_checkpoint_.clear();
    applies_ = 0;
    checkpointed_ = false;
    session_ = std::make_unique<recnet::Session>(
        SessionFor(topo_.num_nodes, plan().shards));
    StatusOr<recnet::View*> paths =
        AddProgram(meter, *session_, kShortestPath,
                   GraphView(topo_.num_nodes), add_program_s);
    if (!paths.ok()) return paths.status();
    StatusOr<recnet::View*> reach =
        AddProgram(meter, *session_, kReachable, GraphView(topo_.num_nodes),
                   add_program_s);
    if (!reach.ok()) return reach.status();
    paths_ = *paths;
    reach_ = *reach;
    for (const recnet::LinkTuple& l : recnet::DirectedLinks(topo_)) {
      Link(meter, *session_, &model_, l.src, l.dst, l.cost_ms, true);
    }
    return meter.Apply([&] { return session_->Apply(); });
  }

  Status Step(Meter& meter, uint64_t* updates) override {
    LinkFlaps::Flip f = flaps_->Next();
    Ingest(meter, *session_, &model_, f);
    ++*updates;
    since_checkpoint_.push_back(f);
    Status st = meter.Apply([&] { return session_->Apply(); });
    for (int i = 0; i < kLookupsPerApply; ++i) {
      double x = static_cast<double>(rng_.Below(topo_.num_nodes));
      double y = static_cast<double>(rng_.Below(topo_.num_nodes));
      meter.Read("Lookup", [&] {
        return AbsentIsOk(paths_->Lookup("minCost", {x, y}).status());
      });
    }
    if (++applies_ % kCheckpointEvery == 0) {
      Clock::time_point t0 = Clock::now();
      Status ck = meter.Call("persist", "Checkpoint",
                             [&] { return session_->Checkpoint(ckpt_path_); });
      checkpoint_ms_.push_back(1e3 * Seconds(t0, Clock::now()));
      if (ck.ok()) {
        since_checkpoint_.clear();
        checkpointed_ = true;
      }
    }
    return st;
  }

  uint64_t CheckOracle() override { return Mismatches(*paths_, *reach_); }

  uint64_t Digest() override { return DigestOf(*paths_, *reach_); }

  bool Finish(Meter& meter, std::vector<std::string>* info,
              std::vector<Metric>* layer) override {
    double snapshot_mb = 0;
    std::error_code ec;
    uintmax_t bytes = std::filesystem::file_size(ckpt_path_, ec);
    if (!ec) snapshot_mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
    layer->push_back({"persist.checkpoint_ms.p50", Median(checkpoint_ms_), "ms"});
    layer->push_back({"persist.snapshot_mb", snapshot_mb, "MiB"});

    bool same = false;
    double restore_ms = 0;
    if (checkpointed_) {
      recnet::Session restored(SessionFor(topo_.num_nodes, plan().shards));
      Clock::time_point t0 = Clock::now();
      Status st = meter.Call("persist", "Restore",
                             [&] { return restored.Restore(ckpt_path_); });
      restore_ms = 1e3 * Seconds(t0, Clock::now());
      if (st.ok() && restored.num_views() == 2) {
        LiveFactModel unused;
        for (const LinkFlaps::Flip& f : since_checkpoint_) {
          Ingest(meter, restored, &unused, f);
          meter.Apply([&] { return restored.Apply(); });
        }
        same = DigestOf(*restored.view(0), *restored.view(1)) == Digest();
      }
      meter.Oracle(same ? 0 : 1);
    }
    std::filesystem::remove(ckpt_path_, ec);
    layer->push_back({"persist.restore_ms", restore_ms, "ms"});
    info->push_back(std::string("persist round trip: ") +
                    (same ? "restored digest matches the live session"
                          : "MISMATCH") +
                    ", replayed " + std::to_string(since_checkpoint_.size()) +
                    " flips after the last checkpoint");
    return same;
  }

 private:
  static constexpr int kLookupsPerApply = 8;
  static constexpr uint64_t kCheckpointEvery = 50;

  static void Link(Meter& meter, recnet::Session& session,
                   LiveFactModel* model, int a, int b, double cost, bool up) {
    Tuple wlink = Fact({double(a), double(b), cost});
    Tuple link = Fact({double(a), double(b)});
    if (up) {
      model->Insert("wlink", wlink);
      model->Insert("link", link);
      meter.Call("engine", "Insert",
                 [&] { return session.Insert("wlink", wlink); });
      meter.Call("engine", "Insert",
                 [&] { return session.Insert("link", link); });
    } else {
      model->Delete("wlink", wlink);
      model->Delete("link", link);
      meter.Call("engine", "Delete",
                 [&] { return session.Delete("wlink", wlink); });
      meter.Call("engine", "Delete",
                 [&] { return session.Delete("link", link); });
    }
  }

  static void Ingest(Meter& meter, recnet::Session& session,
                     LiveFactModel* model,
                     const LinkFlaps::Flip& f) {
    Link(meter, session, model, f.a, f.b, f.cost, f.up);
    Link(meter, session, model, f.b, f.a, f.cost, f.up);
  }

  uint64_t Mismatches(const recnet::View& paths, const recnet::View& reach) {
    int n = session_->num_nodes();
    std::vector<recnet::LinkTuple> wlinks = LiveLinks(model_, "wlink");
    recnet::ReferenceShortestPaths ref = recnet::ReferenceShortest(n, wlinks);
    std::vector<Tuple> expected;
    for (int x = 0; x < n; ++x) {
      for (int y = 0; y < n; ++y) {
        const std::optional<double>& c =
            ref.min_cost[static_cast<size_t>(x)][static_cast<size_t>(y)];
        if (c.has_value()) {
          // minCost carries the runtime's double-valued cost column.
          expected.push_back(Tuple(std::vector<recnet::Value>{
              recnet::Value(int64_t{x}), recnet::Value(int64_t{y}),
              recnet::Value(*c)}));
        }
      }
    }
    return SymmetricDifference(expected, ScanOrEmpty(paths, "minCost")) +
           SymmetricDifference(ExpectedReachable(n, LiveLinks(model_, "link")),
                               ScanOrEmpty(reach, "reachable"));
  }

  static uint64_t DigestOf(const recnet::View& paths,
                           const recnet::View& reach) {
    uint64_t h = DigestRows(kDigestSeed, "minCost", ScanOrEmpty(paths, "minCost"));
    return DigestRows(h, "reachable", ScanOrEmpty(reach, "reachable"));
  }

  recnet::Topology topo_;
  std::string ckpt_path_;
  std::unique_ptr<LinkFlaps> flaps_;
  Stream rng_{0};
  LiveFactModel model_;
  recnet::View* paths_ = nullptr;
  recnet::View* reach_ = nullptr;
  uint64_t applies_ = 0;
  bool checkpointed_ = false;
  std::vector<LinkFlaps::Flip> since_checkpoint_;
  std::vector<double> checkpoint_ms_;
};

}  // namespace

StatusOr<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                                 uint64_t seed,
                                                 const std::string& out_dir) {
  if (name == "reach_churn") return std::unique_ptr<Workload>(new ReachChurn());
  if (name == "region_ttl") return std::unique_ptr<Workload>(new RegionTtl());
  if (name == "routes_sharded") {
    return std::unique_ptr<Workload>(new RoutesSharded(seed, out_dir));
  }
  return Status::NotFound("unknown workload '" + name + "'");
}

}  // namespace perfbench
