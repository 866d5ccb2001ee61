// The benchmark's own tests: the percentile rule, the live-fact and TTL
// model against a real Session, and the stability of view digests.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   ./.bench_build/perfbench/perfbench_test

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "engine/session.h"
#include "harness.h"
#include "queries/reference.h"

namespace perfbench {
namespace {

using recnet::Tuple;

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(200, 95), 10u);
  EXPECT_EQ(SamplesBeyond(199, 95), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(199), 90);
  EXPECT_EQ(HighestSupportedPercentile(200), 95);
  EXPECT_EQ(HighestSupportedPercentile(999), 95);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  EXPECT_EQ(NearestRank(v, 50), 100);
  EXPECT_EQ(NearestRank(v, 95), 190);
  EXPECT_EQ(NearestRank(v, 100), 200);
  EXPECT_EQ(Percentile({3, 1, 2}, 50), 2);
  EXPECT_EQ(Percentile({}, 50), 0);
  Summary s = Summarize(v);
  EXPECT_EQ(s.n, 200u);
  EXPECT_EQ(s.top_percentile, 95);
  EXPECT_EQ(s.top_value, 190);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

constexpr char kClosure[] = R"(
  r(x,y) :- e(x,y).
  r(x,y) :- e(x,z), r(z,y).
)";

std::vector<Tuple> Closure(const LiveFactModel& model, int nodes) {
  std::vector<recnet::LinkTuple> links;
  for (const Tuple& t : model.Live("e")) {
    links.push_back({static_cast<int>(t.IntAt(0)),
                     static_cast<int>(t.IntAt(1)), 1.0});
  }
  std::vector<Tuple> rows;
  std::vector<std::set<int>> reach =
      recnet::ReferenceReachability(nodes, links);
  for (int x = 0; x < nodes; ++x) {
    for (int y : reach[static_cast<size_t>(x)]) {
      rows.push_back(Tuple::OfInts({x, y}));
    }
  }
  return rows;
}

// The model agrees with the session's soft-state clock: a fact dies exactly
// when the clock reaches its deadline, and renewal moves the deadline.
TEST(LiveFactModel, TtlBoundaryMatchesSession) {
  recnet::SessionOptions so;
  so.num_nodes = 3;
  recnet::Session session(so);
  auto view = session.AddProgram(kClosure, {});
  ASSERT_TRUE(view.ok());
  LiveFactModel model;
  Tuple e01 = Tuple::OfInts({0, 1});
  Tuple e12 = Tuple::OfInts({1, 2});
  ASSERT_TRUE(session.InsertWithTtl("e", e01, 2).ok());
  model.InsertWithTtl("e", e01, 2);
  ASSERT_TRUE(session.InsertWithTtl("e", e12, 3).ok());
  model.InsertWithTtl("e", e12, 3);
  ASSERT_TRUE(session.AdvanceTime(1).ok());
  model.AdvanceTime(1);
  ASSERT_TRUE(session.InsertWithTtl("e", e12, 3).ok());  // Renew to t=4.
  model.InsertWithTtl("e", e12, 3);
  ASSERT_TRUE(session.AdvanceTime(2).ok());  // e01 deadline == now.
  model.AdvanceTime(2);
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_FALSE(model.Contains("e", e01));
  EXPECT_TRUE(model.Contains("e", e12));
  EXPECT_EQ(*(*view)->Scan("r"), Closure(model, 3));
  ASSERT_TRUE(session.AdvanceTime(4).ok());
  model.AdvanceTime(4);
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_EQ(model.size(), 0u);
  EXPECT_TRUE((*view)->Scan("r")->empty());
}

TEST(LiveFactModel, RandomStreamMatchesSession) {
  constexpr int kNodes = 6;
  recnet::SessionOptions so;
  so.num_nodes = kNodes;
  recnet::Session session(so);
  auto view = session.AddProgram(kClosure, {});
  ASSERT_TRUE(view.ok());
  LiveFactModel model;
  Stream rng(7);
  for (int step = 0; step < 300; ++step) {
    Tuple e = Tuple::OfInts({static_cast<int64_t>(rng.Below(kNodes)),
                             static_cast<int64_t>(rng.Below(kNodes))});
    switch (rng.Below(4)) {
      case 0:
        ASSERT_TRUE(session.Insert("e", e).ok());
        model.Insert("e", e);
        break;
      case 1:
        ASSERT_TRUE(session.Delete("e", e).ok());
        model.Delete("e", e);
        break;
      case 2: {
        double ttl = 1.0 + static_cast<double>(rng.Below(3));
        ASSERT_TRUE(session.InsertWithTtl("e", e, ttl).ok());
        model.InsertWithTtl("e", e, ttl);
        break;
      }
      default: {
        double t = model.now() + static_cast<double>(rng.Below(2));
        ASSERT_TRUE(session.AdvanceTime(t).ok());
        model.AdvanceTime(t);
      }
    }
    if (step % 10 == 9) {
      ASSERT_TRUE(session.Apply().ok());
      ASSERT_EQ(*(*view)->Scan("r"), Closure(model, kNodes)) << "step " << step;
    }
  }
}

TEST(Digest, StableAndSensitive) {
  std::vector<Tuple> rows = {Tuple::OfInts({0, 1}), Tuple::OfInts({1, 2})};
  uint64_t h = DigestRows(kDigestSeed, "r", rows);
  EXPECT_EQ(h, DigestRows(kDigestSeed, "r", rows));
  // Pinned: a change here changes every recorded determinism digest.
  EXPECT_EQ(h, 0xf1543b5802d89763ULL) << std::hex << h;
  EXPECT_NE(h, DigestRows(kDigestSeed, "s", rows));
  EXPECT_NE(h, DigestRows(kDigestSeed, "r", {Tuple::OfInts({0, 1})}));
  std::vector<Tuple> as_double = {
      Tuple(std::vector<recnet::Value>{recnet::Value(int64_t{0}),
                                       recnet::Value(1.0)}),
      Tuple::OfInts({1, 2})};
  EXPECT_NE(h, DigestRows(kDigestSeed, "r", as_double));
}

// Converged view contents, and so their digest, do not depend on the shard
// count or on the session instance.
TEST(Digest, SameStreamSameDigestAcrossShards) {
  uint64_t digests[2] = {0, 0};
  for (int shards : {1, 2}) {
    recnet::SessionOptions so;
    so.num_nodes = 8;
    so.shards = shards;
    recnet::Session session(so);
    auto view = session.AddProgram(kClosure, {});
    ASSERT_TRUE(view.ok());
    Stream rng(11);
    for (int step = 0; step < 40; ++step) {
      Tuple e = Tuple::OfInts({static_cast<int64_t>(rng.Below(8)),
                               static_cast<int64_t>(rng.Below(8))});
      ASSERT_TRUE((rng.Below(3) ? session.Insert("e", e)
                                : session.Delete("e", e))
                      .ok());
      if (step % 5 == 4) ASSERT_TRUE(session.Apply().ok());
    }
    digests[shards - 1] = DigestRows(kDigestSeed, "r", *(*view)->Scan("r"));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace perfbench
