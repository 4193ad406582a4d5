// Unit tests of the benchmark harness's own arithmetic: percentile
// selection, Zipf bounds, operation-stream determinism, answer parsing and
// the span-nesting check.
#include <gtest/gtest.h>

#include <map>

#include "harness.h"
#include "trace.h"

namespace e2e {
namespace {

TEST(Percentile, NearestRankOnKnownInputs) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7.0}, 99), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(GeometricMean({2, 8}), 4);
  EXPECT_DOUBLE_EQ(GeometricMean({0.5, 2, 27}), 3);
  EXPECT_EQ(GeometricMean({}), 0);
}

TEST(Percentile, TenBeyondSelection) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(0, 99), 0u);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(999), 90);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(99), 50);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
}

TEST(Reservoir, SamplesUniformlyAndMergesAtOneRate) {
  Reservoir busy(1000, 1), idle(1000, 2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) busy.Add({float(i), 0, OpClass::kGetGene});
  for (int i = 0; i < 500; ++i) idle.Add({float(i), 0, OpClass::kGetProtein});
  EXPECT_EQ(busy.seen(), 10000u);
  ASSERT_EQ(busy.items().size(), 1000u);
  for (const OpSample& s : busy.items()) sum += s.latency_us;
  EXPECT_NEAR(sum / 1000, 5000, 400);  // not just the first 1000 added
  std::map<OpClass, int> merged;
  for (const OpSample& s : MergeSamples({&busy, &idle}, 3)) ++merged[s.cls];
  EXPECT_EQ(merged[OpClass::kGetGene], 1000);  // rate 1000/10000 for both
  EXPECT_EQ(merged[OpClass::kGetProtein], 50);
}

TEST(Zipf, StaysInBoundsAndFavoursLowRanks) {
  for (uint64_t n : {1ull, 2ull, 10ull, 10000ull}) {
    Zipf zipf(n, 0.9);
    bdbms::Rng rng(n);
    std::map<uint64_t, int> counts;
    for (int i = 0; i < 20000; ++i) {
      const uint64_t r = zipf.Next(rng);
      ASSERT_LT(r, n);
      ++counts[r];
    }
    for (const auto& [rank, count] : counts) {
      EXPECT_LE(count, counts[0]) << "n=" << n << " rank=" << rank;
    }
  }
}

std::vector<std::string> Stream(const WorkloadSpec& spec, const Corpus& c,
                                uint64_t seed, int session) {
  OpStream stream(spec, c, seed, session, 0);
  std::vector<std::string> ops;
  for (int i = 0; i < 300; ++i) ops.push_back(DescribeOp(stream.Next()));
  return ops;
}

TEST(OpStream, SameSeedSameStreamOtherSeedOtherStream) {
  for (const WorkloadSpec& full : Workloads()) {
    const WorkloadSpec spec = Scaled(full, 20);
    const Corpus a = BuildCorpus(spec, 7);
    const Corpus b = BuildCorpus(spec, 7);
    const Corpus other = BuildCorpus(spec, 8);
    for (int session = 0; session < 4; ++session) {
      EXPECT_EQ(Stream(spec, a, 7, session), Stream(spec, b, 7, session))
          << spec.name;
      EXPECT_NE(Stream(spec, a, 7, session), Stream(spec, other, 8, session))
          << spec.name;
    }
    EXPECT_NE(Stream(spec, a, 7, 0), Stream(spec, a, 7, 1)) << spec.name;
    EXPECT_EQ(SetupScript(spec, a), SetupScript(spec, b)) << spec.name;
  }
}

TEST(OpStream, FollowsTheMix) {
  const WorkloadSpec spec = Scaled(*FindWorkload("curation_mix"), 20);
  const Corpus c = BuildCorpus(spec, 3);
  std::map<OpClass, int> lab, admin;
  OpStream lab_stream(spec, c, 3, 1, 0), admin_stream(spec, c, 3, 0, 0);
  for (int i = 0; i < 20000; ++i) {
    ++lab[lab_stream.Next().cls];
    ++admin[admin_stream.Next().cls];
  }
  // The deck deals the mix exactly in every 100 operations.
  EXPECT_EQ(lab[OpClass::kApprove], 0);
  EXPECT_EQ(lab[OpClass::kGetGeneAnnotated], 7000);
  EXPECT_EQ(lab[OpClass::kSubmitGene], 1400);
  // The administrator swaps half of its reads (55%) for reviews.
  EXPECT_EQ(admin[OpClass::kApprove], 5500);
  EXPECT_EQ(admin[OpClass::kAnnotate], 4000);
}

TEST(Answer, ParsesRenderedRowsAndAnnotations) {
  Answer a;
  ASSERT_TRUE(ParseAnswer(
      "GID | GSequence\nG000001 | ACGT [Curation:<A>x</A>] "
      "[_outdated:<Outdated>y</Outdated>]\nG000002 | TT\n",
      &a));
  ASSERT_EQ(a.columns, (std::vector<std::string>{"GID", "GSequence"}));
  ASSERT_EQ(a.rows.size(), 2u);
  EXPECT_EQ(a.rows[0][1].value, "ACGT");
  EXPECT_EQ(a.rows[0][1].annotations,
            (std::vector<std::string>{"Curation:<A>x</A>",
                                      "_outdated:<Outdated>y</Outdated>"}));
  EXPECT_TRUE(a.rows[1][1].annotations.empty());
  EXPECT_FALSE(ParseAnswer("A | B\nonly-one-cell\n", &a));
  EXPECT_EQ(PendingOpIds("op_id | type\n3 | UPDATE\n9 | INSERT\n"),
            (std::vector<uint64_t>{3, 9}));
}

TEST(Answer, PointReadCheckPinsTheRow) {
  const WorkloadSpec spec = Scaled(*FindWorkload("point_lookup"), 20);
  const Corpus c = BuildCorpus(spec, 1);
  OpStream stream(spec, c, 1, 0, 0);
  Op op = stream.Next();
  while (op.cls != OpClass::kGetGene) op = stream.Next();
  const GeneRow& g = c.genes[op.gene];
  const std::string header = "GID | GName | GSequence\n";
  EXPECT_EQ(CheckReply(spec, c, op, 0,
                       header + g.gid + " | " + g.name + " | " + g.seq + "\n"),
            "");
  EXPECT_NE(CheckReply(spec, c, op, 0, header), "");
  EXPECT_NE(CheckReply(spec, c, op, 0,
                       header + g.gid + " | " + g.name + " | A\n"),
            "");
}

TEST(Trace, NestingCheck) {
  const std::vector<Span> good = {{1, 2, 1, SpanKind::kExecute, 10, 40},
                                  {1, 3, 1, SpanKind::kExecute, 40, 90},
                                  {1, 1, 0, SpanKind::kOp, 0, 100},
                                  {2, 1, 0, SpanKind::kOp, 0, 5}};
  EXPECT_EQ(CheckNesting(good), "");
  std::vector<Span> overlap = good;  // children of 30 + 80 ns, parent 100 ns
  overlap[1].start_ns = 20;
  overlap[1].end_ns = 100;
  EXPECT_NE(CheckNesting(overlap), "");
  std::vector<Span> outside = good;
  outside[0].end_ns = 120;
  EXPECT_NE(CheckNesting(outside), "");
}

}  // namespace
}  // namespace e2e
