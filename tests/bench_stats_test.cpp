// Tests for the bench harness helpers (bench_common.hpp): exact
// nearest-rank percentile, the latency histogram that feeds the p50/p99
// rows of bench_serve, the per-row host clock, and the JSON dump's escaping.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "profile/json.hpp"

namespace {

using pvrbench::LatencyHistogram;
using pvrbench::percentile;

// Kept first in the file, so that when the whole binary runs in one process
// its register_sim is the process's first: the host clock mark must already
// be running before the first row reads the clock.
TEST(BenchHostClockTest, NoHostRowIsNegative) {
  pvrbench::register_sim("host/first", 1.0);
  pvrbench::register_sim("host/second", 2.0);
  ASSERT_GE(pvrbench::host_rows().size(), 2u);
  for (const pvrbench::HostRow& row : pvrbench::host_rows()) {
    EXPECT_GE(row.wall_ms, 0.0) << row.name;
  }
}

TEST(BenchJsonTest, ControlCharacterLabelsRoundTrip) {
  const std::string label = "escape/tab\tctrl\x01/\"quoted\"\\";
  pvrbench::bench_config_set("key\x01", "value\t");
  pvrbench::register_sim(label, 3.0, {{"count\t", 4.0}});
  const pvr::profile::JsonPtr doc =
      pvr::profile::parse_json(pvrbench::bench_json("bench\x01"));
  EXPECT_EQ(doc->string_at("bench"), "bench\x01");
  EXPECT_EQ(doc->at("config")->string_at("key\x01"), "value\t");
  bool found = false;
  for (const pvr::profile::JsonPtr& row : doc->at("rows")->as_array()) {
    if (row->string_at("name") != label) continue;
    found = true;
    EXPECT_EQ(row->number_at("seconds"), 3.0);
    EXPECT_EQ(row->number_at("count\t"), 4.0);
  }
  EXPECT_TRUE(found);
}

TEST(PercentileTest, EmptyAndSingleSampleGuards) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({}, 99.0), 0.0);
  // A single sample is every percentile of itself.
  EXPECT_EQ(percentile({3.5}, 0.0), 3.5);
  EXPECT_EQ(percentile({3.5}, 50.0), 3.5);
  EXPECT_EQ(percentile({3.5}, 100.0), 3.5);
}

TEST(PercentileTest, ExactNearestRankOnSortedSamples) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0,
                              6.0, 7.0, 8.0, 9.0, 10.0};
  // Nearest rank: ceil(p/100 * 10), 1-based.
  EXPECT_EQ(percentile(v, 10.0), 1.0);
  EXPECT_EQ(percentile(v, 50.0), 5.0);
  EXPECT_EQ(percentile(v, 51.0), 6.0);
  EXPECT_EQ(percentile(v, 99.0), 10.0);
  EXPECT_EQ(percentile(v, 100.0), 10.0);
  // Out-of-range percentiles clamp to the sample range.
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile(v, 200.0), 10.0);
  // The result is always an observed sample, never an interpolation.
  for (const double p : {12.5, 33.3, 66.7, 97.2}) {
    bool observed = false;
    for (const double s : v) observed = observed || percentile(v, p) == s;
    EXPECT_TRUE(observed) << "p" << p;
  }
}

TEST(PercentileTest, NearestRankMatchesBruteForce) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(double(i));
  for (int p = 1; p <= 100; ++p) {
    const std::int64_t rank =
        std::int64_t(std::ceil(double(p) / 100.0 * 101.0));
    EXPECT_EQ(percentile(v, double(p)), v[std::size_t(rank - 1)]) << p;
  }
}

TEST(LatencyHistogramTest, RecordsSortsAndAnswers) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p(99.0), 0.0);

  // Unsorted input; the histogram sorts internally (once).
  h.record(5.0);
  h.record(1.0);
  h.record(3.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.mean(), 3.0);
  EXPECT_EQ(h.max(), 5.0);
  EXPECT_EQ(h.p(50.0), 3.0);
  EXPECT_EQ(h.p(99.0), 5.0);

  // Recording after a percentile query re-sorts correctly.
  h.record(0.5);
  EXPECT_EQ(h.p(25.0), 0.5);
  EXPECT_EQ(h.p(100.0), 5.0);

  LatencyHistogram bulk;
  bulk.record_all({2.0, 1.0, 4.0, 3.0});
  EXPECT_EQ(bulk.count(), 4);
  EXPECT_EQ(bulk.p(50.0), 2.0);
  EXPECT_EQ(bulk.p(75.0), 3.0);
}

}  // namespace
