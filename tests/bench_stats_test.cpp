// Tests for the bench harness helpers (bench_common.hpp): the per-row host
// clock and the JSON dump's escaping.
#include <gtest/gtest.h>

#include <string>

#include "bench_common.hpp"
#include "profile/json.hpp"

namespace {

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

}  // namespace
