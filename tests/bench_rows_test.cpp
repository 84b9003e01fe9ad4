#include "bench/common.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

// The result printer every bench harness shares: the exact row line, JSON
// escaping, null for non-finite values, full-precision values, the stamp's
// keys, and the knob values the stamp records.

namespace gw2v::bench {
namespace {

TEST(BenchRows, FixedRowPrintsExactLine) {
  testing::internal::CaptureStdout();
  {
    Rows rows("fig8_strong_scaling");
    rows.add(config({{"dataset", "news"}, {"hosts", 4u}, {"skew", 0.1}}), "modelled_s", "s",
             1.5);
  }
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out, stampLine("fig8_strong_scaling") + "\n" +
                     "row: {\"bench\": \"fig8_strong_scaling\", "
                     "\"config\": \"dataset=news,hosts=4,skew=0.1\", "
                     "\"metric\": \"modelled_s\", \"unit\": \"s\", \"value\": 1.5}\n");
}

TEST(BenchRows, EscapesQuotesAndBackslashes) {
  const std::string line = rowLine("b", "k=\"v\"", "a\\b", "u", 0.0);
  EXPECT_NE(line.find("\"config\": \"k=\\\"v\\\"\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"metric\": \"a\\\\b\""), std::string::npos) << line;
  EXPECT_EQ(jsonString("tab\there"), "\"tab\\u0009here\"");
}

TEST(BenchRows, NonFiniteValuesPrintAsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {std::nan(""), inf, -inf}) {
    const std::string line = rowLine("b", "c", "m", "u", v);
    EXPECT_EQ(line.substr(line.find("\"value\"")), "\"value\": null}") << line;
  }
}

TEST(BenchRows, ValueRoundTripsAtFullPrecision) {
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, -2.5e-310,
                         std::numeric_limits<double>::max()}) {
    const std::string line = rowLine("b", "c", "m", "u", v);
    const std::size_t at = line.find("\"value\": ") + 9;
    EXPECT_EQ(std::strtod(line.c_str() + at, nullptr), v) << line;
  }
}

TEST(BenchRows, StampHasItsKeys) {
  const std::string line = stampLine("table1_datasets");
  EXPECT_EQ(line.rfind("stamp: {\"bench\": \"table1_datasets\", ", 0), 0u) << line;
  for (const char* key : {"\"nproc\": ", "\"simd_tier\": \"", "\"build_type\": \"",
                          "\"compiler\": \"", "\"knobs\": {"})
    EXPECT_NE(line.find(key), std::string::npos) << key;
}

TEST(BenchRows, StampRecordsTheKnobValuesUsed) {
  knobsRead().clear();
  ::setenv("GW2V_EPOCHS", "3", 1);
  ::setenv("GW2V_SYNC_CODEC", ",", 1);
  ::unsetenv("GW2V_SCALE");
  EXPECT_EQ(envUnsigned("GW2V_EPOCHS", 1), 3u);
  EXPECT_EQ(envDouble("GW2V_SCALE", 0.25), 0.25);
  EXPECT_EQ(envCodecs().size(), 1u);
  const std::string line = stampLine("b");
  EXPECT_NE(line.find("\"knobs\": {\"GW2V_EPOCHS\": \"3\", \"GW2V_SCALE\": \"0.25\", "
                      "\"GW2V_SYNC_CODEC\": \"fp32\"}}"),
            std::string::npos)
      << line;
  ::unsetenv("GW2V_EPOCHS");
  ::unsetenv("GW2V_SYNC_CODEC");
  knobsRead().clear();
}

}  // namespace
}  // namespace gw2v::bench
