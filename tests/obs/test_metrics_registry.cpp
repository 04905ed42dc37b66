// MetricsRegistry unit tests: instrument semantics, handle stability, the
// JSON dump, and the RAII scope timer.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/percentile.hpp"
#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace knots::obs {
namespace {

TEST(Counter, AccumulatesIncrements) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, HoldsLatestValue) {
  Gauge g;
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(Histogram, TracksCountSumExtremaAndQuantiles) {
  Histogram h(64);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Percentiles come from the recent window (last 64 samples: 37..100).
  EXPECT_EQ(h.window_count(), 64u);
  EXPECT_GE(h.quantile(50), 37.0);
  EXPECT_LE(h.quantile(100), 100.0);
  EXPECT_EQ(h.quantile(100), 100.0);
}

TEST(Histogram, ExtremaOutliveTheWindow) {
  Histogram h(4);
  h.record(1000.0);  // Evicted from the window by the next four samples...
  for (int i = 0; i < 4; ++i) h.record(1.0);
  EXPECT_EQ(h.max(), 1000.0);  // ...but the running max remembers it.
  EXPECT_EQ(h.quantile(100), 1.0);
}

TEST(Histogram, QuantileIsExactOverTheLastWindow) {
  // Three window turnovers of coarse random values with many duplicates:
  // every quantile equals core::percentile of the last `window` samples,
  // bit for bit.
  for (const std::size_t window : {1, 2, 5, 64, 311}) {
    SCOPED_TRACE(window);
    Histogram h(window);
    EXPECT_EQ(h.quantile(50), 0.0);  // empty window
    Rng rng(window);
    std::vector<double> recorded;
    for (std::size_t i = 0; i < 3 * window; ++i) {
      const double x = static_cast<double>(rng.uniform_int(0, 20)) * 0.25;
      h.record(x);
      recorded.push_back(x);
    }
    const std::vector<double> last(
        recorded.end() - static_cast<std::ptrdiff_t>(window), recorded.end());
    EXPECT_EQ(h.window_count(), window);
    for (const double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
      EXPECT_EQ(h.quantile(p), percentile(last, p)) << "p" << p;
    }
  }
}

TEST(MetricsRegistry, FindOrCreateAndStableHandles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("sched.placements");
  c.inc(5);
  // Creating many more instruments must not invalidate the first handle.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
    reg.gauge("gauge." + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("sched.placements"), &c);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(reg.size(), 201u);
}

TEST(MetricsRegistry, FindReturnsNullForUnknown) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  reg.counter("a");
  EXPECT_NE(reg.find_counter("a"), nullptr);
  EXPECT_EQ(reg.find_gauge("a"), nullptr);  // Namespaces are per-type.
}

TEST(MetricsRegistry, JsonDumpIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.counter("a.count").inc(1);
  reg.gauge("cluster.pending_pods").set(7);
  reg.histogram("sched.on_schedule_ns").record(100.0);
  std::ostringstream os;
  reg.to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"cluster.pending_pods\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // std::map iteration ⇒ name-sorted: a.count before b.count.
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsRegistry, EmptyDumpIsStillValid) {
  MetricsRegistry reg;
  std::ostringstream os;
  reg.to_json(os);
  EXPECT_NE(os.str().find("\"counters\""), std::string::npos);
}

#ifndef KNOTS_TRACE_OFF
TEST(ScopeTimer, RecordsElapsedIntoHistogram) {
  Histogram h;
  {
    KNOTS_PROF_SCOPE(&h);
    // Any work at all; even an empty scope records a sample >= 0.
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0.0);
}
#endif

TEST(ScopeTimer, NullHistogramIsSafe) {
  {
    KNOTS_PROF_SCOPE(nullptr);
    KNOTS_PROF_SCOPE(static_cast<Histogram*>(nullptr));
  }
  SUCCEED();
}

}  // namespace
}  // namespace knots::obs
