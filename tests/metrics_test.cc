#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace quasaq::obs {
namespace {

TEST(CounterTest, IncrementsAccumulate) {
  Counter counter;
  EXPECT_DOUBLE_EQ(counter.value(), 0.0);
  counter.Increment();
  counter.Increment(2.5);
  EXPECT_DOUBLE_EQ(counter.value(), 3.5);
}

TEST(GaugeTest, SetAddAndSample) {
  Gauge gauge;
  gauge.Set(4.0);
  gauge.Add(-1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Sample(10 * kSecond, 7.0);
  gauge.Sample(20 * kSecond, 3.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  const TimeSeries history = gauge.history();
  ASSERT_EQ(history.samples().size(), 2u);
  EXPECT_EQ(history.samples()[0].time, 10 * kSecond);
  EXPECT_DOUBLE_EQ(history.samples()[0].value, 7.0);
  EXPECT_DOUBLE_EQ(history.samples()[1].value, 3.0);
  EXPECT_EQ(gauge.history_dropped(), 0u);
}

TEST(HistogramTest, GeometricBoundsFromOptions) {
  Histogram histogram(HistogramOptions{2.0, 4.0, 3});
  const std::vector<double> expected = {2.0, 8.0, 32.0};
  ASSERT_EQ(histogram.bounds().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(histogram.bounds()[i], expected[i]);
  }
}

// The Prometheus `le` convention: bucket i counts values in
// (bounds[i-1], bounds[i]] — an observation exactly on a bound lands in
// that bound's bucket, one epsilon above it lands in the next.
TEST(HistogramTest, BucketBoundariesAreUpperInclusive) {
  Histogram histogram(HistogramOptions{1.0, 2.0, 3});  // bounds 1, 2, 4
  histogram.Observe(1.0);   // bucket 0 (<= 1)
  histogram.Observe(1.001); // bucket 1
  histogram.Observe(2.0);   // bucket 1 (<= 2)
  histogram.Observe(4.0);   // bucket 2 (<= 4)
  histogram.Observe(4.001); // overflow (+Inf) bucket
  histogram.Observe(0.0);   // bucket 0
  const Histogram::Snapshot snapshot = histogram.snapshot();
  ASSERT_EQ(snapshot.counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[1], 2u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.counts[3], 1u);
  EXPECT_EQ(snapshot.count, 6u);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 4.001);
  EXPECT_NEAR(snapshot.sum, 12.002, 1e-9);
}

TEST(MetricsRegistryTest, SameNameAndLabelsIsTheSamePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("quasaq_test_hits_total", "help",
                                   {{"site", "0"}});
  Counter* b = registry.GetCounter("quasaq_test_hits_total", "help",
                                   {{"site", "0"}});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.family_count(), 1u);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotSplitTheChild) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("quasaq_test_hits_total", "help",
                                   {{"site", "0"}, {"kind", "cpu"}});
  Counter* b = registry.GetCounter("quasaq_test_hits_total", "help",
                                   {{"kind", "cpu"}, {"site", "0"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistryTest, DistinctLabelsAreDistinctChildren) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("quasaq_test_hits_total", "help",
                                   {{"site", "0"}});
  Counter* b = registry.GetCounter("quasaq_test_hits_total", "help",
                                   {{"site", "1"}});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.family_count(), 1u);  // one family, two children
}

TEST(MetricsRegistryTest, TypeMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("quasaq_test_hits_total", "help"), nullptr);
  EXPECT_EQ(registry.GetGauge("quasaq_test_hits_total", "help"), nullptr);
  EXPECT_EQ(registry.GetHistogram("quasaq_test_hits_total", "help"),
            nullptr);
}

TEST(MetricsRegistryTest, HistogramBucketLayoutMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetHistogram("quasaq_test_wait_ms", "help",
                                  HistogramOptions{1.0, 2.0, 8}),
            nullptr);
  EXPECT_NE(registry.GetHistogram("quasaq_test_wait_ms", "help",
                                  HistogramOptions{1.0, 2.0, 8}),
            nullptr);
  EXPECT_EQ(registry.GetHistogram("quasaq_test_wait_ms", "help",
                                  HistogramOptions{1.0, 2.0, 9}),
            nullptr);
}

TEST(MetricsRegistryTest, MetricNamesAreSorted) {
  MetricsRegistry registry;
  registry.GetCounter("quasaq_b_events_total", "b");
  registry.GetGauge("quasaq_a_level_count", "a");
  const std::vector<std::string> names = registry.MetricNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "quasaq_a_level_count");
  EXPECT_EQ(names[1], "quasaq_b_events_total");
}

TEST(MetricsRegistryTest, PrometheusTextRendersAllSeries) {
  MetricsRegistry registry;
  registry.GetCounter("quasaq_test_hits_total", "Cache hits",
                      {{"site", "2"}})->Increment(5.0);
  registry.GetGauge("quasaq_test_fill_ratio", "Bucket fill")->Set(0.25);
  Histogram* histogram = registry.GetHistogram(
      "quasaq_test_wait_ms", "Waiting", HistogramOptions{1.0, 2.0, 2});
  histogram->Observe(0.5);
  histogram->Observe(3.0);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP quasaq_test_hits_total Cache hits"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE quasaq_test_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("quasaq_test_hits_total{site=\"2\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("quasaq_test_fill_ratio 0.25"), std::string::npos);
  // Cumulative histogram: le="2" already includes the 0.5 observation,
  // le="+Inf" equals the total count.
  EXPECT_NE(text.find("quasaq_test_wait_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("quasaq_test_wait_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("quasaq_test_wait_ms_count 2"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotMentionsEverySeries) {
  MetricsRegistry registry;
  registry.GetCounter("quasaq_test_hits_total", "Cache \"hits\"")
      ->Increment();
  Gauge* gauge = registry.GetGauge("quasaq_test_fill_ratio", "Fill");
  gauge->Sample(kSecond, 0.5);
  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"quasaq_test_hits_total\""), std::string::npos);
  EXPECT_NE(json.find("\"quasaq_test_fill_ratio\""), std::string::npos);
  // Help strings are escaped, histories serialized as [seconds, value].
  EXPECT_NE(json.find("Cache \\\"hits\\\""), std::string::npos);
  EXPECT_NE(json.find("[1, 0.5]"), std::string::npos);
}

// Exact bytes of both expositions for one registry of each metric type:
// series order, label order, number formatting and the gauge history
// (including a 0 sample) are all part of the format the bench sidecars
// and dashboards read.
TEST(MetricsRegistryTest, ExpositionMatchesGoldenBytes) {
  MetricsRegistry registry;
  registry
      .GetCounter("quasaq_test_hits_total", "Hits",
                  {{"site", "2"}, {"kind", "disk"}})
      ->Increment(5.0);
  registry
      .GetCounter("quasaq_test_hits_total", "Hits",
                  {{"site", "10"}, {"kind", "cpu"}})
      ->Increment(0.5);
  Gauge* fill = registry.GetGauge("quasaq_test_fill_ratio", "Fill");
  fill->Sample(SecondsToSimTime(1.0), 0.5);
  fill->Sample(SecondsToSimTime(2.0), 0.0);
  fill->Sample(SecondsToSimTime(3.5), 0.25);
  Histogram* wait = registry.GetHistogram("quasaq_test_wait_ms", "Waiting",
                                          HistogramOptions{1.0, 2.0, 2});
  wait->Observe(0.5);
  wait->Observe(3.0);
  wait->Observe(10.0);

  EXPECT_EQ(registry.PrometheusText(),
            "# HELP quasaq_test_fill_ratio Fill\n"
            "# TYPE quasaq_test_fill_ratio gauge\n"
            "quasaq_test_fill_ratio 0.25\n"
            "# HELP quasaq_test_hits_total Hits\n"
            "# TYPE quasaq_test_hits_total counter\n"
            "quasaq_test_hits_total{site=\"10\",kind=\"cpu\"} 0.5\n"
            "quasaq_test_hits_total{site=\"2\",kind=\"disk\"} 5\n"
            "# HELP quasaq_test_wait_ms Waiting\n"
            "# TYPE quasaq_test_wait_ms histogram\n"
            "quasaq_test_wait_ms_bucket{le=\"1\"} 1\n"
            "quasaq_test_wait_ms_bucket{le=\"2\"} 1\n"
            "quasaq_test_wait_ms_bucket{le=\"+Inf\"} 3\n"
            "quasaq_test_wait_ms_sum 13.5\n"
            "quasaq_test_wait_ms_count 3\n");
  EXPECT_EQ(
      registry.JsonSnapshot(),
      "{\n"
      "  \"metrics\": [\n"
      "    {\"name\": \"quasaq_test_fill_ratio\", \"type\": \"gauge\", "
      "\"help\": \"Fill\", \"series\": [\n"
      "      {\"labels\": {}, \"value\": 0.25, \"history\": "
      "[[1, 0.5], [2, 0], [3.5, 0.25]]}\n"
      "    ]},\n"
      "    {\"name\": \"quasaq_test_hits_total\", \"type\": \"counter\", "
      "\"help\": \"Hits\", \"series\": [\n"
      "      {\"labels\": {\"site\": \"10\", \"kind\": \"cpu\"}, "
      "\"value\": 0.5},\n"
      "      {\"labels\": {\"site\": \"2\", \"kind\": \"disk\"}, "
      "\"value\": 5}\n"
      "    ]},\n"
      "    {\"name\": \"quasaq_test_wait_ms\", \"type\": \"histogram\", "
      "\"help\": \"Waiting\", \"series\": [\n"
      "      {\"labels\": {}, \"count\": 3, \"sum\": 13.5, \"min\": 0.5, "
      "\"max\": 10, \"buckets\": [{\"le\": 1, \"count\": 1}, "
      "{\"le\": 2, \"count\": 0}, {\"le\": \"+Inf\", \"count\": 2}]}\n"
      "    ]}\n"
      "  ]\n"
      "}\n");
}

TEST(JsonEscapeStringTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonEscapeString("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscapeString("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscapeString(std::string_view("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace quasaq::obs
