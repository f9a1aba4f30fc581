// The observability substrate: trace recorder ring semantics, sinks, causal
// reconstruction, and the metrics registry with its two exporters.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace miro::obs {
namespace {

TraceEvent event_at(Time t, EventType type, std::uint64_t negotiation = 0) {
  TraceEvent event;
  event.time = t;
  event.type = type;
  event.actor = 1;
  event.negotiation = negotiation;
  return event;
}

TEST(TraceEventType, EveryTypeHasADistinctExporterName) {
  // The exporters key on these names; two types sharing one, or a type
  // falling through to a placeholder, would merge unrelated tracks.
  std::set<std::string> names;
  const auto last = static_cast<int>(EventType::RibBestChanged);
  for (int i = 0; i <= last; ++i) {
    const std::string name = to_string(static_cast<EventType>(i));
    EXPECT_FALSE(name.empty()) << "type " << i;
    EXPECT_EQ(name.find_first_not_of("abcdefghijklmnopqrstuvwxyz_"),
              std::string::npos)
        << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(last) + 1);
}

TEST(TraceRecorder, KeepsEventsInOrder) {
  TraceRecorder recorder(16);
  recorder.record(event_at(5, EventType::NegotiationRequested, 1));
  recorder.record(event_at(7, EventType::OffersReceived, 1));
  recorder.record(event_at(9, EventType::AcceptSent, 1));
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, EventType::NegotiationRequested);
  EXPECT_EQ(events[1].type, EventType::OffersReceived);
  EXPECT_EQ(events[2].type, EventType::AcceptSent);
  EXPECT_EQ(recorder.events_recorded(), 3u);
}

TEST(TraceRecorder, RingOverwritesOldestButCountsEverything) {
  TraceRecorder recorder(4);
  for (Time t = 0; t < 10; ++t)
    recorder.record(event_at(t, EventType::BusSend));
  EXPECT_EQ(recorder.events_recorded(), 10u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);  // capacity bound the ring
  EXPECT_EQ(events.front().time, 6u);
  EXPECT_EQ(events.back().time, 9u);
}

TEST(TraceRecorder, SinksSeeEveryEventDespiteRingWrap) {
  TraceRecorder recorder(2);
  MemorySink memory;
  CountingSink counting;
  recorder.add_sink(&memory);
  recorder.add_sink(&counting);
  for (Time t = 0; t < 8; ++t)
    recorder.record(event_at(t, EventType::BusDeliver));
  EXPECT_EQ(memory.events().size(), 8u);
  EXPECT_EQ(counting.count(), 8u);
  // The sink preserved arrival order even though the ring wrapped 3 times.
  for (Time t = 0; t < 8; ++t) EXPECT_EQ(memory.events()[t].time, t);
}

TEST(TraceRecorder, DroppedEventAccountingAtAndPastCapacity) {
  TraceRecorder recorder(4);
  EXPECT_EQ(recorder.events_dropped(), 0u);
  for (Time t = 0; t < 4; ++t)
    recorder.record(event_at(t, EventType::BusSend));
  // Exactly at capacity: the ring is full but nothing fell out yet.
  EXPECT_EQ(recorder.events_recorded(), 4u);
  EXPECT_EQ(recorder.events_dropped(), 0u);
  EXPECT_EQ(recorder.snapshot().size(), 4u);

  recorder.record(event_at(4, EventType::BusSend));
  EXPECT_EQ(recorder.events_dropped(), 1u);  // the t=0 event fell out
  EXPECT_EQ(recorder.snapshot().front().time, 1u);

  for (Time t = 5; t < 11; ++t)
    recorder.record(event_at(t, EventType::BusSend));
  EXPECT_EQ(recorder.events_recorded(), 11u);
  EXPECT_EQ(recorder.events_dropped(), 7u);  // recorded minus live
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].time, 7u + i);  // oldest-to-newest across the wrap
}

TEST(TraceRecorder, FiltersByNegotiationTunnelAndType) {
  TraceRecorder recorder(16);
  recorder.record(event_at(1, EventType::NegotiationRequested, 10));
  recorder.record(event_at(2, EventType::NegotiationRequested, 11));
  recorder.record(event_at(3, EventType::Retransmit, 10));
  TraceEvent tunnel_event = event_at(4, EventType::TunnelExpired);
  tunnel_event.tunnel = 77;
  recorder.record(tunnel_event);
  EXPECT_EQ(recorder.for_negotiation(10).size(), 2u);
  EXPECT_EQ(recorder.for_negotiation(11).size(), 1u);
  EXPECT_EQ(recorder.for_tunnel(77).size(), 1u);
  EXPECT_EQ(recorder.count(EventType::NegotiationRequested), 2u);
  EXPECT_EQ(recorder.count(EventType::Retransmit, /*actor=*/1), 1u);
  EXPECT_EQ(recorder.count(EventType::Retransmit, /*actor=*/9), 0u);
}

TEST(TraceRecorder, JsonlSinkWritesOneParseableLinePerEvent) {
  const std::string path =
      ::testing::TempDir() + "obs_test_trace.jsonl";
  {
    TraceRecorder recorder(8);
    JsonlFileSink sink(path);
    recorder.add_sink(&sink);
    TraceEvent event = event_at(42, EventType::BusDrop, 3);
    event.peer = 9;
    event.detail = "faults";
    recorder.record(event);
    recorder.record(event_at(43, EventType::BusSend));
    EXPECT_EQ(sink.lines_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "{\"t\":42,\"type\":\"bus_drop\",\"actor\":1,\"peer\":9,"
            "\"negotiation\":3,\"detail\":\"faults\"}");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"t\":43,\"type\":\"bus_send\",\"actor\":1}");
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(JsonlFileSink, UnwritablePathThrows) {
  EXPECT_THROW(JsonlFileSink("/nonexistent-dir/obs_test/trace.jsonl"), Error);
}

TEST(JsonlFileSink, SurfacesWriteFailuresStickily) {
  // /dev/full accepts the open but fails every flush with ENOSPC — the
  // canonical full-disk simulation. Skip where the device is absent.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  JsonlFileSink sink("/dev/full");
  TraceEvent event = event_at(1, EventType::BusSend);
  // Push enough lines to overflow the stream buffer and force real writes;
  // once the stream fails it must stay failed and count every further loss.
  for (int i = 0; i < 100000 && sink.ok(); ++i) sink.on_event(event);
  ASSERT_FALSE(sink.ok());
  const std::uint64_t failures = sink.write_failures();
  EXPECT_GT(failures, 0u);
  sink.on_event(event);
  EXPECT_EQ(sink.write_failures(), failures + 1);  // sticky failure
  EXPECT_FALSE(sink.flush());
}

TEST(JsonlFileSink, HealthyStreamReportsOk) {
  const std::string path = ::testing::TempDir() + "obs_test_ok.jsonl";
  JsonlFileSink sink(path);
  sink.on_event(event_at(1, EventType::BusSend));
  EXPECT_TRUE(sink.ok());
  EXPECT_TRUE(sink.flush());
  EXPECT_EQ(sink.write_failures(), 0u);
  std::remove(path.c_str());
}

TEST(Reconstruction, OrdersPhasesAndJoinsTunnelLifetime) {
  TraceRecorder recorder(32);
  recorder.record(event_at(10, EventType::NegotiationRequested, 5));
  recorder.record(event_at(50, EventType::Retransmit, 5));
  recorder.record(event_at(90, EventType::Retransmit, 5));
  recorder.record(event_at(120, EventType::OffersReceived, 5));
  recorder.record(event_at(130, EventType::AcceptSent, 5));
  TraceEvent established = event_at(160, EventType::NegotiationEstablished, 5);
  established.tunnel = 3;
  recorder.record(established);
  // Tunnel-scoped follow-up: carries only the tunnel id.
  TraceEvent expired = event_at(900, EventType::TunnelExpired);
  expired.tunnel = 3;
  recorder.record(expired);
  // Noise from a different negotiation must not leak in.
  recorder.record(event_at(15, EventType::NegotiationRequested, 6));

  const NegotiationTimeline timeline = reconstruct_negotiation(recorder, 5);
  EXPECT_EQ(timeline.negotiation_id, 5u);
  EXPECT_EQ(timeline.tunnel_id, 3u);
  EXPECT_TRUE(timeline.established);
  EXPECT_FALSE(timeline.failed);
  EXPECT_EQ(timeline.retransmits, 2u);
  ASSERT_EQ(timeline.events.size(), 7u);
  EXPECT_EQ(timeline.events.front().type, EventType::NegotiationRequested);
  EXPECT_EQ(timeline.events.back().type, EventType::TunnelExpired);
  EXPECT_EQ(timeline.summary(),
            "negotiation_requested → retransmit ×2 → offers_received → "
            "accept_sent → established → tunnel_expired");
}

TEST(Reconstruction, FailedNegotiationIsMarked) {
  TraceRecorder recorder(8);
  recorder.record(event_at(10, EventType::NegotiationRequested, 9));
  TraceEvent failed = event_at(2010, EventType::NegotiationFailed, 9);
  failed.detail = "timeout";
  recorder.record(failed);
  const NegotiationTimeline timeline = reconstruct_negotiation(recorder, 9);
  EXPECT_TRUE(timeline.failed);
  EXPECT_FALSE(timeline.established);
  EXPECT_EQ(timeline.summary(), "negotiation_requested → failed");
}

// ------------------------------------------------------------------ metrics

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.counter("bus.sent").inc(3);
  registry.counter("bus.sent").inc();
  EXPECT_EQ(registry.counter("bus.sent").value(), 4u);

  registry.gauge("tunnels.active").set(7);
  EXPECT_DOUBLE_EQ(registry.gauge("tunnels.active").value(), 7.0);

  int live = 0;
  registry.gauge_source("live.value", [&live] { return live * 2.0; });
  live = 21;
  EXPECT_DOUBLE_EQ(registry.gauge("live.value").value(), 42.0);

  Histogram& h = registry.histogram("rtt");
  h.observe(0.5);   // underflow bucket
  h.observe(1.0);   // bucket [1,2)
  h.observe(3.0);   // bucket [2,4)
  h.observe(3.5);   // bucket [2,4)
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.5);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);

  EXPECT_TRUE(registry.contains("bus.sent"));
  EXPECT_FALSE(registry.contains("absent"));
  EXPECT_EQ(registry.size(), 4u);
}

TEST(Histogram, QuantileOfEmptyAndSingleSample) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(50), 0.0);

  Histogram one;
  one.observe(3.0);  // bucket [2,4): the single-sample midpoint is exact
  EXPECT_DOUBLE_EQ(one.p50(), 3.0);
  EXPECT_DOUBLE_EQ(one.p90(), 3.0);
  EXPECT_DOUBLE_EQ(one.p99(), 3.0);

  // A sample away from its bucket midpoint is still recovered exactly via
  // the [min, max] clamp.
  Histogram skewed;
  skewed.observe(2.1);
  EXPECT_DOUBLE_EQ(skewed.p50(), 2.1);
}

TEST(Histogram, QuantilesAreMonotonicAndBounded) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.quantile(0), 1.0);     // q <= 0 -> min
  EXPECT_DOUBLE_EQ(h.quantile(-5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(100), 100.0);  // q >= 100 -> max
  EXPECT_DOUBLE_EQ(h.quantile(250), 100.0);
  double previous = 0;
  for (double q = 1; q <= 100; q += 1) {
    const double value = h.quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    EXPECT_GE(value, h.min());
    EXPECT_LE(value, h.max());
    previous = value;
  }
  // The log2 buckets bound the error to one bucket width: p50 of 1..100
  // must land inside [32, 64), the bucket holding rank 50.
  EXPECT_GE(h.p50(), 32.0);
  EXPECT_LT(h.p50(), 64.0);
  EXPECT_GE(h.p90(), 64.0);
}

TEST(Histogram, UnderflowRanksCollapseToMin) {
  Histogram h;
  h.observe(0.25);
  h.observe(0.5);
  h.observe(0.75);
  h.observe(8.0);
  // Ranks 1..3 live in the underflow bucket (samples < 1) -> min.
  EXPECT_DOUBLE_EQ(h.quantile(25), 0.25);
  EXPECT_DOUBLE_EQ(h.quantile(75), 0.25);
  EXPECT_DOUBLE_EQ(h.quantile(99), 8.0);
}

TEST(Histogram, ExportersIncludeQuantiles) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat");
  h.observe(3.0);
  std::ostringstream json_out;
  registry.write_json(json_out);
  EXPECT_NE(json_out.str().find("\"p50\":3"), std::string::npos);
  EXPECT_NE(json_out.str().find("\"p99\":3"), std::string::npos);
  std::ostringstream text_out;
  registry.write_text(text_out);
  EXPECT_NE(text_out.str().find("p50="), std::string::npos);
  EXPECT_NE(text_out.str().find("p90="), std::string::npos);
}

TEST(MetricsRegistry, NameCannotRebindToAnotherKind) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), Error);
  EXPECT_THROW(registry.histogram("x"), Error);
  registry.gauge("y");
  EXPECT_THROW(registry.counter("y"), Error);
}

TEST(MetricsRegistry, JsonSnapshotIsDeterministicAndComplete) {
  MetricsRegistry registry;
  registry.counter("b.count").set(2);
  registry.counter("a.count").set(1);
  registry.gauge("g").set(1.5);
  registry.histogram("h").observe(2.0);
  std::ostringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  // Sorted counters, then gauges, then histograms.
  EXPECT_EQ(json.find("\"a.count\":1"), json.find("\"counters\"") + 12);
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"g\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"h\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1]"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsRegistry, GoldenCombinedTextAndJsonExport) {
  // Golden snapshot of both exporters over one registry mixing all three
  // kinds with interleaving names. Pins down (a) the text exporter's single
  // merged table: every kind in ONE section, rows sorted by name so a
  // histogram lands between the gauges and counters it belongs with, with
  // the p50/p90/p99 detail inline; (b) the JSON schema with per-kind
  // sections and full quantile rows. Any formatting change must be a
  // deliberate golden update.
  MetricsRegistry registry;
  registry.counter("bgp.updates").set(12);
  registry.gauge("bgp.rib_bytes").set(4096);
  registry.histogram("bgp.convergence").observe(3.0);
  registry.histogram("bgp.convergence").observe(40.0);
  registry.counter("memory.rss_samples").set(2);
  registry.gauge("memory.tracked_bytes").set(6144);

  std::ostringstream text;
  registry.write_text(text);
  const std::string golden_text =
      "| metric               | kind      | value   | detail              "
      "                                       |\n"
      "|----------------------|-----------|---------|---------------------"
      "---------------------------------------|\n"
      "| bgp.convergence      | histogram | 2       | min=3.00 mean=21.50 "
      "p50=3.00 p90=40.00 p99=40.00 max=40.00 |\n"
      "| bgp.rib_bytes        | gauge     | 4096.00 |                     "
      "                                       |\n"
      "| bgp.updates          | counter   | 12      |                     "
      "                                       |\n"
      "| memory.rss_samples   | counter   | 2       |                     "
      "                                       |\n"
      "| memory.tracked_bytes | gauge     | 6144.00 |                     "
      "                                       |\n";
  EXPECT_EQ(text.str(), golden_text);

  std::ostringstream json;
  registry.write_json(json);
  const std::string golden_json =
      R"({"counters":{"bgp.updates":12,"memory.rss_samples":2},)"
      R"("gauges":{"bgp.rib_bytes":4096,"memory.tracked_bytes":6144},)"
      R"("histograms":{"bgp.convergence":{"count":2,"sum":43,"min":3,)"
      R"("max":40,"p50":3,"p90":40,"p99":40,"underflow":0,)"
      R"("buckets":[0,1,0,0,0,1]}}})";
  EXPECT_EQ(json.str(), golden_json);
}

TEST(MetricsRegistry, TextTableListsEveryMetric) {
  MetricsRegistry registry;
  registry.counter("negotiations").set(30);
  registry.gauge("tunnels").set(4);
  registry.histogram("latency").observe(16.0);
  std::ostringstream out;
  registry.write_text(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("negotiations"), std::string::npos);
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("30"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
}

}  // namespace
}  // namespace miro::obs
