// Memory observability layer: counters, the counting allocator's propagation
// corner cases, nested scoped accounts, registry export, the null-registry
// behaviour-neutrality contract, and the byte-row regression gate.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/memtrack.hpp"
#include "eval/avoid_as.hpp"
#include "obs/memstats.hpp"
#include "obs/metrics.hpp"
#include "obs/regression.hpp"

namespace {

using namespace miro;
using obs::MemoryRegistry;
using obs::ScopedAccount;

TEST(MemCounters, TracksPeakAndSaturatesOnUnderflow) {
  MemCounters c;
  c.add(100);
  c.add(50);
  EXPECT_EQ(c.current, 150u);
  EXPECT_EQ(c.peak, 150u);
  c.sub(120);
  EXPECT_EQ(c.current, 30u);
  EXPECT_EQ(c.peak, 150u);
  // A mis-paired release saturates at zero instead of wrapping.
  c.sub(1000);
  EXPECT_EQ(c.current, 0u);
  EXPECT_EQ(c.allocations, 2u);
  EXPECT_EQ(c.deallocations, 2u);
  c.set_current(40);
  EXPECT_EQ(c.current, 40u);
  EXPECT_EQ(c.peak, 150u);
  c.set_current(400);
  EXPECT_EQ(c.peak, 400u);
}

TEST(CountingAllocator, ChargesVectorStorage) {
  MemCounters c;
  {
    std::vector<int, CountingAllocator<int>> v{CountingAllocator<int>(&c)};
    v.reserve(64);
    EXPECT_EQ(c.current, 64 * sizeof(int));
    EXPECT_EQ(c.allocations, 1u);
  }
  EXPECT_EQ(c.current, 0u);
  EXPECT_EQ(c.peak, 64 * sizeof(int));
  EXPECT_EQ(c.deallocations, 1u);
}

TEST(CountingAllocator, RebindChargesNodeAllocationsToSameAccount) {
  // An unordered_map rebinds the pair allocator to its internal node and
  // bucket-array types; all of them must keep feeding the same counters.
  MemCounters c;
  using Alloc = CountingAllocator<std::pair<const int, int>>;
  {
    std::unordered_map<int, int, std::hash<int>, std::equal_to<int>, Alloc>
        m{Alloc(&c)};
    for (int i = 0; i < 100; ++i) m.emplace(i, i * i);
    EXPECT_EQ(m.get_allocator().counters(), &c);
    // 100 nodes + at least one bucket array.
    EXPECT_GE(c.allocations, 101u);
    EXPECT_GT(c.current, 100 * sizeof(std::pair<const int, int>));
  }
  EXPECT_EQ(c.current, 0u) << "every rebound deallocate must credit back";
  EXPECT_EQ(c.allocations, c.deallocations);
}

TEST(CountingAllocator, PropagatesOnCopyAssignMoveAssignAndSwap) {
  MemCounters a, b;
  using Vec = std::vector<int, CountingAllocator<int>>;

  // Copy-assign: the destination adopts the source's account (POCCA), so
  // the copied storage lands in `a`, and the destination's old storage is
  // credited back to `b`.
  {
    Vec src{CountingAllocator<int>(&a)};
    src.assign(32, 7);
    Vec dst{CountingAllocator<int>(&b)};
    dst.assign(8, 1);
    EXPECT_GT(b.current, 0u);
    dst = src;
    EXPECT_EQ(dst.get_allocator().counters(), &a);
    EXPECT_EQ(b.current, 0u);
    EXPECT_EQ(a.current, vector_bytes(src) + vector_bytes(dst));
  }
  EXPECT_EQ(a.current, 0u);

  // Move-assign: storage (and its account) transfers wholesale (POCMA);
  // nothing is left charged to the destination's old account.
  {
    Vec src{CountingAllocator<int>(&a)};
    src.assign(32, 7);
    const std::uint64_t src_bytes = vector_bytes(src);
    Vec dst{CountingAllocator<int>(&b)};
    dst.assign(8, 1);
    dst = std::move(src);
    EXPECT_EQ(dst.get_allocator().counters(), &a);
    EXPECT_EQ(a.current, src_bytes);
    EXPECT_EQ(b.current, 0u);
  }
  EXPECT_EQ(a.current, 0u);

  // Swap: allocators swap with the storage (POCS), so each account keeps
  // tracking the buffer it originally charged.
  {
    Vec va{CountingAllocator<int>(&a)};
    va.assign(16, 1);
    Vec vb{CountingAllocator<int>(&b)};
    vb.assign(64, 2);
    const std::uint64_t bytes_a = a.current, bytes_b = b.current;
    using std::swap;
    swap(va, vb);
    EXPECT_EQ(va.get_allocator().counters(), &b);
    EXPECT_EQ(vb.get_allocator().counters(), &a);
    EXPECT_EQ(a.current, bytes_a);
    EXPECT_EQ(b.current, bytes_b);
  }
  EXPECT_EQ(a.current, 0u);
  EXPECT_EQ(b.current, 0u);
}

TEST(CountingAllocator, CopyConstructionKeepsTheAccount) {
  // select_on_container_copy_construction returns *this: a copied
  // container's bytes belong to the same subsystem as the original.
  MemCounters c;
  using Vec = std::vector<int, CountingAllocator<int>>;
  Vec original{CountingAllocator<int>(&c)};
  original.assign(32, 7);
  Vec copy(original);
  EXPECT_EQ(copy.get_allocator().counters(), &c);
  EXPECT_EQ(c.current, vector_bytes(original) + vector_bytes(copy));
}

TEST(CountingAllocator, EqualityComparesTheAccountPointer) {
  MemCounters a, b;
  CountingAllocator<int> ia(&a), ia2(&a), ib(&b), inull;
  EXPECT_TRUE(ia == ia2);
  EXPECT_TRUE(ia != ib);
  EXPECT_TRUE(inull == CountingAllocator<double>());
  // Cross-type comparison via the rebind converting constructor.
  CountingAllocator<double> da(ia);
  EXPECT_TRUE(ia == da);
}

TEST(ScopedAccountTest, NestedScopesSumIntoThePeak) {
  MemoryRegistry registry;
  {
    ScopedAccount outer(&registry, "eval/phase", 100);
    EXPECT_EQ(registry.account("eval/phase").current, 100u);
    {
      ScopedAccount inner(&registry, "eval/phase", 50);
      inner.charge(25);
      EXPECT_EQ(registry.account("eval/phase").current, 175u);
    }
    EXPECT_EQ(registry.account("eval/phase").current, 100u);
    outer.charge(10);
  }
  const MemCounters& c = registry.account("eval/phase");
  EXPECT_EQ(c.current, 0u);
  EXPECT_EQ(c.peak, 175u) << "peak must capture the deepest nesting";
}

TEST(ScopedAccountTest, NullRegistryIsANoOp) {
  ScopedAccount scope(nullptr, "anything", 1 << 20);
  scope.charge(1 << 20);  // must not crash or allocate
}

TEST(MemoryRegistryTest, TextTableAndMetricsExport) {
  MemoryRegistry registry;
  registry.account("topology/graph").set_current(4096);
  registry.account("bgp/rib").add(2048);
  EXPECT_EQ(registry.tracked_bytes(), 6144u);

  std::ostringstream text;
  registry.write_text(text);
  EXPECT_NE(text.str().find("topology/graph"), std::string::npos);
  EXPECT_NE(text.str().find("bgp/rib"), std::string::npos);
  EXPECT_NE(text.str().find("[tracked total]"), std::string::npos);
  EXPECT_NE(text.str().find("6144"), std::string::npos);

  obs::MetricsRegistry metrics;
  registry.export_metrics(metrics);
  EXPECT_EQ(metrics.gauge("memory.topology/graph.bytes").value(), 4096);
  EXPECT_EQ(metrics.gauge("memory.bgp/rib.bytes").value(), 2048);
  EXPECT_EQ(metrics.gauge("memory.tracked_bytes").value(), 6144);

  registry.reset();
  EXPECT_EQ(registry.tracked_bytes(), 0u);
  EXPECT_TRUE(registry.accounts().empty());
}

TEST(MemoryRegistryTest, AttachmentIsPerThread) {
  // set_memory() fills the calling thread's slot only: another thread sees
  // no registry until it attaches its own.
  MemoryRegistry registry;
  obs::set_memory(&registry);
  EXPECT_EQ(obs::memory(), &registry);
  MemoryRegistry* seen_by_other = &registry;
  MemoryRegistry other;
  MemoryRegistry* attached_by_other = nullptr;
  std::thread([&] {
    seen_by_other = obs::memory();
    obs::set_memory(&other);
    attached_by_other = obs::memory();
  }).join();
  EXPECT_EQ(seen_by_other, nullptr);
  EXPECT_EQ(attached_by_other, &other);
  EXPECT_EQ(obs::memory(), &registry);
  obs::set_memory(nullptr);
  EXPECT_EQ(obs::memory(), nullptr);
}

TEST(MemoryRegistryTest, RssSamplerReadsTheProcess) {
#ifdef __linux__
  MemoryRegistry registry;
  registry.sample_rss();
  EXPECT_EQ(registry.rss_samples(), 1u);
  EXPECT_GT(registry.rss_bytes(), 0u);
  EXPECT_GE(registry.rss_peak_bytes(), registry.rss_bytes());
#else
  GTEST_SKIP() << "RSS sources are platform-specific";
#endif
}

// The acceptance contract: attaching a MemoryRegistry must not perturb any
// simulation output. Run the same avoid-as evaluation accounted and
// unaccounted and require bit-identical results.
TEST(MemoryRegistryTest, NullRegistryIsBehaviourNeutral) {
  eval::EvalConfig config;
  config.profile = "gao2005";
  config.scale = 0.12;
  config.destination_samples = 6;
  config.sources_per_destination = 4;

  const eval::ExperimentPlan bare_plan(config);
  const auto bare = eval::run_avoid_as(bare_plan);

  MemoryRegistry registry;
  obs::set_memory(&registry);
  const eval::ExperimentPlan tracked_plan(config);
  const auto tracked = eval::run_avoid_as(tracked_plan);
  obs::set_memory(nullptr);

  // Accounts were actually fed while attached...
  EXPECT_GT(registry.account("topology/graph").current, 0u);
  EXPECT_GT(registry.account("eval/trees").current, 0u);
  // ...and every output is bit-identical to the unaccounted run.
  EXPECT_EQ(bare.single_rate, tracked.single_rate);
  EXPECT_EQ(bare.source_rate, tracked.source_rate);
  for (int p = 0; p < 3; ++p)
    EXPECT_EQ(bare.multi_rate[p], tracked.multi_rate[p]);

  // The walk itself is deterministic: identical plans report identical
  // footprints (this is what licenses byte rows in the bench gate).
  EXPECT_EQ(bare_plan.graph().memory_bytes(),
            tracked_plan.graph().memory_bytes());
  EXPECT_EQ(bare_plan.trees_memory_bytes(), tracked_plan.trees_memory_bytes());
}

// ---------------------------------------------------------------------------
// Byte rows in the regression gate.

JsonValue memory_suite_doc(double graph_bytes, double bytes_per_route,
                           double elapsed_ms = 100) {
  std::ostringstream text;
  text << R"({"suite":"miro-bench","schema":1,"config":{},"benches":{)"
       << R"("bench_x":{"config":{},"results":[)"
       << R"({"name":"gao2005.graph_bytes","value":)" << graph_bytes
       << R"(,"unit":"bytes"},)"
       << R"({"name":"gao2005.bytes_per_route","value":)" << bytes_per_route
       << R"(,"unit":"bytes/route"},)"
       << R"({"name":"gao2005.elapsed","value":)" << elapsed_ms
       << R"(,"unit":"ms"}]}}})";
  return JsonValue::parse(text.str());
}

TEST(MemoryRegressionGate, UnitClassification) {
  EXPECT_TRUE(obs::is_memory_unit("bytes"));
  EXPECT_TRUE(obs::is_memory_unit("bytes/route"));
  EXPECT_TRUE(obs::is_memory_unit("bytes/edge"));
  EXPECT_FALSE(obs::is_memory_unit("byte"));
  EXPECT_FALSE(obs::is_memory_unit("kilobytes"));
  EXPECT_EQ(obs::classify_unit("bytes"), obs::RowKind::Memory);
  EXPECT_EQ(obs::classify_unit("bytes/route"), obs::RowKind::Memory);
  // Perf wins over memory: a throughput measured in bytes is still a rate.
  EXPECT_EQ(obs::classify_unit("bytes/s"), obs::RowKind::Rate);
  EXPECT_EQ(obs::classify_unit("ms"), obs::RowKind::Time);
  EXPECT_EQ(obs::classify_unit("fraction"), obs::RowKind::Value);
}

TEST(MemoryRegressionGate, FailsOnInjectedByteRegressionBeyondThreshold) {
  const JsonValue baseline = memory_suite_doc(100000, 200);
  // +20% growth is inside the default 25% memory threshold.
  EXPECT_TRUE(obs::compare_bench_json(baseline, memory_suite_doc(120000, 200))
                  .ok());
  // +30% on graph_bytes must fail, and be attributed to the memory kind.
  const obs::RegressionReport report =
      obs::compare_bench_json(baseline, memory_suite_doc(130000, 200));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions(), 1u);
  EXPECT_EQ(report.regressions(obs::RowKind::Memory), 1u);
  EXPECT_EQ(report.regressions(obs::RowKind::Time), 0u);
  std::ostringstream text;
  report.write_text(text);
  EXPECT_NE(text.str().find("perf gate FAIL"), std::string::npos);
  EXPECT_NE(text.str().find("memory 1"), std::string::npos);
  // Shrinking is an improvement, never a failure.
  EXPECT_TRUE(obs::compare_bench_json(baseline, memory_suite_doc(50000, 120))
                  .ok());
  // Derived per-route rows are gated too.
  EXPECT_FALSE(obs::compare_bench_json(baseline, memory_suite_doc(100000, 300))
                   .ok());
}

TEST(MemoryRegressionGate, AbsoluteGrowthCeilingAndMinMagnitude) {
  // +10% relative growth passes the relative check but trips a 5000-byte
  // absolute ceiling ("only +10%" on a huge account is still 10 KB).
  const JsonValue baseline = memory_suite_doc(100000, 200);
  obs::RegressionOptions options;
  options.memory_abs_limit = 5000;
  EXPECT_FALSE(obs::compare_bench_json(baseline, memory_suite_doc(110000, 200),
                                       options)
                   .ok());
  EXPECT_TRUE(obs::compare_bench_json(baseline, memory_suite_doc(104000, 200),
                                      options)
                  .ok());
  // Tiny accounts are below memory_min_magnitude: relative noise ignored.
  const JsonValue small = memory_suite_doc(48, 8);
  EXPECT_TRUE(obs::compare_bench_json(small, memory_suite_doc(60, 10)).ok());
}

TEST(MemoryRegressionGate, ValuesOnlyHoldsByteRowsToExactEquality) {
  // Determinism mode: byte rows come from capacity walks and must be
  // bit-identical across thread counts — any drift fails.
  const JsonValue baseline = memory_suite_doc(100000, 200);
  obs::RegressionOptions determinism;
  determinism.values_only = true;
  EXPECT_TRUE(
      obs::compare_bench_json(baseline, memory_suite_doc(100000, 200, 999),
                              determinism)
          .ok())
      << "perf rows are informational under values_only";
  EXPECT_FALSE(
      obs::compare_bench_json(baseline, memory_suite_doc(100001, 200),
                              determinism)
          .ok());
}

TEST(MemoryRegressionGate, MissingByteRowIsAFailure) {
  const JsonValue baseline = memory_suite_doc(100000, 200);
  const JsonValue no_memory_rows = JsonValue::parse(
      R"({"suite":"miro-bench","schema":1,"config":{},)"
      R"("benches":{"bench_x":{"config":{},"results":[)"
      R"({"name":"gao2005.elapsed","value":100,"unit":"ms"}]}}})");
  const obs::RegressionReport report =
      obs::compare_bench_json(baseline, no_memory_rows);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.missing_rows.size(), 2u);
}

}  // namespace
