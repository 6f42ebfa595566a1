// Tests for the multithreaded replication executor: thread-pool
// behavior, serial/parallel determinism, and pooled StreamingStats
// aggregation on Replicates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "protocols/registry.hpp"
#include "run_identity.hpp"

namespace lowsense {
namespace {

Scenario batch_scenario(std::uint64_t n, const std::string& proto = "low-sensing") {
  Scenario s;
  s.name = "parallel-test";
  s.protocol = [proto] { return make_protocol(proto); };
  s.arrivals = [n](std::uint64_t) { return std::make_unique<BatchArrivals>(n); };
  return s;
}

TEST(ParallelExecutor, RunsAllSubmittedTasks) {
  ParallelExecutor pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) pool.submit([&done] { ++done; });
  pool.wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ParallelExecutor, ReusableAcrossBatches) {
  ParallelExecutor pool(2);
  std::atomic<int> done{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) pool.submit([&done] { ++done; });
    pool.wait();
  }
  EXPECT_EQ(done.load(), 30);
}

TEST(ParallelExecutor, ZeroThreadsClampsToOne) {
  ParallelExecutor pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> done{0};
  pool.submit([&done] { ++done; });
  pool.wait();
  EXPECT_EQ(done.load(), 1);
}

TEST(ParallelExecutor, WaitRethrowsTaskException) {
  ParallelExecutor pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The pool survives the failure and keeps executing.
  std::atomic<int> done{0};
  pool.submit([&done] { ++done; });
  pool.wait();
  EXPECT_EQ(done.load(), 1);
}

TEST(ReplicateParallel, DeterministicAcrossThreadCounts) {
  const Scenario s = batch_scenario(128);
  const int reps = 12;
  const std::uint64_t seed = 42;
  const Replicates serial = replicate(s, reps, seed);
  ASSERT_EQ(serial.runs.size(), static_cast<std::size_t>(reps));
  // Bit-identical, not merely close: every observable of every replicate.
  for (unsigned threads : {1u, 4u, 8u}) {
    expect_same_run(serial, replicate_parallel(s, reps, threads, seed),
                    "threads=" + std::to_string(threads));
  }
}

TEST(ReplicateParallel, SummariesMatchSerial) {
  const Scenario s = batch_scenario(64);
  const Replicates serial = replicate(s, 8, 7);
  const Replicates par = replicate_parallel(s, 8, 4, 7);
  const Summary a = serial.throughput();
  const Summary b = par.throughput();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
}

TEST(ReplicateParallel, ZeroRepsGivesEmpty) {
  const Replicates r = replicate_parallel(batch_scenario(16), 0, 4);
  EXPECT_TRUE(r.runs.empty());
}

TEST(ReplicateParallel, PropagatesScenarioErrors) {
  Scenario s;  // missing protocol and arrivals
  EXPECT_THROW(replicate_parallel(s, 4, 2), std::invalid_argument);
}

TEST(Replicates, MergedStatsPoolAcrossRuns) {
  const Replicates reps = replicate(batch_scenario(32), 4, 11);
  const StreamingStats merged = reps.merged_access_stats();
  std::size_t total = 0;
  double sum = 0.0, mn = 0.0, mx = 0.0;
  bool first = true;
  for (const auto& r : reps.runs) {
    total += r.access_stats.count();
    sum += r.access_stats.sum();
    mn = first ? r.access_stats.min() : std::min(mn, r.access_stats.min());
    mx = first ? r.access_stats.max() : std::max(mx, r.access_stats.max());
    first = false;
  }
  EXPECT_EQ(merged.count(), total);
  EXPECT_DOUBLE_EQ(merged.sum(), sum);
  EXPECT_DOUBLE_EQ(merged.min(), mn);
  EXPECT_DOUBLE_EQ(merged.max(), mx);
  EXPECT_NEAR(merged.mean(), sum / static_cast<double>(total), 1e-9);
  // Latency pools the same way (each batch run delivers all 32 packets).
  EXPECT_EQ(reps.merged_latency_stats().count(), 4u * 32u);
}

}  // namespace
}  // namespace lowsense
