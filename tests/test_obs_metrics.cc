// obs:: metrics registry contract tests: log-bucket boundaries, quantiles of
// a known heavy mixture, registry identity/kind rules, the Prometheus
// renderer, snapshot-while-recording under REPRO_THREADS hammering (the
// tier1-tsan entry for this file), the per-thread cells (more writers than
// cells, max across cells, merge racing record, fold == serial render), the
// harmony::Server protocol-error counter regression, and — with the
// counting global operator new from
// counting_allocator.h — proof that recording on a pre-registered
// instrument allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/fixed.h"
#include "harmony/server.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/rng.h"

#include "counting_allocator.h"

namespace protuner {
namespace {

using obs::Histogram;
using obs::InstrumentSnapshot;
using obs::Registry;

TEST(HistogramBuckets, ExactPowersOfTwoLandOnTheirLowerEdge) {
  for (int e = Histogram::kMinExp; e <= Histogram::kMaxExp; ++e) {
    const double v = std::ldexp(1.0, e);
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_EQ(Histogram::bucket_lower(i), v) << "2^" << e;
    EXPECT_GT(Histogram::bucket_upper(i), v) << "2^" << e;
  }
  // Just below a power of two belongs to the previous bucket.
  const std::size_t at_one = Histogram::bucket_index(1.0);
  EXPECT_EQ(Histogram::bucket_index(std::nextafter(1.0, 0.0)), at_one - 1);
}

TEST(HistogramBuckets, EdgeCasesGoToUnderflowAndOverflow) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMinExp - 1)),
            0u);
  const std::size_t last = Histogram::kBucketCount - 1;
  EXPECT_EQ(Histogram::bucket_index(1e30), last);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            last);
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(last)));
  EXPECT_EQ(Histogram::bucket_lower(0), 0.0);
}

TEST(HistogramBuckets, ParetoSamplesLandWhereIlogbSaysTheyShould) {
  // Heavy-tailed inputs (alpha = 1.1: infinite variance) spread across many
  // decades; every one must land in the bucket its exponent names.
  util::Rng rng(7);
  Histogram h;
  std::vector<std::uint64_t> expected(Histogram::kBucketCount, 0);
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    const double v = 0.01 * std::pow(1.0 - u, -1.0 / 1.1);
    h.record(v);
    std::size_t b = 0;
    if (v >= std::ldexp(1.0, Histogram::kMinExp)) {
      const int e = std::min(std::ilogb(v), Histogram::kMaxExp);
      b = static_cast<std::size_t>(e - Histogram::kMinExp + 1);
    }
    ++expected[b];
    EXPECT_GE(v, Histogram::bucket_lower(Histogram::bucket_index(v)));
    EXPECT_LT(v, Histogram::bucket_upper(Histogram::bucket_index(v)));
  }
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 20000u);
  for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
    EXPECT_EQ(s.counts[b], expected[b]) << "bucket " << b;
  }
}

TEST(HistogramQuantiles, KnownMixtureQuantilesLandInTheRightBuckets) {
  // 500 x 1, 400 x 100, 90 x 5000, 10 x 1e9 — a Pareto-flavoured mixture
  // with a tail 9 decades above the median.
  Histogram h;
  for (int i = 0; i < 500; ++i) h.record(1.0);
  for (int i = 0; i < 400; ++i) h.record(100.0);
  for (int i = 0; i < 90; ++i) h.record(5000.0);
  for (int i = 0; i < 10; ++i) h.record(1e9);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.max, 1e9);
  // The 500th sample sits exactly at the top of bucket [1, 2): linear
  // interpolation reports the bucket's upper edge.
  EXPECT_GE(s.p50(), 1.0);
  EXPECT_LE(s.p50(), 2.0);
  EXPECT_GE(s.p90(), 64.0);
  EXPECT_LE(s.p90(), 128.0);
  EXPECT_GE(s.p99(), 4096.0);
  EXPECT_LE(s.p99(), 8192.0);
  // p99.9 reaches the 1e9 spike's bucket [2^29, 2^30), interpolated toward
  // the exact max.
  EXPECT_GE(s.p999(), std::ldexp(1.0, 29));
  EXPECT_LE(s.p999(), 1e9);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1e9);
  EXPECT_EQ(Histogram().snapshot().p99(), 0.0) << "empty histogram";
}

TEST(RegistryContract, SameNameAndLabelsIsTheSameInstrument) {
  Registry reg;
  obs::Counter& a = reg.counter("hits", "help text");
  obs::Counter& b = reg.counter("hits");
  EXPECT_EQ(&a, &b);
  obs::Counter& other = reg.counter("hits", "", {{"tier", "memo"}});
  EXPECT_NE(&a, &other);
  a.add(3);
  other.add();
  EXPECT_THROW(reg.histogram("hits"), std::logic_error)
      << "kind mismatch on an existing name must throw";
  EXPECT_EQ(reg.size(), 2u);

  reg.gauge("depth").set(-4);
  reg.histogram("lat", "", {{"session", "s1"}}).record(2.0);
  const obs::RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.instruments.size(), 4u);
  const InstrumentSnapshot* hits = snap.find("hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->value, 3.0);
  const InstrumentSnapshot* lat = snap.find("lat", "s1");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count, 1u);
  EXPECT_EQ(snap.find("lat", "nope"), nullptr);
}

TEST(RegistryContract, PrometheusRenderIsWellFormed) {
  Registry reg;
  reg.counter("protuner_test_total", "a counter", {{"session", "a\"b"}})
      .add(7);
  reg.gauge("protuner_test_depth").set(-2);
  obs::Histogram& h = reg.histogram("protuner_test_ns", "latency");
  for (int i = 0; i < 100; ++i) h.record(1000.0);
  std::ostringstream out;
  obs::render_prometheus(out, reg.snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE protuner_test_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("protuner_test_total{session=\"a\\\"b\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("protuner_test_depth -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE protuner_test_ns summary"), std::string::npos);
  EXPECT_NE(text.find("protuner_test_ns{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(text.find("protuner_test_ns_count 100"), std::string::npos);
  EXPECT_NE(text.find("protuner_test_ns_max 1000"), std::string::npos);
  EXPECT_EQ(text.find("protuner_test_ns_sum"), std::string::npos)
      << "no mean under heavy tails, so no _sum series";
}

TEST(RegistryMerge, MergeFromAccumulatesUnderExtraLabels) {
  // The server half of the fleet telemetry push: deltas from client
  // registries land in the serving registry under {client="<rank>"}.
  Registry sender;
  sender.counter("ops_total", "pushed ops").add(5);
  sender.gauge("depth").set(3);
  obs::Histogram& h = sender.histogram("lat_ns", "pushed latency");
  h.record(100.0);
  h.record(7000.0);
  const obs::RegistrySnapshot delta = sender.snapshot();

  Registry receiver;
  receiver.merge_from(delta, {{"client", "3"}});
  receiver.merge_from(delta, {{"client", "3"}});  // a second identical push
  receiver.merge_from(delta, {{"client", "9"}});  // a different sender

  const obs::RegistrySnapshot merged = receiver.snapshot();
  std::uint64_t series = 0;
  for (const InstrumentSnapshot& inst : merged.instruments) {
    bool client3 = false;
    bool client9 = false;
    for (const auto& [k, v] : inst.labels) {
      client3 |= k == "client" && v == "3";
      client9 |= k == "client" && v == "9";
    }
    ASSERT_TRUE(client3 || client9) << inst.name << " lost the push label";
    ++series;
    if (inst.name == "ops_total") {
      // Counters accumulate across pushes; senders ship deltas.
      EXPECT_EQ(inst.value, client3 ? 10.0 : 5.0);
      EXPECT_EQ(inst.help, "pushed ops") << "help text must survive the wire";
    }
    if (inst.name == "depth") {
      EXPECT_EQ(inst.value, 3.0) << "gauges take the incoming level";
    }
    if (inst.name == "lat_ns") {
      EXPECT_EQ(inst.hist.count, client3 ? 4u : 2u);
      EXPECT_DOUBLE_EQ(inst.hist.max, 7000.0);
    }
  }
  EXPECT_EQ(series, 6u) << "three instruments x two senders";
}

TEST(RegistryMerge, MergeIsCommutativeAndTakesMaxOfMax) {
  Registry a_src;
  a_src.histogram("lat").record(100.0);
  a_src.counter("n").add(2);
  Registry b_src;
  obs::Histogram& bh = b_src.histogram("lat");
  bh.record(900.0);
  bh.record(900.0);
  b_src.counter("n").add(5);
  const obs::RegistrySnapshot a = a_src.snapshot();
  const obs::RegistrySnapshot b = b_src.snapshot();

  Registry ab;
  ab.merge_from(a);
  ab.merge_from(b);
  Registry ba;
  ba.merge_from(b);
  ba.merge_from(a);
  for (const Registry* r : {&ab, &ba}) {
    const obs::RegistrySnapshot snap = r->snapshot();
    const InstrumentSnapshot* lat = snap.find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->hist.count, 3u);
    EXPECT_DOUBLE_EQ(lat->hist.max, 900.0) << "max-of-max, not last-wins";
    EXPECT_EQ(snap.find("n")->value, 7.0);
  }
}

TEST(RegistryMerge, ReMergingAMergedSeriesNeverMintsNewIdentities) {
  // The echo-loop guard: a pusher that snapshots a registry it is merged
  // into (one process playing both ends, as the loadgen's loopback mode
  // does) re-ships already-merged {client=...} series.  Re-merging those
  // under another client label must fold into the existing series — never
  // append a second `client` key, which would grow the registry by the
  // size of everything previously merged, on every push.
  Registry server;
  Registry client0;
  client0.counter("pushed_total").add(3);
  server.merge_from(client0.snapshot(), {{"client", "0"}});

  // The echo: a snapshot of the server itself, pushed back as client 1.
  const obs::RegistrySnapshot echo = server.snapshot();
  server.merge_from(echo, {{"client", "1"}});
  server.merge_from(server.snapshot(), {{"client", "1"}});

  const obs::RegistrySnapshot snap = server.snapshot();
  std::size_t series = 0;
  for (const InstrumentSnapshot& s : snap.instruments) {
    if (s.name != "pushed_total") continue;
    ++series;
    std::size_t client_keys = 0;
    for (const auto& [k, v] : s.labels) client_keys += k == "client";
    EXPECT_EQ(client_keys, 1u) << "a series must carry one client label";
  }
  EXPECT_EQ(series, 1u) << "echoed merges must fold, not mint";
}

TEST(RegistryMerge, KindMismatchWithALocalInstrumentThrows) {
  Registry receiver;
  receiver.counter("clash", "", {{"client", "1"}}).add(1);
  Registry sender;
  sender.histogram("clash").record(1.0);
  EXPECT_THROW(receiver.merge_from(sender.snapshot(), {{"client", "1"}}),
               std::logic_error);
}

TEST(RegistryMerge, HostileValuesNeverReachTheIntegerCasts) {
  // Pushed snapshots arrive off the wire, so any double can show up.  A
  // NaN, infinite, negative, or > 2^64 counter delta must be dropped (the
  // uint64 cast would be UB); gauges clamp into int64 range and drop only
  // NaN; a +inf histogram max must not win the CAS-max forever.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  obs::RegistrySnapshot push;
  const auto add = [&push](obs::InstrumentKind kind, const char* name,
                           double value) {
    InstrumentSnapshot s;
    s.kind = kind;
    s.name = name;
    s.value = value;
    push.instruments.push_back(std::move(s));
  };
  add(obs::InstrumentKind::kCounter, "nan_total", kNan);
  add(obs::InstrumentKind::kCounter, "neg_total", -1.0);
  add(obs::InstrumentKind::kCounter, "inf_total", kInf);
  add(obs::InstrumentKind::kCounter, "huge_total", 1e300);
  add(obs::InstrumentKind::kCounter, "good_total", 3.0);
  add(obs::InstrumentKind::kGauge, "nan_level", kNan);
  add(obs::InstrumentKind::kGauge, "high_level", 1e300);
  add(obs::InstrumentKind::kGauge, "low_level", -1e300);
  {
    InstrumentSnapshot s;
    s.kind = obs::InstrumentKind::kHistogram;
    s.name = "poisoned_ns";
    s.hist.counts.assign(Histogram::kBucketCount, 0);
    s.hist.counts[10] = 4;
    s.hist.count = 4;
    s.hist.max = kInf;
    push.instruments.push_back(std::move(s));
  }

  Registry r;
  const Registry::MergeResult res = r.merge_from(push);
  EXPECT_EQ(res.merged, 4u);   // good_total, both clamped gauges, histogram
  EXPECT_EQ(res.dropped, 5u);  // four hostile counters and the NaN gauge
  const obs::RegistrySnapshot snap = r.snapshot();
  EXPECT_EQ(snap.find("nan_total"), nullptr);
  EXPECT_EQ(snap.find("neg_total"), nullptr);
  EXPECT_EQ(snap.find("inf_total"), nullptr);
  EXPECT_EQ(snap.find("huge_total"), nullptr);
  EXPECT_EQ(snap.find("nan_level"), nullptr);
  ASSERT_NE(snap.find("good_total"), nullptr);
  EXPECT_EQ(snap.find("good_total")->value, 3.0);
  EXPECT_EQ(
      snap.find("high_level")->value,
      static_cast<double>(std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(
      snap.find("low_level")->value,
      static_cast<double>(std::numeric_limits<std::int64_t>::min()));
  const InstrumentSnapshot* hist = snap.find("poisoned_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 4u) << "bucket counts survive";
  EXPECT_TRUE(std::isfinite(hist->hist.max)) << "+inf max must not stick";
}

TEST(RegistryMerge, NonPrometheusIdentifiersAreDropped) {
  // render_prometheus writes names and label keys verbatim; a pushed name
  // with a newline or space would inject fake exposition lines.
  obs::RegistrySnapshot push;
  InstrumentSnapshot bad_name;
  bad_name.kind = obs::InstrumentKind::kCounter;
  bad_name.name = "evil 1\ninjected_series 99";
  bad_name.value = 1.0;
  push.instruments.push_back(std::move(bad_name));
  InstrumentSnapshot bad_key;
  bad_key.kind = obs::InstrumentKind::kCounter;
  bad_key.name = "ok_total";
  bad_key.labels = {{"k=\"v\"} fake", "x"}};
  bad_key.value = 1.0;
  push.instruments.push_back(std::move(bad_key));

  Registry r;
  const Registry::MergeResult res = r.merge_from(push);
  EXPECT_EQ(res.merged, 0u);
  EXPECT_EQ(res.dropped, 2u);
  EXPECT_EQ(r.size(), 0u);
}

TEST(RegistryMerge, NewSeriesBudgetCapsMintingButNotAccumulation) {
  Registry sender;
  sender.counter("a_total").add(1);
  sender.counter("b_total").add(1);
  sender.counter("c_total").add(1);
  const obs::RegistrySnapshot push = sender.snapshot();

  Registry r;
  const Registry::MergeResult first = r.merge_from(push, {}, 2);
  EXPECT_EQ(first.created, 2u);
  EXPECT_EQ(first.merged, 2u);
  EXPECT_EQ(first.dropped, 1u) << "the third series exceeds the budget";
  EXPECT_EQ(r.size(), 2u);

  // A zero budget still folds deltas into the series that already exist.
  const Registry::MergeResult second = r.merge_from(push, {}, 0);
  EXPECT_EQ(second.created, 0u);
  EXPECT_EQ(second.merged, 2u);
  EXPECT_EQ(second.dropped, 1u);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.snapshot().find("a_total")->value, 2.0);
  EXPECT_EQ(r.snapshot().find("c_total"), nullptr);
}

TEST(RegistryConcurrency, MergeWhileRecordingKeepsExactTotals) {
  // The tier1-tsan companion to the snapshot hammer: remote pushes merge
  // into the registry while local threads record into the same instruments
  // (same name, no client label — distinct series; and the same series via
  // an empty label merge).  After the join every add is accounted for.
  const int threads = static_cast<int>(util::env_long("REPRO_THREADS", 4));
  constexpr int kPerThread = 10000;
  constexpr int kMerges = 200;
  Registry reg;
  obs::Counter& local = reg.counter("mixed_total");
  obs::Histogram& lat = reg.histogram("mixed_ns");
  Registry sender;
  sender.counter("mixed_total").add(1);
  sender.histogram("mixed_ns").record(50.0);
  const obs::RegistrySnapshot push = sender.snapshot();

  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&local, &lat] {
      for (int i = 0; i < kPerThread; ++i) {
        local.add();
        lat.record(1000.0);
      }
    });
  }
  for (int m = 0; m < kMerges; ++m) {
    reg.merge_from(push);  // merges into the very series being recorded
    (void)reg.snapshot();
  }
  for (auto& w : writers) w.join();
  const obs::RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("mixed_total")->value,
            static_cast<double>(threads) * kPerThread + kMerges);
  EXPECT_EQ(snap.find("mixed_ns")->hist.count,
            static_cast<std::uint64_t>(threads) * kPerThread + kMerges);
}

TEST(RegistryContract, PrometheusEscapesLabelValuesAndHelp) {
  // Label values may carry anything a session name (or a pushed client
  // label) does: backslashes, quotes, newlines.  The exposition format
  // requires \\, \" and \n — an unescaped newline truncates the series and
  // the scraper drops the rest of the page.
  Registry reg;
  reg.counter("protuner_esc_total", "", {{"session", "a\\b\"c\nd"}}).add(1);
  reg.gauge("protuner_esc_gauge", "line one\nline \\two").set(5);
  std::ostringstream out;
  obs::render_prometheus(out, reg.snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("protuner_esc_total{session=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP protuner_esc_gauge line one\\nline \\\\two"),
            std::string::npos)
      << text;
  // No raw newline may survive inside any line: every line is complete.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.find('\r'), std::string::npos);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
  }
}

TEST(RegistryContract, PrometheusEmitsHelpAndTypeOncePerFamily) {
  // Client-labelled series multiply the label sets per family; the HELP and
  // TYPE headers must still appear exactly once each, before the family's
  // first sample.
  Registry reg;
  reg.counter("protuner_family_total", "one family").add(1);
  reg.counter("protuner_family_total", "one family", {{"client", "1"}})
      .add(2);
  reg.counter("protuner_family_total", "one family", {{"client", "2"}})
      .add(3);
  reg.histogram("protuner_family_ns", "latencies").record(10.0);
  reg.histogram("protuner_family_ns", "latencies", {{"client", "1"}})
      .record(20.0);
  std::ostringstream out;
  obs::render_prometheus(out, reg.snapshot());
  const std::string text = out.str();
  const auto count_of = [&text](const std::string& needle) {
    int n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_of("# TYPE protuner_family_total counter"), 1);
  EXPECT_EQ(count_of("# HELP protuner_family_total"), 1);
  EXPECT_EQ(count_of("# TYPE protuner_family_ns summary"), 1);
  EXPECT_EQ(count_of("# HELP protuner_family_ns"), 1);
  EXPECT_EQ(count_of("protuner_family_total{client=\"1\"} 2"), 1);
  EXPECT_EQ(count_of("protuner_family_total{client=\"2\"} 3"), 1);
}

TEST(RegistryConcurrency, SnapshotWhileRecordingIsRaceFreeAndExact) {
  // REPRO_THREADS writers hammer one counter and one histogram while the
  // main thread snapshots continuously; after the join, totals are exact.
  const int threads =
      static_cast<int>(util::env_long("REPRO_THREADS", 4));
  constexpr int kPerThread = 20000;
  Registry reg;
  obs::Counter& hits = reg.counter("hits");
  obs::Histogram& lat = reg.histogram("lat");
  std::atomic<int> finished{0};
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&hits, &lat, &finished, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hits.add();
        lat.record(static_cast<double>((t + 1) * (i % 1000) + 1));
      }
      finished.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::uint64_t last_count = 0;
  while (finished.load(std::memory_order_relaxed) < threads) {
    const obs::RegistrySnapshot snap = reg.snapshot();
    const InstrumentSnapshot* l = snap.find("lat");
    ASSERT_NE(l, nullptr);
    // Buckets only grow, so consecutive snapshots are monotone.
    EXPECT_GE(l->hist.count, last_count) << "bucket totals ran backwards";
    last_count = l->hist.count;
    std::this_thread::yield();
  }
  for (auto& w : writers) w.join();
  const obs::RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("hits")->value,
            static_cast<double>(threads) * kPerThread);
  EXPECT_EQ(snap.find("lat")->hist.count,
            static_cast<std::uint64_t>(threads) * kPerThread);
}

TEST(ShardedInstruments, MoreWritersThanCellsKeepExactTotals) {
  // Twice as many writers as cells, plus a few, so several threads share
  // each cell; every add still lands exactly once in the fold.
  constexpr int kThreads =
      static_cast<int>(2 * obs::detail::kMetricCells) + 3;
  constexpr int kPerThread = 5000;
  obs::Counter hits;
  Histogram lat;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hits, &lat, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hits.add(2);
        lat.record(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(hits.value(), 2u * kThreads * kPerThread);
  const obs::HistogramSnapshot s = lat.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.max, static_cast<double>(kThreads * kPerThread - 1));
}

TEST(ShardedInstruments, MaxIsTheLargestValueAcrossThreads) {
  // Each thread records its own peak into its own cell; the snapshot max
  // is the largest of them, whichever cell holds it.
  constexpr int kThreads = static_cast<int>(obs::detail::kMetricCells);
  constexpr int kPeakThread = 2;  // neither the first nor the last writer
  Histogram h;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (int i = 0; i < 100; ++i) h.record(1.0 + i);
      h.record(t == kPeakThread ? 1e12 : 1e3 * (t + 1));
    });
  }
  for (auto& w : writers) w.join();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.max, 1e12);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1e12);
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * 101);
}

TEST(ShardedInstruments, MergeRacingRecordKeepsExactTotals) {
  // merge() folds into the merging thread's cell while writers record into
  // theirs; nothing is lost and snapshots taken in between never shrink.
  const int threads = static_cast<int>(util::env_long("REPRO_THREADS", 4));
  constexpr int kPerThread = 20000;
  constexpr int kMerges = 500;
  Histogram h;
  Histogram pushed;
  pushed.record(3.0);
  pushed.record(7e6);
  const obs::HistogramSnapshot delta = pushed.snapshot();
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(1000.0 + i);
    });
  }
  std::uint64_t last = 0;
  for (int m = 0; m < kMerges; ++m) {
    h.merge(delta);
    const std::uint64_t now = h.snapshot().count;
    EXPECT_GE(now, last) << "folded totals ran backwards";
    last = now;
  }
  for (auto& w : writers) w.join();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count,
            static_cast<std::uint64_t>(threads) * kPerThread + 2 * kMerges);
  EXPECT_EQ(s.counts[Histogram::bucket_index(3.0)],
            static_cast<std::uint64_t>(kMerges));
  EXPECT_DOUBLE_EQ(s.max, 7e6);
}

TEST(ShardedInstruments, FoldRendersLikeASerialFeed) {
  // The same values recorded from many threads (spread over cells) and
  // from one thread (one cell) must expose identical Prometheus text.
  constexpr int kThreads = static_cast<int>(obs::detail::kMetricCells) + 2;
  const auto value = [](int t, int i) {
    return 0.5 * std::pow(1.0 + i % 97, 1.0 + 0.25 * t);
  };
  Registry sharded;
  obs::Counter& sc = sharded.counter("protuner_fold_total", "fold");
  obs::Histogram& sh = sharded.histogram("protuner_fold_ns", "fold");
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&sc, &sh, &value, t] {
      for (int i = 0; i < 1000; ++i) {
        sc.add();
        sh.record(value(t, i));
      }
    });
  }
  for (auto& w : writers) w.join();
  Registry serial;
  obs::Counter& c = serial.counter("protuner_fold_total", "fold");
  obs::Histogram& h = serial.histogram("protuner_fold_ns", "fold");
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 1000; ++i) {
      c.add();
      h.record(value(t, i));
    }
  }
  std::ostringstream sharded_text;
  obs::render_prometheus(sharded_text, sharded.snapshot());
  std::ostringstream serial_text;
  obs::render_prometheus(serial_text, serial.snapshot());
  EXPECT_EQ(sharded_text.str(), serial_text.str());
}

TEST(ServerProtocolErrors, AreCountedWithoutDisturbingTheSession) {
  // Regression for the satellite fix: protocol violations used to be thrown
  // and forgotten; now each one increments the session's counter while the
  // round state stays intact.
  Registry reg;
  harmony::ServerOptions options;
  options.metrics = &reg;
  options.session = "errs";
  harmony::Server server(
      std::make_unique<core::FixedStrategy>(core::Point{1.0}), 2, options);
  const auto errors = [&reg] {
    return static_cast<std::uint64_t>(
        reg.snapshot()
            .find("protuner_harmony_protocol_errors_total", "errs")
            ->value);
  };
  EXPECT_EQ(errors(), 0u);

  (void)server.fetch(0);
  EXPECT_THROW((void)server.fetch(0), harmony::ProtocolError);  // double fetch
  EXPECT_EQ(errors(), 1u);
  EXPECT_THROW(server.report(1, 1.0), harmony::ProtocolError);  // no fetch
  EXPECT_EQ(errors(), 2u);
  EXPECT_THROW((void)server.fetch(7), harmony::ProtocolError);  // out of range
  EXPECT_THROW(server.report(7, 1.0), harmony::ProtocolError);
  EXPECT_EQ(errors(), 4u);

  // The session is undisturbed: the open round completes normally.
  (void)server.fetch(1);
  server.report(0, 2.0);
  server.report(1, 3.0);
  EXPECT_EQ(server.rounds_completed(), 1u);
  EXPECT_DOUBLE_EQ(server.total_time(), 3.0);
  const obs::RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("protuner_rounds_total", "errs")->value, 1.0);
}

TEST(RecordingAllocation, HotPathRecordingIsAllocationFree) {
  // Instruments are resolved up front (that allocates); recording on the
  // resolved references must not touch the heap at all.
  Registry reg;
  obs::Counter& c = reg.counter("c");
  obs::Gauge& g = reg.gauge("g");
  obs::Histogram& h = reg.histogram("h");
  c.add();
  g.set(1);
  h.record(1.0);  // warm
  const std::size_t before = allocation_count();
  for (int i = 0; i < 10000; ++i) {
    c.add(2);
    g.add(1);
    g.sub(1);
    h.record(static_cast<double>(i) * 1e3);
  }
  EXPECT_EQ(allocation_count(), before)
      << "metric recording allocated on the heap";

  // A thread that has never recorded picks its cell on its first record;
  // from then on it allocates nothing either.  (Spawning it allocates, so
  // the window opens inside the thread.)
  std::size_t fresh_before = 0;
  std::size_t fresh_after = 0;
  std::thread fresh([&] {
    c.add();
    h.record(2.0);
    fresh_before = allocation_count();
    for (int i = 0; i < 10000; ++i) {
      c.add();
      h.record(static_cast<double>(i));
    }
    fresh_after = allocation_count();
  });
  fresh.join();
  EXPECT_EQ(fresh_after, fresh_before)
      << "a fresh thread's records allocated on the heap";
}

}  // namespace
}  // namespace protuner
