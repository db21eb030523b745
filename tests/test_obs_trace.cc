// obs::Tracer contract tests: span nesting across the RoundEngine phases,
// Chrome trace_event JSON validity (parsed back by a minimal JSON reader),
// sampling, ring wrap-around, and the disabled path recording nothing and
// allocating nothing (counting global operator new from
// counting_allocator.h — this TU owns its executable).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/simulated_cluster.h"
#include "core/fixed.h"
#include "core/round_engine.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "varmodel/simple_noise.h"

#include "counting_allocator.h"

namespace protuner {
namespace {

using obs::ScopedSpan;
using obs::Tracer;
using obs::TraceSpan;

/// Minimal recursive-descent JSON reader: accepts exactly the RFC 8259
/// grammar (objects, arrays, strings with escapes, numbers, literals) and
/// nothing else.  Enough to prove the exporter emits parseable JSON.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;  // '{'
    skip_ws();
    if (peek() == '}') { ++i_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++i_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == '}') { ++i_; return true; }
      return false;
    }
  }
  bool array() {
    ++i_;  // '['
    skip_ws();
    if (peek() == ']') { ++i_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == ']') { ++i_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++i_) {
      if (i_ >= s_.size() || s_[i_] != *p) return false;
    }
    return true;
  }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// Enables the global tracer for one test and restores "disabled" after —
/// the engine's span sites record into Tracer::global() only.
class GlobalTraceGuard {
 public:
  explicit GlobalTraceGuard(std::uint64_t sample_every = 1) {
    Tracer::global().configure(true, sample_every);
    Tracer::global().clear();
  }
  ~GlobalTraceGuard() { Tracer::global().configure(false); }
};

std::vector<TraceSpan> spans_named(const std::vector<TraceSpan>& spans,
                                   const std::string& name) {
  std::vector<TraceSpan> out;
  for (const TraceSpan& s : spans) {
    if (s.name != nullptr && name == s.name) out.push_back(s);
  }
  return out;
}

TEST(Tracing, SpansNestAcrossRoundEnginePhases) {
  const GlobalTraceGuard guard;
  auto land = std::make_shared<core::QuadraticLandscape>(core::Point{2.0},
                                                         1.0, 0.1);
  cluster::SimulatedCluster machine(land,
                                    std::make_shared<varmodel::NoNoise>(),
                                    {.ranks = 4, .seed = 5});
  core::FixedStrategy fx(core::Point{1.0});
  core::RoundEngineOptions opts;
  opts.width = 4;
  core::RoundEngine engine(fx, opts);
  constexpr int kSteps = 10;
  for (int i = 0; i < kSteps; ++i) engine.step(machine);

  const std::vector<TraceSpan> spans = Tracer::global().snapshot();
  const auto steps = spans_named(spans, "round/step");
  const auto assigns = spans_named(spans, "round/assign");
  const auto collects = spans_named(spans, "round/collect");
  const auto advances = spans_named(spans, "round/advance");
  ASSERT_EQ(steps.size(), static_cast<std::size_t>(kSteps));
  ASSERT_EQ(assigns.size(), static_cast<std::size_t>(kSteps));
  ASSERT_EQ(collects.size(), static_cast<std::size_t>(kSteps));
  ASSERT_EQ(advances.size(), static_cast<std::size_t>(kSteps));

  for (const TraceSpan& s : steps) EXPECT_EQ(s.depth, 0);
  // Every phase span sits strictly inside one step span, one level down.
  for (const auto* phase : {&assigns, &collects, &advances}) {
    for (const TraceSpan& p : *phase) {
      EXPECT_EQ(p.depth, 1);
      bool contained = false;
      for (const TraceSpan& s : steps) {
        if (p.start_ns >= s.start_ns &&
            p.start_ns + p.dur_ns <= s.start_ns + s.dur_ns) {
          contained = true;
          break;
        }
      }
      EXPECT_TRUE(contained) << p.name << " span not inside any round/step";
    }
  }
  // Within one step: assign before collect before advance.
  EXPECT_LE(assigns[0].start_ns + assigns[0].dur_ns, collects[0].start_ns);
  EXPECT_LE(collects[0].start_ns + collects[0].dur_ns, advances[0].start_ns);
}

TEST(Tracing, ChromeExporterEmitsParseableJson) {
  const GlobalTraceGuard guard;
  {
    const ScopedSpan outer(Tracer::global(), "outer \"quoted\"");
    const ScopedSpan inner(Tracer::global(), "inner");
  }
  std::ostringstream out;
  Tracer::global().write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_TRUE(JsonReader(text).parse()) << text;
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"protuner\""), std::string::npos);
  // The span names survive into the JSON (escaped).
  EXPECT_NE(text.find("inner"), std::string::npos);
}

TEST(Tracing, DisabledTracerRecordsNothingAndAllocatesNothing) {
  Tracer tracer;  // disabled by default, like OBS_TRACE unset/0
  ASSERT_FALSE(tracer.enabled());
  const std::size_t before = allocation_count();
  for (int i = 0; i < 10000; ++i) {
    const ScopedSpan span(tracer, "noop");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(allocation_count(), before)
      << "disabled tracing touched the heap";
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracing, EnabledSteadyStateDoesNotAllocateAfterRingCreation) {
  Tracer tracer;
  tracer.configure(true, 1, 1024);
  { const ScopedSpan warm(tracer, "warm"); }  // creates this thread's ring
  const std::size_t before = allocation_count();
  for (int i = 0; i < 5000; ++i) {
    const ScopedSpan span(tracer, "steady");
  }
  EXPECT_EQ(allocation_count(), before)
      << "steady-state span recording allocated";
  EXPECT_EQ(tracer.snapshot().size(), 1024u);  // ring full, wrapped
}

TEST(Tracing, SamplerRecordsOneInN) {
  Tracer tracer;
  tracer.configure(true, 3);
  for (int i = 0; i < 9; ++i) {
    const ScopedSpan span(tracer, "sampled");
  }
  EXPECT_EQ(tracer.snapshot().size(), 3u);
}

TEST(Tracing, TraceContextInstallsInheritsAndRestores) {
  using obs::ScopedTraceContext;
  using obs::TraceContext;
  EXPECT_FALSE(obs::current_trace_context());
  Tracer tracer;
  tracer.configure(true, 1);
  {
    const ScopedTraceContext outer(TraceContext{0xAB, 0x11});
    EXPECT_EQ(obs::current_trace_context().trace_id, 0xABu);
    { const ScopedSpan inherits(tracer, "inherits"); }
    {
      // Nested contexts stack: the inner round wins, then pops cleanly.
      const ScopedTraceContext inner(TraceContext{0xCD, 0x22});
      EXPECT_EQ(obs::current_trace_context().trace_id, 0xCDu);
      { const ScopedSpan nested(tracer, "nested"); }
    }
    EXPECT_EQ(obs::current_trace_context().trace_id, 0xABu);
    {
      // A client that learns the ids mid-span overrides its capture.
      ScopedSpan overridden(tracer, "overridden");
      ASSERT_TRUE(overridden.active());
      overridden.set_context(TraceContext{0xEF, 0x33});
    }
  }
  EXPECT_FALSE(obs::current_trace_context()) << "context leaked past scope";

  const std::vector<TraceSpan> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans_named(spans, "inherits").at(0).trace_id, 0xABu);
  EXPECT_EQ(spans_named(spans, "inherits").at(0).span_id, 0x11u);
  EXPECT_EQ(spans_named(spans, "nested").at(0).trace_id, 0xCDu);
  EXPECT_EQ(spans_named(spans, "overridden").at(0).trace_id, 0xEFu);
  EXPECT_EQ(spans_named(spans, "overridden").at(0).span_id, 0x33u);
}

TEST(Tracing, ContextIdsSurviveTheJsonExportAsHexTokens) {
  Tracer tracer;
  tracer.configure(true, 1);
  {
    const obs::ScopedTraceContext ctx(
        obs::TraceContext{0x00AB00CD00EF0012ull, 0x34u});
    const ScopedSpan span(tracer, "traced");
  }
  { const ScopedSpan plain(tracer, "plain"); }
  std::ostringstream out;
  tracer.write_chrome_trace(out, 7);
  const std::string text = out.str();
  EXPECT_TRUE(JsonReader(text).parse()) << text;
  EXPECT_NE(text.find("\"trace\":\"00ab00cd00ef0012\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"span\":\"0000000000000034\""), std::string::npos);
  EXPECT_NE(text.find("\"pid\":7"), std::string::npos);
  // The untraced span carries no correlation args at all.
  std::vector<obs::MergedEvent> events;
  ASSERT_TRUE(obs::parse_chrome_trace(text, events));
  ASSERT_EQ(events.size(), 2u);
  bool saw_traced = false;
  bool saw_plain = false;
  for (const obs::MergedEvent& e : events) {
    if (e.name == "traced") {
      saw_traced = true;
      EXPECT_EQ(e.trace_id, "00ab00cd00ef0012");
      EXPECT_EQ(e.span_id, "0000000000000034");
    }
    if (e.name == "plain") {
      saw_plain = true;
      EXPECT_TRUE(e.trace_id.empty());
    }
  }
  EXPECT_TRUE(saw_traced);
  EXPECT_TRUE(saw_plain);
}

TEST(Tracing, ExportAfterRingWrapIsTimeSortedAndParseable) {
  // Regression: ring wrap makes raw ring order non-monotonic (the slot
  // after the newest span holds the oldest survivor), and multiple thread
  // rings interleave arbitrarily.  The exporter must sort by timestamp or
  // trace viewers render garbage.
  Tracer tracer;
  tracer.configure(true, 1, 8);  // tiny ring: 24 spans per thread wrap it 3x
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 24; ++i) {
        const ScopedSpan span(tracer, "wrapped");
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(tracer.snapshot().size(), 16u);  // both rings full

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_TRUE(JsonReader(text).parse()) << text;

  std::vector<obs::MergedEvent> events;
  ASSERT_TRUE(obs::parse_chrome_trace(text, events));
  ASSERT_EQ(events.size(), 16u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us)
        << "export not time-sorted at event " << i;
  }
}

TEST(Tracing, RingWrapKeepsTheNewestSpans) {
  Tracer tracer;
  tracer.configure(true, 1, 8);
  static const char* const kNames[20] = {
      "s0",  "s1",  "s2",  "s3",  "s4",  "s5",  "s6",  "s7",  "s8",  "s9",
      "s10", "s11", "s12", "s13", "s14", "s15", "s16", "s17", "s18", "s19"};
  for (int i = 0; i < 20; ++i) {
    const ScopedSpan span(tracer, kNames[i]);
  }
  const std::vector<TraceSpan> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  // Oldest surviving span is s12, newest s19, in order.
  for (int i = 0; i < 8; ++i) {
    EXPECT_STREQ(spans[static_cast<std::size_t>(i)].name, kNames[12 + i]);
  }
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
}

}  // namespace
}  // namespace protuner
