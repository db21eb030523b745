// obs::FlightRecorder contract tests: ring-wrap retention (newest N
// survive, recorded() keeps the true total), tag truncation into the
// fixed-width slot, the human-readable dump, the async-signal-safe
// request/consume handshake, and — with the counting global operator new
// from counting_allocator.h (this TU owns its executable) — proof that
// record() never touches the heap once the ring exists.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"

#include "counting_allocator.h"

namespace protuner {
namespace {

using obs::FlightEvent;
using obs::FlightRecorder;

TEST(FlightRecorder, RingWrapKeepsTheNewestEvents) {
  FlightRecorder rec(8);
  static const char* const kKinds[3] = {"round/open", "report", "round/close"};
  for (std::uint32_t i = 0; i < 20; ++i) {
    rec.record(kKinds[i % 3], "sess", i, i / 3, static_cast<double>(i));
  }
  EXPECT_EQ(rec.recorded(), 20u);
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are events 12..19, oldest first, timestamps monotone.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint32_t n = static_cast<std::uint32_t>(12 + i);
    EXPECT_EQ(events[i].rank, n);
    EXPECT_STREQ(events[i].kind, kKinds[n % 3]);
    EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(n));
    if (i > 0) EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
  rec.clear();
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(FlightRecorder, SessionTagIsCopiedAndTruncated) {
  FlightRecorder rec(4);
  rec.record("round/open", "short");
  const std::string long_name(64, 'x');
  rec.record("round/open", long_name);
  // No session (a connection that never attached): a default string_view,
  // whose data() is null, records an empty tag.
  rec.record("error/decode", std::string_view{});
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].tag, "short");
  // The tag slot is fixed-width with a guaranteed NUL.
  const std::string tag = events[1].tag;
  EXPECT_LT(tag.size(), sizeof(events[1].tag));
  EXPECT_EQ(tag, long_name.substr(0, tag.size()));
  EXPECT_STREQ(events[2].tag, "");
}

TEST(FlightRecorder, DumpRendersATimeline) {
  FlightRecorder rec(16);
  rec.record("fetch/park", "dumped", 3, 7);
  rec.record("rank/impute", "dumped", 1, 7, 2.5);
  std::ostringstream out;
  rec.dump(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("fetch/park"), std::string::npos) << text;
  EXPECT_NE(text.find("rank/impute"), std::string::npos);
  EXPECT_NE(text.find("dumped"), std::string::npos);
}

TEST(FlightRecorder, DumpRequestHandshakeFiresExactlyOnce) {
  FlightRecorder rec(4);
  EXPECT_FALSE(rec.consume_dump_request());
  rec.request_dump();
  rec.request_dump();  // coalesces: still one pending dump
  EXPECT_TRUE(rec.consume_dump_request());
  EXPECT_FALSE(rec.consume_dump_request());
}

TEST(FlightRecorder, Sigusr1RequestsADumpOnTheGlobalRecorder) {
  FlightRecorder::install_sigusr1_handler();
  (void)FlightRecorder::global().consume_dump_request();  // drain leftovers
  ASSERT_EQ(::raise(SIGUSR1), 0);
  EXPECT_TRUE(FlightRecorder::global().consume_dump_request());
  EXPECT_FALSE(FlightRecorder::global().consume_dump_request());
}

TEST(FlightRecorder, RecordIsAllocationFree) {
  FlightRecorder rec(128);
  rec.record("warm", "warm");  // nothing to warm, but symmetry is cheap
  const std::size_t before = allocation_count();
  for (std::uint32_t i = 0; i < 10000; ++i) {
    rec.record("round/close", "alloc-free-session-name", i, i,
               static_cast<double>(i));
  }
  EXPECT_EQ(allocation_count(), before)
      << "flight-recorder record() touched the heap";
  EXPECT_EQ(rec.recorded(), 10001u);
}

TEST(FlightRecorder, ConcurrentRecordAndSnapshotStayConsistent) {
  FlightRecorder rec(64);
  std::atomic<bool> stop{false};
  std::thread writer([&rec, &stop] {
    std::uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      rec.record("round/open", "hammer", i++, i);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const std::vector<FlightEvent> events = rec.snapshot();
    EXPECT_LE(events.size(), 64u);
    for (std::size_t k = 1; k < events.size(); ++k) {
      EXPECT_GE(events[k].ts_ns, events[k - 1].ts_ns);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
}  // namespace protuner
