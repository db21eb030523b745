// Wire-format codec properties (net/frame.h, DESIGN.md §14).
//
// The decoder faces bytes from the network, so the contract under test is
// adversarial: truncated, oversized, garbage-typed, split-across-reads and
// coalesced inputs must each produce a clean verdict — kNeedMore, kFrame
// or kBadFrame — and never a crash, hang or out-of-bounds read.  The fuzz
// cases drive the decoder with seeded random garbage and with random
// corruptions of valid frames; the streaming cases re-deliver a valid
// frame sequence at every possible chunking.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "net/frame.h"
#include "net/stats_codec.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace protuner {
namespace {

using net::DecodeStatus;
using net::Decoded;
using net::MsgType;

std::vector<std::uint8_t> attach_frame(std::string_view session,
                                       std::uint32_t rank) {
  std::vector<std::uint8_t> out;
  net::append_simple(out, MsgType::kAttach, rank, session);
  return out;
}

TEST(NetFrame, RoundTripsEveryMessageKind) {
  std::vector<std::uint8_t> buf;
  net::append_simple(buf, MsgType::kAttach, 7, "gs2");
  net::append_simple(buf, MsgType::kFetch, 3, {});
  net::append_report(buf, 5, "gs2", 1.25);
  core::Point cfg{2.0, 4.0, 8.0};
  net::append_config(buf, 9, cfg);
  net::append_error(buf, 0, "boom");
  net::append_attach_ack(buf, 7, 64);

  std::size_t off = 0;
  auto next = [&] {
    const Decoded d = net::decode_frame({buf.data() + off, buf.size() - off});
    EXPECT_EQ(d.status, DecodeStatus::kFrame);
    off += d.consumed;
    return d.frame;
  };

  net::Frame f = next();
  EXPECT_EQ(f.type, MsgType::kAttach);
  EXPECT_EQ(f.rank, 7u);
  EXPECT_EQ(f.session, "gs2");
  EXPECT_TRUE(f.body.empty());

  f = next();
  EXPECT_EQ(f.type, MsgType::kFetch);
  EXPECT_EQ(f.rank, 3u);
  EXPECT_TRUE(f.session.empty());

  f = next();
  EXPECT_EQ(f.type, MsgType::kReport);
  double time = 0.0;
  ASSERT_TRUE(net::parse_f64_body(f.body, time));
  EXPECT_DOUBLE_EQ(time, 1.25);

  f = next();
  EXPECT_EQ(f.type, MsgType::kFetch);
  EXPECT_EQ(f.rank, 9u);
  core::Point decoded;
  ASSERT_TRUE(net::parse_config_body(f.body, decoded));
  EXPECT_EQ(decoded, cfg);

  f = next();
  EXPECT_EQ(f.type, MsgType::kError);
  EXPECT_EQ(std::string(f.body.begin(), f.body.end()), "boom");

  f = next();
  EXPECT_EQ(f.type, MsgType::kAttach);
  std::uint32_t clients = 0;
  ASSERT_TRUE(net::parse_u32_body(f.body, clients));
  EXPECT_EQ(clients, 64u);

  EXPECT_EQ(off, buf.size());
}

TEST(NetFrame, EveryTruncationAsksForMoreNeverErrors) {
  const std::vector<std::uint8_t> buf = attach_frame("session-name", 11);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const Decoded d = net::decode_frame({buf.data(), len});
    EXPECT_EQ(d.status, DecodeStatus::kNeedMore)
        << "prefix of " << len << " bytes";
  }
  EXPECT_EQ(net::decode_frame({buf.data(), buf.size()}).status,
            DecodeStatus::kFrame);
}

TEST(NetFrame, RejectsOversizedLengthFromThePrefixAlone) {
  std::vector<std::uint8_t> buf;
  net::append_u32(buf, static_cast<std::uint32_t>(net::kMaxFrameBytes) + 1);
  // Only the length prefix has arrived; the verdict must not wait for (or
  // try to buffer) a megabyte that is never coming.
  const Decoded d = net::decode_frame({buf.data(), buf.size()});
  EXPECT_EQ(d.status, DecodeStatus::kBadFrame);
  EXPECT_FALSE(d.error.empty());
}

TEST(NetFrame, RejectsBelowMinimumLength) {
  std::vector<std::uint8_t> buf;
  net::append_u32(buf, 7);  // below the 8-byte fixed header remainder
  EXPECT_EQ(net::decode_frame({buf.data(), buf.size()}).status,
            DecodeStatus::kBadFrame);
}

TEST(NetFrame, RejectsGarbageTypeVersionAndSessionOverrun) {
  const std::vector<std::uint8_t> good = attach_frame("abc", 1);
  // One dialect: every version byte but kWireVersion is rejected,
  // including the retired version 1.
  for (const int version : {0, 1, 3, 99, 0xFF}) {
    std::vector<std::uint8_t> bad = good;
    bad[4] = static_cast<std::uint8_t>(version);
    EXPECT_EQ(net::decode_frame({bad.data(), bad.size()}).status,
              DecodeStatus::kBadFrame)
        << "version " << version;
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[5] = 0;  // type below range
    EXPECT_EQ(net::decode_frame({bad.data(), bad.size()}).status,
              DecodeStatus::kBadFrame);
    bad[5] = 7;  // type above the range (6 is kStats, valid)
    EXPECT_EQ(net::decode_frame({bad.data(), bad.size()}).status,
              DecodeStatus::kBadFrame);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[6] = 0xFF;  // session_len far beyond the frame
    bad[7] = 0xFF;
    EXPECT_EQ(net::decode_frame({bad.data(), bad.size()}).status,
              DecodeStatus::kBadFrame);
  }
}

TEST(NetFrame, TraceTrailerRoundTripsOnEveryTracedEncoder) {
  const net::WireTrace trace{0x1122334455667788ull, 0x99AABBCCDDEEFF00ull};
  std::vector<std::uint8_t> buf;
  net::append_simple(buf, MsgType::kFetch, 2, "t", &trace);
  net::append_report(buf, 3, {}, 1.5, &trace);
  core::Point cfg{2.0, 4.0};
  net::append_config(buf, 4, cfg, &trace);
  net::append_simple(buf, MsgType::kDetach, 5, {});  // untraced control

  std::size_t off = 0;
  auto next = [&] {
    const Decoded d = net::decode_frame({buf.data() + off, buf.size() - off});
    EXPECT_EQ(d.status, DecodeStatus::kFrame);
    off += d.consumed;
    return d.frame;
  };
  for (int i = 0; i < 3; ++i) {
    const net::Frame f = next();
    ASSERT_TRUE(f.has_trace) << "frame " << i;
    EXPECT_EQ(f.trace.trace_id, trace.trace_id);
    EXPECT_EQ(f.trace.span_id, trace.span_id);
    if (f.type == MsgType::kReport) {
      double time = 0.0;
      ASSERT_TRUE(net::parse_f64_body(f.body, time));
      EXPECT_DOUBLE_EQ(time, 1.5);  // the trailer is not part of the body
    }
    if (f.type == MsgType::kFetch && !f.body.empty()) {
      core::Point decoded;
      ASSERT_TRUE(net::parse_config_body(f.body, decoded));
      EXPECT_EQ(decoded, cfg);
    }
  }
  const net::Frame plain = next();
  EXPECT_EQ(plain.type, MsgType::kDetach);
  EXPECT_FALSE(plain.has_trace);
  EXPECT_EQ(off, buf.size());

  // Truncation with a trailer present still never errors mid-frame.
  std::vector<std::uint8_t> one;
  net::append_report(one, 1, "s", 2.0, &trace);
  for (std::size_t len = 0; len < one.size(); ++len) {
    EXPECT_EQ(net::decode_frame({one.data(), len}).status,
              DecodeStatus::kNeedMore);
  }
}

TEST(NetFrame, EncodersEmitTheDocumentedBytes) {
  // Golden bytes for the net/frame.h layout, which a round trip cannot pin
  // (a change on both the encode and the decode side passes it): u32
  // length, version 2, type (bit 7: trailer), u16 session_len, u32 rank,
  // session, body, then the trace trailer when there is one.
  using Bytes = std::vector<std::uint8_t>;
  const net::WireTrace trace{0x1122334455667788ull, 0x99AABBCCDDEEFF00ull};
  const Bytes trailer = {0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
                         0x00, 0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99};
  Bytes attach, report, fetch, detach;
  net::append_simple(attach, MsgType::kAttach, 7, "gs2");
  net::append_report(report, 3, {}, 1.5, &trace);
  net::append_config(fetch, 4, core::Point{2.0, -0.5}, &trace);
  net::append_simple(detach, MsgType::kDetach, 5, {});

  EXPECT_EQ(attach, (Bytes{11, 0, 0, 0, 2, 0x01, 3, 0, 7, 0, 0, 0,
                           'g', 's', '2'}));
  Bytes want = {32, 0, 0, 0, 2, 0x83, 0, 0, 3, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0xF8, 0x3F};           // 1.5
  want.insert(want.end(), trailer.begin(), trailer.end());
  EXPECT_EQ(report, want);
  want = {44, 0, 0, 0, 2, 0x82, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0,  // n = 2
          0, 0, 0, 0, 0, 0, 0x00, 0x40,                        // 2.0
          0, 0, 0, 0, 0, 0, 0xE0, 0xBF};                       // -0.5
  want.insert(want.end(), trailer.begin(), trailer.end());
  EXPECT_EQ(fetch, want);
  EXPECT_EQ(detach, (Bytes{8, 0, 0, 0, 2, 0x04, 0, 0, 5, 0, 0, 0}));

  EXPECT_EQ(net::kWireVersion, 2);
  for (const Bytes* b : {&attach, &report, &fetch, &detach}) {
    const Decoded d = net::decode_frame({b->data(), b->size()});
    ASSERT_EQ(d.status, DecodeStatus::kFrame);
    EXPECT_EQ(d.consumed, b->size());
    EXPECT_EQ(d.frame.has_trace, b == &report || b == &fetch);
  }
}

TEST(NetFrame, StatsBodyRoundTripsThroughTheCodec) {
  obs::RegistrySnapshot snap;
  {
    obs::Registry reg;
    reg.counter("protuner_client_ops_total", "ops", {{"phase", "fetch"}})
        .add(42);
    reg.gauge("protuner_client_depth").set(-3);
    obs::Histogram& h = reg.histogram("protuner_client_ns", "latency");
    h.record(1000.0);
    h.record(3e6);
    snap = reg.snapshot();
  }
  std::vector<std::uint8_t> body;
  net::encode_stats(body, snap);

  // As a full kStats frame through the wire codec.
  std::vector<std::uint8_t> buf;
  net::append_frame(buf, MsgType::kStats, 5, "telemetry",
                    {body.data(), body.size()});
  const Decoded d = net::decode_frame({buf.data(), buf.size()});
  ASSERT_EQ(d.status, DecodeStatus::kFrame);
  EXPECT_EQ(d.frame.type, MsgType::kStats);

  obs::RegistrySnapshot decoded;
  ASSERT_TRUE(net::decode_stats(d.frame.body, decoded));
  ASSERT_EQ(decoded.instruments.size(), snap.instruments.size());
  const obs::InstrumentSnapshot* ops =
      decoded.find("protuner_client_ops_total");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->value, 42.0);
  ASSERT_EQ(ops->labels.size(), 1u);
  EXPECT_EQ(ops->labels[0].first, "phase");
  EXPECT_EQ(ops->labels[0].second, "fetch");
  const obs::InstrumentSnapshot* lat = decoded.find("protuner_client_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count, 2u);
  EXPECT_DOUBLE_EQ(lat->hist.max, 3e6);

  // The decoder is defensive: every truncation of a valid body fails
  // cleanly instead of reading out of bounds or throwing.
  for (std::size_t len = 0; len < body.size(); ++len) {
    obs::RegistrySnapshot scratch;
    EXPECT_FALSE(net::decode_stats({body.data(), len}, scratch))
        << "truncated stats body of " << len << " bytes decoded";
  }
}

TEST(NetFrame, StatsDecoderRejectsNonPrometheusIdentifiers) {
  // Names and label keys land verbatim in the /metrics exposition, so the
  // decoder holds them to the Prometheus identifier charset.
  const auto encode_one = [](const std::string& name, const std::string& key) {
    obs::RegistrySnapshot snap;
    obs::InstrumentSnapshot s;
    s.kind = obs::InstrumentKind::kCounter;
    s.name = name;
    if (!key.empty()) s.labels = {{key, "v"}};
    s.value = 1.0;
    snap.instruments.push_back(std::move(s));
    std::vector<std::uint8_t> body;
    net::encode_stats(body, snap);
    return body;
  };
  obs::RegistrySnapshot scratch;
  const auto rejects = [&](const std::string& name, const std::string& key) {
    const std::vector<std::uint8_t> body = encode_one(name, key);
    return !net::decode_stats({body.data(), body.size()}, scratch);
  };
  EXPECT_FALSE(rejects("ok_total", "ok_key"));
  EXPECT_FALSE(rejects("ns:sub_total", "key_2"));
  EXPECT_TRUE(rejects("bad name", ""));
  EXPECT_TRUE(rejects("bad\ntotal 9\ninjected 1", ""));
  EXPECT_TRUE(rejects("bad\"quote", ""));
  EXPECT_TRUE(rejects("9starts_with_digit", ""));
  EXPECT_TRUE(rejects("ok_total", "bad key"));
  EXPECT_TRUE(rejects("ok_total", "k=\"v\"},fake"));
  EXPECT_TRUE(rejects("ok_total", "colons:reserved"));
}

TEST(NetFrame, StatsDecoderRejectsNonIncreasingBucketIndices) {
  // A duplicated bucket index would be last-wins in counts[] while count
  // accumulates every entry, desynchronizing the two.  The encoder walks
  // buckets in order, so strictly-increasing is the only honest stream.
  const auto body_with_buckets =
      [](const std::vector<std::pair<std::uint16_t, std::uint64_t>>& buckets) {
        std::vector<std::uint8_t> body;
        net::append_u32(body, 1);  // one instrument
        body.push_back(2);         // kHistogram
        net::append_u16(body, 4);
        body.insert(body.end(), {'h', '_', 'n', 's'});
        net::append_u16(body, 0);  // empty help
        body.push_back(0);         // no labels
        net::append_u32(body, static_cast<std::uint32_t>(buckets.size()));
        for (const auto& [idx, c] : buckets) {
          net::append_u16(body, idx);
          net::append_u64(body, c);
        }
        net::append_f64(body, 100.0);
        return body;
      };
  obs::RegistrySnapshot snap;
  std::vector<std::uint8_t> ok = body_with_buckets({{3, 1}, {7, 2}});
  ASSERT_TRUE(net::decode_stats({ok.data(), ok.size()}, snap));
  EXPECT_EQ(snap.instruments[0].hist.count, 3u);
  std::vector<std::uint8_t> dup = body_with_buckets({{3, 1}, {3, 2}});
  EXPECT_FALSE(net::decode_stats({dup.data(), dup.size()}, snap));
  std::vector<std::uint8_t> desc = body_with_buckets({{7, 2}, {3, 1}});
  EXPECT_FALSE(net::decode_stats({desc.data(), desc.size()}, snap));
}

TEST(NetFrame, StatsDeltaSubtractsCountersAndCarriesLevels) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("ops_total");
  obs::Gauge& g = reg.gauge("depth");
  obs::Histogram& h = reg.histogram("lat_ns");
  c.add(10);
  g.set(4);
  h.record(100.0);
  const obs::RegistrySnapshot first = reg.snapshot();
  c.add(5);
  g.set(2);
  h.record(100.0);
  h.record(900.0);
  const obs::RegistrySnapshot second = reg.snapshot();

  const obs::RegistrySnapshot delta = net::stats_delta(second, first);
  const obs::InstrumentSnapshot* ops = delta.find("ops_total");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->value, 5.0) << "counters ship as deltas";
  const obs::InstrumentSnapshot* depth = delta.find("depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 2.0) << "gauges ship as levels";
  const obs::InstrumentSnapshot* lat = delta.find("lat_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count, 2u) << "buckets ship as deltas";
  EXPECT_DOUBLE_EQ(lat->hist.max, 900.0);

  // A quiet period yields an empty delta — nothing to push.
  const obs::RegistrySnapshot quiet = net::stats_delta(second, second);
  EXPECT_TRUE(quiet.instruments.empty());
}

TEST(NetFrame, ReassemblesFramesAtEveryChunking) {
  // A realistic burst: several frames of different kinds back to back.
  std::vector<std::uint8_t> stream;
  net::append_simple(stream, MsgType::kAttach, 0, "chunked");
  core::Point cfg{1.0, 2.0};
  net::append_config(stream, 1, cfg);
  net::append_report(stream, 2, {}, 3.5);
  net::append_simple(stream, MsgType::kDetach, 3, {});

  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    std::vector<std::uint8_t> acc;
    std::vector<MsgType> seen;
    std::size_t fed = 0;
    while (fed < stream.size()) {
      const std::size_t n = std::min(chunk, stream.size() - fed);
      acc.insert(acc.end(), stream.begin() + fed, stream.begin() + fed + n);
      fed += n;
      std::size_t off = 0;
      for (;;) {
        const Decoded d =
            net::decode_frame({acc.data() + off, acc.size() - off});
        ASSERT_NE(d.status, DecodeStatus::kBadFrame)
            << "chunk size " << chunk;
        if (d.status != DecodeStatus::kFrame) break;
        seen.push_back(d.frame.type);
        off += d.consumed;
      }
      acc.erase(acc.begin(), acc.begin() + off);
    }
    ASSERT_EQ(seen.size(), 4u) << "chunk size " << chunk;
    EXPECT_EQ(seen[0], MsgType::kAttach);
    EXPECT_EQ(seen[1], MsgType::kFetch);
    EXPECT_EQ(seen[2], MsgType::kReport);
    EXPECT_EQ(seen[3], MsgType::kDetach);
    EXPECT_TRUE(acc.empty());
  }
}

TEST(NetFrame, CoalescedBufferDecodesAllFramesExactly) {
  std::vector<std::uint8_t> buf;
  constexpr int kFrames = 100;
  for (int i = 0; i < kFrames; ++i) {
    net::append_report(buf, static_cast<std::uint32_t>(i), {}, i * 0.5);
  }
  std::size_t off = 0;
  for (int i = 0; i < kFrames; ++i) {
    const Decoded d = net::decode_frame({buf.data() + off, buf.size() - off});
    ASSERT_EQ(d.status, DecodeStatus::kFrame);
    EXPECT_EQ(d.frame.rank, static_cast<std::uint32_t>(i));
    off += d.consumed;
  }
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(net::decode_frame({buf.data() + off, 0}).status,
            DecodeStatus::kNeedMore);
}

TEST(NetFrame, FuzzRandomBytesNeverCrashOrOverconsume) {
  util::Rng rng(0xF00DF00Du);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = static_cast<std::size_t>(rng() % 256);
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    // Greedy decode must terminate: every kFrame consumes > 0 bytes and
    // any other status ends the loop.
    std::size_t off = 0;
    for (;;) {
      const Decoded d =
          net::decode_frame({buf.data() + off, buf.size() - off});
      if (d.status != DecodeStatus::kFrame) break;
      ASSERT_GT(d.consumed, 0u);
      ASSERT_LE(off + d.consumed, buf.size());
      off += d.consumed;
    }
  }
}

TEST(NetFrame, FuzzCorruptedValidFramesDecodeOrRejectCleanly) {
  // Every encoder's output: untraced and traced frames, an Error and a
  // Stats push whose body decode_stats must also survive corrupted.
  std::vector<std::uint8_t> corpus;
  const net::WireTrace trace{0x0123456789ABCDEFull, 42};
  const core::Point cfg{1.0, 2.0, 3.0, 4.0};
  net::append_simple(corpus, MsgType::kAttach, 1, "fuzzed-session");
  net::append_config(corpus, 2, cfg);
  net::append_report(corpus, 3, {}, 0.75, &trace);
  net::append_config(corpus, 4, cfg, &trace);
  net::append_error(corpus, 5, "report: attach first");
  obs::Registry reg;
  reg.counter("fuzz_ops_total", "ops", {{"phase", "fetch"}}).add(7);
  reg.histogram("fuzz_ns", "latency").record(4e5);
  std::vector<std::uint8_t> stats_body;
  net::encode_stats(stats_body, reg.snapshot());
  net::append_frame(corpus, MsgType::kStats, 6, {}, stats_body);

  util::Rng rng(0xBADC0DEu);
  std::size_t stats_bodies = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> buf = corpus;
    // Corrupt 1-4 random bytes.
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      buf[rng() % buf.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    std::size_t off = 0;
    for (;;) {
      const Decoded d =
          net::decode_frame({buf.data() + off, buf.size() - off});
      if (d.status == DecodeStatus::kBadFrame) {
        EXPECT_FALSE(d.error.empty());
        break;
      }
      if (d.status != DecodeStatus::kFrame) break;
      ASSERT_GT(d.consumed, 0u);
      ASSERT_LE(off + d.consumed, buf.size());
      // Whatever survived the corruption, its session, body and trailer
      // lie in order wholly inside this frame's bytes [off, off + consumed).
      const net::Frame& fr = d.frame;
      const auto* session =
          reinterpret_cast<const std::uint8_t*>(fr.session.data());
      ASSERT_GE(session, buf.data() + off);
      ASSERT_LE(session + fr.session.size(), fr.body.data());
      const std::size_t trailer = fr.has_trace ? net::kTraceTrailerBytes : 0;
      ASSERT_EQ(fr.body.data() + fr.body.size() + trailer,
                buf.data() + off + d.consumed);
      if (fr.type == MsgType::kStats) {
        obs::RegistrySnapshot snap;  // false or a snapshot; never an overread
        (void)net::decode_stats(fr.body, snap);
        ++stats_bodies;
      }
      off += d.consumed;
    }
  }
  EXPECT_GT(stats_bodies, 0u);
}

TEST(NetFrame, BodyParsersRejectWrongSizes) {
  std::uint32_t u = 0;
  double f = 0.0;
  core::Point p;
  const std::uint8_t bytes[16] = {};
  EXPECT_FALSE(net::parse_u32_body({bytes, 3}, u));
  EXPECT_FALSE(net::parse_u32_body({bytes, 5}, u));
  EXPECT_TRUE(net::parse_u32_body({bytes, 4}, u));
  EXPECT_FALSE(net::parse_f64_body({bytes, 7}, f));
  EXPECT_TRUE(net::parse_f64_body({bytes, 8}, f));
  // Config body: count must match the payload exactly.
  std::vector<std::uint8_t> body;
  net::append_u32(body, 2);
  net::append_f64(body, 1.0);
  EXPECT_FALSE(net::parse_config_body({body.data(), body.size()}, p));
  net::append_f64(body, 2.0);
  EXPECT_TRUE(net::parse_config_body({body.data(), body.size()}, p));
  EXPECT_EQ(p, (core::Point{1.0, 2.0}));
}

}  // namespace
}  // namespace protuner
