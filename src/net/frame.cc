#include "net/frame.h"

namespace protuner::net {

namespace {

Decoded bad(std::string_view why) {
  Decoded d;
  d.status = DecodeStatus::kBadFrame;
  d.error = why;
  return d;
}

/// Appends the fixed header and the session; the caller then appends
/// exactly `body_len` body bytes and append_trailer(out, trace).
void append_header(std::vector<std::uint8_t>& out, MsgType type,
                   std::uint32_t rank, std::string_view session,
                   std::size_t body_len, const WireTrace* trace) {
  const std::size_t trailer = trace != nullptr ? kTraceTrailerBytes : 0;
  const std::size_t length = 8 + session.size() + body_len + trailer;
  append_u32(out, static_cast<std::uint32_t>(length));
  out.push_back(kWireVersion);
  std::uint8_t raw_type = static_cast<std::uint8_t>(type);
  if (trace != nullptr) raw_type |= kTraceFlag;
  out.push_back(raw_type);
  append_u16(out, static_cast<std::uint16_t>(session.size()));
  append_u32(out, rank);
  out.insert(out.end(), session.begin(), session.end());
}

void append_trailer(std::vector<std::uint8_t>& out, const WireTrace* trace) {
  if (trace == nullptr) return;
  append_u64(out, trace->trace_id);
  append_u64(out, trace->span_id);
}

}  // namespace

Decoded decode_frame(std::span<const std::uint8_t> buf) {
  Decoded d;
  if (buf.size() < 4) return d;  // kNeedMore
  const std::uint32_t length = load_u32(buf.data());
  if (length < 8) return bad("frame length below the 8-byte header minimum");
  if (length > kMaxFrameBytes) return bad("frame exceeds the size cap");
  if (buf.size() < 4 + static_cast<std::size_t>(length)) return d;
  if (buf[4] != kWireVersion) return bad("unsupported wire version");
  // Bit 7 announces the trailer; the low bits must name a type (1..6).
  const std::uint8_t raw_type = buf[5];
  const bool has_trace = (raw_type & kTraceFlag) != 0;
  const std::uint8_t type = static_cast<std::uint8_t>(raw_type & ~kTraceFlag);
  if (type < static_cast<std::uint8_t>(MsgType::kAttach) ||
      type > static_cast<std::uint8_t>(MsgType::kStats)) {
    return bad("unknown message type");
  }
  const std::uint16_t session_len = load_u16(buf.data() + 6);
  const std::size_t trailer = has_trace ? kTraceTrailerBytes : 0;
  if (8u + session_len + trailer > length) {
    return bad("session name overruns the frame");
  }
  d.status = DecodeStatus::kFrame;
  d.consumed = 4 + static_cast<std::size_t>(length);
  d.frame.type = static_cast<MsgType>(type);
  d.frame.rank = load_u32(buf.data() + 8);
  d.frame.session = std::string_view(
      reinterpret_cast<const char*>(buf.data() + kFixedHeaderBytes),
      session_len);
  d.frame.body = buf.subspan(kFixedHeaderBytes + session_len,
                             length - 8 - session_len - trailer);
  d.frame.has_trace = has_trace;
  if (has_trace) {
    const std::uint8_t* t = buf.data() + 4 + length - kTraceTrailerBytes;
    d.frame.trace.trace_id = load_u64(t);
    d.frame.trace.span_id = load_u64(t + 8);
  }
  return d;
}

void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::uint32_t rank, std::string_view session,
                  std::span<const std::uint8_t> body,
                  const WireTrace* trace) {
  append_header(out, type, rank, session, body.size(), trace);
  out.insert(out.end(), body.begin(), body.end());
  append_trailer(out, trace);
}

void append_simple(std::vector<std::uint8_t>& out, MsgType type,
                   std::uint32_t rank, std::string_view session,
                   const WireTrace* trace) {
  append_frame(out, type, rank, session, {}, trace);
}

void append_attach_ack(std::vector<std::uint8_t>& out, std::uint32_t rank,
                       std::uint32_t clients) {
  append_header(out, MsgType::kAttach, rank, {}, 4, nullptr);
  append_u32(out, clients);
}

void append_report(std::vector<std::uint8_t>& out, std::uint32_t rank,
                   std::string_view session, double time,
                   const WireTrace* trace) {
  append_header(out, MsgType::kReport, rank, session, 8, trace);
  append_f64(out, time);
  append_trailer(out, trace);
}

void append_config(std::vector<std::uint8_t>& out, std::uint32_t rank,
                   const core::Point& config, const WireTrace* trace) {
  append_header(out, MsgType::kFetch, rank, {}, 4 + 8 * config.size(), trace);
  append_u32(out, static_cast<std::uint32_t>(config.size()));
  for (const double v : config) append_f64(out, v);
  append_trailer(out, trace);
}

void append_error(std::vector<std::uint8_t>& out, std::uint32_t rank,
                  std::string_view message) {
  append_header(out, MsgType::kError, rank, {}, message.size(), nullptr);
  out.insert(out.end(), message.begin(), message.end());
}

bool parse_u32_body(std::span<const std::uint8_t> body, std::uint32_t& out) {
  if (body.size() != 4) return false;
  out = load_u32(body.data());
  return true;
}

bool parse_f64_body(std::span<const std::uint8_t> body, double& out) {
  if (body.size() != 8) return false;
  out = load_f64(body.data());
  return true;
}

bool parse_config_body(std::span<const std::uint8_t> body, core::Point& out) {
  if (body.size() < 4) return false;
  const std::uint32_t n = load_u32(body.data());
  if (body.size() != 4 + 8 * static_cast<std::size_t>(n)) return false;
  out.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out[i] = load_f64(body.data() + 4 + 8 * static_cast<std::size_t>(i));
  }
  return true;
}

}  // namespace protuner::net
