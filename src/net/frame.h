// Binary wire protocol for the Harmony serving tier (DESIGN.md §14/§15).
//
// Every message on the wire is one length-prefixed little-endian frame:
//
//   offset  size  field
//   0       4     length       bytes following this field (8 .. kMaxFrameBytes)
//   4       1     version      kWireVersion (2); any other value is rejected
//   5       1     type         MsgType in the low 7 bits; bit 7 = trace trailer
//   6       2     session_len  bytes of session name following the header
//   8       4     rank         client rank the frame concerns
//   12      s     session      UTF-8 session name (s == session_len)
//   12+s    b     body         type-specific payload
//   end-16  16    trace        OPTIONAL trailer: u64 trace_id, u64 span_id
//
// The trailer is present iff bit 7 of the type byte is set; it is counted in
// `length` and sits at the very end of the frame, after the body, so
// `b == length - 8 - s - (trailer ? 16 : 0)`.
//
// Bodies (all integers little-endian, doubles IEEE-754 little-endian):
//   Attach  request: empty            reply: u32 clients (session width)
//   Fetch   request: empty            reply: u32 n, n × f64 configuration
//   Report  request: f64 time         reply: empty (ack)
//   Detach  request: empty            reply: empty (ack)
//   Error   server → client only: UTF-8 message; the connection closes next
//   Stats   request: metric deltas (see net/stats_codec.h)
//                                     reply: empty (ack)
//
// After Attach binds a connection to a session, requests may carry an empty
// session name (meaning "the bound session") to keep steady-state frames
// small; replies always do.
//
// The decoder is incremental and allocation-free: feed it the unconsumed
// prefix of a receive buffer and it either yields one complete frame (views
// into the buffer — valid only until the buffer is next mutated), asks for
// more bytes, or rejects the stream.  Truncation is never an error (the
// bytes may still be in flight); a malformed header is fatal to the
// connection because framing can no longer be trusted.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "core/types.h"

namespace protuner::net {

/// The only wire version spoken or accepted.
inline constexpr std::uint8_t kWireVersion = 2;
/// Fixed header: length prefix + version + type + session_len + rank.
inline constexpr std::size_t kFixedHeaderBytes = 12;
/// Bit 7 of the type byte: a 16-byte trace trailer ends the frame.
inline constexpr std::uint8_t kTraceFlag = 0x80;
inline constexpr std::size_t kTraceTrailerBytes = 16;
/// Hard cap on the `length` field.  A frame can carry a ~128k-dimensional
/// configuration, far beyond any tunable space in the repo; anything larger
/// is a corrupt stream or an attack, not a workload.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

enum class MsgType : std::uint8_t {
  kAttach = 1,
  kFetch = 2,
  kReport = 3,
  kDetach = 4,
  kError = 5,
  kStats = 6,  ///< client telemetry push
};

/// Cross-process trace correlation carried by the trailer: which round
/// (trace_id) and which server-side span (span_id) a frame belongs to.
struct WireTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

/// One decoded frame.  `session` and `body` view the caller's buffer.
struct Frame {
  MsgType type = MsgType::kError;
  std::uint32_t rank = 0;
  std::string_view session;
  std::span<const std::uint8_t> body;
  bool has_trace = false;  ///< the frame carried a trace trailer
  WireTrace trace;         ///< valid when has_trace
};

enum class DecodeStatus {
  kNeedMore,  ///< no complete frame yet — read more bytes and retry
  kFrame,     ///< one frame decoded; drop `consumed` bytes and retry
  kBadFrame,  ///< framing is broken — the connection must be closed
};

struct Decoded {
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::size_t consumed = 0;        ///< valid for kFrame
  Frame frame;                     ///< valid for kFrame
  std::string_view error;          ///< static message, valid for kBadFrame
};

/// Attempts to decode one frame from the front of `buf`.  Never throws,
/// never allocates, never reads past `buf`.
Decoded decode_frame(std::span<const std::uint8_t> buf);

// ----------------------------------------------------------- LE primitives

inline void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
inline void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}
inline void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
inline void append_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  append_u64(out, bits);
}
inline std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}
inline double load_f64(const std::uint8_t* p) {
  const std::uint64_t bits = load_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// ---------------------------------------------------------------- encoders
// All encoders append to `out` (they never clear it), so one buffer can
// batch several frames before a single send.  Appending into a warm vector
// reuses its capacity — no allocation in steady state.
//
// Encoders that take a `trace` append the 16-byte trailer (and set bit 7 of
// the type byte) iff it is non-null.

/// Frame with an arbitrary body.
void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::uint32_t rank, std::string_view session,
                  std::span<const std::uint8_t> body,
                  const WireTrace* trace = nullptr);

/// Body-less frame (Attach/Fetch/Detach requests, Report/Detach acks).
void append_simple(std::vector<std::uint8_t>& out, MsgType type,
                   std::uint32_t rank, std::string_view session,
                   const WireTrace* trace = nullptr);

/// Attach ack: u32 session width.
void append_attach_ack(std::vector<std::uint8_t>& out, std::uint32_t rank,
                       std::uint32_t clients);

/// Report request: one f64 observed time.
void append_report(std::vector<std::uint8_t>& out, std::uint32_t rank,
                   std::string_view session, double time,
                   const WireTrace* trace = nullptr);

/// Fetch reply: u32 count + count × f64.
void append_config(std::vector<std::uint8_t>& out, std::uint32_t rank,
                   const core::Point& config,
                   const WireTrace* trace = nullptr);

/// Error frame: UTF-8 message as the body.
void append_error(std::vector<std::uint8_t>& out, std::uint32_t rank,
                  std::string_view message);

// ------------------------------------------------------------- body parsers
// Return false on malformed bodies (wrong size); never throw.

bool parse_u32_body(std::span<const std::uint8_t> body, std::uint32_t& out);
bool parse_f64_body(std::span<const std::uint8_t> body, double& out);
/// Parses a Fetch reply into `out`, reusing its capacity.
bool parse_config_body(std::span<const std::uint8_t> body, core::Point& out);

}  // namespace protuner::net
