// Body codec for Stats frames (DESIGN.md §15): a serialized
// obs::RegistrySnapshot, the client half of the fleet telemetry push.
//
// Layout (little-endian throughout):
//
//   u32 instrument_count
//   per instrument:
//     u8  kind          0 counter, 1 gauge, 2 histogram
//     u16 name_len      + name bytes
//     u16 help_len      + help bytes
//     u8  label_count   per label: u16 key_len + key, u16 value_len + value
//     payload:
//       counter / gauge    f64 value
//       histogram          u32 nonzero_buckets,
//                          nonzero × (u16 bucket_index, u64 count),
//                          f64 max
//
// Senders ship *deltas* (counters and histogram buckets since the last
// push; max and gauges as current levels) so the receiving
// obs::Registry::merge_from accumulates correctly across repeated pushes.
// The decoder is defensive — it faces network bytes — and rejects any
// truncation or overrun without throwing.  It also rejects instrument
// names and label keys outside the Prometheus identifier charset (they
// would be rendered verbatim into the /metrics exposition) and histogram
// entries whose bucket indices are not strictly increasing (a duplicate
// would desynchronize count from the bucket sum).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.h"

namespace protuner::net {

/// Appends the encoded snapshot to `out` (does not clear it).
void encode_stats(std::vector<std::uint8_t>& out,
                  const obs::RegistrySnapshot& snap);

/// Parses a Stats body into `snap` (replacing its contents).  Returns false
/// on any malformed input; never throws.
bool decode_stats(std::span<const std::uint8_t> body,
                  obs::RegistrySnapshot& snap);

/// The delta between two snapshots of the same registry: counters and
/// histogram buckets subtract (`prev` may lack instruments that appeared
/// since — they pass through whole); gauges and histogram max carry the
/// current level.  Instruments whose delta is all-zero are omitted, so a
/// quiet period encodes to an empty snapshot.
obs::RegistrySnapshot stats_delta(const obs::RegistrySnapshot& current,
                                  const obs::RegistrySnapshot& prev);

}  // namespace protuner::net
