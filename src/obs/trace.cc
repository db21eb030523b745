#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace protuner::obs {

namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local cache mapping tracer ids to that thread's ring, so the
/// recording path never takes the tracer mutex after a thread's first span.
/// A handful of slots is plenty: real processes use the global tracer plus
/// at most a test-local one or two.
struct RingCache {
  static constexpr std::size_t kSlots = 4;
  std::uint64_t ids[kSlots] = {};
  Tracer::Ring* rings[kSlots] = {};
  std::size_t next = 0;
};

thread_local RingCache tls_ring_cache;

thread_local TraceContext tls_trace_context;

}  // namespace

TraceContext current_trace_context() { return tls_trace_context; }

void set_current_trace_context(const TraceContext& ctx) {
  tls_trace_context = ctx;
}

// ---------------------------------------------------------------------- Ring

Tracer::Ring::Ring(std::size_t capacity, std::uint32_t tid_in)
    : spans(capacity > 0 ? capacity : 1), tid(tid_in) {}

// -------------------------------------------------------------------- Tracer

Tracer::Tracer()
    : id_(next_tracer_id()), epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() {
  // Invalidate any thread-local cache entries pointing at our rings.  Only
  // protects the destructing thread's cache; other threads must not record
  // into a tracer being destroyed (the global tracer is never destroyed).
  for (std::size_t i = 0; i < RingCache::kSlots; ++i) {
    if (tls_ring_cache.ids[i] == id_) {
      tls_ring_cache.ids[i] = 0;
      tls_ring_cache.rings[i] = nullptr;
    }
  }
}

Tracer& Tracer::global() {
  // Leaked: worker threads (repetition workers, server ticker) may record
  // during static destruction.  OBS_TRACE is parsed exactly once, here.
  static Tracer* g = [] {
    auto* t = new Tracer();
    if (const char* env = std::getenv("OBS_TRACE")) {
      char* end = nullptr;
      const long long n = std::strtoll(env, &end, 10);
      if (end != env && n > 0) {
        t->configure(true, static_cast<std::uint64_t>(n));
      }
    }
    return t;
  }();
  return *g;
}

void Tracer::configure(bool enabled, std::uint64_t sample_every,
                       std::size_t ring_capacity) {
  sample_every_.store(sample_every > 0 ? sample_every : 1,
                      std::memory_order_relaxed);
  {
    const std::scoped_lock lock(mutex_);
    ring_capacity_ = ring_capacity > 0 ? ring_capacity : 1;
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::Ring& Tracer::thread_ring() {
  RingCache& cache = tls_ring_cache;
  for (std::size_t i = 0; i < RingCache::kSlots; ++i) {
    if (cache.ids[i] == id_) return *cache.rings[i];
  }
  Ring* ring = nullptr;
  {
    const std::scoped_lock lock(mutex_);
    rings_.push_back(std::make_unique<Ring>(ring_capacity_, next_tid_++));
    ring = rings_.back().get();
  }
  const std::size_t slot = cache.next;
  cache.next = (cache.next + 1) % RingCache::kSlots;
  cache.ids[slot] = id_;
  cache.rings[slot] = ring;
  return *ring;
}

void Tracer::push(Ring& ring, const char* name, std::uint64_t start_ns,
                  std::uint64_t dur_ns, const TraceContext& ctx) {
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  TraceSpan& slot = ring.spans[head % ring.spans.size()];
  slot.name = name;
  slot.start_ns = start_ns;
  slot.dur_ns = dur_ns;
  slot.trace_id = ctx.trace_id;
  slot.span_id = ctx.span_id;
  slot.tid = ring.tid;
  slot.depth = ring.depth;
  // Release-publish so a concurrent snapshot that acquires `head` sees the
  // fully written span in every slot below it.
  ring.head.store(head + 1, std::memory_order_release);
}

std::vector<TraceSpan> Tracer::snapshot() const {
  const std::scoped_lock lock(mutex_);
  std::vector<TraceSpan> out;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::size_t cap = ring->spans.size();
    const std::uint64_t held = head < cap ? head : cap;
    // Oldest surviving span first.  A racing writer may overwrite the
    // oldest slots as we copy; for telemetry that torn tail is acceptable
    // (and harmless — spans are plain trivially-copyable data).
    const std::uint64_t begin = head - held;
    for (std::uint64_t i = begin; i < head; ++i) {
      out.push_back(ring->spans[i % cap]);
    }
  }
  return out;
}

std::size_t Tracer::dropped() const {
  const std::scoped_lock lock(mutex_);
  std::size_t dropped = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::size_t cap = ring->spans.size();
    if (head > cap) dropped += static_cast<std::size_t>(head - cap);
  }
  return dropped;
}

void Tracer::clear() {
  const std::scoped_lock lock(mutex_);
  for (const auto& ring : rings_) {
    ring->head.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// Span names are string literals by convention, but the exporter must not
/// trust that: escape anything that would break the JSON string.
void write_escaped(std::ostream& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      out << '\\' << *s;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out << buf;
    } else {
      out << *s;
    }
  }
}

/// Correlation ids render as fixed-width hex strings: u64 exceeds the
/// integer range JSON doubles preserve, and every consumer (trace_merge,
/// Perfetto queries) treats them as opaque tokens anyway.
void write_hex64(std::ostream& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  out << buf;
}

}  // namespace

void Tracer::write_chrome_trace(std::ostream& out, std::uint32_t pid) const {
  std::vector<TraceSpan> spans = snapshot();
  // Ring wrap interleaves old and new spans; viewers want monotone ts.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     return a.start_ns < b.start_ns;
                   });
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) out << ',';
    first = false;
    // Chrome's trace_event timestamps are microseconds (doubles), so
    // nanosecond precision survives as fractional microseconds.
    out << "{\"name\":\"";
    write_escaped(out, s.name != nullptr ? s.name : "?");
    out << "\",\"cat\":\"protuner\",\"ph\":\"X\",\"ts\":"
        << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
        << ",\"pid\":" << pid << ",\"tid\":" << s.tid
        << ",\"args\":{\"depth\":" << s.depth;
    if (s.trace_id != 0) {
      out << ",\"trace\":\"";
      write_hex64(out, s.trace_id);
      out << "\",\"span\":\"";
      write_hex64(out, s.span_id);
      out << '"';
    }
    out << "}}";
  }
  out << "]}\n";
}

// ---------------------------------------------------------------- ScopedSpan

void ScopedSpan::begin(Tracer& tracer, const char* name) {
  Tracer::Ring& ring = tracer.thread_ring();
  const std::uint64_t every =
      tracer.sample_every_.load(std::memory_order_relaxed);
  if (every > 1 && (ring.sample_counter++ % every) != 0) return;
  tracer_ = &tracer;
  ring_ = &ring;
  name_ = name;
  ctx_ = tls_trace_context;
  ring.depth++;
  start_ = tracer.now_ns();
}

void ScopedSpan::finish() {
  const std::uint64_t end = tracer_->now_ns();
  ring_->depth--;
  tracer_->push(*ring_, name_, start_, end - start_, ctx_);
}

}  // namespace protuner::obs
