#include "trace.h"

#include <algorithm>
#include <mutex>
#include <ostream>

namespace perfbench {

namespace {

// Owner of every slot.  Leaked on purpose: thread-local leases are returned
// during thread exit, which for the main thread runs after static
// destructors would have torn a static registry down.
struct Slots {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadTrace>> owned;
  std::vector<ThreadTrace*> free;
};

Slots& slots() {
  static Slots* s = new Slots();
  return *s;
}

struct Lease {
  ThreadTrace* trace = nullptr;
  ~Lease() {
    if (trace == nullptr) return;
    Slots& s = slots();
    const std::lock_guard lock(s.mutex);
    s.free.push_back(trace);
  }
};

thread_local Lease lease;

const double kNsPerTick = protuner::obs::LatencyClock::ns_per_tick();

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case kRep: return "exp.rep";
    case kSession: return "core.session";
    case kPropose: return "core.strategy.propose";
    case kObserve: return "core.strategy.observe";
    case kRunStep: return "cluster.run_step";
    case kCleanTime: return "gs2.clean_times";
    case kNoise: return "varmodel.sample_batch";
    case kFetch: return "client.fetch";
    case kReport: return "client.report";
    case kLayerCount: break;
  }
  return "?";
}

void FineHist::record(double v) {
  std::size_t i = 0;
  if (v >= 1.0) {
    int e = 0;
    const double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
    const auto sub = static_cast<std::size_t>((m - 0.5) * 2.0 * kSub);
    i = std::min<std::size_t>(static_cast<std::size_t>(e) * kSub + sub,
                              counts_.size() - 1);
  }
  ++counts_[i];
  ++n_;
}

void FineHist::merge(const FineHist& o) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  n_ += o.n_;
}

double FineHist::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      if (i == 0) return 0.5;
      const int e = static_cast<int>(i / kSub);
      const double sub = static_cast<double>(i % kSub);
      // Centre of [ (0.5 + sub/2S) 2^e, (0.5 + (sub+1)/2S) 2^e ).
      return std::ldexp(0.5 + (sub + 0.5) / (2.0 * kSub), e);
    }
  }
  return 0.0;
}

void LayerStats::merge(const LayerStats& o) {
  calls += o.calls;
  items += o.items;
  total_ns += o.total_ns;
  self_ns += o.self_ns;
  hist.merge(o.hist);
}

ThreadTrace::ThreadTrace() {
  spans_.reserve(4096);
  stack_.reserve(16);
  child_ticks_.reserve(4096);
  kept_.reserve(kKeptSpans);
}

ThreadTrace& ThreadTrace::current() {
  if (lease.trace == nullptr) {
    Slots& s = slots();
    const std::lock_guard lock(s.mutex);
    if (!s.free.empty()) {
      lease.trace = s.free.back();
      s.free.pop_back();
    } else {
      s.owned.push_back(std::make_unique<ThreadTrace>());
      lease.trace = s.owned.back().get();
    }
  }
  return *lease.trace;
}

std::vector<ThreadTrace*> ThreadTrace::all() {
  Slots& s = slots();
  const std::lock_guard lock(s.mutex);
  std::vector<ThreadTrace*> out;
  for (const auto& t : s.owned) out.push_back(t.get());
  return out;
}

std::int32_t ThreadTrace::begin(Layer l) {
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({protuner::obs::LatencyClock::now(), 0,
                    stack_.empty() ? -1 : stack_.back(), l});
  stack_.push_back(idx);
  return idx;
}

void ThreadTrace::end(std::int32_t idx, std::uint64_t items) {
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end = protuner::obs::LatencyClock::now();
  stats_[s.layer].items += items;
  stack_.pop_back();
  if (stack_.empty()) fold();
}

void ThreadTrace::fold() {
  child_ticks_.assign(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ticks_[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end - s.start) * kNsPerTick;
    LayerStats& st = stats_[s.layer];
    ++st.calls;
    st.total_ns += dur;
    st.self_ns +=
        dur - static_cast<double>(child_ticks_[i]) * kNsPerTick;
    st.hist.record(dur);
  }
  if (kept_.size() + spans_.size() <= kKeptSpans) {
    const auto base = static_cast<std::int32_t>(kept_.size());
    for (Span s : spans_) {
      if (s.parent >= 0) s.parent += base;
      kept_.push_back(s);
    }
  }
  spans_.clear();
}

void ThreadTrace::reset() {
  stats_ = {};
  kept_.clear();
}

std::array<LayerStats, kLayerCount> merge_all() {
  std::array<LayerStats, kLayerCount> out{};
  for (const ThreadTrace* t : ThreadTrace::all()) {
    for (std::size_t l = 0; l < kLayerCount; ++l) out[l].merge(t->stats()[l]);
  }
  return out;
}

void reset_all() {
  for (ThreadTrace* t : ThreadTrace::all()) t->reset();
}

void write_spans(std::ostream& out) {
  out << "slot\tspan\tparent\tlayer\tstart_ns\tend_ns\n";
  std::uint64_t origin = UINT64_MAX;
  const auto traces = ThreadTrace::all();
  for (const ThreadTrace* t : traces) {
    for (const Span& s : t->kept()) origin = std::min(origin, s.start);
  }
  for (std::size_t slot = 0; slot < traces.size(); ++slot) {
    const auto& kept = traces[slot]->kept();
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const Span& s = kept[i];
      out << slot << '\t' << i << '\t' << s.parent << '\t'
          << layer_name(s.layer) << '\t'
          << static_cast<double>(s.start - origin) * kNsPerTick << '\t'
          << static_cast<double>(s.end - origin) * kNsPerTick << '\n';
    }
  }
}

}  // namespace perfbench
