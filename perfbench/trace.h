// Benchmark-side tracing: spans recorded around the calls into each layer's
// public interface, plus forwarding decorators that record them.
//
// Every thread that enters a traced call leases its own ThreadTrace slot, so
// recording never writes memory another thread writes: spans, per-layer
// accumulators and duration histograms are all per thread, and merge() folds
// the slots together once a phase has ended.  A slot returns to a free list
// when its thread exits (the repetition runner starts a fresh pool per
// batch), so the slot count stays bounded by the peak thread count.
//
// Spans carry (layer, start, end, parent).  When a thread's outermost span
// closes, its tree is folded: each span's self time is its duration minus
// the time its direct children cover.  The first kKeptSpans spans of each
// slot are kept verbatim and written out by write_spans() when the run ends.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/landscape.h"
#include "core/strategy.h"
#include "obs/fast_clock.h"
#include "varmodel/noise_model.h"

namespace perfbench {

namespace core = protuner::core;
namespace varmodel = protuner::varmodel;
namespace util = protuner::util;

/// One boundary the benchmark times.  kRep and kSession are the runner's
/// repetition and core::run_session; the rest are calls into one layer.
enum Layer : std::uint8_t {
  kRep,        ///< exp: one repetition, construction included
  kSession,    ///< core engine: core::run_session
  kPropose,    ///< core strategy: propose / propose_into
  kObserve,    ///< core strategy: observe
  kRunStep,    ///< cluster: StepEvaluator::run_step_into
  kCleanTime,  ///< gs2: Landscape::clean_times / clean_time
  kNoise,      ///< varmodel: NoiseModel::sample_batch / sample
  kFetch,      ///< harmony / net client: one fetch call
  kReport,     ///< harmony / net client: one report call
  kLayerCount
};

const char* layer_name(Layer l);

/// Log-linear histogram of durations: 32 sub-buckets per power of two, so
/// a quantile is within ~2% of the exact sample value.
class FineHist {
 public:
  void record(double v);
  void merge(const FineHist& o);
  std::uint64_t count() const { return n_; }
  /// Value below which a fraction q of the recordings fall (bucket centre).
  double quantile(double q) const;

 private:
  static constexpr int kSub = 32;
  static constexpr int kOctaves = 48;
  std::array<std::uint64_t, kSub * kOctaves> counts_{};
  std::uint64_t n_ = 0;
};

struct LayerStats {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;  ///< points or draws handed to the layer
  double total_ns = 0.0;
  double self_ns = 0.0;
  FineHist hist;  ///< per-call duration (ns)

  void merge(const LayerStats& o);
};

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int32_t parent = -1;
  Layer layer = kRep;
};

class ThreadTrace {
 public:
  static constexpr std::size_t kKeptSpans = 1 << 16;

  ThreadTrace();
  /// The calling thread's slot, leased on first use.
  static ThreadTrace& current();
  /// Every slot ever leased (the free ones included).
  static std::vector<ThreadTrace*> all();

  std::int32_t begin(Layer l);
  void end(std::int32_t idx, std::uint64_t items);

  const std::array<LayerStats, kLayerCount>& stats() const { return stats_; }
  const std::vector<Span>& kept() const { return kept_; }
  void reset();

 private:
  void fold();

  std::vector<Span> spans_;         ///< the open tree, in begin order
  std::vector<std::int32_t> stack_;
  std::vector<std::uint64_t> child_ticks_;
  std::array<LayerStats, kLayerCount> stats_{};
  std::vector<Span> kept_;
};

/// RAII span on the calling thread.
class SpanScope {
 public:
  explicit SpanScope(Layer l, std::uint64_t items = 0)
      : trace_(ThreadTrace::current()), idx_(trace_.begin(l)), items_(items) {}
  ~SpanScope() { trace_.end(idx_, items_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  ThreadTrace& trace_;
  std::int32_t idx_;
  std::uint64_t items_;
};

/// Sum of every slot's accumulators.
std::array<LayerStats, kLayerCount> merge_all();
/// Clears every slot (start of a traced phase).
void reset_all();
/// Writes the kept spans as TSV: slot, span, parent, layer, start_ns, end_ns.
void write_spans(std::ostream& out);

// ---------------------------------------------------------------- decorators
// Each forwards every virtual of its interface unchanged, so the program
// takes exactly the path it takes undecorated (propose_into and
// sample_batch included), and wraps the calls that do work in a span.

class TracedStrategy final : public core::TuningStrategy {
 public:
  explicit TracedStrategy(core::TuningStrategyPtr inner)
      : inner_(std::move(inner)) {}
  void start(std::size_t ranks) override { inner_->start(ranks); }
  core::StepProposal propose() override {
    SpanScope s(kPropose);
    return inner_->propose();
  }
  void propose_into(std::vector<core::Point>& out) override {
    SpanScope s(kPropose);
    inner_->propose_into(out);
  }
  void observe(std::span<const double> times) override {
    SpanScope s(kObserve, times.size());
    inner_->observe(times);
  }
  const core::Point& best_point() const override {
    return inner_->best_point();
  }
  double best_estimate() const override { return inner_->best_estimate(); }
  bool converged() const override { return inner_->converged(); }
  std::string name() const override { return inner_->name(); }

 private:
  core::TuningStrategyPtr inner_;
};

class TracedEvaluator final : public core::StepEvaluator {
 public:
  explicit TracedEvaluator(core::StepEvaluator& inner) : inner_(inner) {}
  void run_step_into(std::span<const core::Point> configs,
                     std::span<double> out) override {
    SpanScope s(kRunStep, configs.size());
    inner_.run_step_into(configs, out);
  }
  std::size_t ranks() const override { return inner_.ranks(); }
  double rho() const override { return inner_.rho(); }
  double clean_time(const core::Point& x) const override {
    return inner_.clean_time(x);
  }

 private:
  core::StepEvaluator& inner_;
};

class TracedLandscape final : public core::Landscape {
 public:
  explicit TracedLandscape(core::LandscapePtr inner)
      : inner_(std::move(inner)) {}
  double clean_time(const core::Point& x) const override {
    SpanScope s(kCleanTime, 1);
    return inner_->clean_time(x);
  }
  void clean_times(std::span<const core::Point> xs,
                   std::span<double> out) const override {
    SpanScope s(kCleanTime, xs.size());
    inner_->clean_times(xs, out);
  }
  std::uint64_t version() const override { return inner_->version(); }
  std::string name() const override { return inner_->name(); }

 private:
  core::LandscapePtr inner_;
};

class TracedNoise final : public varmodel::NoiseModel {
 public:
  explicit TracedNoise(std::shared_ptr<const varmodel::NoiseModel> inner)
      : inner_(std::move(inner)) {}
  double sample(double clean_time, util::Rng& rng) const override {
    SpanScope s(kNoise, 1);
    return inner_->sample(clean_time, rng);
  }
  void sample_batch(std::span<const double> clean, std::span<util::Rng> rngs,
                    std::span<double> out) const override {
    SpanScope s(kNoise, out.size());
    inner_->sample_batch(clean, rngs, out);
  }
  double n_min(double clean_time) const override {
    return inner_->n_min(clean_time);
  }
  double expected(double clean_time) const override {
    return inner_->expected(clean_time);
  }
  double rho() const override { return inner_->rho(); }
  bool heavy_tailed() const override { return inner_->heavy_tailed(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const varmodel::NoiseModel> inner_;
};

}  // namespace perfbench
