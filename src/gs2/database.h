// Measured-performance database with weighted-nearest-neighbour
// interpolation — the paper's evaluation substrate (§6): "we used a data
// base that contains the performance of the GS2 application for different
// parameter values ... the data base does not contain all possible
// combinations.  If a point is not in the data base, we use weighted
// average of its closest neighbors performance values."
//
// Here the "measurements" are generated by sampling a Landscape (normally
// Gs2Surface) on a sparse sub-grid, optionally with one-shot measurement
// noise baked in — exactly the role the authors' measured database played.
//
// The database is immutable: it is constructed from its complete table,
// which must be a full product grid (every combination of each axis's
// stored values — what measure() and load() of save()'s output produce),
// and the constructor builds the index once.  Every lookup goes through
// clean_time(), which tries three tiers in order and memoises the answer:
//   1. lattice memo  — one 64-bit slot per admissible point of an all-
//                      integer/discrete space, read with one relaxed load
//                      and filled with one relaxed store, so hits and
//                      racing misses write nothing shared;
//   2. exact grid row — one branch-free search per axis over that axis's
//                      stored values; when every axis holds x's
//                      coordinate, the mixed-radix row is the answer;
//   3. grid walk     — otherwise the same per-axis indices locate x's
//                      cell, and a window grown from the cell's nearest
//                      corner finds the k nearest rows for inverse-distance
//                      weighting, bit-identical to the brute-force
//                      reference.
// A stored lattice point therefore costs one search per axis and is a memo
// hit after that.  Points off the lattice (and every point of a space with
// a continuous axis) have no memo slot and take the exact row or the walk
// every time: the strategies only propose admissible points, so no
// workload repeats an off-lattice query.  The walk still counts as
// tier=kdtree in protuner_db_lookups_total: the label names the
// interpolation tier, and dashboards and benchmark gates read it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/landscape.h"
#include "core/parameter_space.h"
#include "util/rng.h"
#include "varmodel/noise_model.h"

namespace protuner::gs2 {

struct DatabaseOptions {
  /// Keep every `stride`-th admissible value per axis when sampling the
  /// source surface (stride 2 reproduces "not all combinations present").
  std::size_t stride = 2;
  /// Number of neighbours used for off-grid interpolation.
  std::size_t interpolation_neighbors = 4;
  /// Inverse-distance weighting exponent.
  double idw_power = 2.0;
};

/// A sparse table of (configuration -> measured time) implementing
/// core::Landscape via weighted-nearest-neighbour lookup.
///
/// Concurrency contract: every member is const, so any number of threads
/// may call any of them concurrently.
class Database final : public core::Landscape {
 public:
  /// Builds the index over `table`.  Throws std::invalid_argument on an
  /// empty table, an arity mismatch, a non-finite coordinate, a non-finite
  /// or non-positive time, or a table that is not a full product grid
  /// (its size differs from the product of its distinct values per axis).
  Database(core::ParameterSpace space, std::map<core::Point, double> table,
           DatabaseOptions options = {});
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;
  ~Database() override;

  /// Builds the database by "measuring" `source` on the sparse sub-grid.
  /// When `noise` is non-null each stored entry is one noisy observation
  /// (measurement error baked into the table, like a real one-shot sweep).
  /// Throws std::invalid_argument when `source` (plus noise) yields a
  /// non-finite or non-positive time.
  static Database measure(const core::ParameterSpace& space,
                          const core::Landscape& source,
                          const DatabaseOptions& options,
                          const varmodel::NoiseModel* noise = nullptr,
                          std::uint64_t seed = 0);

  /// Writes all entries as CSV (one row per measurement: the coordinates
  /// followed by the time).  Interpolation options are not persisted.
  void save(std::ostream& out) const;

  /// Reads entries previously written by save() into a new database over
  /// `space`.  Throws std::runtime_error on input with no entries or whose
  /// entries are not a full product grid, and naming the line on malformed
  /// input, arity mismatch, a non-finite coordinate or a non-finite or
  /// non-positive time.
  static Database load(std::istream& in, core::ParameterSpace space,
                       DatabaseOptions options = {});

  /// Exact lookup.
  std::optional<double> exact(const core::Point& x) const;

  std::size_t entries() const { return table_.size(); }
  const core::ParameterSpace& space() const { return space_; }

  /// Landscape interface: exact hit, else inverse-distance-weighted average
  /// of the closest entries (distances in range-normalised coordinates).
  /// Memo first, then the exact grid row, then the grid walk; each lookup
  /// adds one to exactly one protuner_db_lookups_total{tier=memo|exact|
  /// kdtree} (kdtree counts the walk).
  double clean_time(const core::Point& x) const override;

  std::string name() const override { return "GS2Database"; }

  /// Brute-force O(N) interpolation (the pre-index implementation), kept as
  /// the behavioural reference: the indexed path must reproduce it
  /// bit-for-bit.  Bypasses the memo and the exact-hit fast path.
  /// Selection keeps the k smallest (dist2, time) pairs in per-thread
  /// scratch (no steady-state allocation, same result as the historical
  /// partial_sort).
  double interpolate_reference(const core::Point& x) const;

  /// Interpolation through the grid walk, bypassing the memo and the exact
  /// row — the steady-state cost of a memo miss.  For equivalence tests
  /// and benchmarks; clean_time() is the production path.
  double interpolate_uncached(const core::Point& x) const;

  /// Decimates one axis's admissible values by `stride` (>= 1), always
  /// keeping the final value so the grid spans the full range.  An empty
  /// axis stays empty.  Exposed as the unit under test for the measure()
  /// grid construction.
  static std::vector<double> decimate_axis(std::vector<double> all,
                                           std::size_t stride);

 private:
  struct Index;  // grid axes + times + lattice memo (database.cc)

  double normalized_distance2(const core::Point& a,
                              const core::Point& b) const;

  /// Inverse-distance-weighted average of the k nearest entries, given as
  /// ascending (dist2, time) pairs.
  double weighted_average(
      std::span<const std::pair<double, double>> nearest) const;

  core::ParameterSpace space_;
  DatabaseOptions options_;
  std::map<core::Point, double> table_;
  std::unique_ptr<const Index> index_;
};

}  // namespace protuner::gs2
