// Property tests for the indexed evaluation substrate: the grid walk must
// reproduce the brute-force weighted-nearest-neighbour reference
// bit-for-bit (on random points and on every point of whole lattices), the
// batch API must equal scalar lookups, the tier counters must account for
// every point (with only admissible lattice points memoised), the
// constructor must reject tables that are not full product grids, and the
// measure()-grid decimation must handle degenerate axes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/landscape.h"
#include "core/parameter_space.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "varmodel/pareto_noise.h"

namespace protuner::gs2 {
namespace {

/// Random point in the bounding box of `space`, deliberately NOT snapped to
/// admissibility: interpolation queries arrive from simplex arithmetic and
/// may be anywhere in the box.
core::Point random_box_point(const core::ParameterSpace& space,
                             util::Rng& rng) {
  core::Point x(space.size());
  for (std::size_t d = 0; d < space.size(); ++d) {
    x[d] = rng.uniform(space.param(d).lower(), space.param(d).upper());
  }
  return x;
}

/// Random *on-grid* point (every coordinate admissible), which exercises
/// the exact-hit fast path when the point is a stored measurement and the
/// tie-handling of the k-NN selection when it is not.
core::Point random_grid_point(const core::ParameterSpace& space,
                              util::Rng& rng) {
  return space.random_point(rng);
}

/// Every admissible point of an all-integer/discrete space, in odometer
/// order (last axis fastest).
std::vector<core::Point> lattice(const core::ParameterSpace& space) {
  std::vector<std::vector<double>> axes;
  for (const core::Parameter& p : space.params()) {
    std::vector<double> v = p.values();
    if (p.kind() == core::ParamKind::kInteger) {
      for (double c = p.lower(); c <= p.upper(); c += 1.0) v.push_back(c);
    }
    axes.push_back(std::move(v));
  }
  std::vector<core::Point> out;
  std::vector<std::size_t> idx(axes.size(), 0);
  for (;;) {
    core::Point x(axes.size());
    for (std::size_t d = 0; d < axes.size(); ++d) x[d] = axes[d][idx[d]];
    out.push_back(std::move(x));
    std::size_t d = axes.size();
    while (d > 0 && ++idx[d - 1] == axes[d - 1].size()) idx[--d] = 0;
    if (d == 0) return out;
  }
}

/// Number of `points` whose walk, or whose clean_time, differs in any bit
/// from the reference (a stored point's clean_time must be its stored
/// time instead).
int lattice_mismatches(const Database& db,
                       const std::vector<core::Point>& points) {
  int bad = 0;
  for (const core::Point& x : points) {
    const double ref = db.interpolate_reference(x);
    const std::optional<double> hit = db.exact(x);
    const double want = hit ? *hit : ref;
    if (std::bit_cast<std::uint64_t>(db.interpolate_uncached(x)) !=
            std::bit_cast<std::uint64_t>(ref) ||
        std::bit_cast<std::uint64_t>(db.clean_time(x)) !=
            std::bit_cast<std::uint64_t>(want)) {
      ++bad;
    }
  }
  return bad;
}

/// The table measure() built before it wrote the grid directly: the same
/// odometer (axis 0 fastest, so noise is drawn in the same order) over the
/// decimated axes of an all-integer/discrete space, stored in a std::map.
std::map<core::Point, double> odometer_table(
    const core::ParameterSpace& space, const core::Landscape& source,
    std::size_t stride, const varmodel::NoiseModel* noise,
    std::uint64_t seed) {
  std::vector<std::vector<double>> axes;
  for (const core::Parameter& p : space.params()) {
    std::vector<double> all = p.values();
    if (p.kind() == core::ParamKind::kInteger) {
      for (double c = p.lower(); c <= p.upper(); c += 1.0) all.push_back(c);
    }
    axes.push_back(Database::decimate_axis(std::move(all), stride));
  }
  util::Rng rng(seed);
  std::map<core::Point, double> table;
  core::Point x(axes.size());
  std::vector<std::size_t> idx(axes.size(), 0);
  for (;;) {
    for (std::size_t d = 0; d < axes.size(); ++d) x[d] = axes[d][idx[d]];
    double t = source.clean_time(x);
    if (noise != nullptr) t += noise->sample(t, rng);
    table[x] = t;
    std::size_t d = 0;
    while (d < axes.size() && ++idx[d] == axes[d].size()) idx[d++] = 0;
    if (d == axes.size()) return table;
  }
}

std::string saved(const Database& db) {
  std::ostringstream out;
  db.save(out);
  return out.str();
}

/// Process-global lookup count of one tier (protuner_db_lookups_total).
std::uint64_t tier_count(const char* tier) {
  return obs::Registry::global()
      .counter("protuner_db_lookups_total", {}, {{"tier", tier}})
      .value();
}

TEST(DatabaseIndex, IndexedInterpolationMatchesReferenceBitForBit) {
  // >= 1000 random on/off-grid points per (stride, k, power) setting, on
  // product grids of several shapes: the GS2 space (every coordinate value
  // shared by hundreds of rows, so equal distances are common), a 4-D
  // integer space, a table whose rows all share one coordinate, and a
  // space with a continuous axis (no lattice memo).  EXPECT_EQ on doubles
  // is exact equality: the indexed path selects the same k neighbours in
  // the same order and accumulates with the same arithmetic as the
  // reference, so equality is bit-for-bit, not approximate.
  const Gs2Surface surface;
  const auto gs2 = gs2_space();
  const core::ParameterSpace grid4({
      core::Parameter::integer("a", 0, 9),
      core::Parameter::integer("b", 0, 9),
      core::Parameter::integer("c", 0, 9),
      core::Parameter::integer("d", 0, 9),
  });
  const core::QuadraticLandscape bowl(core::Point{4.0, 5.0, 3.0, 6.0}, 1.0,
                                      0.2);
  const core::ParameterSpace flat({
      core::Parameter::integer("x", 0, 20),
      core::Parameter::integer("y", 0, 9),
      core::Parameter::integer("z", 0, 20),
  });
  const core::QuadraticLandscape flat_bowl(core::Point{7.0, 4.0, 12.0}, 1.0,
                                           0.1);
  const core::ParameterSpace mixed({
      core::Parameter::integer("i", 0, 12),
      core::Parameter::continuous("c", -1.0, 1.0),
  });
  const core::QuadraticLandscape mixed_bowl(core::Point{5.0, 0.3}, 1.0, 0.1);

  struct Setting {
    std::size_t stride;
    std::size_t neighbors;
    double power;
  };
  const Setting settings[] = {
      {2, 4, 2.0}, {1, 1, 2.0}, {2, 8, 1.0}, {3, 3, 3.0}};

  util::Rng rng(20260806);
  for (const Setting& s : settings) {
    const DatabaseOptions opt{.stride = s.stride,
                              .interpolation_neighbors = s.neighbors,
                              .idw_power = s.power};
    // Every row of the flat table has y == 4: its grid has one y value.
    std::map<core::Point, double> flat_table;
    for (double x = 0.0; x <= 20.0; x += static_cast<double>(s.stride)) {
      for (double z = 0.0; z <= 20.0; z += 2.0) {
        flat_table[core::Point{x, 4.0, z}] =
            flat_bowl.clean_time(core::Point{x, 4.0, z});
      }
    }
    const Database dbs[] = {Database::measure(gs2, surface, opt),
                            Database::measure(grid4, bowl, opt),
                            Database(flat, std::move(flat_table), opt),
                            Database::measure(mixed, mixed_bowl, opt)};
    const core::ParameterSpace* spaces[] = {&gs2, &grid4, &flat, &mixed};
    for (int which = 0; which < 4; ++which) {
      const Database& db = dbs[which];
      const core::ParameterSpace& space = *spaces[which];
      for (int i = 0; i < 300; ++i) {
        const core::Point x = (i % 2 == 0) ? random_box_point(space, rng)
                                           : random_grid_point(space, rng);
        const double ref = db.interpolate_reference(x);
        EXPECT_EQ(db.interpolate_uncached(x), ref)
            << "stride=" << s.stride << " k=" << s.neighbors
            << " power=" << s.power << " which=" << which << " i=" << i;
        // The production path agrees too (exact hits resolve to the stored
        // value, which the reference-free clean_time contract requires).
        if (const auto hit = db.exact(x)) {
          EXPECT_EQ(db.clean_time(x), *hit);
        } else {
          EXPECT_EQ(db.clean_time(x), ref);
        }
      }
    }
  }
}

TEST(DatabaseIndex, WalkMatchesReferenceOnEveryLatticePoint) {
  // Whole lattices, not samples: every admissible point, stored or not,
  // compared bit for bit.  The GS2 table at stride 6 is 11x11x7 rows, so a
  // point between rows sits up to three lattice steps from its cell's
  // corners and k = 8 needs the walk to grow well past the cell.
  const Gs2Surface surface;
  const auto gs2 = gs2_space();
  const core::ParameterSpace grid4({
      core::Parameter::integer("a", 0, 9),
      core::Parameter::integer("b", 0, 9),
      core::Parameter::integer("c", 0, 9),
      core::Parameter::integer("d", 0, 9),
  });
  const core::QuadraticLandscape bowl(core::Point{4.0, 5.0, 3.0, 6.0}, 1.0,
                                      0.2);
  const core::ParameterSpace flat({
      core::Parameter::integer("x", 0, 20),
      core::Parameter::integer("y", 0, 9),
      core::Parameter::integer("z", 0, 20),
  });
  const core::QuadraticLandscape flat_bowl(core::Point{7.0, 4.0, 12.0}, 1.0,
                                           0.1);
  const std::vector<core::Point> gs2_points = lattice(gs2);
  const std::vector<core::Point> grid4_points = lattice(grid4);
  const std::vector<core::Point> flat_points = lattice(flat);
  ASSERT_EQ(gs2_points.size(), 57u * 57u * 32u);
  for (const std::size_t k : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    const DatabaseOptions opt{.stride = 6, .interpolation_neighbors = k};
    const DatabaseOptions grid4_opt{.stride = 4, .interpolation_neighbors = k};
    EXPECT_EQ(lattice_mismatches(Database::measure(gs2, surface, opt),
                                 gs2_points),
              0);
    EXPECT_EQ(lattice_mismatches(Database::measure(grid4, bowl, grid4_opt),
                                 grid4_points),
              0);
    std::map<core::Point, double> flat_table;
    for (double x = 0.0; x <= 20.0; x += 3.0) {
      for (double z = 0.0; z <= 20.0; z += 2.0) {
        flat_table[core::Point{x, 4.0, z}] =
            flat_bowl.clean_time(core::Point{x, 4.0, z});
      }
    }
    EXPECT_EQ(lattice_mismatches(Database(flat, std::move(flat_table), opt),
                                 flat_points),
              0);
  }
}

TEST(DatabaseIndex, DISABLED_WalkMatchesReferenceOnWholeProductionLattice) {
  // The production database (stride 2, k = 4): all 89 671 unstored GS2
  // lattice points plus the 14 297 stored ones.  About 25 s in a Release
  // build and several times that under a sanitizer, so it is off by
  // default; run it with --gtest_also_run_disabled_tests.
  const Gs2Surface surface;
  const auto space = gs2_space();
  const Database db = Database::measure(space, surface, {});
  EXPECT_EQ(lattice_mismatches(db, lattice(space)), 0);
}

TEST(DatabaseIndex, RejectsTablesThatAreNotFullProductGrids) {
  // The grid index needs one row per combination of the stored axis
  // values: a diagonal and a product with one row missing are refused, by
  // the constructor with std::invalid_argument and by load() with
  // std::runtime_error.
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9),
                                    core::Parameter::integer("y", 0, 9)});
  const std::map<core::Point, double> diagonal = {
      {core::Point{0.0, 0.0}, 1.0}, {core::Point{1.0, 1.0}, 2.0}};
  std::map<core::Point, double> holed;
  for (double x = 0.0; x < 3.0; x += 1.0) {
    for (double y = 0.0; y < 3.0; y += 1.0) holed[core::Point{x, y}] = 1.0;
  }
  holed.erase(core::Point{1.0, 2.0});
  for (const auto& table : {diagonal, holed}) {
    EXPECT_THROW((void)Database(space, table), std::invalid_argument);
    std::ostringstream csv;
    for (const auto& [x, time] : table) {
      csv << x[0] << ',' << x[1] << ',' << time << '\n';
    }
    std::istringstream in(csv.str());
    EXPECT_THROW((void)Database::load(in, space), std::runtime_error);
  }
  holed[core::Point{1.0, 2.0}] = 1.0;
  EXPECT_EQ(Database(space, holed).entries(), 9u);
  // measure() writes its grid directly, so it refuses sampled levels that
  // round to one value instead of folding them into one row: 1e16 + 0.25
  // is 1e16.
  const core::ParameterSpace narrow(
      {core::Parameter::continuous("x", 1e16, 1e16 + 2.0)});
  const core::FunctionLandscape flat("flat",
                                     [](const core::Point&) { return 1.0; });
  EXPECT_THROW((void)Database::measure(narrow, flat, {.stride = 1}),
               std::invalid_argument);
}

TEST(DatabaseIndex, NonFiniteCoordinateTerminatesAndMatchesReference) {
  // A NaN coordinate makes every distance NaN, so no bound can stop the
  // walk: it must scan the whole grid and end, answering as the reference
  // does (NaN).  An infinite coordinate makes every distance infinite.
  const Gs2Surface surface;
  const auto space = gs2_space();
  const Database db = Database::measure(space, surface, {});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    for (std::size_t d = 0; d < space.size(); ++d) {
      core::Point x{16.0, 9.0, 4.0};
      x[d] = bad;
      SCOPED_TRACE(testing::Message() << "axis " << d << " = " << bad);
      const double ref = db.interpolate_reference(x);
      EXPECT_TRUE(std::isnan(ref));
      EXPECT_TRUE(std::isnan(db.clean_time(x)));
      EXPECT_TRUE(std::isnan(db.interpolate_uncached(x)));
      EXPECT_FALSE(db.exact(x).has_value());
    }
  }
}

TEST(DatabaseIndex, BatchLookupEqualsScalarLookups) {
  const Gs2Surface surface;
  const auto space = gs2_space();
  const Database db = Database::measure(space, surface, {});
  util::Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 15));
    std::vector<core::Point> xs;
    for (std::size_t i = 0; i < n; ++i) {
      if (!xs.empty() && rng.bernoulli(0.3)) {
        xs.push_back(xs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<long>(xs.size()) - 1))]);
      } else {
        xs.push_back(round % 2 == 0 ? random_box_point(space, rng)
                                    : random_grid_point(space, rng));
      }
    }
    std::vector<double> batch(n);
    db.clean_times(xs, batch);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i], db.clean_time(xs[i])) << "round=" << round;
    }
  }
}

TEST(DatabaseIndex, BatchOnFreshDatabaseMatchesScalarOnFreshDatabase) {
  // Same queries against two fresh databases: batch first vs scalar first —
  // catches any batch-order dependence in what gets memoised.
  const Gs2Surface surface;
  const auto space = gs2_space();
  const Database db_batch = Database::measure(space, surface, {});
  const Database db_scalar = Database::measure(space, surface, {});
  util::Rng rng(11);
  std::vector<core::Point> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(random_box_point(space, rng));
  xs.push_back(xs[0]);  // intra-batch duplicate
  xs.push_back(xs[3]);
  std::vector<double> batch(xs.size());
  db_batch.clean_times(xs, batch);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(batch[i], db_scalar.clean_time(xs[i]));
  }
}

TEST(DatabaseIndex, ExactHitsResolveThroughIndex) {
  const Gs2Surface surface;
  const auto space = gs2_space();
  const Database db = Database::measure(space, surface, {});
  // Every stored entry must be found exactly, through both APIs.
  std::ostringstream dump;
  db.save(dump);
  std::istringstream in(dump.str());
  const Database reloaded = Database::load(in, space, {});
  EXPECT_EQ(reloaded.entries(), db.entries());
  const core::Point probe{16.0, 8.0, 4.0};
  ASSERT_TRUE(db.exact(probe).has_value());
  EXPECT_EQ(db.clean_time(probe), *db.exact(probe));
  EXPECT_EQ(reloaded.clean_time(probe), *db.exact(probe));
}

TEST(DatabaseIndex, SignedZeroQueryHitsPositiveZeroEntry) {
  // operator== treats -0.0 == 0.0, so the per-axis search must too — a
  // -0.0 query (easily produced by simplex arithmetic) must take the
  // exact-hit path.
  core::ParameterSpace space({core::Parameter::integer("x", 0, 10),
                              core::Parameter::integer("y", 0, 10)});
  const Database db(
      space, {{core::Point{0.0, 5.0}, 3.5}, {core::Point{10.0, 5.0}, 9.0}},
      {.stride = 1, .interpolation_neighbors = 1});
  EXPECT_EQ(db.clean_time(core::Point{-0.0, 5.0}), 3.5);
  EXPECT_TRUE(db.exact(core::Point{-0.0, 5.0}).has_value());
}

TEST(DatabaseIndex, TierCountsMatchPointsAndOnlyLatticePointsAreMemoised) {
  // Every point passed in is counted by exactly one tier, and a batch
  // tallies exactly as the same scalar calls do.  An admissible point is
  // answered by the exact grid row (stored) or the grid walk (not stored) on
  // first sight and by the memo after that.  An off-lattice point takes the
  // grid walk every time, and a stored point of a space with a continuous
  // axis (no memo) is an exact hit every time.
  const Gs2Surface surface;
  const auto space = gs2_space();
  const core::ParameterSpace mixed({core::Parameter::integer("i", 0, 12),
                                    core::Parameter::continuous("c", 0, 1)});
  const core::QuadraticLandscape mixed_bowl(core::Point{5.0, 0.3}, 1.0, 0.1);
  const Database probe = Database::measure(space, surface, {});
  const Database mixed_probe = Database::measure(mixed, mixed_bowl, {});
  util::Rng rng(31);
  std::vector<core::Point> stored, lattice, off, cont, cont_stored;
  while (stored.size() < 40 || lattice.size() < 40) {
    core::Point x = random_grid_point(space, rng);
    std::vector<core::Point>& into = probe.exact(x) ? stored : lattice;
    if (into.size() < 40 &&
        std::find(into.begin(), into.end(), x) == into.end()) {
      into.push_back(std::move(x));
    }
  }
  for (int i = 0; i < 40; ++i) {
    core::Point x = random_box_point(space, rng);
    x[1] += 0.5;  // never an integer, so never admissible
    off.push_back(std::move(x));
    cont.push_back(random_grid_point(mixed, rng));
  }
  for (double i = 0.0; i <= 12.0; i += 2.0) {
    for (const double c : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      ASSERT_TRUE(mixed_probe.exact(core::Point{i, c}).has_value());
      cont_stored.push_back(core::Point{i, c});
    }
  }
  using Tally = std::array<std::uint64_t, 3>;  // exact, memo, kdtree
  const std::uint64_t n_cont = cont_stored.size();
  for (const bool batch : {false, true}) {
    // Fresh databases, so each mode starts with an empty memo.
    const Database db = Database::measure(space, surface, {});
    const Database mixed_db = Database::measure(mixed, mixed_bowl, {});
    const auto tally = [&](const Database& d,
                           const std::vector<core::Point>& xs) {
      const Tally before{tier_count("exact"), tier_count("memo"),
                         tier_count("kdtree")};
      std::vector<double> out(xs.size());
      if (batch) {
        d.clean_times(xs, out);
      } else {
        for (std::size_t i = 0; i < xs.size(); ++i) {
          out[i] = d.clean_time(xs[i]);
        }
      }
      return Tally{tier_count("exact") - before[0],
                   tier_count("memo") - before[1],
                   tier_count("kdtree") - before[2]};
    };
    SCOPED_TRACE(batch ? "batch" : "scalar");
    EXPECT_EQ(tally(db, stored), (Tally{40, 0, 0}));
    EXPECT_EQ(tally(db, stored), (Tally{0, 40, 0}));
    EXPECT_EQ(tally(db, lattice), (Tally{0, 0, 40}));
    EXPECT_EQ(tally(db, lattice), (Tally{0, 40, 0}));
    EXPECT_EQ(tally(db, off), (Tally{0, 0, 40}));
    EXPECT_EQ(tally(db, off), (Tally{0, 0, 40}));
    EXPECT_EQ(tally(mixed_db, cont), (Tally{0, 0, 40}));
    EXPECT_EQ(tally(mixed_db, cont), (Tally{0, 0, 40}));
    EXPECT_EQ(tally(mixed_db, cont_stored), (Tally{n_cont, 0, 0}));
    EXPECT_EQ(tally(mixed_db, cont_stored), (Tally{n_cont, 0, 0}));
    // The memoised reads agree with the uncached ones.
    for (const core::Point& x : lattice) {
      EXPECT_EQ(db.clean_time(x), db.interpolate_reference(x));
    }
    for (const core::Point& x : stored) {
      EXPECT_EQ(db.clean_time(x), *db.exact(x));
    }
  }
}

TEST(DatabaseIndex, MeasureBuildsTheSameDatabaseAsTheTableConstructor) {
  // measure() writes each time straight into its grid row.  It must build
  // what the table constructor builds from the same odometer loop: the
  // same saved bytes, entries and stored times, clean and with noise (which
  // pins the order the noise is drawn in).
  const Gs2Surface surface;
  const auto space = gs2_space();
  const varmodel::ParetoNoise pareto(0.3, 1.7);
  for (const std::size_t stride : {1u, 2u, 3u}) {
    for (const varmodel::NoiseModel* noise :
         {static_cast<const varmodel::NoiseModel*>(nullptr),
          static_cast<const varmodel::NoiseModel*>(&pareto)}) {
      SCOPED_TRACE(testing::Message()
                   << "stride " << stride << (noise ? " noisy" : " clean"));
      const std::uint64_t seed = 17 + stride;
      const Database measured =
          Database::measure(space, surface, {.stride = stride}, noise, seed);
      const std::map<core::Point, double> table =
          odometer_table(space, surface, stride, noise, seed);
      const Database built(space, table, {.stride = stride});
      EXPECT_EQ(measured.entries(), table.size());
      EXPECT_EQ(built.entries(), table.size());
      EXPECT_EQ(saved(measured), saved(built));
      int bad = 0;
      for (const auto& [x, time] : table) {
        const std::optional<double> m = measured.exact(x);
        const std::optional<double> b = built.exact(x);
        if (!m || !b || std::bit_cast<std::uint64_t>(*m) !=
                            std::bit_cast<std::uint64_t>(time) ||
            std::bit_cast<std::uint64_t>(*b) !=
                std::bit_cast<std::uint64_t>(time)) {
          ++bad;
        }
      }
      EXPECT_EQ(bad, 0);
    }
  }
}

TEST(DatabaseIndex, DecimateAxisHandlesDegenerateAxes) {
  // Regression for the empty-axis UB: decimate_axis used to dereference
  // out.back() unconditionally, which was UB for an empty admissible set
  // (a discrete parameter with no values in an assertion-free build, or
  // any future empty-axis path).
  EXPECT_TRUE(Database::decimate_axis({}, 2).empty());
  // Single-value axis survives any stride.
  EXPECT_EQ(Database::decimate_axis({3.0}, 5),
            (std::vector<double>{3.0}));
  // Stride larger than the axis keeps first and last.
  EXPECT_EQ(Database::decimate_axis({1.0, 2.0, 3.0}, 10),
            (std::vector<double>{1.0, 3.0}));
  // Normal decimation keeps every stride-th value plus the last.
  EXPECT_EQ(Database::decimate_axis({1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, 2),
            (std::vector<double>{1.0, 3.0, 5.0, 6.0}));
}

TEST(DatabaseIndex, MovedDatabaseStillAnswers) {
  const Gs2Surface surface;
  const auto space = gs2_space();
  Database db = Database::measure(space, surface, {});
  const core::Point off{16.0, 9.0, 4.0};
  const double expect = db.clean_time(off);  // builds index + memoises
  Database moved = std::move(db);
  EXPECT_EQ(moved.clean_time(off), expect);
  Database assigned = Database::measure(space, surface, {.stride = 3});
  assigned = std::move(moved);
  EXPECT_EQ(assigned.clean_time(off), expect);
}

}  // namespace
}  // namespace protuner::gs2
