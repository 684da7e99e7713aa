// Tests for the backend-generic inspector–executor layer (DistSpgemmPlan):
// cached replay of every backend — SA-1D, ring-1D, SUMMA-2D, split-3D, and
// Auto-dispatched — is bit-identical to the fresh spgemm_dist call over the
// iterated app shapes (MCL squaring, BC rectangular frontiers, AMG Galerkin
// refreshes), records zero metadata-collective bytes and exactly zero
// Phase::Plan seconds on reuse, and moves strictly less collective volume
// than the fresh call for the collective backends. Also: redistribute.hpp
// edge cases (empty-rank operands, rectangular matrices, single-rank
// degenerate grids) through the cached-route replay path, Auto's cached
// cost decision + the single-allgather AMeta handoff into SpgemmPlan1D
// (regression via the DistSpgemmStats collective-byte counters), the
// rebuild-on-change rules of spgemm_dist_cached, and the per-backend
// plan-reuse counters in RankReport.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "apps/amg.hpp"
#include "dist/dist_spgemm.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"

namespace sa1d {
namespace {

/// Same sparsity pattern, values re-derived from (position, t): the
/// value-refresh shape of iterated app loops. Deliberately non-integer so
/// bit-identity genuinely pins the ⊕-fold order of every replay program.
CscMatrix<double> with_values(const CscMatrix<double>& base, int t) {
  std::vector<double> vals(base.vals().size());
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = 0.3 + 0.17 * static_cast<double>(t) + 0.013 * static_cast<double>(i % 89);
  return CscMatrix<double>(base.nrows(), base.ncols(), base.colptr(), base.rowids(),
                           std::move(vals));
}

CscMatrix<double> random_rect(index_t m, index_t n, int edges, std::uint64_t seed) {
  CooMatrix<double> c(m, n);
  SplitMix64 g(seed);
  for (int e = 0; e < edges; ++e)
    c.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(m))),
           static_cast<index_t>(g.below(static_cast<std::uint64_t>(n))),
           0.5 + g.uniform());
  c.canonicalize();
  return CscMatrix<double>::from_coo(c);
}

/// Hypersparse: all nonzeros in the first third of the index space, so the
/// trailing ranks hold structurally empty slices under even bounds.
CscMatrix<double> hypersparse(index_t n, int edges, std::uint64_t seed) {
  CooMatrix<double> c(n, n);
  SplitMix64 g(seed);
  for (int e = 0; e < edges; ++e)
    c.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(n) / 3)),
           static_cast<index_t>(g.below(static_cast<std::uint64_t>(n) / 3)),
           0.5 + g.uniform());
  c.canonicalize();
  return CscMatrix<double>::from_coo(c);
}

// Every backend is feasible at every P now that the 2D/3D grids may be
// rectangular (primes run 1 × P grids).
std::vector<Algo> feasible_backends(int) {
  return {Algo::SparseAware1D, Algo::Ring1D, Algo::Summa2D, Algo::Split3D};
}

using LocalsPerIter = std::vector<std::vector<DcscMatrix<double>>>;  // [rank][iter]

/// The acceptance loop: for one backend and one operand-pair shape, a
/// cached DistSpgemmPlan replayed across value refreshes must be
/// bit-identical to fresh spgemm_dist calls, with zero metadata-collective
/// bytes and exactly zero Phase::Plan seconds on every reuse — and, for the
/// collective backends, strictly less collective volume than the build.
void expect_replay_bit_identical(int P, Algo algo, const CscMatrix<double>& a_pat,
                                 const CscMatrix<double>& b_pat, int iters) {
  Machine m(P);
  LocalsPerIter fresh(static_cast<std::size_t>(P)), reused(static_cast<std::size_t>(P));
  DistSpgemmOptions opt;
  opt.algo = algo;
  m.run([&](Comm& c) {
    for (int t = 0; t < iters; ++t) {
      auto da = DistMatrix1D<double>::from_global(c, with_values(a_pat, t));
      auto db = DistMatrix1D<double>::from_global(c, with_values(b_pat, t));
      auto dc = spgemm_dist(c, da, db, opt);
      fresh[static_cast<std::size_t>(c.rank())].push_back(dc.local());
    }
  });
  m.run([&](Comm& c) {
    DistSpgemmPlan<double> plan;
    std::uint64_t build_coll = 0;
    for (int t = 0; t < iters; ++t) {
      auto da = DistMatrix1D<double>::from_global(c, with_values(a_pat, t));
      auto db = DistMatrix1D<double>::from_global(c, with_values(b_pat, t));
      DistSpgemmStats st;
      auto dc = t == 0 ? plan.build(c, da, db, opt, &st) : plan.execute(c, da, db, &st);
      reused[static_cast<std::size_t>(c.rank())].push_back(dc.local());
      EXPECT_EQ(st.chosen, algo);
      if (t == 0) {
        build_coll = st.coll_recv_bytes;
        EXPECT_FALSE(st.plan_reused);
      } else {
        EXPECT_TRUE(st.plan_reused);
        // The replay must move only the known value payload: zero metadata
        // collectives, zero inspector time.
        EXPECT_EQ(st.meta_coll_bytes, 0u) << "metadata bytes on iteration " << t;
        EXPECT_EQ(st.coll_recv_bytes, plan.replay_coll_recv_bytes());
        EXPECT_DOUBLE_EQ(st.plan_seconds, 0.0) << "inspector time on iteration " << t;
        if (algo != Algo::SparseAware1D && c.size() > 1) {
          // Triples in, bare values out: the collective backends must
          // replay strictly below their fresh collective volume (a rank
          // that received nothing in the build — empty slices — stays at
          // zero).
          EXPECT_LE(st.coll_recv_bytes, build_coll);
          if (build_coll > 0) EXPECT_LT(st.coll_recv_bytes, build_coll);
        }
      }
    }
    EXPECT_EQ(plan.builds(), 1);
    EXPECT_EQ(plan.replays(), iters - 1);
  });
  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(fresh[static_cast<std::size_t>(r)].size(), static_cast<std::size_t>(iters));
    for (int t = 0; t < iters; ++t)
      EXPECT_TRUE(fresh[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)] ==
                  reused[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)])
          << algo_name(algo) << " rank " << r << " iter " << t;
  }
}

// ---- cached replay of every backend over the app iteration shapes --------

TEST(DistPlanReplay, MclSquaringAllBackendsP4) {
  auto mpat = block_clustered<double>(160, 8, 5.0, 0.4, 11);
  for (Algo algo : feasible_backends(4)) expect_replay_bit_identical(4, algo, mpat, mpat, 4);
}

TEST(DistPlanReplay, MclSquaringSumma9Split8) {
  auto mpat = block_clustered<double>(180, 9, 4.0, 0.4, 13);
  expect_replay_bit_identical(9, Algo::Summa2D, mpat, mpat, 3);
  expect_replay_bit_identical(8, Algo::Split3D, mpat, mpat, 3);  // 8 = 2·(2×2)
}

TEST(DistPlanReplay, RectangularGridsPrimeAndCompositeP) {
  // The rectangular-grid plan-replay acceptance: value-only replays must
  // stay bit-identical on 1 × P prime grids (2, 3, 5), the 2×3 grid at
  // P = 6, the 2×4 at 8 (covered above), and the 3×4 at 12 — including the
  // uneven fine-block tails 170 leaves at those stage counts.
  auto mpat = block_clustered<double>(170, 10, 4.0, 0.4, 19);
  for (int P : {2, 3, 5, 6, 12}) {
    expect_replay_bit_identical(P, Algo::Summa2D, mpat, mpat, 3);
    expect_replay_bit_identical(P, Algo::Split3D, mpat, mpat, 3);
  }
}

TEST(DistPlanReplay, BcStyleRectangularFrontier) {
  // BC level shape: fixed square A, rectangular frontier operand.
  auto a = mesh2d<double>(12);  // 144 x 144
  auto fr = random_rect(144, 24, 160, 17);
  for (Algo algo : feasible_backends(4)) expect_replay_bit_identical(4, algo, a, fr, 3);
}

TEST(DistPlanReplay, RectangularOperandsBothSides) {
  auto a = random_rect(90, 60, 400, 31);
  auto b = random_rect(60, 75, 350, 32);
  for (Algo algo : feasible_backends(9)) expect_replay_bit_identical(9, algo, a, b, 3);
}

TEST(DistPlanReplay, EmptyRankSlicesThroughCachedRoutes) {
  auto a = hypersparse(600, 60, 41);
  auto b = hypersparse(600, 45, 42);
  for (Algo algo : feasible_backends(4)) expect_replay_bit_identical(4, algo, a, b, 3);
}

TEST(DistPlanReplay, SingleRankDegenerateGrids) {
  // P = 1: the 1×1 SUMMA grid, the 1·1² split-3D layering, a hop-free
  // ring — every route is a self-route and must still replay bit-exactly.
  auto a = block_clustered<double>(96, 4, 4.0, 0.4, 43);
  for (Algo algo : feasible_backends(1)) expect_replay_bit_identical(1, algo, a, a, 3);
}

TEST(DistPlanReplay, MinPlusSemiringFoldProgram) {
  // The ⊕-fold programs must replay the *semiring's* add — min-plus picks
  // different winners than plus-times wherever partials collide.
  auto a = block_clustered<double>(140, 7, 4.0, 0.4, 47);
  Machine m(4);
  DistSpgemmOptions opt;
  opt.algo = Algo::Summa2D;
  m.run([&](Comm& c) {
    DistSpgemmPlan<double, MinPlus<double>> plan;
    for (int t = 0; t < 3; ++t) {
      auto da = DistMatrix1D<double>::from_global(c, with_values(a, t));
      auto fresh = spgemm_dist<MinPlus<double>>(c, da, da, opt);
      auto got = spgemm_dist_cached<MinPlus<double>>(c, plan, da, da, opt);
      EXPECT_TRUE(fresh.local() == got.local()) << "iter " << t;
    }
    EXPECT_EQ(plan.builds(), 1);
    EXPECT_EQ(plan.replays(), 2);
  });
}

// ---- AMG Galerkin refresh loop through a grid backend ---------------------

TEST(DistPlanReplay, AmgGalerkinRefreshOnSumma) {
  // RᵀAR across setup refreshes: values change, hierarchy frozen — the
  // GalerkinOperator's DistSpgemmPlans must replay the 2D backend with no
  // inspector time after the first compute.
  auto a_pat = mesh2d<double>(10);
  auto r = restriction_operator(a_pat, 5);
  const int P = 4, iters = 3;
  Machine m(P);
  LocalsPerIter fresh_rtar(P), reused_rtar(P);
  m.run([&](Comm& c) {
    for (int t = 0; t < iters; ++t) {
      auto res = galerkin_product(c, with_values(a_pat, t), r, {},
                                  RightMultAlgo::SparsityAware1d, Algo::Summa2D);
      fresh_rtar[static_cast<std::size_t>(c.rank())].push_back(res.rtar.local());
    }
  });
  m.run([&](Comm& c) {
    GalerkinOperator op(c, r, {}, RightMultAlgo::SparsityAware1d, Algo::Summa2D);
    for (int t = 0; t < iters; ++t) {
      RankReport before = c.report();
      auto res = op.compute(c, with_values(a_pat, t));
      RankReport after = c.report();
      reused_rtar[static_cast<std::size_t>(c.rank())].push_back(res.rtar.local());
      if (t >= 1) EXPECT_DOUBLE_EQ(after.plan_s, before.plan_s) << "iter " << t;
    }
  });
  for (int r2 = 0; r2 < P; ++r2)
    for (int t = 0; t < iters; ++t)
      EXPECT_TRUE(fresh_rtar[static_cast<std::size_t>(r2)][static_cast<std::size_t>(t)] ==
                  reused_rtar[static_cast<std::size_t>(r2)][static_cast<std::size_t>(t)])
          << "rank " << r2 << " iter " << t;
}

// ---- Auto: cached decision + single-allgather AMeta handoff ---------------

TEST(DistPlanAuto, CachedDecisionSkipsTheMetadataRegather) {
  auto a = block_clustered<double>(200, 8, 5.0, 0.3, 51);
  Machine m(4);
  m.run([&](Comm& c) {
    DistSpgemmPlan<double> plan;
    DistSpgemmStats st1, st2;
    auto da0 = DistMatrix1D<double>::from_global(c, with_values(a, 0));
    auto c1 = plan.build(c, da0, da0, {}, &st1);
    EXPECT_EQ(st1.requested, Algo::Auto);
    ASSERT_EQ(st1.predictions.size(), 4u);
    EXPECT_GT(st1.meta_coll_bytes, 0u);  // the build gathered cost inputs

    auto da1 = DistMatrix1D<double>::from_global(c, with_values(a, 1));
    auto c2 = plan.execute(c, da1, da1, &st2);
    // The cached decision is reported without any re-gather: same choice,
    // same prediction trace, zero metadata bytes, zero inspector seconds.
    EXPECT_TRUE(st2.plan_reused);
    EXPECT_EQ(st2.chosen, st1.chosen);
    EXPECT_EQ(st2.predictions.size(), st1.predictions.size());
    EXPECT_EQ(st2.meta_coll_bytes, 0u);
    EXPECT_DOUBLE_EQ(st2.plan_seconds, 0.0);
    // Auto's decision-cache slot and the concrete backend's slot both count.
    EXPECT_EQ(c.report().plan_builds[0], 1u);
    EXPECT_EQ(c.report().plan_replays[0], 1u);
    EXPECT_EQ(c.report().plan_replays[static_cast<std::size_t>(st1.chosen)], 1u);
    (void)c1;
    (void)c2;
  });
}

TEST(DistPlanAuto, ReplayRepricingRecordedAlongsideBuildDecision) {
  // Plan-aware Auto: a cached Auto plan must carry *both* decision traces —
  // the one-shot pricing that chose the build, and the replay repricing
  // (zero plan term, value-only volume) reported on every execute, derived
  // from the cached inputs with no extra communication or Plan time.
  auto a = block_clustered<double>(200, 8, 5.0, 0.3, 57);
  Machine m(6);  // non-square: the repriced trace covers rectangular grids
  m.run([&](Comm& c) {
    DistSpgemmPlan<double> plan;
    DistSpgemmStats st1, st2;
    auto da0 = DistMatrix1D<double>::from_global(c, with_values(a, 0));
    plan.build(c, da0, da0, {}, &st1);
    ASSERT_EQ(st1.predictions.size(), 4u);
    ASSERT_EQ(st1.replay_predictions.size(), 4u);
    EXPECT_NE(st1.replay_choice, Algo::Auto);
    EXPECT_EQ(plan.replay_choice(), st1.replay_choice);
    // Replay pricing strips plan-side volume: every feasible backend's
    // repriced total undercuts its one-shot prediction.
    double best = -1.0;
    Algo argmin = Algo::SparseAware1D;
    for (std::size_t i = 0; i < 4; ++i) {
      const auto& one_shot = st1.predictions[i];
      const auto& replay = st1.replay_predictions[i];
      EXPECT_EQ(one_shot.algo, replay.algo);
      if (!replay.feasible) continue;
      EXPECT_LT(replay.total_s(), one_shot.total_s()) << algo_name(replay.algo);
      if (best < 0.0 || replay.total_s() < best) {
        best = replay.total_s();
        argmin = replay.algo;
      }
    }
    EXPECT_EQ(st1.replay_choice, argmin);

    auto da1 = DistMatrix1D<double>::from_global(c, with_values(a, 1));
    plan.execute(c, da1, da1, &st2);
    // The replay reports the same repriced trace verbatim — no re-gather,
    // no metadata bytes, no inspector seconds.
    EXPECT_TRUE(st2.plan_reused);
    EXPECT_EQ(st2.replay_choice, st1.replay_choice);
    ASSERT_EQ(st2.replay_predictions.size(), 4u);
    EXPECT_DOUBLE_EQ(st2.replay_predictions[0].total_s(), st1.replay_predictions[0].total_s());
    EXPECT_EQ(st2.meta_coll_bytes, 0u);
    EXPECT_DOUBLE_EQ(st2.plan_seconds, 0.0);
  });
}

TEST(DistPlanAuto, SingleMetadataAllgatherWhenAutoPicksSa1d) {
  // Regression for the AMeta handoff, via the collective-byte counters:
  // coll bytes(Auto build) == coll bytes(cost inputs) + coll bytes(explicit
  // SA-1D build) − coll bytes(one metadata allgather) — i.e. the shared
  // gather is performed exactly once, not twice.
  auto a = block_clustered<double>(240, 8, 5.0, 0.25, 53);
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    auto coll_recv = [&] { return c.report().bytes_network() - c.report().rdma_bytes; };

    std::uint64_t b0 = coll_recv();
    detail1d::gather_a_metadata(c, da);
    const std::uint64_t meta_gather = coll_recv() - b0;
    EXPECT_GT(meta_gather, 0u);

    b0 = coll_recv();
    gather_algo_cost_inputs(c, da, da);
    const std::uint64_t cost_inputs = coll_recv() - b0;

    b0 = coll_recv();
    DistSpgemmPlan<double> explicit_plan;
    DistSpgemmOptions sa1d_opt;
    sa1d_opt.algo = Algo::SparseAware1D;
    explicit_plan.build(c, da, da, sa1d_opt);
    const std::uint64_t explicit_sa1d = coll_recv() - b0;

    b0 = coll_recv();
    DistSpgemmPlan<double> auto_plan;
    DistSpgemmStats st;
    auto_plan.build(c, da, da, {}, &st);
    const std::uint64_t auto_build = coll_recv() - b0;

    ASSERT_EQ(st.chosen, Algo::SparseAware1D)
        << "clustered operands must dispatch to SA-1D for this regression";
    EXPECT_EQ(auto_build, cost_inputs + explicit_sa1d - meta_gather);
    EXPECT_LT(auto_build, cost_inputs + explicit_sa1d);
  });
}

// ---- OrAnd reachability through the semiring-generic backends -------------

TEST(DistPlanSemiring, OrAndReachabilityReplaysAcrossBackends) {
  // Boolean closure through every cached backend: the ⊕-fold programs must
  // replay ∨ (not +), and the replay must agree with the local reference.
  auto a = hidden_community<double>(128, 8, 6.0, 0.5, 3);
  auto want = spgemm_local<OrAnd, double>(a, a, LocalKernel::Spa);
  const int P = 4;
  Machine m(P);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    for (Algo algo : feasible_backends(P)) {
      DistSpgemmOptions opt;
      opt.algo = algo;
      DistSpgemmPlan<double, OrAnd> plan;
      auto c1 = spgemm_dist_cached<OrAnd>(c, plan, da, da, opt);
      auto c2 = spgemm_dist_cached<OrAnd>(c, plan, da, da, opt);
      EXPECT_TRUE(c1.gather(c) == want) << algo_name(algo);
      EXPECT_TRUE(c2.local() == c1.local()) << algo_name(algo);
      EXPECT_EQ(plan.replays(), 1) << algo_name(algo);
    }
  });
}

// ---- spgemm_dist_cached rebuild rules -------------------------------------

TEST(DistPlanCached, RebuildsOnStructureChangeAndReusesOnMatch) {
  auto pat1 = block_clustered<double>(128, 8, 4.0, 0.4, 61);
  auto pat2 = erdos_renyi<double>(128, 3.0, 62);  // different structure
  Machine m(4);
  DistSpgemmOptions opt;
  opt.algo = Algo::Summa2D;
  m.run([&](Comm& c) {
    DistSpgemmPlan<double> plan;
    const CscMatrix<double>* pats[] = {&pat1, &pat1, &pat2, &pat2, &pat1};
    for (int t = 0; t < 5; ++t) {
      auto cur = with_values(*pats[t], t);
      auto dm = DistMatrix1D<double>::from_global(c, cur);
      auto got = spgemm_dist_cached(c, plan, dm, dm, opt);
      auto fresh = spgemm_dist(c, dm, dm, opt);
      EXPECT_TRUE(got.local() == fresh.local()) << "iter " << t;
    }
    // Rebuilds at t=0, t=2, t=4; replays at t=1 and t=3.
    EXPECT_EQ(plan.builds(), 3);
    EXPECT_EQ(plan.replays(), 2);
  });
}

TEST(DistPlanCached, RebuildsOnOptionChange) {
  auto pat = block_clustered<double>(120, 6, 4.0, 0.4, 63);
  Machine m(4);
  m.run([&](Comm& c) {
    auto dm = DistMatrix1D<double>::from_global(c, pat);
    DistSpgemmPlan<double> plan;
    DistSpgemmOptions ring;
    ring.algo = Algo::Ring1D;
    DistSpgemmOptions summa;
    summa.algo = Algo::Summa2D;
    spgemm_dist_cached(c, plan, dm, dm, ring);
    EXPECT_EQ(plan.chosen(), Algo::Ring1D);
    spgemm_dist_cached(c, plan, dm, dm, summa);  // option change: new backend
    EXPECT_EQ(plan.chosen(), Algo::Summa2D);
    spgemm_dist_cached(c, plan, dm, dm, summa);
    EXPECT_EQ(plan.builds(), 2);
    EXPECT_EQ(plan.replays(), 1);
  });
}

TEST(DistPlanCached, ExecuteRejectsStructureMismatchAndEmptyPlan) {
  Machine m(2);
  EXPECT_THROW(m.run([](Comm& c) {
    auto a = DistMatrix1D<double>::from_global(c, erdos_renyi<double>(60, 4.0, 7));
    auto b = DistMatrix1D<double>::from_global(c, erdos_renyi<double>(60, 4.0, 8));
    DistSpgemmPlan<double> plan;
    DistSpgemmOptions opt;
    opt.algo = Algo::Ring1D;
    plan.build(c, a, a, opt);
    plan.execute(c, b, b);  // different structure -> fingerprint mismatch
  }),
               std::invalid_argument);
  EXPECT_THROW(m.run([](Comm& c) {
    auto a = DistMatrix1D<double>::from_global(c, erdos_renyi<double>(40, 3.0, 9));
    DistSpgemmPlan<double> empty;
    empty.execute(c, a, a);
  }),
               std::invalid_argument);
}

// ---- 1D→grid routes vs. the sort-based capture -----------------------------

/// The oracle for one rank's 1D→grid route: packs every source slice the way
/// the fresh exchange does (ranks, hence global columns, ascending; rows
/// ascending), keeps the arrivals addressed to `me` in flat arrival order,
/// and places them with a keyed (col, row) comparison sort.
template <typename RankOf>
std::pair<CscMatrix<double>, std::vector<index_t>> sorted_capture(
    const CscMatrix<double>& a, std::span<const index_t> rb, std::span<const index_t> cb,
    RankOf rank_of, int me, int my_bi, int my_bj) {
  std::vector<Triple<double>> arrivals;
  for (index_t j = 0; j < a.ncols(); ++j) {
    const int bj = find_owner(cb, j);
    auto rows = a.col_rows(j);
    auto vals = a.col_vals(j);
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const int bi = find_owner(rb, rows[p]);
      if (rank_of(bi, bj) == me)
        arrivals.push_back({rows[p] - rb[static_cast<std::size_t>(bi)],
                            j - cb[static_cast<std::size_t>(bj)], vals[p]});
    }
  }
  std::vector<index_t> order(arrivals.size());
  std::iota(order.begin(), order.end(), index_t{0});
  std::sort(order.begin(), order.end(), [&](index_t x, index_t y) {
    const auto& s = arrivals[static_cast<std::size_t>(x)];
    const auto& t = arrivals[static_cast<std::size_t>(y)];
    return s.col != t.col ? s.col < t.col : s.row < t.row;
  });
  std::vector<index_t> place(arrivals.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    place[static_cast<std::size_t>(order[i])] = static_cast<index_t>(i);
  const auto si = static_cast<std::size_t>(my_bi);
  const auto sj = static_cast<std::size_t>(my_bj);
  CooMatrix<double> blk(rb[si + 1] - rb[si], cb[sj + 1] - cb[sj], arrivals);
  blk.canonicalize();
  return {CscMatrix<double>::from_coo(blk), place};
}

/// Runs the 1D→grid exchange with a route capture on every rank, in both
/// comm modes, and checks the block and recv_place against the oracle.
template <typename RankOf, typename Coords>
void expect_route_matches_sorted_capture(const CscMatrix<double>& a, int P,
                                         const std::vector<index_t>& rb,
                                         const std::vector<index_t>& cb, RankOf rank_of,
                                         Coords coords) {
  for (bool overlap : {false, true}) {
    Machine m(P);
    m.run([&](Comm& c) {
      auto da = DistMatrix1D<double>::from_global(c, a);
      const auto [bi, bj] = coords(c.rank());
      GridRoute<double> route;
      auto blk = redistribute_1d_to_2d_grid(c, da, std::span<const index_t>(rb),
                                            std::span<const index_t>(cb), rank_of, bi, bj,
                                            &route, overlap);
      auto [want, want_place] = sorted_capture(a, rb, cb, rank_of, c.rank(), bi, bj);
      EXPECT_EQ(blk, want) << "rank " << c.rank() << " overlap " << overlap;
      EXPECT_EQ(route.block, want);
      EXPECT_EQ(route.recv_place, want_place) << "rank " << c.rank();
    });
  }
}

TEST(GridRoute, CountingSortMatchesSortedCaptureOn2dGrid) {
  for (std::uint64_t seed : {3, 4, 5}) {
    auto a = seed == 5 ? hypersparse(45, 200, seed) : random_rect(41, 33, 350, seed);
    const int P = 6, qr = 2, qc = 3;
    auto rb = even_split(a.nrows(), qr);
    auto cb = even_split(a.ncols(), qc);
    expect_route_matches_sorted_capture(
        a, P, rb, cb, [qc](int bi, int bj) { return bi * qc + bj; },
        [qc](int r) { return std::pair<int, int>{r / qc, r % qc}; });
  }
}

TEST(GridRoute, CountingSortMatchesSortedCaptureOnSplit3dLayerBounds) {
  // split-3D's A route: row blocks × layer-concatenated inner tiles, tile t
  // owned by (layer t / q_c, row bi, grid column t % q_c) — built the way
  // spgemm_split_3d_dist builds it, on 2 layers of 1 × 3 grids.
  const int layers = 2, qr = 1, qc = 3, q2 = qr * qc, P = layers * q2;
  const int stages = std::lcm(qr, qc), spc = stages / qc;
  for (std::uint64_t seed : {6, 7}) {
    auto a = random_rect(29, 52, 400, seed);
    auto rb = even_split(a.nrows(), qr);
    auto kl = even_split(a.ncols(), layers);
    std::vector<index_t> kflat{0};
    for (int l = 0; l < layers; ++l) {
      const auto fine = even_split(kl[static_cast<std::size_t>(l) + 1] -
                                       kl[static_cast<std::size_t>(l)], stages);
      for (int t = 1; t <= qc; ++t)
        kflat.push_back(kl[static_cast<std::size_t>(l)] + fine[static_cast<std::size_t>(t * spc)]);
    }
    expect_route_matches_sorted_capture(
        a, P, rb, kflat,
        [](int bi, int t) { return (t / qc) * q2 + bi * qc + (t % qc); },
        [](int r) {
          return std::pair<int, int>{(r % q2) / qc, (r / q2) * qc + (r % q2) % qc};
        });
  }
}

TEST(GridPlanResidency, CountsStageRowIdsAndReplayScratch) {
  // A grid plan's first replay keeps each stage product's row ids, the
  // merged partial values and the value scratch, sized to the largest stage
  // product; later replays add nothing. bytes_resident must count exactly
  // those arrays.
  auto a = with_values(erdos_renyi<double>(200, 5.0, 31), 0);
  using Plan = GridPlan<double, PlusTimes<double>>;
  Machine m(4);
  m.run([&](Comm& c) {
    auto da = DistMatrix1D<double>::from_global(c, a);
    Plan plan;
    auto fresh = spgemm_summa_2d_dist(c, da, da, LocalKernel::Hybrid, 1, &plan);
    const ReplayMember<Plan, double> one{&plan, &da, &da};
    const std::span<const ReplayMember<Plan, double>> batch(&one, 1);
    std::uint64_t rows = 0, widest = 0;
    for (const auto& st : plan.sched.stages) {
      EXPECT_TRUE(st.c_rows.empty());
      const auto n = static_cast<std::uint64_t>(st.sym.colptr.back());
      rows += n;
      widest = std::max(widest, n);
    }
    const std::uint64_t built = plan.bytes_resident();
    auto first = spgemm_grid_replay<PlusTimes<double>>(c, batch);
    for (const auto& st : plan.sched.stages)
      EXPECT_EQ(st.c_rows.size(), static_cast<std::size_t>(st.sym.colptr.back()));
    const std::uint64_t captured = plan.bytes_resident();
    EXPECT_EQ(captured, built + rows * sizeof(index_t) +
                            (plan.sched.acc_nnz + widest) * sizeof(double));
    auto second = spgemm_grid_replay<PlusTimes<double>>(c, batch);
    EXPECT_EQ(plan.bytes_resident(), captured);
    EXPECT_TRUE(first[0].local() == fresh.local());
    EXPECT_TRUE(second[0].local() == fresh.local());
  });
}

}  // namespace
}  // namespace sa1d
