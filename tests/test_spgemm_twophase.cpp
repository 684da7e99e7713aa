// Differential tests of the two-phase local SpGEMM engine: all four
// accumulator classes must produce *bit-identical* CSC output (structure
// and values) across semirings, thread counts, and adversarial shapes —
// the engine guarantees a fixed per-row ⊕ order — and the symbolic phase
// must predict the numeric structure exactly. The value-only replay kernel
// must reproduce spgemm_local's values memcmp-identically, signed zeros,
// infinities and NaN payloads included, on its own and behind the SA-1D and
// SUMMA-2D plan replays.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "dist/dist_spgemm.hpp"
#include "kernels/spgemm_local.hpp"
#include "sparse/generators.hpp"
#include "sparse/ops.hpp"
#include "util/rng.hpp"

namespace sa1d {
namespace {

constexpr LocalKernel kAllKernels[] = {LocalKernel::Spa, LocalKernel::Heap, LocalKernel::Hash,
                                       LocalKernel::Hybrid};
constexpr int kThreadCounts[] = {1, 2, 7};

/// Adversarial generator: a mix of empty columns, singleton columns, dense
/// columns, and scattered columns, with values in {±1, ±0.5} so numeric
/// cancellation (explicit zeros) actually occurs.
CscMatrix<double> adversarial(index_t m, index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  CooMatrix<double> coo(m, n);
  auto val = [&]() {
    switch (g.below(4)) {
      case 0: return 1.0;
      case 1: return -1.0;
      case 2: return 0.5;
      default: return -0.5;
    }
  };
  for (index_t j = 0; j < n; ++j) {
    switch (g.below(6)) {
      case 0: break;  // structurally empty column
      case 1:         // singleton column (exercises the 1-list copy path)
        coo.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(m))), j, val());
        break;
      case 2:  // dense column (exercises the SPA classes)
        for (index_t i = 0; i < m; ++i)
          if (g.below(3) != 0) coo.push(i, j, val());
        break;
      default: {  // scattered column
        auto cnt = 1 + g.below(12);
        for (std::uint64_t e = 0; e < cnt; ++e)
          coo.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(m))), j, val());
      }
    }
  }
  // Singleton rows: a few rows whose only nonzero is planted here.
  coo.canonicalize();
  return CscMatrix<double>::from_coo(coo);
}

/// The engine falls back to one thread below 2^14 flops/thread; the
/// threads>1 assertions are vacuous unless the input carries enough work to
/// actually engage the parallel partition for every tested thread count.
void require_parallel_work(const CscMatrix<double>& a, const CscMatrix<double>& b) {
  ASSERT_GT(total_flops(a, b), 7 * (index_t{1} << 14));
}

TEST(TwoPhaseDifferential, PlusTimesBitIdenticalAcrossKernelsAndThreads) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto a = adversarial(400, 300, seed);
    auto b = adversarial(300, 350, seed + 100);
    require_parallel_work(a, b);
    auto ref = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa, 1);
    for (auto k : kAllKernels)
      for (int t : kThreadCounts)
        EXPECT_EQ((spgemm_local<PlusTimes<double>, double>(a, b, k, t)), ref)
            << kernel_name(k) << " t=" << t << " seed=" << seed;
  }
}

TEST(TwoPhaseDifferential, MinPlusBitIdenticalAcrossKernelsAndThreads) {
  for (std::uint64_t seed : {5u, 6u}) {
    auto a = adversarial(350, 350, seed);
    require_parallel_work(a, a);
    auto ref = spgemm_local<MinPlus<double>, double>(a, a, LocalKernel::Spa, 1);
    for (auto k : kAllKernels)
      for (int t : kThreadCounts)
        EXPECT_EQ((spgemm_local<MinPlus<double>, double>(a, a, k, t)), ref)
            << kernel_name(k) << " t=" << t << " seed=" << seed;
  }
}

TEST(TwoPhaseDifferential, SkewedParallelPartition) {
  // Power-law columns stress flop_balanced_split's uneven ranges with the
  // parallel path genuinely engaged.
  auto a = rmat<double>(10, 8, 3);
  require_parallel_work(a, a);
  auto ref = spgemm_local<PlusTimes<double>, double>(a, a, LocalKernel::Spa, 1);
  for (auto k : kAllKernels)
    for (int t : kThreadCounts)
      EXPECT_EQ((spgemm_local<PlusTimes<double>, double>(a, a, k, t)), ref)
          << kernel_name(k) << " t=" << t;
}

TEST(TwoPhaseDifferential, OrAndBitIdenticalAcrossKernels) {
  auto a = adversarial(80, 80, 9);
  auto ref = spgemm_local<OrAnd, double>(a, a, LocalKernel::Spa, 1);
  for (auto k : kAllKernels)
    for (int t : kThreadCounts)
      EXPECT_EQ((spgemm_local<OrAnd, double>(a, a, k, t)), ref) << kernel_name(k);
}

TEST(TwoPhaseDifferential, HypersparseLargeRowDimension) {
  // Large row ids force the hash class under Hybrid and exercise the
  // generation-tagged table where a -1 sentinel key could have collided.
  const index_t m = index_t{1} << 21;
  SplitMix64 g(13);
  CooMatrix<double> ca(m, 40);
  for (int e = 0; e < 600; ++e)
    ca.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(m))),
            static_cast<index_t>(g.below(40)), 1.0 + g.uniform());
  // Include the extreme row ids explicitly.
  ca.push(0, 0, 1.0);
  ca.push(m - 1, 0, 1.0);
  ca.canonicalize();
  auto a = CscMatrix<double>::from_coo(ca);
  auto b = adversarial(40, 30, 17);
  auto ref = spgemm_local<PlusTimes<double>, double>(a, b, LocalKernel::Spa, 1);
  for (auto k : kAllKernels)
    for (int t : kThreadCounts)
      EXPECT_EQ((spgemm_local<PlusTimes<double>, double>(a, b, k, t)), ref)
          << kernel_name(k) << " t=" << t;
}

TEST(TwoPhaseSymbolic, NnzPredictionMatchesNumericExactly) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    auto a = adversarial(120, 90, seed);
    auto b = adversarial(90, 60, seed + 50);
    auto predicted = symbolic_nnz(a, b);
    ASSERT_EQ(predicted.size(), static_cast<std::size_t>(b.ncols()));
    for (auto k : kAllKernels) {
      auto c = spgemm(a, b, k);
      index_t total = 0;
      for (index_t j = 0; j < c.ncols(); ++j) {
        EXPECT_EQ(c.col_nnz(j), predicted[static_cast<std::size_t>(j)])
            << "col " << j << " kernel " << kernel_name(k);
        total += predicted[static_cast<std::size_t>(j)];
      }
      EXPECT_EQ(c.nnz(), total);
    }
  }
}

TEST(TwoPhaseSymbolic, CancellationKeepsStructuralZeros) {
  // +1/-1 values cancel numerically; the structural entry must survive so
  // symbolic nnz stays exact.
  CooMatrix<double> ca(4, 2), cb(2, 1);
  ca.push(0, 0, 1.0);
  ca.push(0, 1, -1.0);
  cb.push(0, 0, 1.0);
  cb.push(1, 0, 1.0);
  auto a = CscMatrix<double>::from_coo(ca);
  auto b = CscMatrix<double>::from_coo(cb);
  auto predicted = symbolic_nnz(a, b);
  ASSERT_EQ(predicted.size(), 1u);
  EXPECT_EQ(predicted[0], 1);
  for (auto k : kAllKernels) {
    auto c = spgemm(a, b, k);
    EXPECT_EQ(c.nnz(), 1) << kernel_name(k);
    EXPECT_DOUBLE_EQ(c.vals()[0], 0.0) << kernel_name(k);
  }
}

TEST(FlopBalancedSplit, CoversAndBalancesSkewedWork) {
  // One hub column holds half the flops; the split must isolate it.
  std::vector<index_t> flops(100, 10);
  flops[7] = 1000;
  auto b = flop_balanced_split(flops, 4);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), 100);
  for (std::size_t i = 0; i + 1 < b.size(); ++i) EXPECT_LE(b[i], b[i + 1]);
  // The range containing column 7 must be narrow (the hub dominates).
  for (int p = 0; p < 4; ++p) {
    if (b[static_cast<std::size_t>(p)] <= 7 && 7 < b[static_cast<std::size_t>(p) + 1])
      EXPECT_LT(b[static_cast<std::size_t>(p) + 1] - b[static_cast<std::size_t>(p)], 40);
  }
}

TEST(FlopBalancedSplit, DegenerateInputs) {
  std::vector<index_t> empty;
  auto b0 = flop_balanced_split(empty, 3);
  EXPECT_EQ(b0, (std::vector<index_t>{0, 0, 0, 0}));
  std::vector<index_t> zeros(10, 0);
  auto b1 = flop_balanced_split(zeros, 2);
  EXPECT_EQ(b1.front(), 0);
  EXPECT_EQ(b1.back(), 10);
}

TEST(TwoPhaseEngine, MoreThreadsThanColumns) {
  auto a = adversarial(30, 3, 31);
  auto b = adversarial(3, 2, 32);
  auto ref = spgemm(a, b, LocalKernel::Spa, 1);
  EXPECT_EQ(spgemm(a, b, LocalKernel::Hybrid, 16), ref);
}

// ---- value-only replay kernel ---------------------------------------------

constexpr int kReplayThreads[] = {1, 2, 4};

/// Value regimes of the replay differential. `Zeros` keeps every sum exact
/// and makes rows whose products are all −0.0 common — the cells where a
/// +0.0 seed would turn −0.0 into +0.0. `Specials` adds ±inf and a quiet
/// NaN. `Signaling` replaces both with a signaling NaN.
///
/// Each regime admits one NaN bit pattern per computation: when two
/// different NaNs meet in `a + b`, which one the sum returns depends on the
/// operand order the compiler emits (IEEE leaves it open, and the heap
/// class already picks differently from the SPA classes). So `Specials`
/// draws the NaN that ∞·0 and ∞−∞ produce on this machine, and `Signaling`
/// has no infinities: its sums only ever quiet the one signaling NaN.
enum class Regime { Zeros, Specials, Signaling };

double machine_nan() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf * 0.0;
}

double draw(SplitMix64& g, Regime regime) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static const double kNan = machine_nan();
  const bool sig = regime == Regime::Signaling;
  switch (g.below(regime == Regime::Zeros ? 6 : 10)) {
    case 0: return 0.0;
    case 1:
    case 2: return -0.0;
    case 3: return 1.0;
    case 4: return -1.0;
    case 5: return 2.0;
    case 6: return sig ? 0.75 : kInf;
    case 7: return sig ? -0.5 : -kInf;
    default: return sig ? std::numeric_limits<double>::signaling_NaN() : kNan;
  }
}

/// Same structure, values drawn from `regime`.
CscMatrix<double> revalued(const CscMatrix<double>& m, Regime regime, std::uint64_t seed) {
  SplitMix64 g(seed);
  std::vector<double> vals(m.vals().size());
  for (auto& v : vals) v = draw(g, regime);
  return CscMatrix<double>(m.nrows(), m.ncols(), m.colptr(), m.rowids(), std::move(vals));
}

bool same_bits(std::span<const double> x, std::span<const double> y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

bool is_negative_zero(double x) { return x == 0.0 && std::signbit(x); }

bool is_signaling_nan(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return (bits & 0x7ff0000000000000ULL) == 0x7ff0000000000000ULL &&
         (bits & 0x0008000000000000ULL) == 0 && (bits & 0x000fffffffffffffULL) != 0;
}

/// Captures C's row ids from one numeric pass over (a, b), then replays the
/// values of (a2, b2) — same structure — twice (the second pass on warm,
/// stale workspaces) and requires both memcmp-identical to
/// spgemm_local(a2, b2), for every thread count. Returns the reference at 1
/// thread so callers can check which special values it holds.
template <typename SR>
CscMatrix<double> expect_replay_matches(const CscMatrix<double>& a, const CscMatrix<double>& b,
                                        const CscMatrix<double>& a2, const CscMatrix<double>& b2,
                                        const std::string& what,
                                        LocalKernel kernel = LocalKernel::Hybrid) {
  CscMatrix<double> ref1;
  for (int t : kReplayThreads) {
    std::vector<detail::Workspace<SR>> ws;
    auto sym = spgemm_local_symbolic<SR, double>(a, b, kernel, t, &ws);
    EXPECT_EQ(sym.nt, t) << what << ": the instance must engage " << t << " threads";
    auto captured = spgemm_local_numeric<SR, double>(a, b, sym, &ws);
    auto ref = spgemm_local<SR, double>(a2, b2, LocalKernel::Hybrid, t);
    EXPECT_EQ(captured.colptr(), ref.colptr()) << what;
    EXPECT_EQ(captured.rowids(), ref.rowids()) << what;
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<double> vals(ref.vals().size(), 12345.0);
      spgemm_local_replay<SR, double>(a2, b2, sym, captured.rowids(), vals, &ws);
      EXPECT_TRUE(same_bits(vals, ref.vals())) << what << " t=" << t << " pass " << pass;
    }
    if (t == 1) ref1 = std::move(ref);
  }
  return ref1;
}

/// Small row dimension (≤ 8192, > 64·17): Hybrid mixes heap, bitmap-SPA and
/// stamp-SPA columns; rectangular, with structurally empty columns.
CscMatrix<double> classes_a() { return adversarial(2000, 300, 41); }
CscMatrix<double> classes_b() { return adversarial(300, 350, 42); }

/// Hypersparse: 2^18 rows, so small multi-list columns take the hash class
/// while the wide ones still reach bitmap SPA.
CscMatrix<double> hyper_a() {
  const index_t m = index_t{1} << 18;
  SplitMix64 g(43);
  CooMatrix<double> coo(m, 60);
  for (index_t j = 0; j < 60; ++j) {
    const auto kind = g.below(4);
    const std::uint64_t cnt = kind == 0 ? 0 : (kind == 1 ? 600 : 1 + g.below(12));
    for (std::uint64_t e = 0; e < cnt; ++e)
      coo.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(m))), j, 1.0);
  }
  coo.push(0, 1, 1.0);
  coo.push(m - 1, 1, 1.0);
  coo.canonicalize();
  return CscMatrix<double>::from_coo(coo);
}
CscMatrix<double> hyper_b() { return adversarial(60, 400, 44); }

/// Hypersparse with no wide columns: 2^18 rows and every product column
/// below nrows/64 flops, so Hybrid picks only the heap and hash classes —
/// the Ã·B̃ shape whose class pass holds no O(nrows) state.
CscMatrix<double> thin_hyper_a() {
  const index_t m = index_t{1} << 18;
  SplitMix64 g(45);
  CooMatrix<double> coo(m, 60);
  for (index_t j = 0; j < 60; ++j) {
    const std::uint64_t cnt = g.below(3) == 0 ? 0 : 1 + g.below(12);
    for (std::uint64_t e = 0; e < cnt; ++e)
      coo.push(static_cast<index_t>(g.below(static_cast<std::uint64_t>(m))), j, 1.0);
  }
  coo.canonicalize();
  return CscMatrix<double>::from_coo(coo);
}

std::set<int> classes_of(const CscMatrix<double>& a, const CscMatrix<double>& b) {
  auto sym = spgemm_local_symbolic<PlusTimes<double>, double>(a, b);
  std::set<int> out;
  for (std::size_t j = 0; j < sym.klass.size(); ++j)
    if (sym.colptr[j + 1] > sym.colptr[j]) out.insert(sym.klass[j]);
  return out;
}

TEST(ReplayKernel, InstancesCoverEveryColumnClass) {
  EXPECT_EQ(classes_of(classes_a(), classes_b()),
            (std::set<int>{detail::kClassHeap, detail::kClassSpa, detail::kClassSpaSort}));
  EXPECT_EQ(classes_of(hyper_a(), hyper_b()),
            (std::set<int>{detail::kClassHeap, detail::kClassHash, detail::kClassSpa}));
}

template <typename SR>
void expect_replay_keeps_class_footprint(const CscMatrix<double>& a, const CscMatrix<double>& b,
                                         Regime regime) {
  const auto a2 = revalued(a, regime, 51), b2 = revalued(b, regime, 52);
  for (int t : kReplayThreads) {
    std::vector<detail::Workspace<SR>> ws;
    auto sym = spgemm_local_symbolic<SR, double>(a, b, LocalKernel::Hybrid, t, &ws);
    auto c = spgemm_local_numeric<SR, double>(a, b, sym, &ws);
    std::vector<std::uint64_t> before;
    for (const auto& w : ws) before.push_back(w.bytes());
    auto ref = spgemm_local<SR, double>(a2, b2, LocalKernel::Hybrid, t);
    std::vector<double> vals(ref.vals().size());
    for (int pass = 0; pass < 2; ++pass) {
      spgemm_local_replay<SR, double>(a2, b2, sym, c.rowids(), vals, &ws);
      EXPECT_TRUE(same_bits(vals, ref.vals())) << "t=" << t << " pass " << pass;
    }
    for (std::size_t i = 0; i < ws.size(); ++i) {
      EXPECT_EQ(ws[i].bytes(), before[i]) << "t=" << t << " workspace " << i;
      EXPECT_EQ(ws[i].accum.capacity(), 0u) << "t=" << t << " workspace " << i;
      EXPECT_EQ(ws[i].bits.capacity(), 0u) << "t=" << t << " workspace " << i;
      EXPECT_EQ(ws[i].stamp.capacity(), 0u) << "t=" << t << " workspace " << i;
    }
  }
}

TEST(ReplayKernel, HypersparseReplayKeepsTheClassFootprint) {
  // Only heap and hash columns: the class pass holds no O(nrows) buffer,
  // and the replay must not add one (nor grow any other buffer), with an
  // exact seed and on the first-touch path alike.
  const auto a = thin_hyper_a(), b = hyper_b();
  ASSERT_EQ(classes_of(a, b), (std::set<int>{detail::kClassHeap, detail::kClassHash}));
  expect_replay_keeps_class_footprint<PlusTimes<double>>(a, b, Regime::Zeros);
  expect_replay_keeps_class_footprint<MinPlus<double>>(a, b, Regime::Specials);
}

TEST(ReplayKernel, ForcedKernelsReplay) {
  // Every accumulator class can be forced for all columns: heap columns of
  // any width replay through the hash table, and Spa's columns through the
  // dense accumulator.
  const auto a = classes_a(), b = classes_b();
  const auto ha = hyper_a(), hb = hyper_b();
  for (auto k : {LocalKernel::Spa, LocalKernel::Heap, LocalKernel::Hash}) {
    const std::string name = kernel_name(k);
    expect_replay_matches<PlusTimes<double>>(a, b, revalued(a, Regime::Zeros, 61),
                                             revalued(b, Regime::Zeros, 62), name + " zeros", k);
    expect_replay_matches<MinPlus<double>>(a, b, revalued(a, Regime::Specials, 63),
                                           revalued(b, Regime::Specials, 64),
                                           name + " specials", k);
    expect_replay_matches<PlusSelect2nd<double>>(ha, hb, revalued(ha, Regime::Zeros, 65),
                                                 revalued(hb, Regime::Signaling, 66),
                                                 name + " hyper signaling", k);
  }
}

TEST(ReplayKernel, SeedsAreExactLeftIdentities) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double xs[] = {0.0, -0.0, 1.5, -2.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::denorm_min()};
  for (double x : xs) {
    const double y = PlusTimes<double>::add(ReplaySeed<PlusTimes<double>>::value(), x);
    EXPECT_TRUE(same_bits(std::span<const double>(&x, 1), std::span<const double>(&y, 1))) << x;
  }
  EXPECT_FALSE(OrAnd::add(ReplaySeed<OrAnd>::value(), false));
  EXPECT_TRUE(OrAnd::add(ReplaySeed<OrAnd>::value(), true));
  EXPECT_FALSE(ReplaySeed<MinPlus<double>>::exact);
  EXPECT_FALSE(ReplaySeed<PlusSelect2nd<double>>::exact);
}

TEST(ReplayKernel, PlusTimesKeepsNegativeZeroAndSpecials) {
  const auto a = classes_a(), b = classes_b();
  auto ref = expect_replay_matches<PlusTimes<double>>(
      a, b, revalued(a, Regime::Zeros, 1), revalued(b, Regime::Zeros, 2), "zeros");
  // A +0.0 seed would differ from the reference exactly on these entries.
  EXPECT_GT(std::count_if(ref.vals().begin(), ref.vals().end(), is_negative_zero), 0);
  expect_replay_matches<PlusTimes<double>>(a, b, revalued(a, Regime::Specials, 3),
                                           revalued(b, Regime::Specials, 4), "specials");
  const auto ha = hyper_a(), hb = hyper_b();
  ref = expect_replay_matches<PlusTimes<double>>(
      ha, hb, revalued(ha, Regime::Zeros, 5), revalued(hb, Regime::Zeros, 6), "hyper zeros");
  EXPECT_GT(std::count_if(ref.vals().begin(), ref.vals().end(), is_negative_zero), 0);
  expect_replay_matches<PlusTimes<double>>(ha, hb, revalued(ha, Regime::Specials, 7),
                                           revalued(hb, Regime::Specials, 8), "hyper specials");
}

TEST(ReplayKernel, MinPlusTakesTheStampPath) {
  // std::min(+inf, NaN) is +inf: no exact seed, so the first product of a
  // row must be stored, not folded.
  const auto a = classes_a(), b = classes_b();
  expect_replay_matches<MinPlus<double>>(a, b, revalued(a, Regime::Specials, 11),
                                         revalued(b, Regime::Specials, 12), "specials");
  const auto ha = hyper_a(), hb = hyper_b();
  expect_replay_matches<MinPlus<double>>(ha, hb, revalued(ha, Regime::Specials, 13),
                                         revalued(hb, Regime::Specials, 14), "hyper specials");
}

TEST(ReplayKernel, OrAndSeedsFalse) {
  const auto a = classes_a(), b = classes_b();
  expect_replay_matches<OrAnd>(a, b, revalued(a, Regime::Specials, 21),
                               revalued(b, Regime::Specials, 22), "specials");
  const auto ha = hyper_a(), hb = hyper_b();
  expect_replay_matches<OrAnd>(ha, hb, revalued(ha, Regime::Zeros, 23),
                               revalued(hb, Regime::Zeros, 24), "hyper zeros");
}

TEST(ReplayKernel, PlusSelect2ndKeepsSignalingNaNsFromB) {
  // ⊗ returns B's value untouched, so a row's only product can be a
  // signaling NaN; −0.0 + sNaN would quiet it.
  const auto a = classes_a(), b = classes_b();
  auto ref = expect_replay_matches<PlusSelect2nd<double>>(
      a, b, revalued(a, Regime::Specials, 31), revalued(b, Regime::Signaling, 32), "signaling");
  EXPECT_GT(std::count_if(ref.vals().begin(), ref.vals().end(), is_signaling_nan), 0);
  const auto ha = hyper_a(), hb = hyper_b();
  ref = expect_replay_matches<PlusSelect2nd<double>>(
      ha, hb, revalued(ha, Regime::Zeros, 33), revalued(hb, Regime::Signaling, 34),
      "hyper signaling");
  EXPECT_GT(std::count_if(ref.vals().begin(), ref.vals().end(), is_signaling_nan), 0);
}

TEST(ReplayKernel, EmptyProductAndEmptyOperands) {
  CscMatrix<double> a(30, 0), b(0, 12);
  auto sym = spgemm_local_symbolic<PlusTimes<double>, double>(a, b);
  std::vector<index_t> rows;
  std::vector<double> vals;
  spgemm_local_replay<PlusTimes<double>, double>(a, b, sym, rows, vals);
  EXPECT_TRUE(vals.empty());
  // Mismatched spans are rejected, not written past.
  const auto ca = classes_a(), cb = classes_b();
  auto csym = spgemm_local_symbolic<PlusTimes<double>, double>(ca, cb);
  auto c = spgemm_local_numeric<PlusTimes<double>, double>(ca, cb, csym);
  std::vector<double> short_vals(c.vals().size() - 1);
  EXPECT_THROW((spgemm_local_replay<PlusTimes<double>, double>(ca, cb, csym, c.rowids(),
                                                                short_vals)),
               std::exception);
}

/// Plan replays behind spgemm_dist_cached: build on one value set, replay
/// two more over the same structure (a grid plan's second replay is its
/// first through the replay kernel), each memcmp-identical to the serial
/// product. Values from the Zeros regime keep every ⊕ order exact, so the
/// serial reference is the contract for every backend, and their −0.0
/// products make a +0.0 seed visible.
void expect_dist_replay_keeps_negative_zero(Algo algo) {
  const auto pat = erdos_renyi<double>(240, 6.0, 77);
  std::vector<CscMatrix<double>> vs, refs;
  for (std::uint64_t v = 0; v < 3; ++v) {
    vs.push_back(revalued(pat, Regime::Zeros, 100 + v));
    refs.push_back(spgemm_local<PlusTimes<double>, double>(vs.back(), vs.back()));
  }
  for (const auto& r : refs)
    EXPECT_GT(std::count_if(r.vals().begin(), r.vals().end(), is_negative_zero), 0);
  Machine m(4);
  m.run([&](Comm& c) {
    DistSpgemmPlan<double> plan;
    DistSpgemmOptions opt;
    opt.algo = algo;
    for (std::size_t v = 0; v < vs.size(); ++v) {
      auto da = DistMatrix1D<double>::from_global(c, vs[v]);
      DistSpgemmStats st;
      auto got = spgemm_dist_cached(c, plan, da, da, opt, &st);
      EXPECT_EQ(st.plan_reused, v > 0);
      auto want = DistMatrix1D<double>::from_global(c, refs[v], got.bounds());
      EXPECT_EQ(got.local().jc(), want.local().jc()) << algo_name(algo) << " v=" << v;
      EXPECT_EQ(got.local().cp(), want.local().cp()) << algo_name(algo) << " v=" << v;
      EXPECT_EQ(got.local().ir(), want.local().ir()) << algo_name(algo) << " v=" << v;
      EXPECT_TRUE(same_bits(got.local().vals(), want.local().vals()))
          << algo_name(algo) << " rank " << c.rank() << " v=" << v;
    }
    EXPECT_EQ(plan.replays(), 2);
  });
}

TEST(ReplayKernel, Sa1dCachedReplayKeepsNegativeZero) {
  expect_dist_replay_keeps_negative_zero(Algo::SparseAware1D);
}

TEST(ReplayKernel, Summa2dCachedReplayKeepsNegativeZero) {
  expect_dist_replay_keeps_negative_zero(Algo::Summa2D);
}

}  // namespace
}  // namespace sa1d
