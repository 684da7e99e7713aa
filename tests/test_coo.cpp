// Unit tests for the COO triples format and the streaming triple merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "sparse/coo.hpp"
#include "util/rng.hpp"

namespace sa1d {
namespace {

TEST(Coo, EmptyMatrix) {
  CooMatrix<double> m(3, 4);
  EXPECT_EQ(m.nrows(), 3);
  EXPECT_EQ(m.ncols(), 4);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_TRUE(m.is_canonical());
}

TEST(Coo, RejectsNegativeDims) {
  EXPECT_THROW(CooMatrix<double>(-1, 2), std::invalid_argument);
}

TEST(Coo, PushAndCanonicalizeSortsColumnMajor) {
  CooMatrix<double> m(4, 4);
  m.push(3, 1, 1.0);
  m.push(0, 1, 2.0);
  m.push(2, 0, 3.0);
  EXPECT_FALSE(m.is_canonical());
  m.canonicalize();
  ASSERT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.triples()[0], (Triple<double>{2, 0, 3.0}));
  EXPECT_EQ(m.triples()[1], (Triple<double>{0, 1, 2.0}));
  EXPECT_EQ(m.triples()[2], (Triple<double>{3, 1, 1.0}));
  EXPECT_TRUE(m.is_canonical());
}

TEST(Coo, CanonicalizeMergesDuplicatesByAddition) {
  CooMatrix<double> m(2, 2);
  m.push(1, 1, 2.5);
  m.push(1, 1, 0.5);
  m.push(0, 0, 1.0);
  m.canonicalize();
  ASSERT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.triples()[1].val, 3.0);
}

TEST(Coo, CanonicalizeKeepsExplicitZerosByDefault) {
  CooMatrix<double> m(2, 2);
  m.push(0, 0, 1.0);
  m.push(0, 0, -1.0);
  m.canonicalize();
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.triples()[0].val, 0.0);
}

TEST(Coo, CanonicalizeDropZeros) {
  CooMatrix<double> m(2, 2);
  m.push(0, 0, 1.0);
  m.push(0, 0, -1.0);
  m.push(1, 0, 2.0);
  m.canonicalize(/*drop_zeros=*/true);
  ASSERT_EQ(m.nnz(), 1);
  EXPECT_EQ(m.triples()[0].row, 1);
}

TEST(Coo, EqualityComparesDimsAndTriples) {
  CooMatrix<double> a(2, 2), b(2, 2), c(3, 2);
  a.push(0, 0, 1.0);
  b.push(0, 0, 1.0);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Coo, ConstructFromTripleVector) {
  std::vector<Triple<double>> t{{0, 0, 1.0}, {1, 1, 2.0}};
  CooMatrix<double> m(2, 2, t);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_TRUE(m.is_canonical());
}


// ---- StreamingTripleMerge vs. the sort-based oracle -------------------------

/// The oracle: one terminal merge of every push. Sorts by (col, row) with
/// ties broken by push position and ⊕-folds duplicates left to right;
/// `dst`/`first` capture the fold program (push i lands in slot dst[i],
/// assigning when first[i], accumulating otherwise).
template <typename Add, typename VT>
void merge_triples_stable(std::vector<Triple<VT>>& t, Add add, std::vector<index_t>& dst,
                          std::vector<std::uint8_t>& first) {
  std::vector<index_t> perm(t.size());
  std::iota(perm.begin(), perm.end(), index_t{0});
  std::sort(perm.begin(), perm.end(), [&](index_t x, index_t y) {
    const auto& a = t[static_cast<std::size_t>(x)];
    const auto& b = t[static_cast<std::size_t>(y)];
    if (a.col != b.col) return a.col < b.col;
    if (a.row != b.row) return a.row < b.row;
    return x < y;
  });
  dst.assign(t.size(), 0);
  first.assign(t.size(), 0);
  std::vector<Triple<VT>> out;
  for (auto i : perm) {
    const auto& ti = t[static_cast<std::size_t>(i)];
    if (out.empty() || out.back().col != ti.col || out.back().row != ti.row) {
      out.push_back(ti);
      first[static_cast<std::size_t>(i)] = 1;
    } else {
      out.back().val = add(out.back().val, ti.val);
    }
    dst[static_cast<std::size_t>(i)] = static_cast<index_t>(out.size() - 1);
  }
  t = std::move(out);
}

using Rounds = std::vector<std::vector<Triple<double>>>;

const auto kPlus = [](double x, double y) { return x + y; };
const auto kMin = [](double x, double y) { return std::min(x, y); };
// Neither associative nor commutative: any change in fold order shows.
const auto kSkew = [](double x, double y) { return 2.0 * x + y; };

/// Streams `rounds` through one merger (capturing and not) and asserts the
/// merged triples and the composed dst/first are byte-identical to one
/// terminal oracle merge over the same pushes in the same order.
template <typename Add>
void expect_matches_oracle(index_t nrows, index_t ncols, const Rounds& rounds, Add add) {
  CooMatrix<double> acc(nrows, ncols), plain(nrows, ncols);
  StreamingTripleMerge<double> sm, sm_plain;
  std::vector<index_t> dst;
  std::vector<std::uint8_t> first;
  std::vector<Triple<double>> all;
  for (const auto& r : rounds) {
    for (const auto& t : r) {
      acc.push(t.row, t.col, t.val);
      plain.push(t.row, t.col, t.val);
      all.push_back(t);
    }
    sm.round(acc, add, &dst, &first);
    sm_plain.round(plain, add);
    ASSERT_TRUE(acc.is_canonical());
    ASSERT_EQ(sm.merged(), acc.triples().size());
  }
  std::vector<index_t> want_dst;
  std::vector<std::uint8_t> want_first;
  merge_triples_stable(all, add, want_dst, want_first);
  using Triples = std::vector<Triple<double>>;
  auto bytes_equal = [](const Triples& x, const Triples& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i].row != y[i].row || x[i].col != y[i].col ||
          std::bit_cast<std::uint64_t>(x[i].val) != std::bit_cast<std::uint64_t>(y[i].val))
        return false;
    return true;
  };
  EXPECT_TRUE(bytes_equal(acc.triples(), all));
  EXPECT_TRUE(bytes_equal(plain.triples(), all));
  EXPECT_EQ(dst, want_dst);
  EXPECT_EQ(first, want_first);
}

template <typename F>
void for_each_add(F f) {
  f(kPlus);
  f(kMin);
  f(kSkew);
}

/// One round of `n` pushes over the given columns: column-sorted, rows
/// random (unsorted, duplicates likely when `nrows` is small).
std::vector<Triple<double>> random_round(SplitMix64& g, index_t nrows,
                                         const std::vector<index_t>& cols, int n) {
  std::vector<Triple<double>> r;
  for (int i = 0; i < n; ++i)
    r.push_back({static_cast<index_t>(g.below(static_cast<std::uint64_t>(nrows))),
                 cols[g.below(cols.size())], g.uniform() - 0.5});
  std::stable_sort(r.begin(), r.end(),
                   [](const auto& a, const auto& b) { return a.col < b.col; });
  return r;
}

/// A round shaped like a SUMMA stage or a scatter chunk: column-major with
/// strictly ascending rows in each column.
std::vector<Triple<double>> canonical_round(std::vector<Triple<double>> r) {
  std::stable_sort(r.begin(), r.end(), [](const auto& a, const auto& b) {
    return a.col != b.col ? a.col < b.col : a.row < b.row;
  });
  auto same_key = [](const auto& a, const auto& b) { return a.col == b.col && a.row == b.row; };
  r.erase(std::unique(r.begin(), r.end(), same_key), r.end());
  return r;
}

TEST(StreamingTripleMerge, SeededRandomRoundsMatchTerminalOracle) {
  // Few rows make dense columns (new rows ordered by the bitmap scan),
  // many rows sparse ones (ordered by sort); canonical rounds (a new
  // column's pushes are copied as is) and unsorted rounds interleave.
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    SplitMix64 g(seed);
    const auto nrows = static_cast<index_t>(1 + g.below(seed % 2 == 0 ? 40 : 5000));
    const auto ncols = static_cast<index_t>(1 + g.below(12));
    std::vector<index_t> cols(static_cast<std::size_t>(ncols));
    std::iota(cols.begin(), cols.end(), index_t{0});
    Rounds rounds;
    const int nr = 1 + static_cast<int>(g.below(6));
    for (int k = 0; k < nr; ++k) {  // empty rounds come up too (n = 0)
      auto r = random_round(g, nrows, cols, static_cast<int>(g.below(50)));
      rounds.push_back(g.below(3) == 0 ? canonical_round(r) : r);
    }
    for_each_add([&](auto add) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      expect_matches_oracle(nrows, ncols, rounds, add);
    });
  }
}

TEST(StreamingTripleMerge, DuplicateKeysWithinOneRound) {
  Rounds rounds{{{3, 0, 1.0}, {1, 0, 2.0}, {3, 0, 3.0}, {1, 0, 4.0}, {3, 0, 5.0}, {2, 1, 6.0},
                 {2, 1, 7.0}}};
  for_each_add([&](auto add) { expect_matches_oracle(4, 2, rounds, add); });
}

TEST(StreamingTripleMerge, RoundsThatOnlyTouchExistingKeys) {
  SplitMix64 g(7);
  std::vector<index_t> cols{0, 2, 3, 5};
  Rounds rounds{random_round(g, 20, cols, 40)};
  for (int k = 0; k < 4; ++k) {
    auto again = rounds.front();  // same keys, new values, shuffled within columns
    for (auto& t : again) t.val = g.uniform();
    std::reverse(again.begin(), again.end());
    std::stable_sort(again.begin(), again.end(),
                     [](const auto& a, const auto& b) { return a.col < b.col; });
    rounds.push_back(again);
  }
  for_each_add([&](auto add) { expect_matches_oracle(20, 6, rounds, add); });
}

TEST(StreamingTripleMerge, EmptyRoundsAreNoOps) {
  SplitMix64 g(11);
  std::vector<index_t> cols{0, 1, 2};
  Rounds rounds{{}, random_round(g, 8, cols, 20), {}, {}, random_round(g, 8, cols, 20), {}};
  for_each_add([&](auto add) { expect_matches_oracle(8, 3, rounds, add); });
}

TEST(StreamingTripleMerge, PrefixOnlyAndSuffixOnlyColumns) {
  SplitMix64 g(13);
  // Round 1 fills the even columns, round 2 only the odd ones (every column
  // is prefix-only or suffix-only), round 3 straddles both.
  Rounds rounds{random_round(g, 16, {0, 2, 4, 6}, 30), random_round(g, 16, {1, 3, 5}, 30),
                random_round(g, 16, {0, 1, 4, 7}, 30)};
  for_each_add([&](auto add) { expect_matches_oracle(16, 8, rounds, add); });
}

TEST(StreamingTripleMerge, RowsAboveEveryEarlierRow) {
  // Later rounds append rows past every row merged so far in the column,
  // and rows below too, so the layout interleaves at both ends.
  Rounds rounds{{{4, 0, 1.0}, {5, 0, 2.0}, {4, 1, 3.0}},
                {{9, 0, 4.0}, {7, 0, 5.0}, {9, 0, 6.0}, {8, 1, 7.0}},
                {{0, 0, 8.0}, {11, 0, 9.0}, {5, 0, 10.0}, {1, 1, 11.0}, {11, 1, 12.0}}};
  for_each_add([&](auto add) { expect_matches_oracle(12, 2, rounds, add); });
}

TEST(StreamingTripleMerge, CanonicalRoundsLikeSummaStages) {
  // Every round is a sorted, duplicate-free block overlapping the prefix in
  // some rows, as SUMMA stages and scatter chunks are.
  SplitMix64 g(19);
  Rounds rounds;
  for (int k = 0; k < 5; ++k)
    rounds.push_back(canonical_round(random_round(g, 30, {0, 1, 2, 4}, 40)));
  for_each_add([&](auto add) { expect_matches_oracle(30, 5, rounds, add); });
}

TEST(StreamingTripleMerge, SingleRound) {
  SplitMix64 g(17);
  Rounds rounds{random_round(g, 10, {0, 1, 2, 3}, 60)};
  for_each_add([&](auto add) { expect_matches_oracle(10, 4, rounds, add); });
}

TEST(StreamingTripleMerge, RejectsSuffixThatIsNotColumnSorted) {
  CooMatrix<double> acc(4, 4);
  StreamingTripleMerge<double> sm;
  acc.push(0, 1, 1.0);
  sm.round(acc, kPlus);
  acc.push(1, 2, 1.0);
  acc.push(0, 0, 1.0);  // column 0 after column 2
  EXPECT_THROW(sm.round(acc, kPlus), std::invalid_argument);
}

TEST(StreamingTripleMerge, RejectsHalfACaptureProgram) {
  CooMatrix<double> acc(2, 2);
  StreamingTripleMerge<double> sm;
  std::vector<index_t> dst;
  acc.push(0, 0, 1.0);
  EXPECT_THROW(sm.round(acc, kPlus, &dst, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace sa1d
