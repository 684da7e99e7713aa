// Coordinate (triples) format: the assembly/interchange format of sa1d.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/common.hpp"

namespace sa1d {

/// One nonzero element.
template <typename VT = double>
struct Triple {
  index_t row = 0;
  index_t col = 0;
  VT val{};

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// Sparse matrix in coordinate form. Triples may be unsorted and contain
/// duplicates until canonicalize() is called.
template <typename VT = double>
class CooMatrix {
 public:
  using value_type = VT;

  CooMatrix() = default;
  CooMatrix(index_t nrows, index_t ncols) : nrows_(nrows), ncols_(ncols) {
    require(nrows >= 0 && ncols >= 0, "CooMatrix: negative dimension");
  }
  CooMatrix(index_t nrows, index_t ncols, std::vector<Triple<VT>> triples)
      : nrows_(nrows), ncols_(ncols), t_(std::move(triples)) {
    require(nrows >= 0 && ncols >= 0, "CooMatrix: negative dimension");
  }

  [[nodiscard]] index_t nrows() const { return nrows_; }
  [[nodiscard]] index_t ncols() const { return ncols_; }
  [[nodiscard]] index_t nnz() const { return static_cast<index_t>(t_.size()); }

  void push(index_t r, index_t c, VT v) {
    assert(r >= 0 && r < nrows_ && c >= 0 && c < ncols_);
    t_.push_back({r, c, v});
  }

  [[nodiscard]] const std::vector<Triple<VT>>& triples() const { return t_; }
  std::vector<Triple<VT>>& triples() { return t_; }

  /// Sorts column-major (col, then row) and merges duplicates with `add`
  /// (any associative/commutative ⊕ — the distributed backends pass their
  /// semiring's add so partial-product merges keep semiring semantics).
  /// Drops explicit zeros produced by cancellation only if `drop_zeros`.
  template <typename Add>
  void canonicalize_with(Add add, bool drop_zeros = false) {
    std::sort(t_.begin(), t_.end(), [](const Triple<VT>& a, const Triple<VT>& b) {
      return a.col != b.col ? a.col < b.col : a.row < b.row;
    });
    std::size_t w = 0;
    for (std::size_t i = 0; i < t_.size();) {
      Triple<VT> acc = t_[i++];
      while (i < t_.size() && t_[i].row == acc.row && t_[i].col == acc.col)
        acc.val = add(acc.val, t_[i++].val);
      if (!drop_zeros || acc.val != VT{}) t_[w++] = acc;
    }
    t_.resize(w);
  }

  /// canonicalize_with over plain addition (the numeric semiring's merge).
  void canonicalize(bool drop_zeros = false) {
    canonicalize_with([](VT a, VT b) { return a + b; }, drop_zeros);
  }

  /// True if triples are column-major sorted with no duplicates.
  [[nodiscard]] bool is_canonical() const {
    for (std::size_t i = 1; i < t_.size(); ++i) {
      const auto& a = t_[i - 1];
      const auto& b = t_[i];
      if (a.col > b.col || (a.col == b.col && a.row >= b.row)) return false;
    }
    return true;
  }

  friend bool operator==(const CooMatrix& a, const CooMatrix& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ && a.t_ == b.t_;
  }

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  std::vector<Triple<VT>> t_;
};

/// Streaming deterministic merge of partial-product triples: call round()
/// after appending each batch of pushes — a ring hop, a SUMMA stage, one
/// scatter chunk — and the accumulator collapses to canonical form after
/// every round instead of holding all pushes until a terminal merge. The
/// peak footprint drops from Σ pushes to (merged so far + one round's
/// pushes), which is what the peak-triples budget bounds.
///
/// Semantics: per (col, row) key, the merged value is the left ⊕-fold of
/// that key's pushes in push order — the first push assigns, every later
/// one accumulates — so the result is fixed bit for bit for any ⊕, however
/// the pushes are cut into rounds. `dst`/`first` (optional, but only
/// together) capture that fold as a program over all pushes so far: push i
/// lands in merged slot (*dst)[i], assigning when (*first)[i] and
/// ⊕-accumulating otherwise, so replaying the program over fresh values in
/// push order reproduces a fresh merge exactly.
///
/// Each round is one pass over columns that never sorts the accumulator.
/// It requires the prefix [0, merged()) to be canonical (it is: the
/// previous round left it so) and the appended suffix to be column-sorted,
/// with rows in any order within a column — every caller appends
/// CSC/DCSC-ordered partials. Per column, the prefix rows are stamped in a
/// dense row→slot map, only the rows the suffix adds are ordered, the
/// union is laid out, and the suffix folds in push order through the map:
/// O(prefix + pushes + new rows · log) per round. A column only one side
/// touches is copied as is (the suffix's only if its rows are strictly
/// ascending — a SUMMA stage's first block, a scatter's first chunk).
/// The map (nrows indices) and its row bitmap are allocated the first time
/// a column needs them, once per merger; they and the output buffer are
/// owned here and reused across rounds.
template <typename VT>
class StreamingTripleMerge {
 public:
  /// Canonical prefix length of the accumulator after the last round().
  [[nodiscard]] std::size_t merged() const { return merged_; }

  /// Merges the triples appended to `acc` since the previous round
  /// (positions [merged(), nnz)) into the canonical prefix. `dst`/`first`
  /// hold the composed fold program across all rounds so far: entries for
  /// earlier pushes are remapped through this round's slot movement,
  /// entries for this round's pushes appended.
  template <typename Add>
  void round(CooMatrix<VT>& acc, Add add, std::vector<index_t>* dst = nullptr,
             std::vector<std::uint8_t>* first = nullptr) {
    require((dst == nullptr) == (first == nullptr),
            "StreamingTripleMerge::round: dst and first capture the fold program "
            "together — pass both or neither");
    auto& t = acc.triples();
    const std::size_t m = merged_, n = t.size();
    require(m <= n, "StreamingTripleMerge::round: the accumulator shrank below the merged prefix");
    if (n == m) return;  // nothing appended this round
    bool sorted = true, in_rows = true;
    for (std::size_t s = m; s < n; ++s) {
      sorted &= s == m || t[s - 1].col <= t[s].col;
      in_rows &= t[s].row >= 0 && t[s].row < acc.nrows();
    }
    require(sorted,
            "StreamingTripleMerge::round: the triples appended since the last round must be "
            "column-sorted (rows may be in any order within a column)");
    require(in_rows, "StreamingTripleMerge::round: an appended triple's row is out of range");
    const std::size_t pushed_before = dst != nullptr ? dst->size() : 0;
    if (dst != nullptr) {
      remap_.resize(m);
      dst->reserve(pushed_before + (n - m));
      first->reserve(pushed_before + (n - m));
    }
    out_.clear();
    out_.reserve(n);
    std::size_t p = 0, s = m;
    while (p < m || s < n) {
      const index_t c = s == n || (p < m && t[p].col < t[s].col) ? t[p].col : t[s].col;
      std::size_t pe = p, se = s;
      while (pe < m && t[pe].col == c) ++pe;
      while (se < n && t[se].col == c) ++se;
      fold_column(t, acc.nrows(), p, pe, s, se, add, dst, first);
      p = pe;
      s = se;
    }
    if (dst != nullptr)
      for (std::size_t i = 0; i < pushed_before; ++i)
        (*dst)[i] = remap_[static_cast<std::size_t>((*dst)[i])];
    t.swap(out_);
    merged_ = t.size();
  }

 private:
  // slot_[row] for the column being folded: kAbsent when the row is not in
  // it, a settled output slot (>= 0) that suffix pushes ⊕-accumulate into,
  // or pending(slot) for a row new to the column whose first push assigns.
  static constexpr index_t kAbsent = -1;
  static constexpr index_t pending(index_t slot) { return -2 - slot; }

  /// Lays out and folds one column: prefix entries [p, pe) (canonical) and
  /// suffix pushes [s, se) (push order), appending the merged column to out_.
  template <typename Add>
  void fold_column(const std::vector<Triple<VT>>& t, index_t nrows, std::size_t p, std::size_t pe,
                   std::size_t s, std::size_t se, Add& add, std::vector<index_t>* dst,
                   std::vector<std::uint8_t>* first) {
    auto copy_prefix = [&](std::size_t q) {
      if (dst != nullptr) remap_[q] = static_cast<index_t>(out_.size());
      out_.push_back(t[q]);
    };
    auto record = [&](index_t k, bool assign) {
      if (dst != nullptr) {
        dst->push_back(k);
        first->push_back(assign ? 1 : 0);
      }
    };
    std::size_t q = p;
    if (s == se) {  // no pushes: the prefix column as is
      while (q < pe) copy_prefix(q++);
      return;
    }
    bool ascending = p == pe;
    for (std::size_t x = s + 1; x < se && ascending; ++x) ascending = t[x - 1].row < t[x].row;
    if (ascending) {  // a new column of distinct ascending rows: the pushes as is
      for (std::size_t x = s; x < se; ++x) {
        out_.push_back(t[x]);
        record(static_cast<index_t>(out_.size() - 1), true);
      }
      return;
    }
    // Stamp the prefix rows, then collect the rows the suffix adds (any
    // non-absent mark will do until the layout assigns real slots).
    if (slot_.size() < static_cast<std::size_t>(nrows)) {
      slot_.resize(static_cast<std::size_t>(nrows), kAbsent);
      bits_.resize(static_cast<std::size_t>(nrows) / 64 + 1, 0);
    }
    for (std::size_t y = p; y < pe; ++y) slot_[static_cast<std::size_t>(t[y].row)] = 0;
    fresh_.clear();
    for (std::size_t x = s; x < se; ++x) {
      auto& sl = slot_[static_cast<std::size_t>(t[x].row)];
      if (sl == kAbsent) {
        sl = 0;
        fresh_.push_back(t[x].row);
      }
    }
    order_fresh();
    // Lay out the union of prefix rows and new rows in row order.
    auto place_prefix = [&](std::size_t y) {
      slot_[static_cast<std::size_t>(t[y].row)] = static_cast<index_t>(out_.size());
      copy_prefix(y);
    };
    for (const index_t r : fresh_) {
      while (q < pe && t[q].row < r) place_prefix(q++);
      slot_[static_cast<std::size_t>(r)] = pending(static_cast<index_t>(out_.size()));
      out_.push_back({r, t[s].col, VT{}});
    }
    while (q < pe) place_prefix(q++);
    // Fold the suffix in push order.
    for (std::size_t x = s; x < se; ++x) {
      auto& sl = slot_[static_cast<std::size_t>(t[x].row)];
      const bool assign = sl < kAbsent;
      if (assign) sl = pending(sl);  // pending() is its own inverse
      auto& v = out_[static_cast<std::size_t>(sl)].val;
      v = assign ? t[x].val : add(v, t[x].val);
      record(sl, assign);
    }
    for (std::size_t y = p; y < pe; ++y) slot_[static_cast<std::size_t>(t[y].row)] = kAbsent;
    for (const index_t r : fresh_) slot_[static_cast<std::size_t>(r)] = kAbsent;
  }

  /// Sorts fresh_ (distinct rows). When they are dense in their range (at
  /// least two per 64-row word), setting their bits and scanning the words
  /// is O(new rows) and beats a comparison sort; sparser rows are sorted by
  /// comparison, so a hypersparse column never pays for its empty range.
  void order_fresh() {
    if (std::is_sorted(fresh_.begin(), fresh_.end())) return;
    const auto [lo, hi] = std::minmax_element(fresh_.begin(), fresh_.end());
    const auto wlo = static_cast<std::size_t>(*lo) / 64, whi = static_cast<std::size_t>(*hi) / 64;
    if (2 * (whi - wlo + 1) > fresh_.size()) {
      std::sort(fresh_.begin(), fresh_.end());
      return;
    }
    for (const index_t r : fresh_)
      bits_[static_cast<std::size_t>(r) / 64] |= std::uint64_t{1} << (r % 64);
    std::size_t k = 0;
    for (std::size_t w = wlo; w <= whi; ++w) {
      for (std::uint64_t b = bits_[w]; b != 0; b &= b - 1)
        fresh_[k++] = static_cast<index_t>(w * 64 + static_cast<std::size_t>(std::countr_zero(b)));
      bits_[w] = 0;
    }
  }

  std::size_t merged_ = 0;
  std::vector<index_t> slot_;         ///< row → slot map, kAbsent between columns; sized on first use
  std::vector<std::uint64_t> bits_;   ///< row bitmap for order_fresh, zero between columns
  std::vector<index_t> fresh_;        ///< rows the current column's suffix adds
  std::vector<index_t> remap_;        ///< prefix position → merged slot (capture only)
  std::vector<Triple<VT>> out_;       ///< merged output; swapped with the accumulator
};

}  // namespace sa1d
