// 1D column-distributed sparse matrix: the data layout of the paper's
// Algorithm 1. Rank i owns the contiguous global column range
// [bounds[i], bounds[i+1]) as a local DCSC slice whose column ids are
// 0-based within the slice; global_col() maps them back. Bounds may be
// uneven (flops-balanced or partitioner-induced layouts).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "runtime/machine.hpp"
#include "sparse/dcsc.hpp"
#include "sparse/ops.hpp"
#include "util/common.hpp"

namespace sa1d {

/// Splits `n = w.size()` items into `parts` contiguous ranges whose summed
/// weights are as even as prefix cuts allow (the continuous analogue of the
/// paper's flops-balanced METIS objective). Returns boundaries of size
/// parts+1 with boundaries[0] = 0 and boundaries.back() = n.
inline std::vector<index_t> weighted_split(std::span<const double> w, int parts) {
  require(parts > 0, "weighted_split: parts must be positive");
  std::vector<double> prefix(w.size() + 1, 0.0);
  for (std::size_t i = 0; i < w.size(); ++i) prefix[i + 1] = prefix[i] + w[i];
  const double total = prefix.back();
  std::vector<index_t> bounds(static_cast<std::size_t>(parts) + 1, 0);
  bounds.back() = static_cast<index_t>(w.size());
  for (int p = 1; p < parts; ++p) {
    double target = total * static_cast<double>(p) / static_cast<double>(parts);
    auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    auto cut = static_cast<index_t>(it - prefix.begin());
    bounds[static_cast<std::size_t>(p)] =
        std::max(bounds[static_cast<std::size_t>(p) - 1],
                 std::min(cut, static_cast<index_t>(w.size())));
  }
  return bounds;
}

/// 1D column-distributed matrix over a Comm. Each rank holds its slice and
/// the replicated bounds vector; the handle is rank-local (SPMD style).
template <typename VT = double>
class DistMatrix1D {
 public:
  using value_type = VT;

  DistMatrix1D() = default;

  DistMatrix1D(index_t nrows, index_t ncols, std::vector<index_t> bounds, int rank,
               DcscMatrix<VT> local)
      : nrows_(nrows), ncols_(ncols), bounds_(std::move(bounds)), rank_(rank),
        local_(std::move(local)) {
    require(nrows >= 0 && ncols >= 0, "DistMatrix1D: negative dimension");
    require(bounds_.size() >= 2 && bounds_.front() == 0 && bounds_.back() == ncols,
            "DistMatrix1D: bounds must cover [0, ncols]");
    require(std::is_sorted(bounds_.begin(), bounds_.end()),
            "DistMatrix1D: bounds must be non-decreasing");
    require(rank >= 0 && static_cast<std::size_t>(rank) + 1 < bounds_.size(),
            "DistMatrix1D: rank outside bounds");
    require(local_.ncols() == col_hi() - col_lo(),
            "DistMatrix1D: local slice width does not match bounds");
    require(local_.nrows() == nrows, "DistMatrix1D: local slice row count mismatch");
  }

  /// Distributes a replicated global matrix: every rank keeps its column
  /// slice. No communication (the global operand is already everywhere);
  /// the paper charges real distribution as preprocessing where relevant.
  static DistMatrix1D from_global(Comm& comm, const CscMatrix<VT>& a,
                                  std::vector<index_t> bounds = {}) {
    if (bounds.empty()) bounds = even_split(a.ncols(), comm.size());
    require(bounds.size() == static_cast<std::size_t>(comm.size()) + 1,
            "DistMatrix1D::from_global: bounds size must be P+1");
    index_t lo = bounds[static_cast<std::size_t>(comm.rank())];
    index_t hi = bounds[static_cast<std::size_t>(comm.rank()) + 1];
    auto slice = DcscMatrix<VT>::from_csc(extract_cols(a, lo, hi));
    return DistMatrix1D(a.nrows(), a.ncols(), std::move(bounds), comm.rank(), std::move(slice));
  }

  [[nodiscard]] index_t nrows() const { return nrows_; }
  [[nodiscard]] index_t ncols() const { return ncols_; }
  [[nodiscard]] const std::vector<index_t>& bounds() const { return bounds_; }
  [[nodiscard]] int rank() const { return rank_; }

  [[nodiscard]] index_t col_lo() const { return bounds_[static_cast<std::size_t>(rank_)]; }
  [[nodiscard]] index_t col_hi() const { return bounds_[static_cast<std::size_t>(rank_) + 1]; }
  [[nodiscard]] index_t local_ncols() const { return col_hi() - col_lo(); }
  [[nodiscard]] index_t local_nnz() const { return local_.nnz(); }

  [[nodiscard]] const DcscMatrix<VT>& local() const { return local_; }
  /// Mutable slice access for value-only replay programs (the structure
  /// contract is the caller's: overwrite vals in place, never jc/cp/ir —
  /// same rule as DcscMatrix::mutable_vals).
  [[nodiscard]] DcscMatrix<VT>& mutable_local() { return local_; }

  /// Global column id of the k-th *nonzero* local column.
  [[nodiscard]] index_t global_col(index_t k) const { return col_lo() + local_.col_id(k); }

  /// Total nonzeros across all slices. Collective.
  [[nodiscard]] index_t global_nnz(Comm& comm) const {
    return comm.allreduce_sum(local_.nnz());
  }

  /// This rank's slice as COO triples in *global* coordinates (rank-local,
  /// no communication). The interchange form of the slice: gather() and
  /// the replicated-operand baseline wrappers are built on it.
  [[nodiscard]] CooMatrix<VT> local_to_coo_global() const {
    CooMatrix<VT> out(nrows_, ncols_);
    for (index_t k = 0; k < local_.nzc(); ++k) {
      index_t gcol = global_col(k);
      auto rows = local_.col_rows_at(k);
      auto vals = local_.col_vals_at(k);
      for (std::size_t p = 0; p < rows.size(); ++p) out.push(rows[p], gcol, vals[p]);
    }
    return out;
  }

  /// Reassembles the full matrix on every rank. Collective; O(nnz) traffic.
  [[nodiscard]] CscMatrix<VT> gather(Comm& comm) const {
    auto coo = local_to_coo_global();
    auto mine = std::move(coo.triples());
    auto chunks = comm.allgatherv(std::span<const Triple<VT>>(mine));
    CooMatrix<VT> all(nrows_, ncols_);
    for (auto& chunk : chunks)
      for (auto& t : chunk) all.push(t.row, t.col, t.val);
    all.canonicalize();
    return CscMatrix<VT>::from_coo(all);
  }

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  std::vector<index_t> bounds_{0, 0};
  int rank_ = 0;
  DcscMatrix<VT> local_;
};

/// One member of a value-only replay batch: a backend's cached program and
/// the operand pair it replays. Every backend's replay takes a span of
/// members; a span of one is the solo replay.
template <typename Plan, typename VT>
struct ReplayMember {
  Plan* plan = nullptr;
  const DistMatrix1D<VT>* a = nullptr;
  const DistMatrix1D<VT>* b = nullptr;
};

}  // namespace sa1d
