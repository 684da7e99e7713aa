// Redistribution primitives between the 1D column distribution (the
// library's canonical layout) and the 2D/3D process-grid block layouts the
// SUMMA-family backends compute on. Every primitive is a single
// personalized all-to-all — O(nnz/P) per rank, no rank-0 gather — and is
// Phase-scoped so the cost shows up in the comparable RankReport breakdown.
//
// Both primitives are *routes*: which nonzero goes to which rank, and where
// it lands in the receiver's block, depends only on the operands' sparsity
// structure. Passing a GridRoute/ScatterRoute capture pointer records the
// value-gather maps and the receiver-side placement/merge program while the
// fresh call runs; replay_* then re-executes the same exchange moving only
// values (sizeof(VT) per element instead of a full Triple), bit-identical
// to the fresh result. DistSpgemmPlan (dist/dist_plan.hpp) builds on this.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dist/dist_matrix.hpp"
#include "runtime/machine.hpp"
#include "sparse/coo.hpp"

namespace sa1d {

/// Resolves and validates the q_r × q_c process grid for P ranks: auto
/// shape when both overrides are 0 (nearest-square factorization — always
/// exists, so every P ≥ 1 is feasible), a pinned shape otherwise. Throws
/// with an actionable message naming the divisors of P when a pinned shape
/// does not factor P.
inline GridShape require_grid_shape(int P, int grid_rows, int grid_cols, const char* who) {
  GridShape g = summa_grid_shape(P, grid_rows, grid_cols);
  if (g.rows >= 1 && g.cols >= 1 && g.rows * g.cols == P) return g;
  std::string msg = std::string(who) + ": grid_rows=" + std::to_string(grid_rows) +
                    " grid_cols=" + std::to_string(grid_cols) +
                    " cannot tile P=" + std::to_string(P) +
                    " ranks (grid_rows*grid_cols must equal P); usable side lengths are {";
  auto divs = valid_layer_counts(P);  // the divisors of P
  for (std::size_t i = 0; i < divs.size(); ++i)
    msg += (i != 0U ? ", " : "") + std::to_string(divs[i]);
  msg += "}, or leave both 0 for the nearest-square factorization";
  require(false, msg);
  return g;  // unreachable
}

/// Validates that the layer count divides P (each layer then runs on any
/// rectangular factorization of P/layers, so every divisor is usable); the
/// error lists the valid layer counts.
inline void require_split3d_layers(int P, int layers, const char* who) {
  if (layers >= 1 && layers <= P && P % layers == 0) return;
  auto valid = valid_layer_counts(P);
  std::string msg = std::string(who) + ": layers=" + std::to_string(layers) + " with P=" +
                    std::to_string(P) +
                    " ranks cannot form layers x (q_r x q_c) grids (layers must divide P);"
                    " valid layer counts for P=" +
                    std::to_string(P) + " are {";
  for (std::size_t i = 0; i < valid.size(); ++i)
    msg += (i != 0U ? ", " : "") + std::to_string(valid[i]);
  msg += "}";
  require(false, msg);
}

/// Cached 1D→grid route: the structural half of one
/// redistribute_1d_to_2d_grid call, captured while the fresh exchange runs.
/// replay_1d_to_2d_grid re-executes it moving only values.
template <typename VT>
struct GridRoute {
  /// Per destination rank: positions into the local slice's val array, in
  /// the exact order the fresh call packed triples.
  std::vector<std::vector<index_t>> send_src;
  /// recv_place[flat] = slot in `block`'s val array for the flat-th
  /// received value (ranks in order, chunk order within each rank).
  std::vector<index_t> recv_place;
  /// Per source rank: element count of its chunk (replay sizes + accounting).
  std::vector<index_t> recv_counts;
  /// This rank's cached block: structure final, values overwritten per replay.
  CscMatrix<VT> block;

  /// Exact per-rank collective bytes a value-only replay receives over the
  /// network (self-chunks are local copies, not messages).
  [[nodiscard]] std::uint64_t replay_recv_bytes(int me) const {
    std::uint64_t b = 0;
    for (std::size_t r = 0; r < recv_counts.size(); ++r)
      if (static_cast<int>(r) != me)
        b += static_cast<std::uint64_t>(recv_counts[r]) * sizeof(VT);
    return b;
  }

  /// Byte-accurate residency of the cached route on this rank (major arrays
  /// only) — what the plan cache's budget accounts against.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    std::uint64_t b = 0;
    for (const auto& src : send_src) b += src.size() * sizeof(index_t);
    b += recv_place.size() * sizeof(index_t) + recv_counts.size() * sizeof(index_t);
    b += block.colptr().size() * sizeof(index_t) + block.rowids().size() * sizeof(index_t) +
         block.vals().size() * sizeof(VT);
    return b;
  }
};

/// Redistributes a 1D column-distributed matrix into the blocks of a
/// process grid: the rank `rank_of(bi, bj)` receives block
/// [row_bounds[bi], row_bounds[bi+1]) × [col_bounds[bj], col_bounds[bj+1])
/// in block-local coordinates; this rank's own block (`my_bi`, `my_bj`) is
/// returned as CSC. The bounds arrays may describe any rectangular tiling
/// (the 3D backend passes layer-concatenated inner bounds), so one
/// primitive serves both grid shapes. Collective. `route` (optional)
/// captures the value-only replay program; the returned block is identical
/// either way.
template <typename VT, typename RankOf>
CscMatrix<VT> redistribute_1d_to_2d_grid(Comm& comm, const DistMatrix1D<VT>& m,
                                         std::span<const index_t> row_bounds,
                                         std::span<const index_t> col_bounds, RankOf rank_of,
                                         int my_bi, int my_bj, GridRoute<VT>* route = nullptr,
                                         bool overlap = false) {
  const int P = comm.size();
  std::vector<std::vector<Triple<VT>>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    if (route != nullptr) route->send_src.assign(static_cast<std::size_t>(P), {});
    const auto& ml = m.local();
    for (index_t k = 0; k < ml.nzc(); ++k) {
      const index_t gcol = m.global_col(k);
      const int bj = find_owner(col_bounds, gcol);
      const index_t clo = col_bounds[static_cast<std::size_t>(bj)];
      const index_t base = ml.cp()[static_cast<std::size_t>(k)];
      auto rows = ml.col_rows_at(k);
      auto vals = ml.col_vals_at(k);
      for (std::size_t p = 0; p < rows.size(); ++p) {
        const int bi = find_owner(row_bounds, rows[p]);
        const auto dest = static_cast<std::size_t>(rank_of(bi, bj));
        send[dest].push_back(
            {rows[p] - row_bounds[static_cast<std::size_t>(bi)], gcol - clo, vals[p]});
        if (route != nullptr) route->send_src[dest].push_back(base + static_cast<index_t>(p));
      }
    }
  }
  const index_t nr = row_bounds[static_cast<std::size_t>(my_bi) + 1] -
                     row_bounds[static_cast<std::size_t>(my_bi)];
  const index_t nc = col_bounds[static_cast<std::size_t>(my_bj) + 1] -
                     col_bounds[static_cast<std::size_t>(my_bj)];
  std::vector<std::vector<Triple<VT>>> recv(static_cast<std::size_t>(P));
  auto& rep = comm.report();
  constexpr std::uint64_t tb = sizeof(Triple<VT>);
  std::uint64_t arrived = 0;
  if (overlap) {
    // Pipelined receive: take each source's chunk as it arrives, in
    // ascending rank order — the same flat order the blocking path
    // consumes, so the block (and any captured route) is bit-identical.
    auto req = comm.ialltoallv(std::move(send));
    for (int p = 0; p < P; ++p) {
      recv[static_cast<std::size_t>(p)] = req.take_from(p);
      auto ph_push = comm.phase(Phase::Other);
      arrived += recv[static_cast<std::size_t>(p)].size();
      rep.mem_charge(recv[static_cast<std::size_t>(p)].size(),
                     recv[static_cast<std::size_t>(p)].size() * tb);  // block assembly
    }
  } else {
    recv = comm.alltoallv(send);
    auto ph_push = comm.phase(Phase::Other);
    for (auto& chunk : recv) {
      arrived += chunk.size();
      rep.mem_charge(chunk.size(), chunk.size() * tb);  // block assembly
    }
  }
  // Block assembly: one stable counting sort of the arrivals by block
  // column. Each global column lives on exactly one source rank, which
  // packed it with rows ascending, so every block column arrives as one
  // row-sorted run and the counting order is the canonical (col, row)
  // order — no comparison sort, and each flat arrival's slot in it is the
  // receiver placement a route records.
  auto ph = comm.phase(Phase::Other);
  std::vector<index_t> colptr(static_cast<std::size_t>(nc) + 1, 0);
  for (const auto& chunk : recv)
    for (const auto& t : chunk) ++colptr[static_cast<std::size_t>(t.col) + 1];
  for (std::size_t j = 0; j < static_cast<std::size_t>(nc); ++j) colptr[j + 1] += colptr[j];
  std::vector<index_t> next(colptr.begin(), colptr.end() - 1);
  std::vector<index_t> rowids(arrived);
  std::vector<VT> vals(arrived);
  std::vector<index_t> place(route != nullptr ? arrived : 0);
  std::size_t flat = 0;
  for (const auto& chunk : recv)
    for (const auto& t : chunk) {
      const auto k = static_cast<std::size_t>(next[static_cast<std::size_t>(t.col)]++);
      rowids[k] = t.row;
      vals[k] = t.val;
      if (route != nullptr) place[flat++] = static_cast<index_t>(k);
    }
  bool rows_sorted = true;
  for (std::size_t j = 0; j < static_cast<std::size_t>(nc); ++j)
    for (auto k = static_cast<std::size_t>(colptr[j]) + 1;
         k < static_cast<std::size_t>(colptr[j + 1]); ++k)
      rows_sorted &= rowids[k - 1] < rowids[k];
  require(rows_sorted, "redistribute_1d_to_2d_grid: a block column arrived out of row order");
  CscMatrix<VT> out(nr, nc, std::move(colptr), std::move(rowids), std::move(vals));
  // The assembly buffer dies here; the CSC block it became is a resident
  // operand block, outside the transient-triples budget.
  rep.mem_release(arrived, arrived * tb);
  if (route != nullptr) {
    auto ph_plan = comm.phase(Phase::Plan);
    route->recv_counts.assign(static_cast<std::size_t>(P), 0);
    for (std::size_t r = 0; r < recv.size(); ++r)
      route->recv_counts[r] = static_cast<index_t>(recv[r].size());
    route->recv_place = std::move(place);
    route->block = out;
  }
  return out;
}

/// Replays captured 1D→grid routes for structurally identical operands: one
/// value-only all-to-all for every (route, operand) pair, written in place
/// into each route's cached block. Each destination chunk is the
/// route-major concatenation of the routes' values for it; arrivals are
/// consumed in ascending source then route order with a flat counter per
/// route, so every block gets exactly the placement its own replay would.
/// One route is the solo replay. Collective.
template <typename VT>
void replay_1d_to_2d_grid(Comm& comm,
                          std::span<const std::pair<GridRoute<VT>*, const DistMatrix1D<VT>*>> rs,
                          bool overlap = false) {
  const int P = comm.size();
  std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    // Replay guard: the cached positions index the local val array the
    // route was captured on (the capture packed every local triple, so the
    // per-destination sizes sum to that array's length). A diverged operand
    // must raise machine-wide, not read out of range while peers proceed.
    for (const auto& [route, m] : rs) {
      std::size_t expect = 0;
      for (const auto& src : route->send_src) expect += src.size();
      if (m->local().vals().size() != expect)
        comm.fail(FaultClass::PlanMismatch, "replay_1d_to_2d_grid",
                  "replay_1d_to_2d_grid: local operand has " +
                      std::to_string(m->local().vals().size()) +
                      " values but the cached route packs " + std::to_string(expect) +
                      " (rank " + std::to_string(comm.global_rank(comm.rank())) + ")");
    }
    for (int p = 0; p < P; ++p) {
      auto& out = send[static_cast<std::size_t>(p)];
      for (const auto& [route, m] : rs) {
        const VT* vals = m->local().vals().data();
        const auto& src = route->send_src[static_cast<std::size_t>(p)];
        out.reserve(out.size() + src.size());
        for (auto i : src) out.push_back(vals[static_cast<std::size_t>(i)]);
      }
    }
  }
  std::vector<std::size_t> flat(rs.size(), 0);
  auto scatter_chunk = [&](int p, const std::vector<VT>& chunk) {
    std::size_t need = 0;
    for (const auto& r : rs)
      need += static_cast<std::size_t>(r.first->recv_counts[static_cast<std::size_t>(p)]);
    if (chunk.size() != need)
      comm.fail(FaultClass::PlanMismatch, "replay_1d_to_2d_grid",
                "replay_1d_to_2d_grid: received " + std::to_string(chunk.size()) +
                    " values from rank " + std::to_string(comm.global_rank(p)) +
                    " where the cached routes expect " + std::to_string(need));
    std::size_t off = 0;
    for (std::size_t r = 0; r < rs.size(); ++r) {
      GridRoute<VT>& route = *rs[r].first;
      VT* bv = route.block.mutable_vals().data();
      const auto n = static_cast<std::size_t>(route.recv_counts[static_cast<std::size_t>(p)]);
      const index_t* place = route.recv_place.data() + flat[r];
      for (std::size_t i = 0; i < n; ++i) bv[static_cast<std::size_t>(place[i])] = chunk[off + i];
      flat[r] += n;
      off += n;
    }
  };
  if (overlap) {
    // Pipelined scatter: chunks land in the cached blocks as each source
    // publishes, in ascending rank order (slots are disjoint, so order only
    // matters for matching the captured flat indexing).
    auto req = comm.ialltoallv(std::move(send));
    auto ph = comm.phase(Phase::Other);
    for (int p = 0; p < P; ++p) scatter_chunk(p, req.take_from(p));
  } else {
    auto recv = comm.alltoallv(send);
    auto ph = comm.phase(Phase::Other);
    for (int p = 0; p < P; ++p) scatter_chunk(p, recv[static_cast<std::size_t>(p)]);
  }
}

/// Cached partial-C→1D scatter/merge program: the structural half of one
/// redistribute_coo_to_1d call (which partial goes to which rank, and which
/// slot of the merged 1D slice it ⊕-folds into), captured while the fresh
/// exchange runs. replay_coo_to_1d re-executes it moving only values.
template <typename VT>
struct ScatterRoute {
  std::vector<std::vector<index_t>> send_src;  ///< per dest: positions in the partial's val order
  std::vector<index_t> recv_counts;            ///< per source rank, element counts
  std::vector<index_t> recv_dst;               ///< flat recv idx -> merged local slot
  std::vector<std::uint8_t> recv_first;        ///< 1 = assign, 0 = ⊕-accumulate
  DcscMatrix<VT> c_shell;                      ///< merged local structure (values are scratch)
  index_t nrows = 0, ncols = 0;
  std::vector<index_t> out_bounds;

  [[nodiscard]] std::uint64_t replay_recv_bytes(int me) const {
    std::uint64_t b = 0;
    for (std::size_t r = 0; r < recv_counts.size(); ++r)
      if (static_cast<int>(r) != me)
        b += static_cast<std::uint64_t>(recv_counts[r]) * sizeof(VT);
    return b;
  }

  /// Byte-accurate residency of the cached scatter/merge program (major
  /// arrays only) — what the plan cache's budget accounts against.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    std::uint64_t b = 0;
    for (const auto& src : send_src) b += src.size() * sizeof(index_t);
    b += recv_counts.size() * sizeof(index_t) + recv_dst.size() * sizeof(index_t) +
         recv_first.size() + out_bounds.size() * sizeof(index_t);
    b += c_shell.jc().size() * sizeof(index_t) + c_shell.cp().size() * sizeof(index_t) +
         c_shell.ir().size() * sizeof(index_t) + c_shell.vals().size() * sizeof(VT);
    return b;
  }
};

/// Scatters per-rank partial products (COO, global coordinates) into the 1D
/// column distribution given by `out_bounds`, merging duplicates — partials
/// of the same entry from different SUMMA stages or 3D layers — with the
/// semiring's ⊕ (deterministically: ties fold in arrival order, so a
/// captured program replays bit-exactly). One all-to-all by column owner;
/// the result is born distributed (no global gather). Collective. `part`
/// must be column-sorted (the backends pass their merged, canonical
/// partials), so each destination's share is one contiguous run. `route`
/// (optional) captures the value-only replay program.
template <typename SR, typename VT>
DistMatrix1D<VT> redistribute_coo_to_1d(Comm& comm, const CooMatrix<VT>& part, index_t nrows,
                                        index_t ncols, std::vector<index_t> out_bounds,
                                        ScatterRoute<VT>* route = nullptr,
                                        bool overlap = false) {
  const int P = comm.size();
  require(out_bounds.size() == static_cast<std::size_t>(P) + 1,
          "redistribute_coo_to_1d: out_bounds size must be P+1");
  std::vector<std::vector<Triple<VT>>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    const auto& pt = part.triples();
    require(std::is_sorted(pt.begin(), pt.end(),
                           [](const auto& x, const auto& y) { return x.col < y.col; }),
            "redistribute_coo_to_1d: the partial must be column-sorted");
    if (route != nullptr) route->send_src.assign(static_cast<std::size_t>(P), {});
    const auto by_col = [](const Triple<VT>& t, index_t c) { return t.col < c; };
    auto run_lo = pt.begin();
    for (std::size_t d = 0; d < static_cast<std::size_t>(P); ++d) {
      const auto run_hi = std::lower_bound(run_lo, pt.end(), out_bounds[d + 1], by_col);
      send[d].assign(run_lo, run_hi);
      if (route != nullptr) {
        auto& src = route->send_src[d];
        src.resize(send[d].size());
        std::iota(src.begin(), src.end(), static_cast<index_t>(run_lo - pt.begin()));
      }
      run_lo = run_hi;
    }
  }
  const index_t lo = out_bounds[static_cast<std::size_t>(comm.rank())];
  const index_t hi = out_bounds[static_cast<std::size_t>(comm.rank()) + 1];
  CooMatrix<VT> local(nrows, hi - lo);
  std::vector<index_t> dst;
  std::vector<std::uint8_t> first;
  std::vector<index_t> counts(static_cast<std::size_t>(P), 0);
  StreamingTripleMerge<VT> smerge;
  auto& rep = comm.report();
  constexpr std::uint64_t tb = sizeof(Triple<VT>);
  auto add = [](typename SR::value_type x, typename SR::value_type y) { return SR::add(x, y); };
  // Streaming rounds-merge: the accumulator collapses to canonical form
  // after every source's chunk, so its footprint never exceeds (merged C
  // slice + one chunk + that round's merge scratch). The terminal merge
  // this replaces held every layer's/stage-owner's partials at once *plus*
  // an equally sized merge output buffer — ~2x the final partial-C slice on
  // the split-3D cross-layer fold. Bit-identical either way, in both comm
  // modes: the per-key fold is the left fold in flat (rank-major) arrival
  // order regardless of where the round boundaries fall.
  auto fold_chunk = [&](int p, std::vector<Triple<VT>>& chunk) {
    counts[static_cast<std::size_t>(p)] = static_cast<index_t>(chunk.size());
    auto ph_push = comm.phase(Phase::Other);
    rep.mem_charge(chunk.size(), chunk.size() * tb);  // accumulator growth
    local.triples().reserve(local.triples().size() + chunk.size());
    for (auto& t : chunk) local.push(t.row, t.col - lo, t.val);
    const std::uint64_t before = local.triples().size();
    rep.mem_charge(before, before * tb);  // merge output buffer
    smerge.round(local, add, route != nullptr ? &dst : nullptr,
                 route != nullptr ? &first : nullptr);
    const std::uint64_t after = local.triples().size();
    rep.mem_release(2 * before - after, (2 * before - after) * tb);
  };
  if (overlap) {
    // Pipelined fold: each chunk is pushed and merged as it arrives, in
    // ascending rank order — the identical flat order the blocking path
    // consumes; later chunks' modeled transfer time hides behind earlier
    // chunks' fold work, and only one chunk is ever staged.
    auto req = comm.ialltoallv(std::move(send));
    for (int p = 0; p < P; ++p) {
      auto chunk = req.take_from(p);
      rep.mem_charge(chunk.size(), chunk.size() * tb);  // arrival staging
      fold_chunk(p, chunk);
      rep.mem_release(chunk.size(), chunk.size() * tb);
    }
  } else {
    auto recv = comm.alltoallv(send);
    std::uint64_t staged = 0;
    for (const auto& chunk : recv) staged += chunk.size();
    rep.mem_charge(staged, staged * tb);  // every chunk lands at once
    for (int p = 0; p < P; ++p) {
      auto& chunk = recv[static_cast<std::size_t>(p)];
      fold_chunk(p, chunk);
      rep.mem_release(chunk.size(), chunk.size() * tb);
      chunk.clear();
      chunk.shrink_to_fit();
    }
  }
  auto ph = comm.phase(Phase::Other);
  auto c_local = DcscMatrix<VT>::from_coo(local);
  rep.mem_release(local.triples().size(), local.triples().size() * tb);
  if (route != nullptr) {
    auto ph_plan = comm.phase(Phase::Plan);
    route->recv_counts = std::move(counts);
    route->recv_dst = std::move(dst);
    route->recv_first = std::move(first);
    route->c_shell = c_local;
    route->nrows = nrows;
    route->ncols = ncols;
    route->out_bounds = out_bounds;
  }
  return DistMatrix1D<VT>(nrows, ncols, std::move(out_bounds), comm.rank(),
                          std::move(c_local));
}

/// Replays captured scatter/merge programs over fresh partial values (each
/// paired span in its captured partial's val order): one value-only
/// all-to-all for every program, ⊕-folded into copies of the cached 1D
/// structures. Each destination chunk is the program-major concatenation of
/// the programs' values for it; arrivals fold in ascending source then
/// program order with a flat counter per program — each program's captured
/// rank-major fold order. One program is the solo replay. Collective.
template <typename SR, typename VT>
std::vector<DistMatrix1D<VT>> replay_coo_to_1d(
    Comm& comm, std::span<const std::pair<const ScatterRoute<VT>*, std::span<const VT>>> rs,
    bool overlap = false) {
  const int P = comm.size();
  std::vector<std::vector<VT>> send(static_cast<std::size_t>(P));
  {
    auto ph = comm.phase(Phase::Other);
    for (int p = 0; p < P; ++p) {
      auto& out = send[static_cast<std::size_t>(p)];
      for (const auto& [route, part_vals] : rs) {
        const auto& src = route->send_src[static_cast<std::size_t>(p)];
        out.reserve(out.size() + src.size());
        for (auto i : src) out.push_back(part_vals[static_cast<std::size_t>(i)]);
      }
    }
  }
  std::vector<std::size_t> flat(rs.size(), 0);
  std::vector<DcscMatrix<VT>> c_locals(rs.size());
  auto fold_chunk = [&](int p, const std::vector<VT>& chunk) {
    std::size_t need = 0;
    for (const auto& r : rs)
      need += static_cast<std::size_t>(r.first->recv_counts[static_cast<std::size_t>(p)]);
    if (chunk.size() != need)
      comm.fail(FaultClass::PlanMismatch, "replay_coo_to_1d",
                "replay_coo_to_1d: received " + std::to_string(chunk.size()) +
                    " partial values from rank " + std::to_string(comm.global_rank(p)) +
                    " where the cached scatter programs expect " + std::to_string(need));
    std::size_t off = 0;
    for (std::size_t r = 0; r < rs.size(); ++r) {
      const ScatterRoute<VT>& route = *rs[r].first;
      VT* cv = c_locals[r].mutable_vals().data();
      const auto n = static_cast<std::size_t>(route.recv_counts[static_cast<std::size_t>(p)]);
      const index_t* dst = route.recv_dst.data() + flat[r];
      const std::uint8_t* first = route.recv_first.data() + flat[r];
      for (std::size_t i = 0; i < n; ++i) {
        const auto slot = static_cast<std::size_t>(dst[i]);
        cv[slot] = first[i] != 0 ? chunk[off + i] : SR::add(cv[slot], chunk[off + i]);
      }
      flat[r] += n;
      off += n;
    }
  };
  auto copy_shells = [&] {
    for (std::size_t r = 0; r < rs.size(); ++r) c_locals[r] = rs[r].first->c_shell;
  };
  if (overlap) {
    // Pipelined ⊕-fold: partial-C chunks fold into the shells as each
    // source publishes. Consuming in ascending rank order preserves each
    // captured program's flat (rank-major) fold order, so a non-commutative
    // or non-associative ⊕ still reproduces the fresh result bit for bit;
    // the structure-copies of the shells run while chunks are in flight.
    auto req = comm.ialltoallv(std::move(send));
    auto ph = comm.phase(Phase::Other);
    copy_shells();
    for (int p = 0; p < P; ++p) fold_chunk(p, req.take_from(p));
  } else {
    auto recv = comm.alltoallv(send);
    auto ph = comm.phase(Phase::Other);
    copy_shells();
    for (int p = 0; p < P; ++p) fold_chunk(p, recv[static_cast<std::size_t>(p)]);
  }
  std::vector<DistMatrix1D<VT>> out;
  out.reserve(rs.size());
  for (std::size_t r = 0; r < rs.size(); ++r) {
    const ScatterRoute<VT>& route = *rs[r].first;
    out.emplace_back(route.nrows, route.ncols, route.out_bounds, comm.rank(),
                     std::move(c_locals[r]));
  }
  return out;
}

}  // namespace sa1d
