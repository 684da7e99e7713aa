// 2D sparse SUMMA (Buluç & Gilbert; the CombBLAS algorithm the paper
// benchmarks against), generalized to rectangular q_r × q_c process grids:
// any rank count factors into a grid (nearest-square by default, or a
// pinned grid_rows × grid_cols), the inner dimension is split into
// lcm(q_r, q_c) fine blocks so each rank's A piece (stages/q_c blocks) and
// B piece (stages/q_r blocks) stay contiguous, and C(i,j) accumulates over
// the stage loop of row-broadcast A sub-blocks and column-broadcast B
// sub-blocks. On a square grid this is the classic √P×√P algorithm with q
// whole-block stages.
//
// The primary entry point is 1D-in/1D-out: operands arrive in the library's
// canonical column distribution, are scattered onto the grid by one
// all-to-all (dist/redistribute.hpp), and the per-stage partials are
// scattered back into B's column distribution with a semiring-⊕ merge — no
// global gather anywhere, and every byte moves through Phase-scoped,
// instrumented collectives so the RankReport breakdown is comparable with
// the other spgemm_dist backends. The replicated-operand wrapper of the
// original baseline API remains for one-shot comparisons.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "dist/dist_matrix.hpp"
#include "dist/redistribute.hpp"
#include "kernels/spgemm_local.hpp"
#include "runtime/machine.hpp"

namespace sa1d {

/// Reassembles a replicated CSC matrix from per-rank partial COO blocks
/// (global coordinates); duplicates across ranks are merged by addition.
/// Collective.
template <typename VT>
CscMatrix<VT> gather_coo(Comm& comm, const CooMatrix<VT>& part) {
  auto chunks = comm.allgatherv(std::span<const Triple<VT>>(part.triples()));
  CooMatrix<VT> all(part.nrows(), part.ncols());
  for (auto& chunk : chunks)
    for (auto& t : chunk) all.push(t.row, t.col, t.val);
  all.canonicalize();
  return CscMatrix<VT>::from_coo(all);
}

namespace summadetail {

/// Cached SUMMA stage schedule of one rank on its q_r × q_c grid: per
/// stage, the broadcast blocks' structure (shells whose values are
/// overwritten per replay), the root-side value extraction (a contiguous
/// A-column span; a B row-filter gather map), the local engine's symbolic
/// result with warm workspaces, and the ⊕-fold program from the stage's
/// partial-C values into the merged per-rank accumulator. Captured by
/// summa_stages while the fresh loop runs; summa_stages_replay moves only
/// values (row/column broadcasts of bare val arrays). Its first pass runs
/// the class numeric pass, keeps each stage product's row ids and sizes the
/// value scratch; later passes run the value-only replay kernel
/// (spgemm_local_replay) on them.
template <typename VT, typename SR>
struct SummaSched {
  struct Stage {
    CscMatrix<VT> a_blk, b_blk;  ///< received block structure (cached shells)
    LocalSymbolic sym;           ///< symbolic result of a_blk · b_blk
    std::vector<index_t> c_rows;  ///< row ids of a_blk · b_blk, from the first replay
    /// Root-side value sources for the replay broadcasts (meaningful only
    /// on the stage's roots): the fine A block is a contiguous val span of
    /// this rank's A piece; the fine B block is a row filter, so its values
    /// are gathered through an index map.
    index_t a_val_lo = 0, a_val_hi = 0;
    std::vector<index_t> b_src;
  };
  int grid_rows = 1, grid_cols = 1;  ///< the grid the schedule was captured on
  std::vector<Stage> stages;
  /// Flat ⊕-fold program: push i (stage order, column-major within each
  /// stage's c_blk) lands in merged slot acc_dst[i].
  std::vector<index_t> acc_dst;
  std::vector<std::uint8_t> acc_first;
  std::size_t acc_nnz = 0;  ///< merged partial-C count on this rank
  std::vector<detail::Workspace<SR>> ws;
  std::vector<VT> c_vals;  ///< replay scratch: one stage product's values (largest stage)
  std::uint64_t bcast_recv_bytes = 0;  ///< value-only replay broadcast volume (this rank)

  /// Byte-accurate residency of the cached schedule on this rank (major
  /// arrays only; warm workspaces are scratch, not plan state) — what the
  /// plan cache's budget accounts against.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    auto csc = [](const CscMatrix<VT>& m) {
      return m.colptr().size() * sizeof(index_t) + m.rowids().size() * sizeof(index_t) +
             m.vals().size() * sizeof(VT);
    };
    std::uint64_t b = 0;
    for (const auto& st : stages) {
      b += csc(st.a_blk) + csc(st.b_blk);
      b += st.sym.bounds.size() * sizeof(index_t) + st.sym.colptr.size() * sizeof(index_t) +
           st.sym.klass.size();
      b += st.b_src.size() * sizeof(index_t);
      b += st.c_rows.size() * sizeof(index_t);
    }
    b += acc_dst.size() * sizeof(index_t) + acc_first.size();
    b += c_vals.size() * sizeof(VT);
    return b;
  }
};

template <typename VT>
CscMatrix<VT> csc_from_block(index_t nrows, index_t ncols, std::vector<Triple<VT>> triples) {
  return CscMatrix<VT>::from_coo(CooMatrix<VT>(nrows, ncols, std::move(triples)));
}

/// The SUMMA stage loop over one q_r × q_c grid (`grid.rows · grid.cols ==
/// comm.size()`): accumulates this rank's partial C(gi, gj) into `acc` in
/// *global* coordinates (rb/cb are global bounds). `kb` is the grid's
/// *fine* inner split into `grid.stages = lcm(q_r, q_c)` blocks (local to
/// this grid's inner range): grid column j owns A's fine blocks
/// [j·s/q_c, (j+1)·s/q_c) and grid row i owns B's fine blocks
/// [i·s/q_r, (i+1)·s/q_r), both contiguous, so each stage's roots extract
/// one sub-block of their piece and broadcast it along their row/column
/// team. `comm` is the grid communicator (a layer of the 3D backend, or
/// everything for 2D). Stage partials of the same entry are merged with ⊕
/// before `acc` is handed back, so the caller ships post-merge volume. The
/// merge is deterministic (ties fold in stage order), so a schedule
/// captured via `sched` replays bit-exactly.
template <typename SR, typename VT>
void summa_stages(Comm& comm, GridShape grid, const CscMatrix<VT>& my_a,
                  const CscMatrix<VT>& my_b, std::span<const index_t> rb,
                  std::span<const index_t> kb, std::span<const index_t> cb, LocalKernel kernel,
                  int threads, CooMatrix<VT>& acc, SummaSched<VT, SR>* sched = nullptr,
                  bool overlap = false, int lookahead = 0) {
  const int s = grid.stages;
  const int spc = s / grid.cols;  // fine blocks per grid column (A ownership)
  const int spr = s / grid.rows;  // fine blocks per grid row (B ownership)
  const int gi = comm.rank() / grid.cols;
  const int gj = comm.rank() % grid.cols;
  Comm row_comm = comm.split(gi, gj);  // sub-rank within a row == grid column
  Comm col_comm = comm.split(gj, gi);  // sub-rank within a column == grid row

  const index_t rlo = rb[static_cast<std::size_t>(gi)];
  const index_t clo = cb[static_cast<std::size_t>(gj)];
  const index_t a_clo = kb[static_cast<std::size_t>(gj * spc)];  // my A piece's inner base
  const index_t b_rlo = kb[static_cast<std::size_t>(gi * spr)];  // my B piece's inner base
  if (sched != nullptr) {
    sched->grid_rows = grid.rows;
    sched->grid_cols = grid.cols;
  }

  auto& rep = comm.report();
  constexpr std::uint64_t tb = sizeof(Triple<VT>);
  StreamingTripleMerge<VT> smerge;

  // Root-side payload extraction for stage k. Caller wraps in Phase::Other.
  auto extract = [&](int k, std::vector<Triple<VT>>& abuf, std::vector<Triple<VT>>& bbuf,
                     index_t& a_lo, index_t& a_hi, std::vector<index_t>& b_src) {
    const index_t klo = kb[static_cast<std::size_t>(k)], khi = kb[static_cast<std::size_t>(k) + 1];
    if (gj == k / spc) {
      // Fine A block k = columns [klo−a_clo, khi−a_clo) of my piece:
      // triples in canonical order with stage-local columns. The value
      // payload is the contiguous span vals[colptr[lo], colptr[hi]).
      const auto lo = static_cast<std::size_t>(klo - a_clo);
      const auto hi = static_cast<std::size_t>(khi - a_clo);
      a_lo = my_a.colptr()[lo];
      a_hi = my_a.colptr()[hi];
      abuf.reserve(static_cast<std::size_t>(a_hi - a_lo));
      for (std::size_t j = lo; j < hi; ++j) {
        auto rows = my_a.col_rows(static_cast<index_t>(j));
        auto vals = my_a.col_vals(static_cast<index_t>(j));
        for (std::size_t p = 0; p < rows.size(); ++p)
          abuf.push_back({rows[p], static_cast<index_t>(j - lo), vals[p]});
      }
    }
    if (gi == k / spr) {
      // Fine B block k = rows [klo−b_rlo, khi−b_rlo) of my piece,
      // emitted column-major with rows ascending — canonical order, so
      // the rebuilt block's val array equals this payload and the
      // recorded gather map replays bare values.
      const index_t blk_rlo = klo - b_rlo, blk_rhi = khi - b_rlo;
      for (index_t j = 0; j < my_b.ncols(); ++j) {
        auto rows = my_b.col_rows(j);
        auto vals = my_b.col_vals(j);
        const index_t base = my_b.colptr()[static_cast<std::size_t>(j)];
        auto first = static_cast<std::size_t>(
            std::lower_bound(rows.begin(), rows.end(), blk_rlo) - rows.begin());
        for (std::size_t p = first; p < rows.size() && rows[p] < blk_rhi; ++p) {
          bbuf.push_back({rows[p] - blk_rlo, j, vals[p]});
          if (sched != nullptr) b_src.push_back(base + static_cast<index_t>(p));
        }
      }
    }
  };

  // Everything after the broadcast of stage k — block rebuild, local
  // multiply, partial-C accumulation. Shared verbatim by the lockstep and
  // overlapped paths, so the two stay bit-identical by construction.
  auto run_stage = [&](int k, std::vector<Triple<VT>> abuf, std::vector<Triple<VT>> bbuf,
                       index_t a_lo, index_t a_hi, std::vector<index_t> b_src) {
    const index_t klo = kb[static_cast<std::size_t>(k)], khi = kb[static_cast<std::size_t>(k) + 1];
    const int a_root = k / spc;  // grid column owning fine A block k
    const int b_root = k / spr;  // grid row owning fine B block k
    // Broadcast staging charged by the caller at delivery; dies when the
    // triples are rebuilt into CSC blocks below.
    const std::uint64_t payload = abuf.size() + bbuf.size();

    // The broadcast triples arrive in canonical (col-major, row-ascending)
    // order, so the rebuilt blocks' val order equals the payload order — a
    // replay can broadcast the bare values and write them straight in.
    CscMatrix<VT> a_blk, b_blk, c_blk;
    {
      auto ph = comm.phase(sched != nullptr ? Phase::Plan : Phase::Comp);
      a_blk = csc_from_block(rb[static_cast<std::size_t>(gi) + 1] -
                                 rb[static_cast<std::size_t>(gi)],
                             khi - klo, std::move(abuf));
      b_blk = csc_from_block(khi - klo,
                             cb[static_cast<std::size_t>(gj) + 1] -
                                 cb[static_cast<std::size_t>(gj)],
                             std::move(bbuf));
    }
    rep.mem_release(payload, payload * tb);
    if (sched != nullptr) {
      // Capturing build: run the split engine so the symbolic result (and
      // the warm workspaces) are kept for numeric-only replays.
      typename SummaSched<VT, SR>::Stage st;
      {
        auto ph = comm.phase(Phase::Plan);
        st.sym = spgemm_local_symbolic<SR, VT>(a_blk, b_blk, kernel, threads, &sched->ws);
      }
      {
        auto ph = comm.phase(Phase::Comp);
        c_blk = spgemm_local_numeric<SR, VT>(a_blk, b_blk, st.sym, &sched->ws);
      }
      if (gj != a_root) sched->bcast_recv_bytes += a_blk.vals().size() * sizeof(VT);
      if (gi != b_root) sched->bcast_recv_bytes += b_blk.vals().size() * sizeof(VT);
      st.a_blk = std::move(a_blk);
      st.b_blk = std::move(b_blk);
      st.a_val_lo = a_lo;
      st.a_val_hi = a_hi;
      st.b_src = std::move(b_src);
      sched->stages.push_back(std::move(st));
    } else {
      auto ph = comm.phase(Phase::Comp);
      c_blk = spgemm_local<SR, VT>(a_blk, b_blk, kernel, threads);
    }
    {
      auto ph = comm.phase(Phase::Other);
      const std::size_t pre = acc.triples().size();
      acc.triples().reserve(pre + static_cast<std::size_t>(c_blk.nnz()));
      for (index_t j = 0; j < c_blk.ncols(); ++j) {
        auto rows = c_blk.col_rows(j);
        auto vals = c_blk.col_vals(j);
        for (std::size_t p = 0; p < rows.size(); ++p)
          acc.push(rows[p] + rlo, j + clo, vals[p]);
      }
      const std::uint64_t grew = acc.triples().size() - pre;
      rep.mem_charge(grew, grew * tb);
    }
    {
      // Streaming per-stage merge: collapse the accumulator after every
      // stage instead of holding all stage partials until one terminal
      // merge, bounding the resident footprint at (merged so far + one
      // stage's pushes). Bit-identical to the terminal merge, and the
      // composed fold program equals the terminal capture — see
      // StreamingTripleMerge in sparse/coo.hpp.
      auto ph = comm.phase(sched != nullptr ? Phase::Plan : Phase::Other);
      const std::uint64_t before = acc.triples().size();
      rep.mem_charge(before, before * tb);  // merge out-buffer transient
      smerge.round(acc, [](VT x, VT y) { return SR::add(x, y); },
                   sched != nullptr ? &sched->acc_dst : nullptr,
                   sched != nullptr ? &sched->acc_first : nullptr);
      const std::uint64_t after = acc.triples().size();
      rep.mem_release(2 * before - after, (2 * before - after) * tb);
    }
  };

  if (!overlap) {
    for (int k = 0; k < s; ++k) {
      std::vector<Triple<VT>> abuf, bbuf;
      index_t a_lo = 0, a_hi = 0;
      std::vector<index_t> b_src;
      {
        auto ph = comm.phase(Phase::Other);
        extract(k, abuf, bbuf, a_lo, a_hi, b_src);
      }
      row_comm.bcast(abuf, k / spc);  // fine A(gi, k) along grid row gi
      col_comm.bcast(bbuf, k / spr);  // fine B(k, gj) along grid column gj
      const std::uint64_t payload = abuf.size() + bbuf.size();
      rep.mem_charge(payload, payload * tb);  // delivered stage staging
      run_stage(k, std::move(abuf), std::move(bbuf), a_lo, a_hi, std::move(b_src));
    }
  } else {
    // Double-buffered pipeline with a bounded lookahead window: stage k's
    // A/B payload is extracted and its broadcasts posted nonblocking `la`
    // stages before the local multiply consumes it, so later payloads
    // travel while earlier stages compute. la == s (the default when
    // `lookahead` is 0) posts everything up front — the previous
    // full-lookahead behavior; a budgeted call passes a small window so at
    // most la+1 stage payloads are staged at once. Issue order (a then b,
    // ascending stages) matches the lockstep call order exactly, keeping
    // per-rank comm_ops indices and byte/message counters — and therefore
    // FaultPlan coordinates — identical across modes and window sizes.
    const int la = lookahead > 0 ? std::min(lookahead, s) : s;
    std::vector<std::vector<Triple<VT>>> abufs(static_cast<std::size_t>(s));
    std::vector<std::vector<Triple<VT>>> bbufs(static_cast<std::size_t>(s));
    std::vector<index_t> alos(static_cast<std::size_t>(s), 0);
    std::vector<index_t> ahis(static_cast<std::size_t>(s), 0);
    std::vector<std::vector<index_t>> bsrcs(static_cast<std::size_t>(s));
    std::vector<std::uint64_t> staged(static_cast<std::size_t>(s), 0);
    std::vector<std::optional<CommRequest>> areq(static_cast<std::size_t>(s));
    std::vector<std::optional<CommRequest>> breq(static_cast<std::size_t>(s));
    auto post = [&](int k) {
      const auto sk = static_cast<std::size_t>(k);
      {
        auto ph = comm.phase(Phase::Other);
        extract(k, abufs[sk], bbufs[sk], alos[sk], ahis[sk], bsrcs[sk]);
      }
      staged[sk] = abufs[sk].size() + bbufs[sk].size();  // root-side extraction
      rep.mem_charge(staged[sk], staged[sk] * tb);
      areq[sk].emplace(row_comm.ibcast(abufs[sk], k / spc));
      breq[sk].emplace(col_comm.ibcast(bbufs[sk], k / spr));
    };
    for (int k = 0; k < la; ++k) post(k);
    for (int k = 0; k < s; ++k) {
      const auto sk = static_cast<std::size_t>(k);
      areq[sk]->wait();
      breq[sk]->wait();
      // Top up to the delivered payload (non-roots held nothing until now).
      const std::uint64_t tot = abufs[sk].size() + bbufs[sk].size();
      if (tot > staged[sk]) rep.mem_charge(tot - staged[sk], (tot - staged[sk]) * tb);
      if (k + la < s) post(k + la);
      run_stage(k, std::move(abufs[sk]), std::move(bbufs[sk]), alos[sk], ahis[sk],
                std::move(bsrcs[sk]));
    }
  }
  // The per-stage streaming rounds leave `acc` already merged — the scatter
  // carries post-merge volume (what the cost model prices), not duplicates
  // per stage — and the composed fold program is the per-key left fold in
  // push order, however the rounds fell, so replays are interchangeable.
  if (sched != nullptr) sched->acc_nnz = acc.triples().size();
}

}  // namespace summadetail

/// Cached structural program of one full grid-family multiply on this rank
/// — 2D SUMMA (one layer) or Split-3D (`layers` > 1): both inbound grid
/// routes, the stage schedule of this rank's layer grid (which remembers its
/// q_r × q_c shape), and the outbound scatter/merge program (the cross-layer
/// fold for Split-3D). Captured by spgemm_summa_2d_dist /
/// spgemm_split_3d_dist, replayed (values only) by spgemm_grid_replay.
template <typename VT, typename SR>
struct GridPlan {
  int layers = 1;
  GridRoute<VT> route_a, route_b;
  summadetail::SummaSched<VT, SR> sched;
  ScatterRoute<VT> out;
  std::vector<VT> acc_vals;  ///< replay scratch: this layer's merged partial-C values

  /// Exact per-rank collective bytes one value-only replay receives.
  [[nodiscard]] std::uint64_t replay_recv_bytes(int me) const {
    return route_a.replay_recv_bytes(me) + route_b.replay_recv_bytes(me) +
           sched.bcast_recv_bytes + out.replay_recv_bytes(me);
  }

  /// Byte-accurate residency of the full cached program on this rank.
  [[nodiscard]] std::uint64_t bytes_resident() const {
    return route_a.bytes_resident() + route_b.bytes_resident() + sched.bytes_resident() +
           out.bytes_resident() + acc_vals.size() * sizeof(VT);
  }
};

namespace summadetail {

/// Replays captured stage schedules of plans on one shared grid: per stage,
/// value-only row/column broadcasts (the roots gather from their route
/// blocks through the recorded span/map) into the cached block shells, the
/// local pass (the value-only replay kernel into the schedule's scratch
/// once the first pass captured the stage rows), and the ⊕-fold
/// into each plan's `acc_vals` (resized to the merged count; slot order
/// matches the fresh call's merged accumulator). One plan is the solo
/// replay; k plans share each stage's single row and column broadcast,
/// which carries the member-major concatenation of their payloads (the
/// plans share the grid, hence the stage roots). Each member keeps its own
/// guard and flat counter; the gauge charges every member's staging, and
/// the overlapped pipeline keeps at most `lookahead` stages in flight (0 =
/// all). Collective over the grid communicator the schedules were captured
/// on.
template <typename SR, typename VT>
void summa_stages_replay(Comm& comm, std::span<GridPlan<VT, SR>* const> plans,
                         bool overlap = false, int lookahead = 0) {
  const auto& sched0 = plans[0]->sched;
  const int s = static_cast<int>(sched0.stages.size());
  for (const auto* pl : plans)
    require(pl->sched.grid_rows == sched0.grid_rows && pl->sched.grid_cols == sched0.grid_cols,
            "summa_stages_replay: batch members must share one grid");
  const int spc = s / sched0.grid_cols;
  const int spr = s / sched0.grid_rows;
  const int gi = comm.rank() / sched0.grid_cols;
  const int gj = comm.rank() % sched0.grid_cols;
  Comm row_comm = comm.split(gi, gj);
  Comm col_comm = comm.split(gj, gi);

  auto& rep = comm.report();
  std::vector<std::size_t> flat(plans.size(), 0);
  for (auto* pl : plans) pl->acc_vals.assign(pl->sched.acc_nnz, VT{});

  // Root-side value gathers for stage k, member-major (contiguous A span; B
  // index map). Caller wraps in Phase::Other.
  auto extract = [&](int k, std::vector<VT>& abuf, std::vector<VT>& bbuf) {
    for (const auto* pl : plans) {
      const auto& st = pl->sched.stages[static_cast<std::size_t>(k)];
      if (gj == k / spc) {
        const auto& av = pl->route_a.block.vals();
        abuf.insert(abuf.end(), av.begin() + st.a_val_lo, av.begin() + st.a_val_hi);
      }
      if (gi == k / spr) {
        bbuf.reserve(bbuf.size() + st.b_src.size());
        const VT* bv = pl->route_b.block.vals().data();
        for (auto i : st.b_src) bbuf.push_back(bv[static_cast<std::size_t>(i)]);
      }
    }
  };

  // Post-broadcast stage body: guard, then per member in order the shell
  // fill, numeric pass and ⊕-fold. Shared by both paths; the fold consumes
  // stages in ascending order either way, so overlapped replay stays
  // bit-identical to lockstep replay.
  auto run_stage = [&](int k, const std::vector<VT>& abuf, const std::vector<VT>& bbuf) {
    // Value-only staging (charged at delivery, element-equivalents): dies
    // once copied into the cached shells below.
    const std::uint64_t payload = abuf.size() + bbuf.size();
    {
      auto ph = comm.phase(Phase::Other);
      // Replay guard: the broadcast value arrays must fill the cached stage
      // shells exactly; a diverged root operand raises machine-wide instead
      // of running the numeric pass on a torn block.
      std::size_t an = 0, bn = 0;
      for (const auto* pl : plans) {
        an += pl->sched.stages[static_cast<std::size_t>(k)].a_blk.vals().size();
        bn += pl->sched.stages[static_cast<std::size_t>(k)].b_blk.vals().size();
      }
      if (abuf.size() != an || bbuf.size() != bn)
        comm.fail(FaultClass::PlanMismatch, "summa_stages_replay",
                  "summa_stages_replay: stage " + std::to_string(k) + " broadcast delivered " +
                      std::to_string(abuf.size()) + "/" + std::to_string(bbuf.size()) +
                      " values where the cached shells hold " + std::to_string(an) + "/" +
                      std::to_string(bn));
    }
    std::size_t aoff = 0, boff = 0;
    for (std::size_t m = 0; m < plans.size(); ++m) {
      auto& sched = plans[m]->sched;
      auto& st = sched.stages[static_cast<std::size_t>(k)];
      {
        auto ph = comm.phase(Phase::Other);
        const std::size_t an = st.a_blk.vals().size(), bn = st.b_blk.vals().size();
        std::copy_n(abuf.begin() + static_cast<std::ptrdiff_t>(aoff), an,
                    st.a_blk.mutable_vals().begin());
        std::copy_n(bbuf.begin() + static_cast<std::ptrdiff_t>(boff), bn,
                    st.b_blk.mutable_vals().begin());
        aoff += an;
        boff += bn;
      }
      // The first replay runs the class numeric pass, keeps the stage
      // product's row ids and sizes the value scratch, so the schedule grows
      // on that pass only; later ones replay values only. Capturing here
      // rather than in the build keeps the rows out of the build's peak.
      const auto cn = static_cast<std::size_t>(st.sym.colptr.back());
      std::optional<CscMatrix<VT>> first;
      std::span<const VT> c_vals;
      {
        auto ph = comm.phase(Phase::Comp);
        if (st.c_rows.size() != cn) {
          first = spgemm_local_numeric<SR, VT>(st.a_blk, st.b_blk, st.sym, &sched.ws);
          st.c_rows = first->rowids();
          if (sched.c_vals.size() < cn) sched.c_vals.resize(cn);
          c_vals = first->vals();
        } else {
          spgemm_local_replay<SR, VT>(st.a_blk, st.b_blk, st.sym, st.c_rows,
                                      std::span<VT>(sched.c_vals.data(), cn), &sched.ws);
          c_vals = std::span<const VT>(sched.c_vals.data(), cn);
        }
      }
      auto ph = comm.phase(Phase::Other);
      auto& acc = plans[m]->acc_vals;
      std::size_t fl = flat[m];
      for (const VT v : c_vals) {
        const auto slot = static_cast<std::size_t>(sched.acc_dst[fl]);
        acc[slot] = sched.acc_first[fl] != 0 ? v : SR::add(acc[slot], v);
        ++fl;
      }
      flat[m] = fl;
    }
    rep.mem_release(payload, payload * sizeof(VT));
  };

  if (!overlap) {
    for (int k = 0; k < s; ++k) {
      std::vector<VT> abuf, bbuf;
      {
        auto ph = comm.phase(Phase::Other);
        extract(k, abuf, bbuf);
      }
      row_comm.bcast(abuf, k / spc);
      col_comm.bcast(bbuf, k / spr);
      const std::uint64_t payload = abuf.size() + bbuf.size();
      rep.mem_charge(payload, payload * sizeof(VT));
      run_stage(k, abuf, bbuf);
    }
  } else {
    // Bounded-lookahead value broadcasts (la == s, the default, posts every
    // stage payload up front); same issue order as lockstep, numeric passes
    // drain them ascending either way.
    const int la = lookahead > 0 ? std::min(lookahead, s) : s;
    std::vector<std::vector<VT>> abufs(static_cast<std::size_t>(s));
    std::vector<std::vector<VT>> bbufs(static_cast<std::size_t>(s));
    std::vector<std::uint64_t> staged(static_cast<std::size_t>(s), 0);
    std::vector<std::optional<CommRequest>> areq(static_cast<std::size_t>(s));
    std::vector<std::optional<CommRequest>> breq(static_cast<std::size_t>(s));
    auto post = [&](int k) {
      const auto sk = static_cast<std::size_t>(k);
      {
        auto ph = comm.phase(Phase::Other);
        extract(k, abufs[sk], bbufs[sk]);
      }
      staged[sk] = abufs[sk].size() + bbufs[sk].size();
      rep.mem_charge(staged[sk], staged[sk] * sizeof(VT));
      areq[sk].emplace(row_comm.ibcast(abufs[sk], k / spc));
      breq[sk].emplace(col_comm.ibcast(bbufs[sk], k / spr));
    };
    for (int k = 0; k < la; ++k) post(k);
    for (int k = 0; k < s; ++k) {
      const auto sk = static_cast<std::size_t>(k);
      areq[sk]->wait();
      breq[sk]->wait();
      const std::uint64_t tot = abufs[sk].size() + bbufs[sk].size();
      if (tot > staged[sk]) rep.mem_charge(tot - staged[sk], (tot - staged[sk]) * sizeof(VT));
      if (k + la < s) post(k + la);
      run_stage(k, abufs[sk], bbufs[sk]);
      std::vector<VT>().swap(abufs[sk]);
      std::vector<VT>().swap(bbufs[sk]);
    }
  }
}

}  // namespace summadetail

/// 2D sparse SUMMA over 1D-distributed operands on a q_r × q_c grid.
/// Collective; any process count works — the grid is the nearest-square
/// factorization of P unless `grid_rows`/`grid_cols` pin a shape
/// (require_grid_shape validates a pinned shape against P). C is returned
/// in B's column distribution; partial entries across the stages are merged
/// with the semiring's ⊕. `plan` (optional) captures the full value-only
/// replay program while this fresh call runs.
template <typename SRIn = void, typename VT>
DistMatrix1D<VT> spgemm_summa_2d_dist(
    Comm& comm, const DistMatrix1D<VT>& a, const DistMatrix1D<VT>& b,
    LocalKernel kernel = LocalKernel::Hybrid, int threads = 1,
    std::type_identity_t<GridPlan<VT, ResolveSemiring<SRIn, VT>>*> plan = nullptr,
    int grid_rows = 0, int grid_cols = 0, bool overlap = false, int lookahead = 0) {
  using SR = ResolveSemiring<SRIn, VT>;
  require(a.ncols() == b.nrows(), "spgemm_summa_2d_dist: inner dimension mismatch");
  const int P = comm.size();
  const GridShape grid = require_grid_shape(P, grid_rows, grid_cols, "spgemm_summa_2d_dist");
  const int gi = comm.rank() / grid.cols;
  const int gj = comm.rank() % grid.cols;

  auto rb = even_split(a.nrows(), grid.rows);    // row blocks of A and C
  auto kb = even_split(a.ncols(), grid.stages);  // fine inner-dimension blocks
  auto cb = even_split(b.ncols(), grid.cols);    // column blocks of B and C

  // Coarse per-rank inner tilings: grid column j owns A's fine blocks
  // [j·s/q_c, (j+1)·s/q_c), grid row i owns B's [i·s/q_r, (i+1)·s/q_r) —
  // contiguous runs, so each operand routes through the generic 1D→grid
  // primitive with its own coarse bounds (they differ on rectangular
  // grids).
  const int spc = grid.stages / grid.cols;
  const int spr = grid.stages / grid.rows;
  std::vector<index_t> ka(static_cast<std::size_t>(grid.cols) + 1);
  std::vector<index_t> kbt(static_cast<std::size_t>(grid.rows) + 1);
  for (int j = 0; j <= grid.cols; ++j)
    ka[static_cast<std::size_t>(j)] = kb[static_cast<std::size_t>(j * spc)];
  for (int i = 0; i <= grid.rows; ++i)
    kbt[static_cast<std::size_t>(i)] = kb[static_cast<std::size_t>(i * spr)];

  auto rank_of = [qc = grid.cols](int bi, int bj) { return bi * qc + bj; };
  auto my_a = redistribute_1d_to_2d_grid(comm, a, std::span<const index_t>(rb),
                                         std::span<const index_t>(ka), rank_of, gi, gj,
                                         plan != nullptr ? &plan->route_a : nullptr, overlap);
  auto my_b = redistribute_1d_to_2d_grid(comm, b, std::span<const index_t>(kbt),
                                         std::span<const index_t>(cb), rank_of, gi, gj,
                                         plan != nullptr ? &plan->route_b : nullptr, overlap);

  CooMatrix<VT> acc(a.nrows(), b.ncols());
  summadetail::summa_stages<SR>(comm, grid, my_a, my_b, std::span<const index_t>(rb),
                                std::span<const index_t>(kb), std::span<const index_t>(cb),
                                kernel, threads, acc,
                                plan != nullptr ? &plan->sched : nullptr, overlap, lookahead);
  auto c = redistribute_coo_to_1d<SR>(comm, acc, a.nrows(), b.ncols(), b.bounds(),
                                      plan != nullptr ? &plan->out : nullptr, overlap);
  // The merged partial-C accumulator (charged stage by stage above) dies
  // here: the scatter has folded it into C's canonical distribution.
  comm.report().mem_release(acc.triples().size(),
                            acc.triples().size() * sizeof(Triple<VT>));
  return c;
}

/// Replays captured grid-family plans (2D SUMMA or Split-3D, all on one
/// grid and layer count) for structurally identical operand pairs:
/// value-only routes in — every member's A and B routes in one exchange —
/// value-only stage broadcasts + numeric local passes on this rank's layer,
/// value-only scatter out (the cross-layer fold for Split-3D). One member is
/// the solo replay; k members concatenate their payloads member-major in
/// every collective. Bit-identical to the fresh call; records zero
/// Phase::Plan time and moves no structural metadata. Collective.
template <typename SR, typename VT>
std::vector<DistMatrix1D<VT>> spgemm_grid_replay(
    Comm& comm, std::span<const ReplayMember<GridPlan<VT, SR>, VT>> ms, bool overlap = false,
    int lookahead = 0) {
  using Route = std::pair<GridRoute<VT>*, const DistMatrix1D<VT>*>;
  using Scatter = std::pair<const ScatterRoute<VT>*, std::span<const VT>>;
  const int layers = ms[0].plan->layers;
  std::vector<Route> routes;
  std::vector<GridPlan<VT, SR>*> plans;
  for (const auto& m : ms) {
    require(m.plan->layers == layers, "spgemm_grid_replay: batch members must share one layering");
    routes.emplace_back(&m.plan->route_a, m.a);
    routes.emplace_back(&m.plan->route_b, m.b);
    plans.push_back(m.plan);
  }
  replay_1d_to_2d_grid(comm, std::span<const Route>(routes), overlap);
  if (layers <= 1) {
    summadetail::summa_stages_replay<SR>(comm, std::span<GridPlan<VT, SR>* const>(plans), overlap,
                                         lookahead);
  } else {
    const int q2 = comm.size() / layers;
    Comm layer_comm = comm.split(comm.rank() / q2, comm.rank());
    summadetail::summa_stages_replay<SR>(layer_comm, std::span<GridPlan<VT, SR>* const>(plans),
                                         overlap, lookahead);
  }
  std::vector<Scatter> outs;
  for (const auto* pl : plans) outs.emplace_back(&pl->out, std::span<const VT>(pl->acc_vals));
  return replay_coo_to_1d<SR>(comm, std::span<const Scatter>(outs), overlap);
}

/// Replicated-operand wrapper (the original baseline API): distributes the
/// globals, runs the 1D-in/1D-out SUMMA, and returns this rank's C column
/// slice as COO in global coordinates — gather_coo() reassembles.
template <typename VT>
CooMatrix<VT> spgemm_summa_2d(Comm& comm, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                              LocalKernel kernel = LocalKernel::Hybrid, int threads = 1) {
  require(a.ncols() == b.nrows(), "spgemm_summa_2d: inner dimension mismatch");
  auto da = DistMatrix1D<VT>::from_global(comm, a);
  auto db = DistMatrix1D<VT>::from_global(comm, b);
  auto dc = spgemm_summa_2d_dist(comm, da, db, kernel, threads);
  auto ph = comm.phase(Phase::Other);
  return dc.local_to_coo_global();
}

}  // namespace sa1d
