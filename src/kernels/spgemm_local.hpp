// Shared-memory SpGEMM engine, column-by-column formulation (paper Fig 1):
// column j of C is the ⊕-combination of A's columns selected by the nonzeros
// of B(:, j). Four accumulators are provided:
//   - SPA   : dense sparse-accumulator, the O(m) reference
//   - Heap  : k-way merge of the selected A columns (Azad et al. 2016)
//   - Hash  : open-addressing per-column table (Nagasaka et al. 2019)
//   - Hybrid: per-column choice among the three by flops and density —
//             the configuration the paper uses for its local multiplies.
//
// The multiply runs in two phases:
//   1. symbolic — per-column flops and *exact* output nnz, computed once.
//      The flop counts drive a flop-prefix-balanced partition of C's columns
//      across threads (skewed column distributions no longer serialize on
//      one thread), and the accumulator class of every column is decided
//      here exactly once.
//   2. numeric — with C's colptr known exactly, row ids and values are
//      written straight into the final CscMatrix arrays at precomputed
//      offsets: no per-range staging buffers, no concatenation copy, and
//      the output is byte-identical for every thread count.
//   3. replay — once one numeric pass has returned C's row ids, a caller
//      that keeps them (the SA-1D and grid plans) re-runs only the values:
//      spgemm_local_replay seeds the known rows, ⊕-folds every product and
//      gathers in the known order, each column in its class's footprint
//      (dense accumulator, hash table, or a scaled copy) — no sort or
//      bitmap scan, no row-id write.
// All phases run on persistent per-thread workspaces: a grow-only
// open-addressing table cleared in O(1) by bumping a generation tag (no
// O(capacity) reset per column), a combined stamp+value dense accumulator
// (one cache line per touched row instead of two), and reusable
// heap/extraction buffers.
//
// All four accumulators apply ⊕ to each output row's products in the same
// order (B-column position, then A-row position; the heap breaks row ties by
// B-column position), so their outputs are bit-identical even for
// non-associative floating-point ⊕.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "kernels/semiring.hpp"
#include "sparse/csc.hpp"
#include "util/common.hpp"

namespace sa1d {

enum class LocalKernel { Spa, Heap, Hash, Hybrid };

inline const char* kernel_name(LocalKernel k) {
  switch (k) {
    case LocalKernel::Spa: return "spa";
    case LocalKernel::Heap: return "heap";
    case LocalKernel::Hash: return "hash";
    case LocalKernel::Hybrid: return "hybrid";
  }
  return "?";
}

/// Per-column multiply work: flops(j) = Σ_{k : B(k,j)≠0} nnz(A(:,k)).
/// This is the "sparse flops" quantity the paper balances with METIS weights.
template <typename VT>
std::vector<index_t> symbolic_flops(const CscMatrix<VT>& a, const CscMatrix<VT>& b) {
  require(a.ncols() == b.nrows(), "symbolic_flops: inner dimension mismatch");
  std::vector<index_t> flops(static_cast<std::size_t>(b.ncols()), 0);
  for (index_t j = 0; j < b.ncols(); ++j)
    for (auto k : b.col_rows(j)) flops[static_cast<std::size_t>(j)] += a.col_nnz(k);
  return flops;
}

template <typename VT>
index_t total_flops(const CscMatrix<VT>& a, const CscMatrix<VT>& b) {
  auto f = symbolic_flops(a, b);
  index_t t = 0;
  for (auto x : f) t += x;
  return t;
}

/// Splits columns [0, flops.size()) into `parts` contiguous ranges whose
/// flop sums are as even as prefix cuts allow (each column is charged
/// flops+1 so ranges of all-empty columns still spread out). Replaces
/// even_split for the thread partition: on skewed (RMAT-like) inputs an
/// even column split puts nearly all multiply work on one thread.
inline std::vector<index_t> flop_balanced_split(std::span<const index_t> flops, int parts) {
  require(parts > 0, "flop_balanced_split: parts must be positive");
  const auto n = static_cast<index_t>(flops.size());
  std::vector<std::uint64_t> prefix(flops.size() + 1, 0);
  for (std::size_t i = 0; i < flops.size(); ++i)
    prefix[i + 1] = prefix[i] + static_cast<std::uint64_t>(flops[i]) + 1;
  const std::uint64_t total = prefix.back();
  std::vector<index_t> bounds(static_cast<std::size_t>(parts) + 1, 0);
  bounds.back() = n;
  for (int p = 1; p < parts; ++p) {
    std::uint64_t target =
        total / static_cast<std::uint64_t>(parts) * static_cast<std::uint64_t>(p);
    auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    auto cut = static_cast<index_t>(it - prefix.begin());
    bounds[static_cast<std::size_t>(p)] =
        std::clamp(cut, bounds[static_cast<std::size_t>(p) - 1], n);
  }
  return bounds;
}

namespace detail {

/// Accumulator class of one output column, decided once in the symbolic
/// phase (the seed recomputed this per column per probe in hybrid_range).
/// The dense accumulator has two extraction strategies: kClassSpa walks the
/// occupancy bitmap (rows come out sorted for free; right when the column's
/// flops amortize the O(nrows/64) word scan), kClassSpaSort keeps a touched
/// list and sorts it (right for small-distinct columns on a small row
/// dimension, where the word scan would dominate).
enum ColClass : std::uint8_t {
  kClassHeap = 0,
  kClassHash = 1,
  kClassSpa = 2,
  kClassSpaSort = 3,
};

/// Hybrid thresholds. A merge of ≤1 lists is a scaled copy (heap fast
/// path); tiny merges stay on the heap; dense accumulation wins whenever
/// the bitmap scan is amortized or the row dimension is cache-resident; the
/// hash table covers the hypersparse remainder (large m, scattered small
/// columns — the Ã·B̃ shape of Algorithm 1).
constexpr index_t kHeapFlopsThreshold = 16;
constexpr index_t kSpaResidentRows = index_t{1} << 13;

inline ColClass classify(index_t col_flops, index_t blists, index_t nrows, LocalKernel kernel) {
  switch (kernel) {
    case LocalKernel::Spa:
      return col_flops >= nrows / 64 ? kClassSpa : kClassSpaSort;
    case LocalKernel::Heap: return kClassHeap;
    case LocalKernel::Hash: return kClassHash;
    case LocalKernel::Hybrid: break;
  }
  if (blists <= 1 || col_flops <= kHeapFlopsThreshold) return kClassHeap;
  if (col_flops >= nrows / 64) return kClassSpa;
  if (nrows <= kSpaResidentRows) return kClassSpaSort;
  return kClassHash;
}

/// Inert filler for unoccupied hash slots. Slot validity is decided by the
/// generation tag alone, so no row id — including -1 or any value an
/// index_t can take on large inputs — can ever collide with "empty".
inline constexpr index_t kHashEmptyKey = std::numeric_limits<index_t>::min();

inline std::size_t hash_mix(index_t r) {
  return static_cast<std::size_t>(static_cast<std::uint64_t>(r) * 0x9e3779b97f4a7c15ULL);
}

/// Persistent per-thread workspace: every buffer is allocated (and grown)
/// at most a handful of times per multiply instead of once per column.
template <SemiringConcept SR>
struct Workspace {
  using T = typename SR::value_type;
  // bool accumulators (OrAnd) are stored as uint8_t: vector<bool> has no
  // data() and its proxy references defeat the raw-pointer inner loops.
  using StoredT = std::conditional_t<std::is_same_v<T, bool>, std::uint8_t, T>;

  // Grow-only open-addressing table shared by the symbolic count and the
  // numeric hash accumulator. A slot is occupied iff its generation tag
  // equals `gen`; bumping `gen` clears the whole table in O(1), replacing
  // the seed's O(capacity) keys.assign per column. Key and tag share a
  // 16-byte slot so a probe touches one cache line.
  struct HSlot {
    index_t key;
    std::uint64_t gen;
  };
  std::vector<HSlot> hslots;
  std::vector<StoredT> hvals;
  std::uint64_t gen = 0;

  // Bitmap-SPA accumulator (SPA class; lazily sized to the row dimension):
  // the occupancy bitmap (1 bit/row, L1-resident) replaces per-row stamps,
  // and extraction walks the bitmap words in order — output rows come out
  // already sorted, so the SPA class needs no per-column sort at all.
  // Invariant: `bits` is all-zero between columns.
  std::vector<StoredT> accum;
  std::vector<std::uint64_t> bits;

  // Stamp-SPA state (kClassSpaSort): per-row stamps mark occupancy and a
  // touched list is sorted at extraction — cheaper than the bitmap word
  // scan when the column's distinct rows are few and the row dim is small.
  std::vector<index_t> stamp;
  index_t spa_token = 0;
  std::vector<index_t> touched;

  // (row, slot) extraction pairs for hash columns.
  std::vector<std::pair<index_t, index_t>> extracted;

  // Heap-merge entries: current row of list `list` at position `pos`.
  struct HeapEntry {
    index_t row;
    index_t list;
    index_t pos;
  };
  std::vector<HeapEntry> heap;

  /// Grows the table to hold `distinct_bound` distinct rows at ≤0.5 load.
  /// bit_ceil cannot loop the way the seed's `while (cap <<= 1)` could; the
  /// bound is clamped to the row dimension by callers, so the doubled value
  /// stays far below SIZE_MAX/2.
  void ensure_hash_capacity(index_t distinct_bound) {
    std::size_t want = std::bit_ceil(std::max<std::size_t>(
        16, 2 * static_cast<std::size_t>(std::max<index_t>(distinct_bound, 1))));
    if (want > hslots.size()) {
      hslots.assign(want, {kHashEmptyKey, 0});
      hvals.assign(want, static_cast<StoredT>(SR::zero()));
      gen = 0;  // all tags are 0 → every slot reads as empty once gen > 0
    }
  }

  void ensure_dense(index_t nrows) {
    // accum needs no initialization: a slot is only read after the column's
    // first store to it (guarded by the bitmap or the stamp).
    if (accum.size() < static_cast<std::size_t>(nrows))
      accum.resize(static_cast<std::size_t>(nrows));
    const auto words = static_cast<std::size_t>((nrows + 63) / 64);
    if (bits.size() < words) bits.resize(words, 0);
  }

  void ensure_stamp(index_t nrows) {
    ensure_dense(nrows);
    if (stamp.size() < static_cast<std::size_t>(nrows)) {
      stamp.assign(static_cast<std::size_t>(nrows), -1);
      spa_token = 0;
    }
  }

  /// Bytes held by the workspace's buffers (their capacities).
  [[nodiscard]] std::uint64_t bytes() const {
    return hslots.capacity() * sizeof(HSlot) + hvals.capacity() * sizeof(StoredT) +
           accum.capacity() * sizeof(StoredT) + bits.capacity() * sizeof(std::uint64_t) +
           stamp.capacity() * sizeof(index_t) + touched.capacity() * sizeof(index_t) +
           extracted.capacity() * sizeof(std::pair<index_t, index_t>) +
           heap.capacity() * sizeof(HeapEntry);
  }
};

/// Exact number of distinct output rows of column j, via the generation-
/// stamped table (no O(nrows) state needed for sparse columns).
template <SemiringConcept SR, typename VT>
index_t symbolic_count_hash(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                            index_t j, index_t col_flops) {
  ws.ensure_hash_capacity(std::min<index_t>(col_flops, a.nrows()));
  ++ws.gen;
  const std::uint64_t gen = ws.gen;
  auto* slots = ws.hslots.data();
  const std::size_t mask = ws.hslots.size() - 1;
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  index_t count = 0;
  for (auto k : b.col_rows(j)) {
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      std::size_t h = hash_mix(r) & mask;
      while (slots[h].gen == gen && slots[h].key != r) h = (h + 1) & mask;
      if (slots[h].gen != gen) {
        slots[h] = {r, gen};
        ++count;
      }
    }
  }
  return count;
}

/// Exact distinct-row count for dense-ish columns via the row bitmap (the
/// probes stay L1-resident; the closing popcount scan is amortized by the
/// classify() thresholds) .
template <SemiringConcept SR, typename VT>
index_t symbolic_count_dense(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                             index_t j) {
  ws.ensure_dense(a.nrows());
  auto* bits = ws.bits.data();
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  for (auto k : b.col_rows(j)) {
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      bits[static_cast<std::size_t>(r) >> 6] |= std::uint64_t{1} << (r & 63);
    }
  }
  const auto words = static_cast<std::size_t>((a.nrows() + 63) / 64);
  index_t count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    count += std::popcount(bits[w]);
    bits[w] = 0;
  }
  return count;
}

/// Exact distinct-row count via per-row stamps (small-distinct columns on a
/// cache-resident row dimension: a direct indexed probe beats hashing).
template <SemiringConcept SR, typename VT>
index_t symbolic_count_stamp(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                             index_t j) {
  ws.ensure_stamp(a.nrows());
  const index_t token = ++ws.spa_token;
  index_t* stamp = ws.stamp.data();
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  index_t count = 0;
  for (auto k : b.col_rows(j)) {
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      if (stamp[r] != token) {
        stamp[r] = token;
        ++count;
      }
    }
  }
  return count;
}

/// Symbolic pass over columns [jlo, jhi): classifies each column and
/// records its exact output nnz in counts[j].
template <SemiringConcept SR, typename VT>
void symbolic_range(const CscMatrix<VT>& a, const CscMatrix<VT>& b, index_t jlo, index_t jhi,
                    LocalKernel kernel, std::span<const index_t> flops, Workspace<SR>& ws,
                    std::span<index_t> counts, std::span<std::uint8_t> klass) {
  for (index_t j = jlo; j < jhi; ++j) {
    const index_t f = flops[static_cast<std::size_t>(j)];
    const index_t lists = b.col_nnz(j);
    ColClass cls = classify(f, lists, a.nrows(), kernel);
    klass[static_cast<std::size_t>(j)] = cls;
    if (lists <= 1) {
      // 0 or 1 selected A columns: the output is that column (scaled), so
      // the count is known without touching A's row ids at all.
      counts[static_cast<std::size_t>(j)] = f;
    } else if (cls == kClassSpa) {
      counts[static_cast<std::size_t>(j)] = symbolic_count_dense(ws, a, b, j);
    } else if (cls == kClassSpaSort) {
      counts[static_cast<std::size_t>(j)] = symbolic_count_stamp(ws, a, b, j);
    } else {
      counts[static_cast<std::size_t>(j)] = symbolic_count_hash(ws, a, b, j, f);
    }
  }
}

/// Numeric SPA column: bitmap-guarded dense accumulate, then an in-order
/// walk of the bitmap words emits rows already sorted — no per-column sort.
template <SemiringConcept SR, typename VT>
void numeric_spa_col(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b, index_t j,
                     index_t* out_rows, VT* out_vals) {
  using T = typename SR::value_type;
  using StoredT = typename Workspace<SR>::StoredT;
  ws.ensure_dense(a.nrows());
  auto* bits = ws.bits.data();
  StoredT* accum = ws.accum.data();
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  const VT* avl = a.vals().data();
  auto bks = b.col_rows(j);
  auto bvs = b.col_vals(j);
  for (std::size_t p = 0; p < bks.size(); ++p) {
    const index_t k = bks[p];
    const T bv = static_cast<T>(bvs[p]);
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      const T prod = SR::multiply(static_cast<T>(avl[q]), bv);
      const auto w = static_cast<std::size_t>(r) >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (r & 63);
      if ((bits[w] & bit) == 0) {
        bits[w] |= bit;
        accum[r] = static_cast<StoredT>(prod);
      } else {
        accum[r] = static_cast<StoredT>(SR::add(static_cast<T>(accum[r]), prod));
      }
    }
  }
  const auto words = static_cast<std::size_t>((a.nrows() + 63) / 64);
  std::size_t out = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = bits[w];
    if (word == 0) continue;
    bits[w] = 0;
    const auto base = static_cast<index_t>(w << 6);
    do {
      const index_t r = base + std::countr_zero(word);
      word &= word - 1;
      out_rows[out] = r;
      out_vals[out] = static_cast<VT>(accum[r]);
      ++out;
    } while (word != 0);
  }
}

/// Numeric stamp-SPA column: dense accumulate behind per-row stamps, then
/// sort the touched rows (small-distinct columns: the sort is cheaper than
/// walking the whole bitmap word range).
template <SemiringConcept SR, typename VT>
void numeric_spa_sort_col(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                          index_t j, index_t* out_rows, VT* out_vals) {
  using T = typename SR::value_type;
  using StoredT = typename Workspace<SR>::StoredT;
  ws.ensure_stamp(a.nrows());
  const index_t token = ++ws.spa_token;
  index_t* stamp = ws.stamp.data();
  StoredT* accum = ws.accum.data();
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  const VT* avl = a.vals().data();
  ws.touched.clear();
  auto bks = b.col_rows(j);
  auto bvs = b.col_vals(j);
  for (std::size_t p = 0; p < bks.size(); ++p) {
    const index_t k = bks[p];
    const T bv = static_cast<T>(bvs[p]);
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      const T prod = SR::multiply(static_cast<T>(avl[q]), bv);
      if (stamp[r] != token) {
        stamp[r] = token;
        accum[r] = static_cast<StoredT>(prod);
        ws.touched.push_back(r);
      } else {
        accum[r] = static_cast<StoredT>(SR::add(static_cast<T>(accum[r]), prod));
      }
    }
  }
  std::sort(ws.touched.begin(), ws.touched.end());
  for (std::size_t i = 0; i < ws.touched.size(); ++i) {
    out_rows[i] = ws.touched[i];
    out_vals[i] = static_cast<VT>(accum[ws.touched[i]]);
  }
}

/// Numeric hash column: generation-stamped open addressing; products are
/// inserted in (B-position, A-position) order so per-row ⊕ order matches
/// the SPA reference bit for bit.
template <SemiringConcept SR, typename VT>
void numeric_hash_col(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b, index_t j,
                      index_t col_nnz, index_t* out_rows, VT* out_vals) {
  using T = typename SR::value_type;
  using StoredT = typename Workspace<SR>::StoredT;
  ws.ensure_hash_capacity(col_nnz);
  ++ws.gen;
  const std::uint64_t gen = ws.gen;
  auto* slots = ws.hslots.data();
  StoredT* hvals = ws.hvals.data();
  const std::size_t mask = ws.hslots.size() - 1;
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  const VT* avl = a.vals().data();
  ws.extracted.clear();
  auto bks = b.col_rows(j);
  auto bvs = b.col_vals(j);
  for (std::size_t p = 0; p < bks.size(); ++p) {
    const index_t k = bks[p];
    const T bv = static_cast<T>(bvs[p]);
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      const T prod = SR::multiply(static_cast<T>(avl[q]), bv);
      std::size_t h = hash_mix(r) & mask;
      while (true) {
        if (slots[h].gen != gen) {
          slots[h] = {r, gen};
          hvals[h] = static_cast<StoredT>(prod);
          ws.extracted.emplace_back(r, static_cast<index_t>(h));
          break;
        }
        if (slots[h].key == r) {
          hvals[h] = static_cast<StoredT>(SR::add(static_cast<T>(hvals[h]), prod));
          break;
        }
        h = (h + 1) & mask;
      }
    }
  }
  std::sort(ws.extracted.begin(), ws.extracted.end());
  for (std::size_t i = 0; i < ws.extracted.size(); ++i) {
    out_rows[i] = ws.extracted[i].first;
    out_vals[i] = static_cast<VT>(hvals[static_cast<std::size_t>(ws.extracted[i].second)]);
  }
}

/// Numeric heap column: k-way merge of the selected A columns. Row ties pop
/// in ascending B-position (`list`) order, which makes the per-row ⊕ order
/// identical to the SPA reference. Merges of one list degenerate to a
/// scaled copy.
template <SemiringConcept SR, typename VT>
void numeric_heap_col(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b, index_t j,
                      index_t* out_rows, VT* out_vals) {
  using T = typename SR::value_type;
  using Entry = typename Workspace<SR>::HeapEntry;
  auto bks = b.col_rows(j);
  auto bvs = b.col_vals(j);
  if (bks.size() == 1) {
    const index_t k = bks[0];
    const T bv = static_cast<T>(bvs[0]);
    auto ars = a.col_rows(k);
    auto avs = a.col_vals(k);
    for (std::size_t q = 0; q < ars.size(); ++q) {
      out_rows[q] = ars[q];
      out_vals[q] = static_cast<VT>(SR::multiply(static_cast<T>(avs[q]), bv));
    }
    return;
  }
  auto cmp = [](const Entry& x, const Entry& y) {
    return x.row != y.row ? x.row > y.row : x.list > y.list;
  };
  ws.heap.clear();
  for (std::size_t l = 0; l < bks.size(); ++l) {
    if (a.col_nnz(bks[l]) > 0)
      ws.heap.push_back({a.col_rows(bks[l])[0], static_cast<index_t>(l), 0});
  }
  std::make_heap(ws.heap.begin(), ws.heap.end(), cmp);
  index_t cur_row = -1;
  T cur_val = SR::zero();
  std::size_t w = 0;
  while (!ws.heap.empty()) {
    std::pop_heap(ws.heap.begin(), ws.heap.end(), cmp);
    Entry e = ws.heap.back();
    ws.heap.pop_back();
    index_t k = bks[static_cast<std::size_t>(e.list)];
    T prod = SR::multiply(static_cast<T>(a.col_vals(k)[static_cast<std::size_t>(e.pos)]),
                          static_cast<T>(bvs[static_cast<std::size_t>(e.list)]));
    if (e.row == cur_row) {
      cur_val = SR::add(cur_val, prod);
    } else {
      if (cur_row >= 0) {
        out_rows[w] = cur_row;
        out_vals[w] = static_cast<VT>(cur_val);
        ++w;
      }
      cur_row = e.row;
      cur_val = prod;
    }
    if (e.pos + 1 < a.col_nnz(k)) {
      ws.heap.push_back({a.col_rows(k)[static_cast<std::size_t>(e.pos) + 1], e.list, e.pos + 1});
      std::push_heap(ws.heap.begin(), ws.heap.end(), cmp);
    }
  }
  if (cur_row >= 0) {
    out_rows[w] = cur_row;
    out_vals[w] = static_cast<VT>(cur_val);
  }
}

/// Numeric pass over columns [jlo, jhi): each column writes its rows/values
/// directly into the final CSC arrays at the offsets the symbolic phase
/// fixed — zero-copy assembly, no per-range staging.
template <SemiringConcept SR, typename VT>
void run_range(const CscMatrix<VT>& a, const CscMatrix<VT>& b, index_t jlo, index_t jhi,
               std::span<const index_t> colptr, std::span<const std::uint8_t> klass,
               Workspace<SR>& ws, index_t* rowids, VT* vals) {
  for (index_t j = jlo; j < jhi; ++j) {
    const index_t off = colptr[static_cast<std::size_t>(j)];
    const index_t cnt = colptr[static_cast<std::size_t>(j) + 1] - off;
    if (cnt == 0) continue;
    index_t* out_rows = rowids + off;
    VT* out_vals = vals + off;
    switch (klass[static_cast<std::size_t>(j)]) {
      case kClassHeap: numeric_heap_col<SR, VT>(ws, a, b, j, out_rows, out_vals); break;
      case kClassHash: numeric_hash_col<SR, VT>(ws, a, b, j, cnt, out_rows, out_vals); break;
      case kClassSpaSort: numeric_spa_sort_col<SR, VT>(ws, a, b, j, out_rows, out_vals); break;
      default: numeric_spa_col<SR, VT>(ws, a, b, j, out_rows, out_vals); break;
    }
  }
}

/// Replay of a dense-class column (kClassSpa, kClassSpaSort — the classes
/// whose numeric pass already holds the O(nrows) accumulator): seed the
/// known rows in `accum`, ⊕ every product in (B-position, A-position)
/// order with no branch, gather in the known row order. Semirings without
/// an exact seed (ReplaySeed) store each row's first product behind the
/// occupancy bitmap instead, like the SPA class — resolved at compile time
/// — and clear the column's bitmap words from the known rows, not by a
/// scan.
template <SemiringConcept SR, typename VT>
void replay_dense_col(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                      index_t j, const index_t* rows, index_t cnt, VT* out_vals) {
  using T = typename SR::value_type;
  using StoredT = typename Workspace<SR>::StoredT;
  constexpr bool kSeeded = ReplaySeed<SR>::exact;
  ws.ensure_dense(a.nrows());
  StoredT* accum = ws.accum.data();
  [[maybe_unused]] std::uint64_t* bits = ws.bits.data();
  if constexpr (kSeeded) {
    const auto seed = static_cast<StoredT>(ReplaySeed<SR>::value());
    for (index_t i = 0; i < cnt; ++i) accum[rows[i]] = seed;
  }
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  const VT* avl = a.vals().data();
  auto bks = b.col_rows(j);
  auto bvs = b.col_vals(j);
  for (std::size_t p = 0; p < bks.size(); ++p) {
    const index_t k = bks[p];
    const T bv = static_cast<T>(bvs[p]);
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const index_t r = arw[q];
      const T prod = SR::multiply(static_cast<T>(avl[q]), bv);
      if constexpr (kSeeded) {
        accum[r] = static_cast<StoredT>(SR::add(static_cast<T>(accum[r]), prod));
      } else {
        const auto w = static_cast<std::size_t>(r) >> 6;
        const std::uint64_t bit = std::uint64_t{1} << (r & 63);
        if ((bits[w] & bit) == 0) {
          bits[w] |= bit;
          accum[r] = static_cast<StoredT>(prod);
        } else {
          accum[r] = static_cast<StoredT>(SR::add(static_cast<T>(accum[r]), prod));
        }
      }
    }
  }
  for (index_t i = 0; i < cnt; ++i) out_vals[i] = static_cast<VT>(accum[rows[i]]);
  if constexpr (!kSeeded)
    for (index_t i = 0; i < cnt; ++i) bits[static_cast<std::size_t>(rows[i]) >> 6] = 0;
}

/// Replay of a sparse-class column (kClassHash, and multi-list kClassHeap)
/// through the open-addressing table sized to the column's known nnz — no
/// O(nrows) state, so a hypersparse Ã·B̃ keeps the footprint of its class
/// pass. The known rows are inserted first, so every probe for a known row
/// ends at its slot; then every product is ⊕-folded in (B-position,
/// A-position) order and the values are gathered in the known row order.
/// Two generation tags per column: `seeded` marks an inserted row,
/// `seeded + 1` a row whose first product was stored — the first-touch
/// path of semirings without an exact seed.
template <SemiringConcept SR, typename VT>
void replay_hash_col(Workspace<SR>& ws, const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                     index_t j, const index_t* rows, index_t cnt, VT* out_vals) {
  using T = typename SR::value_type;
  using StoredT = typename Workspace<SR>::StoredT;
  constexpr bool kSeeded = ReplaySeed<SR>::exact;
  ws.ensure_hash_capacity(cnt);
  const std::uint64_t seeded = ws.gen + 1;
  ws.gen += 2;  // the next column's tags are above both of this column's
  auto* slots = ws.hslots.data();
  StoredT* hvals = ws.hvals.data();
  const std::size_t mask = ws.hslots.size() - 1;
  // Probe for row r: stops at r's slot (or at an empty one if r is not a
  // known row, which a matching structure rules out).
  auto slot_of = [&](index_t r) {
    std::size_t h = hash_mix(r) & mask;
    while (slots[h].gen >= seeded && slots[h].key != r) h = (h + 1) & mask;
    return h;
  };
  for (index_t i = 0; i < cnt; ++i) {
    const std::size_t h = slot_of(rows[i]);
    slots[h] = {rows[i], seeded};
    if constexpr (kSeeded) hvals[h] = static_cast<StoredT>(ReplaySeed<SR>::value());
  }
  const index_t* acp = a.colptr().data();
  const index_t* arw = a.rowids().data();
  const VT* avl = a.vals().data();
  auto bks = b.col_rows(j);
  auto bvs = b.col_vals(j);
  for (std::size_t p = 0; p < bks.size(); ++p) {
    const index_t k = bks[p];
    const T bv = static_cast<T>(bvs[p]);
    for (index_t q = acp[k]; q < acp[k + 1]; ++q) {
      const T prod = SR::multiply(static_cast<T>(avl[q]), bv);
      const std::size_t h = slot_of(arw[q]);
      if constexpr (kSeeded) {
        hvals[h] = static_cast<StoredT>(SR::add(static_cast<T>(hvals[h]), prod));
      } else if (slots[h].gen == seeded) {
        slots[h].gen = seeded + 1;
        hvals[h] = static_cast<StoredT>(prod);
      } else {
        hvals[h] = static_cast<StoredT>(SR::add(static_cast<T>(hvals[h]), prod));
      }
    }
  }
  for (index_t i = 0; i < cnt; ++i) out_vals[i] = static_cast<VT>(hvals[slot_of(rows[i])]);
}

/// Value-only replay over columns [jlo, jhi) of a product whose row ids are
/// known (`rows`, laid out by `colptr`). Each column replays in the
/// footprint of the class its numeric pass used: dense classes through the
/// row-indexed accumulator, sparse classes through the hash table, and a
/// one-list heap column (the output is that A column, scaled) as a scaled
/// copy. Every form applies ⊕ in the reference order, so the values are
/// those of the class numeric pass; none sorts, scans a bitmap or writes a
/// row id.
template <SemiringConcept SR, typename VT>
void replay_range(const CscMatrix<VT>& a, const CscMatrix<VT>& b, index_t jlo, index_t jhi,
                  const index_t* colptr, std::span<const std::uint8_t> klass, const index_t* rows,
                  Workspace<SR>& ws, VT* vals) {
  using T = typename SR::value_type;
  for (index_t j = jlo; j < jhi; ++j) {
    const index_t lo = colptr[j], cnt = colptr[j + 1] - lo;
    if (cnt == 0) continue;
    const auto cls = klass[static_cast<std::size_t>(j)];
    if (cls == kClassSpa || cls == kClassSpaSort) {
      replay_dense_col<SR, VT>(ws, a, b, j, rows + lo, cnt, vals + lo);
    } else if (cls == kClassHeap && b.col_nnz(j) == 1) {
      const T bv = static_cast<T>(b.col_vals(j)[0]);
      auto avs = a.col_vals(b.col_rows(j)[0]);
      const index_t n = std::min(cnt, static_cast<index_t>(avs.size()));
      for (index_t i = 0; i < n; ++i)
        vals[lo + i] = static_cast<VT>(
            SR::multiply(static_cast<T>(avs[static_cast<std::size_t>(i)]), bv));
    } else {
      replay_hash_col<SR, VT>(ws, a, b, j, rows + lo, cnt, vals + lo);
    }
  }
}

/// Runs fn(t) on `parts` threads (inline when parts == 1).
template <typename F>
void parallel_for_parts(int parts, F&& fn) {
  if (parts == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(parts));
  for (int t = 0; t < parts; ++t) pool.emplace_back(fn, t);
  for (auto& th : pool) th.join();
}

}  // namespace detail

/// Exact per-column output nnz of C = A·B (structural; semiring-independent).
/// This is the symbolic phase of the two-phase engine exposed on its own —
/// useful for exact output pre-sizing and for validating that the numeric
/// pass produced precisely the predicted structure.
template <typename VT>
std::vector<index_t> symbolic_nnz(const CscMatrix<VT>& a, const CscMatrix<VT>& b) {
  require(a.ncols() == b.nrows(), "symbolic_nnz: inner dimension mismatch");
  auto flops = symbolic_flops(a, b);
  std::vector<index_t> counts(static_cast<std::size_t>(b.ncols()), 0);
  std::vector<std::uint8_t> klass(static_cast<std::size_t>(b.ncols()), 0);
  detail::Workspace<PlusTimes<double>> ws;
  detail::symbolic_range<PlusTimes<double>, VT>(a, b, 0, b.ncols(), LocalKernel::Hybrid, flops,
                                                ws, counts, klass);
  return counts;
}

/// Cached symbolic result of one local multiply: everything the numeric
/// pass needs that depends only on the operands' *structure*. Reusable
/// across value changes (the inspector–executor split of the 1D pipeline
/// caches one of these inside SpgemmPlan1D).
struct LocalSymbolic {
  index_t nrows = 0;                ///< C's row dimension (= a.nrows())
  index_t ncols = 0;                ///< C's column dimension (= b.ncols())
  int nt = 1;                       ///< resolved thread count
  std::vector<index_t> bounds;      ///< flop-balanced thread boundaries, size nt+1
  std::vector<index_t> colptr;      ///< exact C colptr, size ncols+1
  std::vector<std::uint8_t> klass;  ///< per-column accumulator class
};

/// Symbolic phase on its own: exact per-column output nnz, accumulator
/// class, and the flop-balanced thread partition. Structural only — valid
/// for any value assignment over the same sparsity pattern. `workspaces`
/// (optional) lets callers keep the per-thread scratch warm across calls;
/// it is resized to the resolved thread count.
template <SemiringConcept SR, typename VT>
LocalSymbolic spgemm_local_symbolic(const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                                    LocalKernel kernel = LocalKernel::Hybrid, int threads = 1,
                                    std::vector<detail::Workspace<SR>>* workspaces = nullptr) {
  require(a.ncols() == b.nrows(), "spgemm_local_symbolic: inner dimension mismatch");
  require(threads >= 1, "spgemm_local_symbolic: threads must be >= 1");
  const index_t n = b.ncols();

  // Per-column flops, O(nnz(B)) — drives both the thread partition and the
  // per-column accumulator choice.
  auto flops = symbolic_flops(a, b);
  index_t work = 0;
  for (auto f : flops) work += f;
  // Small-multiply serial fallback: both phases spawn/join a thread round,
  // so each extra thread must bring enough flops to amortize that (~0.1 ms)
  // churn. The output is bit-identical for every thread count, so this is
  // purely a cost choice — distributed callers hit tiny local blocks in hot
  // loops (coarse AMG levels, BC frontiers) with opt.threads > 1.
  constexpr index_t kMinFlopsPerThread = index_t{1} << 14;
  const int nt = static_cast<int>(std::clamp<index_t>(
      std::min<index_t>(work / kMinFlopsPerThread + 1, std::max<index_t>(n, 1)), 1, threads));

  LocalSymbolic sym;
  sym.nrows = a.nrows();
  sym.ncols = n;
  sym.nt = nt;
  sym.bounds = flop_balanced_split(flops, nt);
  sym.colptr.assign(static_cast<std::size_t>(n) + 1, 0);
  sym.klass.assign(static_cast<std::size_t>(n), 0);

  std::vector<detail::Workspace<SR>> local_ws;
  auto& ws = workspaces != nullptr ? *workspaces : local_ws;
  if (ws.size() < static_cast<std::size_t>(nt)) ws.resize(static_cast<std::size_t>(nt));

  detail::parallel_for_parts(nt, [&](int t) {
    detail::symbolic_range<SR, VT>(
        a, b, sym.bounds[static_cast<std::size_t>(t)], sym.bounds[static_cast<std::size_t>(t) + 1],
        kernel, flops, ws[static_cast<std::size_t>(t)],
        std::span<index_t>(sym.colptr).subspan(1), sym.klass);
  });
  for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j)
    sym.colptr[j + 1] += sym.colptr[j];
  return sym;
}

/// Numeric phase replaying a cached symbolic result: writes row ids and
/// values straight into the exactly pre-sized output. The operands must
/// have the structure the symbolic pass analyzed (values may differ).
template <SemiringConcept SR, typename VT>
CscMatrix<VT> spgemm_local_numeric(const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                                   const LocalSymbolic& sym,
                                   std::vector<detail::Workspace<SR>>* workspaces = nullptr) {
  require(a.nrows() == sym.nrows && b.ncols() == sym.ncols,
          "spgemm_local_numeric: operand dimensions do not match the symbolic plan");
  require(a.ncols() == b.nrows(), "spgemm_local_numeric: inner dimension mismatch");
  const auto total = static_cast<std::size_t>(sym.colptr.back());

  std::vector<detail::Workspace<SR>> local_ws;
  auto& ws = workspaces != nullptr ? *workspaces : local_ws;
  if (ws.size() < static_cast<std::size_t>(sym.nt))
    ws.resize(static_cast<std::size_t>(sym.nt));

  std::vector<index_t> rowids(total);
  std::vector<VT> vals(total);
  detail::parallel_for_parts(sym.nt, [&](int t) {
    detail::run_range<SR, VT>(a, b, sym.bounds[static_cast<std::size_t>(t)],
                              sym.bounds[static_cast<std::size_t>(t) + 1], sym.colptr, sym.klass,
                              ws[static_cast<std::size_t>(t)], rowids.data(), vals.data());
  });
  return CscMatrix<VT>(sym.nrows, sym.ncols, sym.colptr, std::move(rowids), std::move(vals));
}

/// Value-only numeric replay: C's values for operands with the structure
/// `sym` analyzed, written into the caller-owned `vals` in the order of
/// `rows` — C's row ids as an earlier numeric pass over that structure
/// returned them (laid out by sym.colptr). Bit-identical to the values of
/// spgemm_local_numeric for every semiring: same per-row ⊕ order, and the
/// first product enters through an exact seed or a per-row stamp (see
/// ReplaySeed). Work is split over sym.bounds like the numeric pass, and
/// each column replays in the footprint of its class (sym.klass): only
/// dense-class columns touch the O(nrows) accumulator, so the replay's
/// workspace never outgrows the class pass's.
template <SemiringConcept SR, typename VT>
void spgemm_local_replay(const CscMatrix<VT>& a, const CscMatrix<VT>& b, const LocalSymbolic& sym,
                         std::span<const index_t> rows, std::span<VT> vals,
                         std::vector<detail::Workspace<SR>>* workspaces = nullptr) {
  require(a.nrows() == sym.nrows && b.ncols() == sym.ncols,
          "spgemm_local_replay: operand dimensions do not match the symbolic plan");
  require(a.ncols() == b.nrows(), "spgemm_local_replay: inner dimension mismatch");
  const auto total = static_cast<std::size_t>(sym.colptr.back());
  require(rows.size() == total && vals.size() == total,
          "spgemm_local_replay: row/value spans must hold exactly nnz(C) entries");

  std::vector<detail::Workspace<SR>> local_ws;
  auto& ws = workspaces != nullptr ? *workspaces : local_ws;
  if (ws.size() < static_cast<std::size_t>(sym.nt))
    ws.resize(static_cast<std::size_t>(sym.nt));

  detail::parallel_for_parts(sym.nt, [&](int t) {
    detail::replay_range<SR, VT>(a, b, sym.bounds[static_cast<std::size_t>(t)],
                                 sym.bounds[static_cast<std::size_t>(t) + 1], sym.colptr.data(),
                                 sym.klass, rows.data(), ws[static_cast<std::size_t>(t)],
                                 vals.data());
  });
}

/// C = A ⊕.⊗ B with the chosen accumulator. `threads` > 1 splits C's columns
/// across std::threads on flop-balanced boundaries; the output is identical
/// (bit for bit) for every thread count and every accumulator choice.
/// One-shot convenience over the symbolic/numeric split; the per-thread
/// workspaces stay warm between the two phases.
template <SemiringConcept SR, typename VT>
CscMatrix<VT> spgemm_local(const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                           LocalKernel kernel = LocalKernel::Hybrid, int threads = 1) {
  require(a.ncols() == b.nrows(), "spgemm_local: inner dimension mismatch");
  require(threads >= 1, "spgemm_local: threads must be >= 1");
  std::vector<detail::Workspace<SR>> workspaces;
  auto sym = spgemm_local_symbolic<SR, VT>(a, b, kernel, threads, &workspaces);
  return spgemm_local_numeric<SR, VT>(a, b, sym, &workspaces);
}

/// Convenience numeric wrapper over plus-times.
template <typename VT>
CscMatrix<VT> spgemm(const CscMatrix<VT>& a, const CscMatrix<VT>& b,
                     LocalKernel kernel = LocalKernel::Hybrid, int threads = 1) {
  return spgemm_local<PlusTimes<VT>, VT>(a, b, kernel, threads);
}

}  // namespace sa1d
