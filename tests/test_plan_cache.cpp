// Tests for the serving runtime: the multi-tenant LRU plan cache
// (runtime/plan_cache.hpp) and the batched fused executor
// (dist/batch_spgemm.hpp). The acceptance bar is bit-identity — every
// batched member must equal the fresh spgemm_dist result for its operands,
// across all four backends, both semirings, and batch sizes 1/2/8/32
// (cold: misses + within-batch deferred hits; hot: fused replay groups) —
// plus the LRU/budget mechanics (eviction order, forced rebuilds, the
// windowed-ring demotion fallback staying replayable), the structure-hash
// negative (equal quick fingerprints must not alias), the coherence guard
// (a rank-divergent cache decision surfaces as the identical typed
// ValidationError on every rank, never a hang), chaos (RankAbort mid-batch
// fails every rank with the same Peer error), and mode-invariance of the
// cache counters across overlap on/off.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dist/batch_spgemm.hpp"
#include "sparse/generators.hpp"

namespace sa1d {
namespace {

/// Same sparsity pattern, values re-derived from (position, t): the request
/// stream of a serving workload — structure per tenant frozen, values fresh
/// per request. Non-integer so bit-identity genuinely pins ⊕-fold order.
CscMatrix<double> with_values(const CscMatrix<double>& base, int t) {
  std::vector<double> vals(base.vals().size());
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = 0.3 + 0.17 * static_cast<double>(t) + 0.013 * static_cast<double>(i % 89);
  return CscMatrix<double>(base.nrows(), base.ncols(), base.colptr(), base.rowids(),
                           std::move(vals));
}

/// k-shifted circulant: every column holds rows {j, j+shift mod n}, so two
/// different shifts have identical dims, nnz, per-rank nzc and column
/// counts — the quick fingerprint fields collide and only the structure
/// hash can tell them apart.
CscMatrix<double> circulant(index_t n, index_t shift, double base) {
  CooMatrix<double> c(n, n);
  for (index_t j = 0; j < n; ++j) {
    c.push(j, j, base + 0.01 * static_cast<double>(j));
    c.push((j + shift) % n, j, base + 0.02 * static_cast<double>(j));
  }
  c.canonicalize();
  return CscMatrix<double>::from_coo(c);
}

std::vector<Algo> all_backends() {
  return {Algo::SparseAware1D, Algo::Ring1D, Algo::Summa2D, Algo::Split3D};
}

struct RankOutcome {
  bool ok = false;
  FaultClass cls = FaultClass::None;
  std::string what;
};

template <typename Body>
std::vector<RankOutcome> run_capture(Machine& m, Body&& body) {
  std::vector<RankOutcome> out(static_cast<std::size_t>(m.nranks()));
  m.run([&](Comm& c) {
    auto& o = out[static_cast<std::size_t>(c.rank())];
    try {
      body(c);
      o.ok = true;
    } catch (const Sa1dError& e) {
      o.cls = e.fault_class();
      o.what = dynamic_cast<const std::exception&>(e).what();
    } catch (const std::exception& e) {
      o.what = e.what();
    }
  });
  return out;
}

using Items = std::vector<std::pair<const DistMatrix1D<double>*, const DistMatrix1D<double>*>>;

// ---- batched bit-identity: cold, hot, all backends, both semirings --------

/// One serving trace against one backend: a tenant set with frozen
/// structures, request batches of the given sizes (tenants cycled, so sizes
/// above the tenant count exercise within-batch deferred hits), every
/// member compared bit-identically against its fresh spgemm_dist result
/// under the same ordering, and no batch may fall back to a rebuild.
template <typename SR>
void expect_batched_bit_identical(int P, Algo algo, bool overlap,
                                  const std::vector<CscMatrix<double>>& tenants,
                                  const std::vector<int>& batch_sizes,
                                  Ordering ordering = Ordering::Identity) {
  Machine m(P);
  DistSpgemmOptions opt;
  opt.algo = algo;
  opt.overlap = overlap;
  opt.reorder = ordering;
  m.run([&](Comm& c) {
    PlanCache<double, SR> cache;
    int t = 0;
    std::uint64_t want_hits = 0, want_misses = 0;
    std::vector<bool> seen(tenants.size(), false);
    for (int bs : batch_sizes) {
      // Materialize the batch: tenant i%T, fresh values per request.
      std::vector<DistMatrix1D<double>> ops;
      ops.reserve(static_cast<std::size_t>(bs));
      std::vector<std::size_t> tenant_of;
      for (int i = 0; i < bs; ++i, ++t) {
        const auto tn = static_cast<std::size_t>(i) % tenants.size();
        tenant_of.push_back(tn);
        seen[tn] = true;
        ops.push_back(DistMatrix1D<double>::from_global(c, with_values(tenants[tn], t)));
      }
      Items items;
      for (const auto& op : ops) items.push_back({&op, &op});
      std::vector<DistSpgemmStats> st;
      auto got = spgemm_dist_batched<SR>(c, cache, items, opt, &st);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(bs));
      ASSERT_EQ(st.size(), static_cast<std::size_t>(bs));
      for (int i = 0; i < bs; ++i) {
        auto fresh = spgemm_dist<SR>(c, ops[static_cast<std::size_t>(i)],
                                     ops[static_cast<std::size_t>(i)], opt);
        EXPECT_TRUE(got[static_cast<std::size_t>(i)].local() == fresh.local())
            << algo_name(algo) << (overlap ? " overlap" : " lockstep") << " batch " << bs
            << " member " << i << " ordering " << static_cast<int>(ordering);
        EXPECT_EQ(st[static_cast<std::size_t>(i)].ordering, ordering)
            << algo_name(algo) << " batch " << bs << " member " << i;
      }
      // Counter contract: a tenant's first-ever request is the only miss;
      // everything else (later batches AND within-batch duplicates) hits.
      for (int i = 0; i < bs; ++i) {
        if (st[static_cast<std::size_t>(i)].cache_misses == 1)
          ++want_misses;
        else
          ++want_hits;
      }
      EXPECT_EQ(cache.stats().misses, want_misses) << algo_name(algo) << " batch " << bs;
      EXPECT_EQ(cache.stats().hits, want_hits) << algo_name(algo) << " batch " << bs;
      std::size_t distinct = 0;
      for (bool s : seen) distinct += s ? 1u : 0u;
      EXPECT_EQ(cache.size(), distinct) << algo_name(algo) << " batch " << bs;
      EXPECT_EQ(cache.stats().misses, distinct) << algo_name(algo) << " batch " << bs;
    }
    EXPECT_EQ(c.report().cache_hits, want_hits);
    EXPECT_EQ(c.report().cache_misses, want_misses);
    EXPECT_GT(c.report().cache_hits_by_algo[distdetail::algo_slot(algo)], 0u);
    EXPECT_EQ(c.report().cache_bytes_resident, cache.stats().bytes_resident);
    EXPECT_EQ(c.report().plan_recoveries, 0u)
        << algo_name(algo) << " ordering " << static_cast<int>(ordering);
  });
}

TEST(PlanCacheBatched, BitIdenticalAllBackendsPlusTimes) {
  // Three tenants (two square cluster shapes, one rectangular BC-style
  // frontier) so batch sizes 8/32 carry within-batch duplicates of every
  // tenant; batch 1/2 cover the singleton and smallest fused groups.
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(120, 6, 4.0, 0.4, 11));
  tenants.push_back(erdos_renyi<double>(120, 3.0, 13));
  tenants.push_back(block_clustered<double>(120, 8, 5.0, 0.3, 17));
  for (Algo algo : all_backends())
    expect_batched_bit_identical<PlusTimes<double>>(4, algo, /*overlap=*/false, tenants,
                                                    {1, 2, 8, 32});
}

TEST(PlanCacheBatched, BitIdenticalAllBackendsOverlapped) {
  // The same trace through the overlapped fused paths (ialltoallv hop
  // shifts, up-front ibcast stage pipelines, SA-1D prefetch waves).
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(120, 6, 4.0, 0.4, 19));
  tenants.push_back(erdos_renyi<double>(120, 3.0, 23));
  for (Algo algo : all_backends())
    expect_batched_bit_identical<PlusTimes<double>>(4, algo, /*overlap=*/true, tenants,
                                                    {2, 8});
}

TEST(PlanCacheBatched, BitIdenticalMinPlusFoldPrograms) {
  // The fused replays must fold with the *semiring's* ⊕ — min-plus picks
  // different winners than plus-times wherever partials collide, so an
  // accidental plus-fold in any fused path fails here.
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(100, 5, 4.0, 0.4, 29));
  tenants.push_back(erdos_renyi<double>(100, 3.0, 31));
  for (Algo algo : all_backends())
    expect_batched_bit_identical<MinPlus<double>>(4, algo, /*overlap=*/false, tenants,
                                                  {1, 2, 8});
}

TEST(PlanCacheBatched, RectangularGridAndPrimeRankCounts) {
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(120, 6, 4.0, 0.4, 37));
  tenants.push_back(erdos_renyi<double>(120, 3.0, 41));
  // P = 3: prime (1×3 grids); P = 6: rectangular 2×3 grid + 3-layer 3D.
  for (int P : {3, 6}) {
    expect_batched_bit_identical<PlusTimes<double>>(P, Algo::Summa2D, false, tenants, {2, 8});
    expect_batched_bit_identical<PlusTimes<double>>(P, Algo::Split3D, false, tenants, {2, 8});
  }
}

TEST(PlanCacheBatched, OrderedPlansReplayInHotBatches) {
  // Ordered plans cache a symmetric permutation: a hot batch must permute
  // every member's operands in and its C back out, exactly as a solo
  // replay does. Circulant tenants keep per-rank counts under any
  // permutation (a skipped permutation would go unnoticed by the replay
  // guards and return a wrong C); block-clustered tenants do not (it would
  // trip a guard and rebuild every batch).
  const std::vector<CscMatrix<double>> circulants{circulant(96, 1, 0.5), circulant(96, 2, 0.5)};
  const std::vector<CscMatrix<double>> clustered{block_clustered<double>(120, 6, 4.0, 0.4, 11),
                                                 block_clustered<double>(120, 8, 5.0, 0.3, 17)};
  for (Ordering ord : {Ordering::Partitioned, Ordering::Random})
    for (const auto* tenants : {&circulants, &clustered})
      for (Algo algo : all_backends())
        for (bool overlap : {false, true})
          expect_batched_bit_identical<PlusTimes<double>>(4, algo, overlap, *tenants, {2, 2, 4},
                                                          ord);
}

TEST(PlanCacheBatched, HotGroupsChargeTheGaugeLikeSoloReplays) {
  // A hot fused group of two members must charge the memory gauge with
  // every member's replay transients: its peak is at least the larger
  // member's solo-replay peak. Under a budget the SUMMA group also keeps
  // the solo replay's 2-stage broadcast lookahead: a 1x4 grid has 4 stages
  // and uniform random tenants spread their payload over all of them, so
  // posting every stage up front would exceed the two solo peaks combined.
  const std::vector<CscMatrix<double>> tenants{erdos_renyi<double>(120, 4.0, 101),
                                               erdos_renyi<double>(120, 6.0, 103)};
  for (Algo algo : {Algo::Ring1D, Algo::Summa2D}) {
    DistSpgemmOptions opt;
    opt.algo = algo;
    opt.overlap = true;
    if (algo == Algo::Summa2D) {
      opt.max_peak_triples = std::uint64_t{1} << 40;
      opt.panels = 1;
      opt.grid_rows = 1;
      opt.grid_cols = 4;
    }
    Machine m(4);
    m.run([&](Comm& c) {
      std::vector<DistMatrix1D<double>> cold, hot;
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        cold.push_back(DistMatrix1D<double>::from_global(c, with_values(tenants[i], 0)));
        hot.push_back(DistMatrix1D<double>::from_global(c, with_values(tenants[i], 1)));
      }
      std::vector<std::uint64_t> solo;
      for (const auto& op : hot) {
        DistSpgemmPlan<double> plan;
        DistSpgemmStats st;
        spgemm_dist_cached(c, plan, op, op, opt);
        spgemm_dist_cached(c, plan, op, op, opt, &st);
        ASSERT_TRUE(st.plan_reused);
        solo.push_back(st.peak_triples);
      }
      PlanCache<double> cache;
      spgemm_dist_batched(c, cache, Items{{&cold[0], &cold[0]}, {&cold[1], &cold[1]}}, opt);
      std::vector<DistSpgemmStats> st;
      spgemm_dist_batched(c, cache, Items{{&hot[0], &hot[0]}, {&hot[1], &hot[1]}}, opt, &st);
      ASSERT_EQ(st[0].cache_hits + st[1].cache_hits, 2u);
      const std::uint64_t peak = c.report().peak_triples;
      EXPECT_GE(peak, std::max(solo[0], solo[1])) << algo_name(algo) << " rank " << c.rank();
      if (algo == Algo::Summa2D) {
        EXPECT_LE(peak, solo[0] + solo[1]) << "rank " << c.rank();
      }
    });
  }
}

TEST(PlanCacheBatched, SequentialCachedEntryPointMatchesFresh) {
  // The one-at-a-time serving entry point (spgemm_dist_cached_mt): miss,
  // hit, and per-call stats wiring.
  auto pat = block_clustered<double>(120, 6, 4.0, 0.4, 43);
  Machine m(4);
  m.run([&](Comm& c) {
    PlanCache<double> cache;
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    for (int t = 0; t < 3; ++t) {
      auto da = DistMatrix1D<double>::from_global(c, with_values(pat, t));
      DistSpgemmStats st;
      auto got = spgemm_dist_cached_mt(c, cache, da, da, opt, &st);
      auto fresh = spgemm_dist(c, da, da, opt);
      EXPECT_TRUE(got.local() == fresh.local()) << "iter " << t;
      EXPECT_EQ(st.cache_misses, t == 0 ? 1u : 0u);
      EXPECT_EQ(st.cache_hits, t == 0 ? 0u : 1u);
      EXPECT_GT(st.cache_bytes_resident, 0u);
    }
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 1u);
  });
}

// ---- LRU order, budget-forced eviction, rebuild ---------------------------

TEST(PlanCacheLru, EvictionOrderAndForcedRebuild) {
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(110, 5, 4.0, 0.4, 47));
  tenants.push_back(erdos_renyi<double>(110, 3.0, 53));
  tenants.push_back(block_clustered<double>(110, 11, 5.0, 0.3, 59));
  DistSpgemmOptions opt;
  opt.algo = Algo::Summa2D;

  // Pass 1 (unbounded): capture each tenant plan's agreed residency.
  std::vector<std::uint64_t> bytes(3, 0);
  {
    Machine m(4);
    m.run([&](Comm& c) {
      PlanCache<double> cache;
      for (int i = 0; i < 3; ++i) {
        auto da = DistMatrix1D<double>::from_global(
            c, with_values(tenants[static_cast<std::size_t>(i)], i));
        spgemm_dist_cached_mt(c, cache, da, da, opt);
        if (c.rank() == 0) bytes[static_cast<std::size_t>(i)] = cache.entries().front().bytes;
      }
    });
  }
  for (auto b : bytes) ASSERT_GT(b, 0u);

  // Pass 2: budget one byte short of all three — the LRU victim (tenant 0)
  // must be evicted when tenant 2 is admitted, deterministically on every
  // rank; re-requesting tenant 0 is then a miss that rebuilds correctly and
  // evicts the new tail (tenant 1).
  const std::uint64_t budget = bytes[0] + bytes[1] + bytes[2] - 1;
  Machine m(4);
  m.run([&](Comm& c) {
    PlanCache<double> cache(budget, /*demote_window=*/0);
    std::vector<DistMatrix1D<double>> ops;
    for (int i = 0; i < 3; ++i)
      ops.push_back(DistMatrix1D<double>::from_global(
          c, with_values(tenants[static_cast<std::size_t>(i)], i)));
    spgemm_dist_cached_mt(c, cache, ops[0], ops[0], opt);
    spgemm_dist_cached_mt(c, cache, ops[1], ops[1], opt);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    DistSpgemmStats st;
    spgemm_dist_cached_mt(c, cache, ops[2], ops[2], opt, &st);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(st.cache_evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_FALSE(cache.contains(ops[0], ops[0], opt)) << "LRU victim must be tenant 0";
    EXPECT_TRUE(cache.contains(ops[1], ops[1], opt));
    EXPECT_TRUE(cache.contains(ops[2], ops[2], opt));
    EXPECT_LE(cache.stats().bytes_resident, budget);
    EXPECT_EQ(c.report().cache_evictions, 1u);
    EXPECT_GT(c.report().cache_evictions_by_algo[distdetail::algo_slot(Algo::Summa2D)], 0u);

    // Forced rebuild: tenant 0 again is a miss, result still correct.
    DistSpgemmStats st0;
    auto got = spgemm_dist_cached_mt(c, cache, ops[0], ops[0], opt, &st0);
    auto fresh = spgemm_dist(c, ops[0], ops[0], opt);
    EXPECT_TRUE(got.local() == fresh.local());
    EXPECT_EQ(st0.cache_misses, 1u);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_FALSE(cache.contains(ops[1], ops[1], opt)) << "new tail must be tenant 1";
  });
}

TEST(PlanCacheLru, TouchOrderIsMruFirst) {
  auto p0 = block_clustered<double>(100, 5, 4.0, 0.4, 61);
  auto p1 = erdos_renyi<double>(100, 3.0, 67);
  Machine m(2);
  m.run([&](Comm& c) {
    PlanCache<double> cache;
    auto d0 = DistMatrix1D<double>::from_global(c, p0);
    auto d1 = DistMatrix1D<double>::from_global(c, p1);
    spgemm_dist_cached_mt(c, cache, d0, d0);
    spgemm_dist_cached_mt(c, cache, d1, d1);
    // MRU-first after [miss 0, miss 1]: front is tenant 1.
    const auto fp0 = detail1d::fingerprint_of(d0, d0);
    EXPECT_FALSE(cachedetail::fp_equal(cache.entries().front().fp, fp0));
    spgemm_dist_cached_mt(c, cache, d0, d0);  // hit re-orders
    EXPECT_TRUE(cachedetail::fp_equal(cache.entries().front().fp, fp0));
  });
}

TEST(PlanCacheLru, FirstReplayReagreesGridResidency) {
  // A grid plan's first replay keeps its stage row ids and value scratch.
  // The cache must count them: a budget that holds both tenants as built,
  // but not tenant 0 as replayed, evicts tenant 1 on tenant 0's first hit —
  // sequentially and in a batch alike.
  std::vector<CscMatrix<double>> tenants;
  tenants.push_back(block_clustered<double>(110, 5, 4.0, 0.4, 47));
  tenants.push_back(erdos_renyi<double>(110, 3.0, 53));
  DistSpgemmOptions opt;
  opt.algo = Algo::Summa2D;

  // Pass 1 (unbounded): each tenant's agreed bytes as built, and after its
  // first and second hits.
  std::vector<std::uint64_t> built(2, 0), replayed(2, 0);
  {
    Machine m(4);
    m.run([&](Comm& c) {
      PlanCache<double> cache;
      for (std::size_t i = 0; i < 2; ++i) {
        auto da = DistMatrix1D<double>::from_global(c, with_values(tenants[i], 1));
        spgemm_dist_cached_mt(c, cache, da, da, opt);
        const auto& e = cache.entries().front();
        const std::uint64_t b = e.bytes;
        spgemm_dist_cached_mt(c, cache, da, da, opt);
        const std::uint64_t r = e.bytes;
        EXPECT_EQ(r, c.allreduce_max(e.plan->bytes_resident()));
        spgemm_dist_cached_mt(c, cache, da, da, opt);
        EXPECT_EQ(e.bytes, r) << "only the first replay grows a grid plan";
        if (c.rank() == 0) {
          built[i] = b;
          replayed[i] = r;
        }
      }
    });
  }
  for (std::size_t i = 0; i < 2; ++i) ASSERT_GT(replayed[i], built[i]) << "tenant " << i;
  const std::uint64_t budget = built[0] + built[1];
  ASSERT_LE(replayed[0], budget);

  for (const bool batched : {false, true}) {
    Machine m(4);
    m.run([&](Comm& c) {
      PlanCache<double> cache(budget, /*demote_window=*/0);
      std::vector<DistMatrix1D<double>> ops;
      for (std::size_t i = 0; i < 2; ++i)
        ops.push_back(DistMatrix1D<double>::from_global(c, with_values(tenants[i], 2)));
      spgemm_dist_cached_mt(c, cache, ops[0], ops[0], opt);
      spgemm_dist_cached_mt(c, cache, ops[1], ops[1], opt);
      EXPECT_EQ(cache.size(), 2u);
      EXPECT_EQ(cache.stats().evictions, 0u);
      DistMatrix1D<double> got;
      if (batched) {
        std::vector<std::pair<const DistMatrix1D<double>*, const DistMatrix1D<double>*>> items{
            {&ops[0], &ops[0]}};
        got = std::move(spgemm_dist_batched(c, cache, items, opt)[0]);
      } else {
        got = spgemm_dist_cached_mt(c, cache, ops[0], ops[0], opt);
      }
      EXPECT_EQ(cache.stats().evictions, 1u) << "batched=" << batched;
      EXPECT_TRUE(cache.contains(ops[0], ops[0], opt));
      EXPECT_FALSE(cache.contains(ops[1], ops[1], opt)) << "batched=" << batched;
      EXPECT_EQ(cache.stats().bytes_resident, replayed[0]);
      EXPECT_EQ(c.report().cache_bytes_resident, replayed[0]);
      EXPECT_TRUE(got.local() == spgemm_dist(c, ops[0], ops[0], opt).local());
    });
  }
}

// ---- windowed-hop demotion: shed bytes, stay replayable -------------------

TEST(PlanCacheLru, RingDemotionFallbackStaysBitIdentical) {
  auto pat = block_clustered<double>(120, 6, 4.0, 0.4, 71);
  DistSpgemmOptions opt;
  opt.algo = Algo::Ring1D;

  std::uint64_t full_bytes = 0;
  {
    Machine m(4);
    m.run([&](Comm& c) {
      PlanCache<double> cache;
      auto da = DistMatrix1D<double>::from_global(c, with_values(pat, 0));
      spgemm_dist_cached_mt(c, cache, da, da, opt);
      if (c.rank() == 0) full_bytes = cache.entries().front().bytes;
    });
  }
  ASSERT_GT(full_bytes, 0u);

  Machine m(4);
  m.run([&](Comm& c) {
    // Budget one byte short of the full ring program: the end-of-batch
    // eviction pass must *demote* the plan to its hop window instead of
    // dropping it — bytes shrink, the entry stays, and later requests hit
    // it through the windowed replay path, still bit-identical.
    PlanCache<double> cache(full_bytes - 1, /*demote_window=*/2);
    auto d0 = DistMatrix1D<double>::from_global(c, with_values(pat, 0));
    Items items{{&d0, &d0}};
    auto got0 = spgemm_dist_batched(c, cache, items, opt);
    auto fresh0 = spgemm_dist(c, d0, d0, opt);
    EXPECT_TRUE(got0[0].local() == fresh0.local());
    EXPECT_EQ(cache.stats().demotions, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_LT(cache.stats().bytes_resident, full_bytes);
    EXPECT_EQ(c.report().cache_demotions, 1u);

    for (int t = 1; t < 3; ++t) {
      auto da = DistMatrix1D<double>::from_global(c, with_values(pat, t));
      DistSpgemmStats st;
      auto got = spgemm_dist_cached_mt(c, cache, da, da, opt, &st);
      auto fresh = spgemm_dist(c, da, da, opt);
      EXPECT_TRUE(got.local() == fresh.local()) << "windowed replay iter " << t;
      EXPECT_EQ(st.cache_hits, 1u) << "demoted plan must still be a hit";
    }
    EXPECT_EQ(cache.stats().demotions, 1u) << "demotion happens once, not per request";
  });
}

// ---- structure-hash negative: equal quick fingerprints must not alias -----

TEST(PlanCacheNegative, QuickFingerprintCollisionIsNotAHit) {
  // Shift-1 vs shift-2 circulants: identical dims, nnz, and per-rank
  // nzc/nnz — only the structure hashes differ. The second tenant must be
  // a miss with its own entry, and both results must stay correct.
  auto c1 = circulant(96, 1, 0.5);
  auto c2 = circulant(96, 2, 0.5);
  Machine m(4);
  m.run([&](Comm& c) {
    auto d1 = DistMatrix1D<double>::from_global(c, c1);
    auto d2 = DistMatrix1D<double>::from_global(c, c2);
    // Preconditions for the negative: the cheap fields really do collide.
    const auto f1 = detail1d::fingerprint_of(d1, d1);
    const auto f2 = detail1d::fingerprint_of(d2, d2);
    ASSERT_TRUE(f1.quick_equals(f2));
    ASSERT_FALSE(cachedetail::fp_equal(f1, f2));

    PlanCache<double> cache;
    DistSpgemmOptions opt;
    opt.algo = Algo::Ring1D;
    auto r1 = spgemm_dist_cached_mt(c, cache, d1, d1, opt);
    DistSpgemmStats st;
    auto r2 = spgemm_dist_cached_mt(c, cache, d2, d2, opt, &st);
    EXPECT_EQ(st.cache_misses, 1u) << "hash collision would have replayed the wrong plan";
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(r1.local() == spgemm_dist(c, d1, d1, opt).local());
    EXPECT_TRUE(r2.local() == spgemm_dist(c, d2, d2, opt).local());
  });
}

// ---- coherence guard: divergent decisions fail typed, never hang ----------

TEST(PlanCacheCoherence, DivergentDecisionIsUniformValidationError) {
  auto pat = block_clustered<double>(100, 5, 4.0, 0.4, 73);
  DistSpgemmOptions opt;
  opt.algo = Algo::Summa2D;
  Machine m(4);
  auto out = run_capture(m, [&](Comm& c) {
    PlanCache<double> cache;
    auto d0 = DistMatrix1D<double>::from_global(c, with_values(pat, 0));
    spgemm_dist_cached_mt(c, cache, d0, d0, opt);
    // Rank 1 silently loses the entry (the rank-local test hook): the next
    // request's vote diverges (h... vs m) and must throw the identical
    // ValidationError on every rank instead of hanging in mismatched
    // collectives.
    if (c.rank() == 1) EXPECT_TRUE(cache.erase_local(d0, d0, opt));
    auto d1 = DistMatrix1D<double>::from_global(c, with_values(pat, 1));
    spgemm_dist_cached_mt(c, cache, d1, d1, opt);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Validation) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].what, out[0].what)
        << "rank " << r << " must see the same message";
  }
  EXPECT_NE(out[0].what.find("spgemm_dist_cached_mt"), std::string::npos);
}

TEST(PlanCacheCoherence, DivergentBatchVoteIsUniformValidationError) {
  auto pat = block_clustered<double>(100, 5, 4.0, 0.4, 79);
  DistSpgemmOptions opt;
  opt.algo = Algo::Ring1D;
  Machine m(4);
  auto out = run_capture(m, [&](Comm& c) {
    PlanCache<double> cache;
    auto d0 = DistMatrix1D<double>::from_global(c, with_values(pat, 0));
    Items warm{{&d0, &d0}};
    spgemm_dist_batched(c, cache, warm, opt);
    if (c.rank() == 2) EXPECT_TRUE(cache.erase_local(d0, d0, opt));
    auto d1 = DistMatrix1D<double>::from_global(c, with_values(pat, 1));
    auto d2 = DistMatrix1D<double>::from_global(c, with_values(pat, 2));
    Items batch{{&d1, &d1}, {&d2, &d2}};
    spgemm_dist_batched(c, cache, batch, opt);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Validation) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].what, out[0].what) << "rank " << r;
  }
  EXPECT_NE(out[0].what.find("spgemm_dist_batched"), std::string::npos);
}

// ---- chaos: RankAbort mid-batch --------------------------------------------

TEST(PlanCacheChaos, RankAbortMidBatchFailsEveryRankTyped) {
  auto pat = block_clustered<double>(110, 5, 4.0, 0.4, 83);
  DistSpgemmOptions opt;
  opt.algo = Algo::Summa2D;

  // Clean pass: mark the comm-op interval the hot fused batch occupies.
  std::uint64_t batch_lo = 0, batch_hi = 0;
  {
    Machine m(4);
    m.run([&](Comm& c) {
      PlanCache<double> cache;
      std::vector<DistMatrix1D<double>> ops;
      for (int t = 0; t < 4; ++t)
        ops.push_back(DistMatrix1D<double>::from_global(c, with_values(pat, t)));
      Items warm{{&ops[0], &ops[0]}};
      spgemm_dist_batched(c, cache, warm, opt);
      if (c.rank() == 0) batch_lo = c.report().comm_ops;
      Items batch{{&ops[1], &ops[1]}, {&ops[2], &ops[2]}, {&ops[3], &ops[3]}};
      spgemm_dist_batched(c, cache, batch, opt);
      if (c.rank() == 0) batch_hi = c.report().comm_ops;
    });
  }
  ASSERT_GT(batch_hi, batch_lo);

  // Chaos pass: rank 2 dies in the middle of the fused replay. Peer faults
  // are not recoverable — every rank must unwind with the same typed error,
  // and the pinned-entry bookkeeping must not corrupt the unwind (ASan job
  // runs this test too).
  MachineOptions o;
  o.faults.actions.push_back(
      {.kind = FaultKind::RankAbort, .rank = 2, .op_index = (batch_lo + batch_hi) / 2});
  Machine m(4, {}, o);
  auto out = run_capture(m, [&](Comm& c) {
    PlanCache<double> cache;
    std::vector<DistMatrix1D<double>> ops;
    for (int t = 0; t < 4; ++t)
      ops.push_back(DistMatrix1D<double>::from_global(c, with_values(pat, t)));
    Items warm{{&ops[0], &ops[0]}};
    spgemm_dist_batched(c, cache, warm, opt);
    Items batch{{&ops[1], &ops[1]}, {&ops[2], &ops[2]}, {&ops[3], &ops[3]}};
    spgemm_dist_batched(c, cache, batch, opt);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(out[static_cast<std::size_t>(r)].ok) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)].cls, FaultClass::Peer) << "rank " << r;
    // Surviving ranks agree on the peer-failure message; the victim itself
    // reports the injected abort.
    if (r != 2) EXPECT_EQ(out[static_cast<std::size_t>(r)].what, out[0].what) << "rank " << r;
  }
}

// ---- counters are mode-invariant across overlap ---------------------------

TEST(PlanCacheCounters, InvariantAcrossOverlapModes) {
  auto p0 = block_clustered<double>(110, 5, 4.0, 0.4, 89);
  auto p1 = erdos_renyi<double>(110, 3.0, 97);
  auto trace = [&](bool overlap, std::uint64_t* hits, std::uint64_t* misses,
                   std::uint64_t* evictions) {
    Machine m(4);
    DistSpgemmOptions opt;
    opt.algo = Algo::Summa2D;
    opt.overlap = overlap;
    m.run([&](Comm& c) {
      PlanCache<double> cache;
      std::vector<DistMatrix1D<double>> ops;
      for (int t = 0; t < 4; ++t)
        ops.push_back(DistMatrix1D<double>::from_global(
            c, with_values(t % 2 == 0 ? p0 : p1, t)));
      spgemm_dist_cached_mt(c, cache, ops[0], ops[0], opt);
      Items batch{{&ops[1], &ops[1]}, {&ops[2], &ops[2]}, {&ops[3], &ops[3]}};
      spgemm_dist_batched(c, cache, batch, opt);
      if (c.rank() == 0) {
        *hits = c.report().cache_hits;
        *misses = c.report().cache_misses;
        *evictions = c.report().cache_evictions;
      }
    });
  };
  std::uint64_t h0 = 0, m0 = 0, e0 = 0, h1 = 0, m1 = 0, e1 = 0;
  trace(false, &h0, &m0, &e0);
  trace(true, &h1, &m1, &e1);
  // The cache's observable behavior must not depend on the comm engine
  // mode: same trace, same hit/miss/eviction counts either way.
  EXPECT_EQ(h0, h1);
  EXPECT_EQ(m0, m1);
  EXPECT_EQ(e0, e1);
  EXPECT_EQ(m0, 2u);  // two tenants, first touch each
  EXPECT_EQ(h0, 2u);  // the other two requests hit
}

}  // namespace
}  // namespace sa1d
