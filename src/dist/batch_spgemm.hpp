// Batched small-multiply fusion: spgemm_dist_batched admits k multiplies
// against the multi-tenant plan cache (runtime/plan_cache.hpp), builds the
// misses, and replays the hits in groups through DistSpgemmPlan::replay_batch
// — the same member pipeline every solo replay runs, over each backend's
// batch-native value replay. A group shares every phase's collectives (one
// concatenated alltoallv per ring hop / route exchange, one row and one
// column broadcast per SUMMA stage, one RDMA fetch wave and one barrier for
// SA-1D), so k small multiplies pay ~1× the per-message latency (alpha) per
// phase instead of k×, while each member's byte volume, compute order, and
// ⊕-fold program are untouched.
//
// Bit-identity contract: every member's result equals its own sequential
// spgemm_dist_cached call, bit for bit. Payloads concatenate member-major
// within each destination chunk and are consumed in ascending-source-then-
// member order; each member runs its own multiply loops and fold programs
// with its own flat counters, so no floating-point operation is reordered.
//
// Ordering model (DESIGN.md §11): lookups, votes, admissions, builds, and
// groups are all derived in item order by every rank from agreed state, so
// the collective sequence is identical machine-wide. Members are grouped by
// DistSpgemmPlan::fuse_key (backend + grid shape + layer count); a plan may
// appear at most once per group (members of the same tenant share scratch),
// and panelized and windowed ring plans replay solo. A recoverable fault
// (CorruptionDetected / PlanMismatch) during the batch unwinds every rank
// identically; the batch-level retry drops the touched entries, recovers
// collectively, and re-runs the whole batch as uniform misses — bounded by
// max_recovery_retries.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "runtime/plan_cache.hpp"

namespace sa1d {

/// Batched multi-tenant SpGEMM: resolves every item against the plan cache
/// with ONE fused validation exchange and ONE fused coherence vote, builds
/// the misses in item order, then replays the hits in fused groups (one set
/// of collectives per group instead of per member). Results are returned in
/// item order and are bit-identical to sequential spgemm_dist_cached_mt
/// calls; `stats` (optional) is resized to the item count.
template <typename SRIn = void, typename VT>
std::vector<DistMatrix1D<VT>> spgemm_dist_batched(
    Comm& comm, PlanCache<VT, ResolveSemiring<SRIn, VT>>& cache,
    const std::vector<std::pair<const DistMatrix1D<VT>*, const DistMatrix1D<VT>*>>& items,
    const DistSpgemmOptions& opt = {}, std::vector<DistSpgemmStats>* stats = nullptr) {
  using SR = ResolveSemiring<SRIn, VT>;
  using Entry = typename PlanCache<VT, SR>::Entry;
  using Plan = DistSpgemmPlan<VT, SR>;
  const std::size_t n = items.size();
  std::vector<DistMatrix1D<VT>> results(n);
  if (stats != nullptr) stats->assign(n, DistSpgemmStats{});
  if (n == 0) return results;
  ++comm.report().toplevel_calls;
  // Outermost gauge scope: the batch's peak covers plan residency plus every
  // member's build/replay transients.
  MemGaugeScope gauge(comm.report());

  // (1) Fused batch validation: one control exchange covers the options
  // digest, every item's shape, and the first local validation failure —
  // the same rank-consistency contract as validate_collective, paid once.
  {
    std::string digest;
    std::string verdict;
    {
      auto ph = comm.phase(Phase::Other);
      digest = distdetail::validation_digest(opt, std::span(items));
      for (std::size_t i = 0; i < n && verdict.empty(); ++i) {
        const std::string e = distdetail::local_validation_error(
            comm.size(), opt.algo, *items[i].first, *items[i].second, opt, comm.injector());
        if (!e.empty()) verdict = "batch item " + std::to_string(i) + ": " + e;
      }
    }
    distdetail::vote_validation(comm, digest, verdict, "spgemm_dist_batched");
  }

  // Fingerprints are structure-only: compute once per item, reused across
  // retries.
  std::vector<StructureFingerprint> fps(n);
  {
    auto ph = comm.phase(Phase::Other);
    for (std::size_t i = 0; i < n; ++i)
      fps[i] = detail1d::fingerprint_of(*items[i].first, *items[i].second);
  }

  // Batch-level self-healing: a recoverable fault unwinds every rank with
  // the identical typed error; drop the touched entries, recover, re-run
  // the whole batch as uniform misses.
  int attempts = 0;
  for (;;) {
    std::vector<Entry*> touched;
    try {
      // (2) Cache resolution + ONE fused coherence vote. An item whose key
      // was already missed earlier in this batch is a *deferred hit*: it
      // replays the entry the earlier item is about to build.
      std::vector<Entry*> entries(n);
      std::vector<std::size_t> miss_items;
      std::string vote;
      for (std::size_t i = 0; i < n; ++i) {
        Entry* e = cache.find(fps[i], opt);
        bool hit = e != nullptr;
        if (!hit) {
          // Within-batch duplicate? Defer onto the pending admission.
          for (auto j : miss_items) {
            if (cachedetail::fp_equal(fps[j], fps[i])) {
              e = entries[j];
              hit = true;
              vote += "d" + std::to_string(j) + ";";
              break;
            }
          }
        } else {
          vote += "h" + std::to_string(e->seq) + ";";
        }
        if (!hit) {
          e = &cache.admit(fps[i], opt);
          miss_items.push_back(i);
          vote += "m;";
        }
        entries[i] = e;
        bool known = false;
        for (auto* t : touched) known = known || t == e;
        if (!known) touched.push_back(e);
      }
      cachedetail::vote_uniform(comm, vote + "/b" + std::to_string(cache.budget()),
                                "spgemm_dist_batched");

      // ONE counted reuse-check collective for the whole batch — the
      // data-plane twin of the per-call matches() allreduce the sequential
      // path pays per multiply (this is the verification alpha the batch
      // amortizes k×). Local verdict: every hit member's full fingerprint
      // must equal its entry's; misses verify through build() itself.
      {
        int ok = 1;
        {
          auto ph = comm.phase(Phase::Other);
          for (std::size_t i = 0; i < n; ++i) {
            const Entry* e = entries[i];
            if (e->plan != nullptr && !e->plan->empty() &&
                !cachedetail::fp_equal(e->fp, fps[i]))
              ok = 0;
          }
        }
        if (comm.allreduce(ok, [](int x, int y) { return x < y ? x : y; }) != 1)
          comm.fail(FaultClass::PlanMismatch, "spgemm_dist_batched",
                    "spgemm_dist_batched: a rank's operands diverged from the "
                    "batch's cached plans after the coherence vote");
      }

      // Pin every batch entry: building or evicting for one member must not
      // drop a plan another member is about to replay. Mirror the
      // sequential LRU order (touch in item order; admissions are already
      // at the front in admission order).
      for (std::size_t i = 0; i < n; ++i) {
        entries[i]->pinned = true;
        cache.touch(entries[i]);
      }

      // (3) Build the misses sequentially in item order (each build is the
      // member's own result — the fresh multiply IS its execution).
      for (auto i : miss_items) {
        Entry& e = *entries[i];
        results[i] = e.plan->build(comm, *items[i].first, *items[i].second, opt,
                                   stats != nullptr ? &(*stats)[i] : nullptr);
        e.bytes = cachedetail::agree_max_bytes(comm, e.plan->bytes_resident());
        cache.record_miss(comm);
        if (stats != nullptr) (*stats)[i].cache_misses = 1;
      }

      // (4) Group the hit members by fuse key. A plan appears at most once
      // per group (same-tenant members share replay scratch); a plan with an
      // empty key (panelized, windowed ring) replays solo.
      struct Group {
        std::string key;
        std::vector<std::size_t> idx;
      };
      std::vector<Group> groups;
      for (std::size_t i = 0; i < n; ++i) {
        bool was_miss = false;
        for (auto j : miss_items) was_miss = was_miss || j == i;
        if (was_miss) continue;
        const std::string key = entries[i]->plan->fuse_key();
        Group* g = nullptr;
        for (auto& cand : groups) {
          if (key.empty() || cand.key != key) continue;
          bool has_plan = false;
          for (auto j : cand.idx) has_plan = has_plan || entries[j] == entries[i];
          if (!has_plan) {
            g = &cand;
            break;
          }
        }
        if (g == nullptr) {
          groups.push_back(Group{key, {}});
          g = &groups.back();
        }
        g->idx.push_back(i);
      }

      // (5) Replay the groups in first-occurrence order; a group of one is
      // the solo replay.
      for (const auto& g : groups) {
        std::vector<typename Plan::Member> ms;
        for (auto i : g.idx)
          ms.push_back({entries[i]->plan.get(), items[i].first, items[i].second,
                        stats != nullptr ? &(*stats)[i] : nullptr});
        auto cs = Plan::replay_batch(comm, std::span<const typename Plan::Member>(ms));
        for (std::size_t m = 0; m < g.idx.size(); ++m) {
          const std::size_t i = g.idx[m];
          results[i] = std::move(cs[m]);
          cache.record_hit(comm, entries[i]->plan->chosen());
          cache.reagree_after_hit(comm, entries[i], /*rebuilt=*/false);
          if (stats != nullptr) (*stats)[i].cache_hits = 1;
        }
      }

      // (6) Release the pins, then run the deferred eviction pass once for
      // the whole batch.
      const std::uint64_t ev_before = cache.stats().evictions;
      for (std::size_t i = 0; i < n; ++i) entries[i]->pinned = false;
      cache.enforce_budget(comm);
      cache.publish_gauge(comm);
      if (stats != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
          (*stats)[i].recoveries = attempts;
          (*stats)[i].cache_evictions = cache.stats().evictions - ev_before;
          (*stats)[i].cache_bytes_resident = cache.stats().bytes_resident;
        }
      }
      return results;
    } catch (const Sa1dError& e) {
      const bool recoverable = e.fault_class() == FaultClass::Corruption ||
                               e.fault_class() == FaultClass::PlanMismatch;
      // Errors unwind machine-wide with identical state, so every rank
      // unpins/erases the same entries whether or not it can retry. Every
      // batch entry is dropped — a hit's cached plan may be the corrupt
      // one — so the retry re-runs the whole batch as uniform misses.
      cache.unpin_all();
      for (auto* t : touched) cache.erase_entry(t);
      if (!recoverable || attempts >= opt.max_recovery_retries) throw;
      ++attempts;
      comm.recover();  // collective; rethrows if the fault turned fatal
      distdetail::vote_recovery_alignment(comm, "spgemm_dist_batched");
      ++comm.report().plan_recoveries;
    }
  }
}

}  // namespace sa1d
