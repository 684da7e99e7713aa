// Microbenchmarks of the local SpGEMM kernels (the compute substrate of
// every distributed algorithm): heap vs hash vs hybrid vs SPA across
// structure classes and fill factors, and the engine's three phases
// (symbolic, class numeric, value-only replay) timed apart.
//
// Two modes:
//   - default: google-benchmark harness (human-oriented, CLI filters work)
//   - --json[=PATH]: manual timing harness that writes the machine-readable
//     BENCH_local_spgemm.json (GFLOP/s per kernel × dataset × threads, and
//     ns/flop per phase × dataset × threads) so successive PRs can track
//     the local-multiply trajectory; see EXPERIMENTS.md for the schema and
//     DESIGN.md §3 for the bench index.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/spgemm_local.hpp"
#include "sparse/datasets.hpp"
#include "sparse/generators.hpp"
#include "util/timer.hpp"

namespace {

using namespace sa1d;

/// Generator instances (kernel and phase rows) come first; the rest are
/// timed in the phase rows only: the repo benchmark's instances
/// (perfbench: square-replay's eukarya-like at scale 0.1, square-fresh's
/// hv15r-like at 0.06, both seed 42 at SA1D_SCALE=1), then a hypersparse
/// Erdős–Rényi instance whose row dimension (2^16 at scale 1, at least
/// 2^14) is far above the engine's cache-resident bound, so Hybrid sends
/// its columns to the heap and hash classes.
constexpr int kNumGenerators = 4;
constexpr int kNumDatasets = 7;

CscMatrix<double> make_bench_matrix(int gen, double scale) {
  auto n = static_cast<index_t>(4096 * scale);
  switch (gen) {
    case 0: return erdos_renyi<double>(std::max<index_t>(n, 64), 8.0, 11);
    case 1: return mesh2d<double>(std::max<index_t>(static_cast<index_t>(64 * std::sqrt(scale)), 8));
    case 2: return block_clustered<double>(std::max<index_t>(n, 64), 32, 8.0, 0.5, 7);
    case 3: {
      auto sc = std::max(4, static_cast<int>(12 + std::log2(std::max(scale, 0.01))));
      return rmat<double>(sc, 8, 3);
    }
    case 4: return make_dataset(Dataset::EukaryaLike, 0.1 * scale);
    case 5: return make_dataset(Dataset::Hv15rLike, 0.06 * scale);
    default:
      return erdos_renyi<double>(std::max<index_t>(static_cast<index_t>(65536 * scale), 16384),
                                 6.0, 13);
  }
}

const CscMatrix<double>& matrix_for(int gen) {
  static std::vector<CscMatrix<double>> cache = [] {
    std::vector<CscMatrix<double>> m;
    m.reserve(kNumDatasets);
    for (int g = 0; g < kNumDatasets; ++g) m.push_back(make_bench_matrix(g, bench::bench_scale()));
    return m;
  }();
  return cache[static_cast<std::size_t>(gen)];
}

const char* gen_name(int gen) {
  switch (gen) {
    case 0: return "erdos-renyi";
    case 1: return "mesh2d";
    case 2: return "clustered";
    case 3: return "rmat";
    case 4: return "eukarya-like";
    case 5: return "hv15r-like";
    default: return "er-hypersparse";
  }
}

void BM_Spgemm(benchmark::State& state) {
  auto kernel = static_cast<LocalKernel>(state.range(0));
  const auto& a = matrix_for(static_cast<int>(state.range(1)));
  index_t flops = total_flops(a, a);
  for (auto _ : state) {
    auto c = spgemm(a, a, kernel);
    benchmark::DoNotOptimize(c.nnz());
  }
  state.SetItemsProcessed(state.iterations() * flops);
  state.SetLabel(std::string(kernel_name(kernel)) + "/" +
                 gen_name(static_cast<int>(state.range(1))));
}

void BM_Symbolic(benchmark::State& state) {
  const auto& a = matrix_for(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto f = symbolic_flops(a, a);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetLabel(gen_name(static_cast<int>(state.range(0))));
}

// ---- machine-readable JSON harness ----------------------------------------

struct JsonRow {
  const char* kernel;
  const char* dataset;
  int threads;
  double gflops;
  double best_ms;
  index_t flops;
  index_t out_nnz;
  int reps;
};

/// Best-of-N wall time of one multiply configuration; at least `min_reps`
/// repetitions and at least `min_seconds` of total measurement.
JsonRow measure(LocalKernel k, int gen, int threads, int min_reps = 3,
                double min_seconds = 0.25) {
  const auto& a = matrix_for(gen);
  index_t flops = total_flops(a, a);
  double best = 1e300, total = 0;
  index_t out_nnz = 0;
  int reps = 0;
  while (reps < min_reps || total < min_seconds) {
    WallTimer t;
    auto c = spgemm(a, a, k, threads);
    double s = t.seconds();
    out_nnz = c.nnz();
    best = std::min(best, s);
    total += s;
    ++reps;
    if (reps > 200) break;
  }
  // One flop = one multiply + one add, per the usual SpGEMM convention.
  double gflops = 2.0 * static_cast<double>(flops) / best / 1e9;
  return {kernel_name(k), gen_name(gen), threads, gflops, 1e3 * best, flops, out_nnz, reps};
}

/// Best-of-N wall seconds of fn(): at least `min_reps` repetitions and at
/// least `min_seconds` of total measurement, at most 500 repetitions.
template <typename F>
double best_seconds(F&& fn, int* reps_out, int min_reps = 5, double min_seconds = 0.2) {
  double best = 1e300, total = 0;
  int reps = 0;
  while ((reps < min_reps || total < min_seconds) && reps < 500) {
    WallTimer t;
    fn();
    const double s = t.seconds();
    best = std::min(best, s);
    total += s;
    ++reps;
  }
  *reps_out = reps;
  return best;
}

struct PhaseRow {
  const char* phase;
  const char* dataset;
  int threads;
  double ns_per_flop;
  double best_ms;
  index_t flops;
  index_t out_nnz;
  int reps;
  std::uint64_t workspace_bytes;
};

/// The engine's phases on A·A, each timed on its own with warm per-thread
/// workspaces (what a cached plan sees): the symbolic pass, the class
/// numeric pass (per-column accumulator classes; allocates and fills C's
/// row ids and values), and the value-only replay into a preallocated
/// value array over the row ids the numeric pass returned. The replay's
/// values are checked bit for bit against the numeric pass. Each row also
/// records the per-thread workspace bytes held after its phase; the
/// workspaces are grow-only and shared by the three phases, so the replay
/// row equals the numeric row unless the replay grew them.
void measure_phases(int gen, int threads, std::vector<PhaseRow>& rows) {
  using SR = PlusTimes<double>;
  const auto& a = matrix_for(gen);
  const index_t flops = total_flops(a, a);
  std::vector<detail::Workspace<SR>> ws;
  LocalSymbolic sym;
  CscMatrix<double> c;
  int reps = 0;
  auto add = [&](const char* phase, double s) {
    std::uint64_t wsb = 0;
    for (const auto& w : ws) wsb += w.bytes();
    rows.push_back({phase, gen_name(gen), threads, 1e9 * s / static_cast<double>(flops), 1e3 * s,
                    flops, c.nnz(), reps, wsb});
  };
  double s = best_seconds(
      [&] { sym = spgemm_local_symbolic<SR, double>(a, a, LocalKernel::Hybrid, threads, &ws); },
      &reps);
  c = spgemm_local_numeric<SR, double>(a, a, sym, &ws);
  add("symbolic", s);
  s = best_seconds([&] { c = spgemm_local_numeric<SR, double>(a, a, sym, &ws); }, &reps);
  add("numeric", s);
  std::vector<double> vals(c.vals().size());
  s = best_seconds(
      [&] { spgemm_local_replay<SR, double>(a, a, sym, c.rowids(), vals, &ws); }, &reps);
  add("replay", s);
  if (!vals.empty() &&
      std::memcmp(vals.data(), c.vals().data(), vals.size() * sizeof(double)) != 0) {
    std::fprintf(stderr, "replay values differ from the numeric pass on %s t=%d\n",
                 gen_name(gen), threads);
    std::exit(1);
  }
}

int run_json(const std::string& path) {
  // Open the output before measuring: a bad path should fail in
  // milliseconds, not after minutes of timing runs.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  const LocalKernel kernels[] = {LocalKernel::Spa, LocalKernel::Heap, LocalKernel::Hash,
                                 LocalKernel::Hybrid};
  const int thread_counts[] = {1, 2, 4};
  std::vector<JsonRow> rows;
  for (int gen = 0; gen < kNumGenerators; ++gen)
    for (auto k : kernels)
      for (int t : thread_counts) {
        rows.push_back(measure(k, gen, t));
        std::fprintf(stderr, "  %-7s %-12s t=%d  %8.3f ms  %7.3f GFLOP/s\n",
                     rows.back().kernel, rows.back().dataset, t, rows.back().best_ms,
                     rows.back().gflops);
      }
  std::vector<PhaseRow> phases;
  for (int gen = 0; gen < kNumDatasets; ++gen)
    for (int t : thread_counts) {
      measure_phases(gen, t, phases);
      const auto* p = &phases[phases.size() - 3];
      std::fprintf(stderr,
                   "  %-14s t=%d  symbolic %6.2f  numeric %6.2f  replay %6.2f ns/flop"
                   "  workspace %llu -> %llu B\n",
                   p[0].dataset, t, p[0].ns_per_flop, p[1].ns_per_flop, p[2].ns_per_flop,
                   static_cast<unsigned long long>(p[1].workspace_bytes),
                   static_cast<unsigned long long>(p[2].workspace_bytes));
    }
  std::fprintf(f, "{\n  \"bench\": \"local_spgemm\",\n  \"scale\": %.4f,\n", bench::bench_scale());
  std::fprintf(f, "  \"unit\": \"GFLOP/s\",\n");
  std::fprintf(f, "  \"flop_definition\": \"2 * sum_j flops(j); flops(j) = sum_{k in B(:,j)} nnz(A(:,k))\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"dataset\": \"%s\", \"threads\": %d, "
                 "\"gflops\": %.6f, \"best_ms\": %.6f, \"flops\": %lld, \"output_nnz\": %lld, "
                 "\"reps\": %d}%s\n",
                 r.kernel, r.dataset, r.threads, r.gflops, r.best_ms,
                 static_cast<long long>(r.flops), static_cast<long long>(r.out_nnz), r.reps,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"phase_unit\": \"ns/flop\",\n");
  std::fprintf(f, "  \"phase_flop_definition\": \"one multiply-add: sum_j flops(j)\",\n");
  std::fprintf(f, "  \"phases\": [\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& r = phases[i];
    std::fprintf(f,
                 "    {\"phase\": \"%s\", \"dataset\": \"%s\", \"threads\": %d, "
                 "\"ns_per_flop\": %.4f, \"best_ms\": %.6f, \"flops\": %lld, "
                 "\"output_nnz\": %lld, \"reps\": %d, \"workspace_bytes\": %llu}%s\n",
                 r.phase, r.dataset, r.threads, r.ns_per_flop, r.best_ms,
                 static_cast<long long>(r.flops), static_cast<long long>(r.out_nnz), r.reps,
                 static_cast<unsigned long long>(r.workspace_bytes),
                 i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

BENCHMARK(BM_Spgemm)
    ->ArgsProduct({{static_cast<long>(sa1d::LocalKernel::Spa),
                    static_cast<long>(sa1d::LocalKernel::Heap),
                    static_cast<long>(sa1d::LocalKernel::Hash),
                    static_cast<long>(sa1d::LocalKernel::Hybrid)},
                   {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Symbolic)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return run_json("BENCH_local_spgemm.json");
    if (std::strncmp(argv[i], "--json=", 7) == 0) return run_json(argv[i] + 7);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
