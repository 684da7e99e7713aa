// The repository benchmark: every distributed SpGEMM backend on a 4-rank
// simulated Machine, timed end to end on three workloads and traced layer by
// layer from outside. README.md in this directory documents the workloads,
// the metric -> layer -> workload map, and how to open the trace.
//
//   perfbench_sa1d --workload square-fresh|square-replay|mcl --seed N
//                  --seconds S [--trace PATH]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and a metrics map (end-to-end metrics without --trace, per-layer
// metrics with it). perfbench/run.py builds this program and wraps it.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sa1d.hpp"
#include "trace.hpp"

namespace {

using namespace sa1d;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 4;
constexpr std::array<Algo, 5> kBackends = {Algo::Auto, Algo::SparseAware1D, Algo::Ring1D,
                                           Algo::Summa2D, Algo::Split3D};

enum class Kind { SquareFresh, SquareReplay, Mcl };

// Instance sizes. Each is small enough that every backend completes well
// over 100 timed operations in a 36 s run, so its tail is a p90 with at
// least ten samples beyond it.
constexpr double kFreshScale = 0.06;   // hv15r-like: 1440 rows
constexpr double kReplayScale = 0.1;   // eukarya-like: 2000 rows
constexpr int kReplayValueSets = 4;    // value sets cycled over one pattern
constexpr int kReplayHorizon = 100;    // expected_iterations the replay plans declare
constexpr index_t kMclVertices = 300;  // hidden-community graph for MCL
constexpr index_t kMclCommunities = 12;

// A run is a sequence of passes, repeated until the run's time is spent. A
// pass gives every backend one Machine::run (set-up, one warm-up operation,
// then a fixed number of timed operations), in an order rotated from pass to
// pass. Every backend thus gets the same number of samples, spread over the
// whole run, so a slow spell of the host lands on all of them alike. Passes
// that start in the first kWarmupSeconds are checked but not timed: after the
// host has idled, the first seconds of a run are up to four times slower.
constexpr double kWarmupSeconds = 3.0;
constexpr int kMaxPasses = 1000;

int ops_per_pass(Kind kind) {
  switch (kind) {
    case Kind::SquareFresh: return 12;
    case Kind::SquareReplay: return 40;  // amortizes the plan builds of set-up
    case Kind::Mcl: return 10;
  }
  return 1;
}

constexpr int kSerialRepeats = 5;  // repeats of each serial kernels-layer measurement

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile on the ladder {90, 75, 50} that still has at least
/// ten samples above it (nearest-rank definition). A fixed ladder keeps the
/// reported percentile the same from run to run while sample counts wobble;
/// it stops at p90 because higher percentiles of a few hundred samples mostly
/// measure the host's scheduling hiccups.
struct Tail {
  double value = 0.0;
  int percentile = 0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (int p : {90, 75, 50}) {
    const auto rank = static_cast<std::size_t>(std::ceil(static_cast<double>(p) * n / 100.0));
    if (rank >= 1 && n - rank >= 10) {
      t.value = v[rank - 1];
      t.percentile = p;
      return t;
    }
  }
  t.value = v.back();
  t.percentile = 100;
  return t;
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---- per-rank counter deltas ----------------------------------------------

/// What one rank did during one call, read from the RankReport counters the
/// program already keeps, plus the rank thread's CPU time around the call.
struct RankDelta {
  double comp = 0, plan = 0, other = 0, comm_wait = 0, hidden = 0, cpu = 0;
  std::uint64_t net_bytes = 0, net_msgs = 0, rdma_bytes = 0, rdma_msgs = 0;
  std::uint64_t builds = 0, replays = 0, peak_bytes = 0;
  std::array<std::uint64_t, 5> builds_by_algo{};
};

RankDelta delta(const RankReport& a, const RankReport& b, double cpu) {
  RankDelta d;
  d.comp = b.comp_s - a.comp_s;
  d.plan = b.plan_s - a.plan_s;
  d.other = b.other_s - a.other_s;
  d.comm_wait = b.comm_s - a.comm_s;
  d.hidden = b.overlap_s - a.overlap_s;
  d.cpu = cpu;
  d.net_bytes = b.bytes_network() - a.bytes_network();
  d.net_msgs = b.msgs_network() - a.msgs_network();
  d.rdma_bytes = b.rdma_bytes - a.rdma_bytes;
  d.rdma_msgs = b.rdma_msgs - a.rdma_msgs;
  for (std::size_t s = 0; s < 5; ++s) {
    d.builds_by_algo[s] = b.plan_builds[s] - a.plan_builds[s];
    d.builds += d.builds_by_algo[s];
    d.replays += b.plan_replays[s] - a.plan_replays[s];
  }
  d.peak_bytes = b.peak_bytes;
  return d;
}

std::string delta_args(const RankDelta& d) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "\"comp_s\":%.9f,\"plan_s\":%.9f,\"other_s\":%.9f,\"comm_wait_s\":%.9f,"
                "\"comm_hidden_s\":%.9f,\"cpu_s\":%.9f,\"net_bytes\":%llu,\"net_msgs\":%llu,"
                "\"rdma_bytes\":%llu,\"rdma_msgs\":%llu,\"plan_builds\":%llu,"
                "\"plan_replays\":%llu,\"peak_bytes\":%llu",
                d.comp, d.plan, d.other, d.comm_wait, d.hidden, d.cpu,
                static_cast<unsigned long long>(d.net_bytes),
                static_cast<unsigned long long>(d.net_msgs),
                static_cast<unsigned long long>(d.rdma_bytes),
                static_cast<unsigned long long>(d.rdma_msgs),
                static_cast<unsigned long long>(d.builds),
                static_cast<unsigned long long>(d.replays),
                static_cast<unsigned long long>(d.peak_bytes));
  return buf;
}

// ---- workloads --------------------------------------------------------------

/// Everything the benchmark generates before timing: the operands handed to
/// the program, and the serial references its outputs are checked against.
struct Inputs {
  Kind kind = Kind::SquareFresh;
  std::vector<CscMatrix<double>> operands;          // value sets of A, or the MCL graph
  std::vector<std::vector<CscMatrix<double>>> ref;  // ref[value set][rank]: C's column slice
  MclOptions mcl;                                   // backend is set per call
  MclResult mcl_ref;
  CscMatrix<double> kernel_operand;  // the matrix the kernels layer squares serially
  std::uint64_t flops = 0;           // multiply-adds per operation
};

/// MCL's initial stochastic matrix (pattern + self loops, column-normalized),
/// built the way mcl_cluster builds it.
CscMatrix<double> mcl_start(const CscMatrix<double>& g) {
  auto coo = to_pattern(g).to_coo();
  for (index_t i = 0; i < g.ncols(); ++i) coo.push(i, i, 1.0);
  coo.canonicalize();
  return mcldetail::inflate_prune(CscMatrix<double>::from_coo(coo), 1.0, 0.0);
}

/// Serial replica of the MCL iteration, used only to count the flops one
/// solve performs (the distributed solve is checked against a 1-rank run).
std::uint64_t mcl_flops(const CscMatrix<double>& g, const MclOptions& opt, int* iterations) {
  auto m = mcl_start(g);
  std::uint64_t flops = 0;
  for (int it = 0; it < opt.max_iterations; ++it) {
    *iterations = it + 1;
    flops += static_cast<std::uint64_t>(total_flops(m, m));
    auto next = mcldetail::inflate_prune(spgemm(m, m), opt.inflation, opt.prune_threshold);
    auto diff = ewise_add(next, ewise_apply(m, [](double v) { return -v; }));
    double change = 0;
    for (auto v : diff.vals()) change = std::max(change, std::abs(v));
    m = std::move(next);
    if (change < opt.convergence_eps) break;
  }
  return flops;
}

std::vector<CscMatrix<double>> column_slices(const CscMatrix<double>& c) {
  const auto bounds = even_split(c.ncols(), kRanks);
  std::vector<CscMatrix<double>> out;
  for (int r = 0; r < kRanks; ++r)
    out.push_back(extract_cols(c, bounds[static_cast<std::size_t>(r)],
                               bounds[static_cast<std::size_t>(r) + 1]));
  return out;
}

CostParams pinned_cost_params() {
  CostParams p;  // the defaults, with every rank on its own node
  p.ranks_per_node = 1;
  return p;
}

/// `a` with small-integer values drawn from `rng`. Every ⊕ order is exact on
/// such values, so a backend's output must equal the serial reference bit for
/// bit; on real values the backends that fold partial products in another
/// order differ from it in the last bits (DESIGN.md §7 and §12).
CscMatrix<double> with_integer_values(const CscMatrix<double>& a, SplitMix64& rng) {
  auto out = a;
  for (auto& x : out.mutable_vals()) x = static_cast<double>(1 + rng.below(7));
  return out;
}

Inputs make_inputs(Kind kind, std::uint64_t seed) {
  Inputs in;
  in.kind = kind;
  SplitMix64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  switch (kind) {
    case Kind::SquareFresh:
      in.operands.push_back(
          with_integer_values(make_dataset(Dataset::Hv15rLike, kFreshScale, seed), rng));
      break;
    case Kind::SquareReplay: {
      // One fixed pattern, several value sets: replays can reuse the plan's
      // structure but never a previous result.
      const auto a = make_dataset(Dataset::EukaryaLike, kReplayScale, seed);
      for (int v = 0; v < kReplayValueSets; ++v) in.operands.push_back(with_integer_values(a, rng));
      break;
    }
    case Kind::Mcl:
      in.operands.push_back(
          hidden_community<double>(kMclVertices, kMclCommunities, 8.0, 0.5, seed));
      break;
  }
  if (kind == Kind::Mcl) {
    const auto& g = in.operands.front();
    Machine one(1, pinned_cost_params());
    one.run([&](Comm& comm) { in.mcl_ref = mcl_cluster(comm, g, in.mcl); });
    int iters = 0;
    in.flops = mcl_flops(g, in.mcl, &iters);
    if (iters != in.mcl_ref.iterations)
      std::printf("warning: serial MCL replica ran %d iterations, the 1-rank reference %d\n",
                  iters, in.mcl_ref.iterations);
    in.kernel_operand = mcl_start(g);
  } else {
    for (const auto& a : in.operands) in.ref.push_back(column_slices(spgemm(a, a)));
    in.kernel_operand = in.operands.front();
    in.flops = static_cast<std::uint64_t>(total_flops(in.operands.front(), in.operands.front()));
  }
  return in;
}

bool bit_equal(const CscMatrix<double>& got, const CscMatrix<double>& want) {
  return got.nrows() == want.nrows() && got.ncols() == want.ncols() &&
         got.colptr() == want.colptr() && got.rowids() == want.rowids() &&
         got.vals().size() == want.vals().size() &&
         (got.vals().empty() ||
          std::memcmp(got.vals().data(), want.vals().data(),
                      got.vals().size() * sizeof(double)) == 0);
}

bool mcl_equal(const MclResult& got, const MclResult& want) {
  return got.cluster == want.cluster && got.iterations == want.iterations &&
         got.nclusters == want.nclusters && got.converged == want.converged;
}

// ---- one Machine::run per backend per pass ---------------------------------

/// What one rank recorded for one operation.
struct OpOut {
  RankDelta d;
  bool ok = false;
  bool threw = false;
  int iterations = 1;
  Algo chosen = Algo::Auto;
  double predicted_s = 0.0;  // Auto's modeled seconds for the backend it ran
};

/// Everything one Machine::run produced. Each rank writes only its own slot;
/// rank 0 also writes the wall samples.
struct RunOut {
  std::array<std::vector<OpOut>, kRanks> ops;
  std::vector<double> walls;  // per operation, barrier to barrier (rank 0)
  double setup_s = 0.0;       // Machine construction to end of set-up
  std::array<double, kRanks> setup_plan{};
  std::array<std::uint64_t, kRanks> hwm_bytes{};
  std::array<bool, kRanks> build_bad{};  // square-replay: the plan build's output was wrong
  int self_tests = 0, self_tests_caught = 0;
};

double predicted_for(const std::vector<AlgoPrediction>& preds, Algo chosen) {
  for (const auto& p : preds)
    if (p.algo == chosen && p.feasible) return p.total_s();
  return 0.0;
}

/// One Machine::run for backend `b`: set-up, then a warm-up operation and
/// `ops` timed ones. Operations are timed between barriers.
RunOut run_backend(const Inputs& in, Algo b, int ops, Tracer* tr, std::int64_t run_id) {
  RunOut out;
  const auto t_construct = Clock::now();
  MachineOptions mopts;
  mopts.barrier_timeout = std::chrono::milliseconds(30000);
  Machine machine(kRanks, pinned_cost_params(), mopts);
  std::atomic<int> self_tests{0}, self_caught{0};
  const std::string bname = algo_name(b);
  const int main_tid = tr != nullptr ? tr->main_tid() : 0;

  ScopedSpan run_span(tr, main_tid, "Machine::run[" + bname + "]", "runtime", run_id << 20);

  machine.run([&](Comm& comm) {
    const int me = comm.rank();
    auto& mine = out.ops[static_cast<std::size_t>(me)];
    ScopedSpan body(tr, me, "rank body[" + bname + "]", "runtime", run_id << 20, run_span.id());

    DistSpgemmOptions opt;
    opt.algo = b;
    if (in.kind == Kind::SquareReplay) opt.expected_iterations = kReplayHorizon;
    std::vector<DistMatrix1D<double>> da;
    DistSpgemmPlan<double> plan;
    MclOptions mopt = in.mcl;
    mopt.backend = b;

    // Checks this rank's share of an output against the serial reference.
    auto check_square = [&](const DistMatrix1D<double>& c, int v, bool self_test) {
      ScopedSpan s(tr, me, "check", "bench", run_id << 20);
      auto got = c.local().to_csc();
      const auto& want = in.ref[static_cast<std::size_t>(v)][static_cast<std::size_t>(me)];
      const bool ok = bit_equal(got, want);
      if (self_test && !got.vals().empty()) {
        // The gate must catch a single flipped bit in one value.
        auto bad = got;
        std::uint64_t bits = 0;
        std::memcpy(&bits, bad.mutable_vals().data(), sizeof bits);
        bits ^= 1;
        std::memcpy(bad.mutable_vals().data(), &bits, sizeof bits);
        ++self_tests;
        if (!bit_equal(bad, want)) ++self_caught;
      }
      return ok;
    };

    // ---- set-up (timed as setup_s) ----
    RankReport before_setup = comm.report();
    {
      ScopedSpan s(tr, me, "setup", "runtime", run_id << 20);
      if (in.kind != Kind::Mcl) {
        ScopedSpan fg(tr, me, "from_global", "dist", run_id << 20);
        for (const auto& a : in.operands) da.push_back(DistMatrix1D<double>::from_global(comm, a));
      }
      if (in.kind == Kind::SquareReplay) {
        ScopedSpan pb(tr, me, "spgemm_dist_cached[" + bname + "] build", "dist", run_id << 20);
        auto c = spgemm_dist_cached(comm, plan, da[0], da[0], opt);
        out.build_bad[static_cast<std::size_t>(me)] = !check_square(c, 0, false);
      }
    }
    comm.barrier();
    if (me == 0) out.setup_s = seconds_since(t_construct);
    out.setup_plan[static_cast<std::size_t>(me)] = comm.report().plan_s - before_setup.plan_s;

    // ---- timed operations ----
    for (std::int64_t k = 0; k <= ops; ++k) {
      comm.barrier();
      const std::int64_t op_id = (run_id << 20) | k;
      OpOut o;
      const RankReport r0 = comm.report();
      const double cpu0 = CpuTimer::now_s();
      const auto t0 = Clock::now();
      std::optional<DistMatrix1D<double>> c;
      std::optional<MclResult> mres;
      const int v = in.kind == Kind::SquareReplay
                        ? static_cast<int>((k + 1) % kReplayValueSets)
                        : 0;
      try {
        DistSpgemmStats st;
        switch (in.kind) {
          case Kind::SquareFresh: {
            ScopedSpan s(tr, me, "spgemm_dist[" + bname + "]", "dist", op_id);
            c = spgemm_dist(comm, da[0], da[0], opt, &st);
            o.chosen = st.chosen;
            o.predicted_s = predicted_for(st.predictions, st.chosen);
            if (s.on()) s.set_args(delta_args(delta(r0, comm.report(), CpuTimer::now_s() - cpu0)));
            break;
          }
          case Kind::SquareReplay: {
            ScopedSpan s(tr, me, "spgemm_dist_cached[" + bname + "]", "dist", op_id);
            c = spgemm_dist_cached(comm, plan, da[static_cast<std::size_t>(v)],
                                   da[static_cast<std::size_t>(v)], opt, &st);
            o.chosen = plan.chosen();
            o.predicted_s = predicted_for(
                st.replay_predictions.empty() ? st.predictions : st.replay_predictions,
                o.chosen);
            if (s.on()) s.set_args(delta_args(delta(r0, comm.report(), CpuTimer::now_s() - cpu0)));
            break;
          }
          case Kind::Mcl: {
            ScopedSpan s(tr, me, "mcl_cluster[" + bname + "]", "apps", op_id);
            mres = mcl_cluster(comm, in.operands.front(), mopt);
            o.iterations = mres->iterations;
            if (s.on()) s.set_args(delta_args(delta(r0, comm.report(), CpuTimer::now_s() - cpu0)));
            break;
          }
        }
        comm.barrier();
      } catch (...) {  // Sa1dError (the program's typed faults) or anything else
        o.threw = true;
      }
      const double wall = seconds_since(t0);
      o.d = delta(r0, comm.report(), CpuTimer::now_s() - cpu0);
      if (o.threw) {
        mine.push_back(o);
        break;
      }
      if (me == 0) out.walls.push_back(wall);
      if (in.kind == Kind::Mcl) {
        ScopedSpan s(tr, me, "check", "bench", op_id);
        o.ok = mcl_equal(*mres, in.mcl_ref);
        if (k == 0 && me == 0) {
          auto bad = *mres;
          bad.cluster[0] += 1;
          ++self_tests;
          if (!mcl_equal(bad, in.mcl_ref)) ++self_caught;
        }
      } else {
        o.ok = check_square(*c, v, k == 0);
      }
      mine.push_back(o);
    }
    out.hwm_bytes[static_cast<std::size_t>(me)] = comm.report().hwm_bytes;
  });
  out.self_tests = self_tests.load();
  out.self_tests_caught = self_caught.load();
  return out;
}

// ---- aggregation ------------------------------------------------------------

/// One backend's operations across every pass of one mode (traced or not).
struct Series {
  std::vector<double> walls;
  std::vector<std::array<OpOut, kRanks>> ops;  // timed (non-warm-up) operations
  std::vector<double> setups;
  std::vector<double> setup_plans;  // max-rank Phase::Plan during set-up
  std::uint64_t hwm_bytes = 0;
  std::uint64_t failed = 0;  // operations (and replay plan builds) whose output was wrong
};

struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  int self_tests = 0, self_caught = 0;
};

void absorb(Series& s, Tally& t, const RunOut& r) {
  if (std::any_of(r.build_bad.begin(), r.build_bad.end(), [](bool b) { return b; })) {
    ++t.attempted;
    ++t.failed;
    ++s.failed;
  }
  std::size_t n = r.ops[0].size();
  for (const auto& v : r.ops) n = std::max(n, v.size());
  for (std::size_t k = 0; k < n; ++k) {
    bool bad = false;
    for (const auto& v : r.ops) bad = bad || k >= v.size() || !v[k].ok || v[k].threw;
    ++t.attempted;
    if (bad) {
      ++t.failed;
      ++s.failed;
    }
  }
  // Operation k of rank 0 lines up with walls[k]; the first is the warm-up.
  const std::size_t timed = std::min(r.walls.size(), r.ops[0].size());
  for (std::size_t k = 1; k < timed; ++k) {
    std::array<OpOut, kRanks> row;
    bool complete = true;
    for (int q = 0; q < kRanks; ++q) {
      const auto& v = r.ops[static_cast<std::size_t>(q)];
      if (k >= v.size() || v[k].threw) complete = false;
      else row[static_cast<std::size_t>(q)] = v[k];
    }
    if (!complete) continue;
    s.walls.push_back(r.walls[k]);
    s.ops.push_back(row);
  }
  s.setups.push_back(r.setup_s);
  s.setup_plans.push_back(*std::max_element(r.setup_plan.begin(), r.setup_plan.end()));
  for (auto h : r.hwm_bytes) s.hwm_bytes = std::max(s.hwm_bytes, h);
  t.self_tests += r.self_tests;
  t.self_caught += r.self_tests_caught;
}

template <typename F>
double median_over_ops(const Series& s, F f) {
  std::vector<double> v;
  v.reserve(s.ops.size());
  for (std::size_t k = 0; k < s.ops.size(); ++k) v.push_back(f(s.ops[k], s.walls[k]));
  return median(v);
}

double max_rank(const std::array<OpOut, kRanks>& row, double RankDelta::*field) {
  double m = 0;
  for (const auto& o : row) m = std::max(m, o.d.*field);
  return m;
}

double sum_rank(const std::array<OpOut, kRanks>& row, double RankDelta::*field) {
  double s = 0;
  for (const auto& o : row) s += o.d.*field;
  return s;
}

double sum_rank_u(const std::array<OpOut, kRanks>& row, std::uint64_t RankDelta::*field) {
  double s = 0;
  for (const auto& o : row) s += static_cast<double>(o.d.*field);
  return s;
}

// ---- layers measured serially on the main thread ---------------------------

struct KernelFloor {
  double symbolic_s = 0, numeric_s = 0, floor_ns = 0;
};

/// Serial two-phase local SpGEMM on the workload's operand, and the hardware
/// floor: a raw random scatter-accumulate into an array of the operand's row
/// count, the cheapest possible form of the kernel's inner loop.
KernelFloor measure_kernels(const Inputs& in, std::uint64_t seed, Tracer* tr) {
  KernelFloor k;
  const auto& a = in.kernel_operand;
  const int tid = tr != nullptr ? tr->main_tid() : 0;
  std::vector<double> sym_s, num_s, floor_s;
  for (int r = 0; r < kSerialRepeats; ++r) {
    std::vector<detail::Workspace<PlusTimes<double>>> ws;
    auto t0 = Clock::now();
    LocalSymbolic sym;
    {
      ScopedSpan s(tr, tid, "spgemm_local_symbolic", "kernels", -1);
      sym = spgemm_local_symbolic<PlusTimes<double>>(a, a, LocalKernel::Hybrid, 1, &ws);
    }
    sym_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    {
      ScopedSpan s(tr, tid, "spgemm_local_numeric", "kernels", -1);
      auto c = spgemm_local_numeric<PlusTimes<double>>(a, a, sym, &ws);
      if (c.nnz() != sym.colptr.back()) std::printf("warning: numeric nnz mismatch\n");
    }
    num_s.push_back(seconds_since(t0));
  }
  const std::size_t n = static_cast<std::size_t>(std::max<index_t>(1, a.nrows()));
  constexpr std::size_t kOps = std::size_t{1} << 22;
  std::vector<std::uint32_t> idx(kOps);
  SplitMix64 rng(seed + 17);
  for (auto& i : idx) i = static_cast<std::uint32_t>(rng.below(n));
  std::vector<double> acc(n, 0.0);
  for (int r = 0; r < kSerialRepeats; ++r) {
    ScopedSpan s(tr, tid, "scatter floor", "kernels", -1);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) acc[idx[i]] += static_cast<double>(i & 7);
    floor_s.push_back(seconds_since(t0));
  }
  double sink = 0;
  for (double x : acc) sink += x;
  if (sink < 0) std::printf("%g\n", sink);  // keeps the loop observable
  k.symbolic_s = median(sym_s);
  k.numeric_s = median(num_s);
  k.floor_ns = 1e9 * median(floor_s) / static_cast<double>(kOps);
  return k;
}

/// Auto's one-shot predictions for the first MCL expansion (M0 * M0). Every
/// MCL round rebuilds its plan, so one-shot pricing is what a round pays.
std::vector<AlgoPrediction> mcl_predictions(const Inputs& in) {
  const auto m0 = mcl_start(in.operands.front());
  std::vector<AlgoPrediction> preds;
  Machine machine(kRanks, pinned_cost_params());
  machine.run([&](Comm& comm) {
    auto d = DistMatrix1D<double>::from_global(comm, m0);
    DistSpgemmStats st;
    spgemm_dist(comm, d, d, DistSpgemmOptions{}, &st);
    if (comm.rank() == 0) preds = st.predictions;
  });
  return preds;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  std::string trace_path;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace_path = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_sa1d --workload square-fresh|square-replay|mcl --seed N "
                 "--seconds S [--trace PATH]\n");
    return 2;
  }
  Kind kind;
  if (args.workload == "square-fresh") kind = Kind::SquareFresh;
  else if (args.workload == "square-replay") kind = Kind::SquareReplay;
  else if (args.workload == "mcl") kind = Kind::Mcl;
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // A refitted cost_params.json would reparameterize Auto between runs.
  unsetenv("SA1D_COST_PARAMS");
  const bool traced = !args.trace_path.empty();
  const CostParams cp = pinned_cost_params();
  std::printf("workload %s, seed %llu, %d ranks x 1 thread, %.1f s, %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), kRanks,
              args.seconds, traced ? "traced" : "untraced");
  std::printf("cost params: alpha_inter %.3g s, beta_inter %.3g s/B, alpha_intra %.3g s, "
              "beta_intra %.3g s/B, ranks_per_node %d, flop_s %.3g, triple_s %.3g, "
              "overlap_discount %.3g, imb_scale %.3g (not calibrated)\n",
              cp.alpha_inter, cp.beta_inter, cp.alpha_intra, cp.beta_intra, cp.ranks_per_node,
              cp.flop_s, cp.triple_s, cp.overlap_discount, cp.imb_scale);

  const Inputs in = make_inputs(kind, args.seed);
  std::printf("input: %lld x %lld, %lld nnz, %llu flops per operation\n",
              static_cast<long long>(in.operands.front().nrows()),
              static_cast<long long>(in.operands.front().ncols()),
              static_cast<long long>(in.operands.front().nnz()),
              static_cast<unsigned long long>(in.flops));

  std::optional<Tracer> tracer;
  if (traced) tracer.emplace(kRanks + 1);
  KernelFloor kf;
  std::vector<AlgoPrediction> mcl_preds;
  if (traced) {
    kf = measure_kernels(in, args.seed, &*tracer);
    if (kind == Kind::Mcl) mcl_preds = mcl_predictions(in);
  }

  // Untraced runs measure every pass untraced; traced runs alternate
  // untraced and traced passes so the overhead ratio compares like with like.
  std::array<Series, kBackends.size()> plain, with_trace, warm_up;
  Tally tally;
  std::int64_t run_id = 0;
  int measured = 0;
  const auto t_start = Clock::now();
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    const double elapsed = seconds_since(t_start);
    const bool warm = pass == 0 || elapsed < kWarmupSeconds;
    if (!warm && elapsed >= args.seconds && measured >= (traced ? 2 : 1)) break;
    const bool trace_pass = traced && !warm && measured % 2 == 1;
    auto& series = warm ? warm_up : trace_pass ? with_trace : plain;
    if (!warm) ++measured;
    for (std::size_t j = 0; j < kBackends.size(); ++j) {
      const std::size_t bi = (j + static_cast<std::size_t>(pass)) % kBackends.size();
      try {
        auto r = run_backend(in, kBackends[bi], ops_per_pass(kind),
                             trace_pass ? &*tracer : nullptr, ++run_id);
        absorb(series[bi], tally, r);
      } catch (...) {  // set-up itself failed: count it as one failed operation
        ++tally.attempted;
        ++tally.failed;
        ++series[bi].failed;
      }
    }
  }

  std::map<std::string, double> m;
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const bool gate_ok = tally.self_tests > 0 && tally.self_caught == tally.self_tests;
  std::printf("correctness gate self-test: %d of %d corrupted outputs caught\n",
              tally.self_caught, tally.self_tests);
  std::printf("operations: %llu attempted, %llu failed, fail_frac %.6f\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              tally.attempted > 0
                  ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
                  : 1.0);

  std::array<double, kBackends.size()> wall{};
  double setup = 0;
  for (std::size_t bi = 0; bi < kBackends.size(); ++bi) {
    const auto& s = plain[bi];
    const std::string b = algo_name(kBackends[bi]);
    wall[bi] = median(s.walls);
    const Tail t = tail_of(s.walls);
    setup += median(s.setups);
    const std::uint64_t failed = s.failed + with_trace[bi].failed + warm_up[bi].failed;
    std::printf("%-8s wall median %.6f s, p%d %.6f s (%zu samples), setup median %.6f s, "
                "%llu failed\n",
                b.c_str(), wall[bi], t.percentile, t.value, t.samples, median(s.setups),
                static_cast<unsigned long long>(failed));
    // The tail is reported with the per-layer metrics: on a shared host its
    // run-to-run spread is wider than any end-to-end bound (README.md).
    if (traced) m[b + ".wall_tail_s"] = t.value;
    else m[b + ".wall_s"] = wall[bi];
  }
  if (!traced) {
    m["setup_s"] = setup;
    m["peak_rss_mib"] = rss_mib;
    m["pass_frac"] = tally.attempted > 0 ? 1.0 - static_cast<double>(tally.failed) /
                                                     static_cast<double>(tally.attempted)
                                         : 0.0;
  } else {
    const auto flops = static_cast<double>(std::max<std::uint64_t>(1, in.flops));
    std::array<double, kBackends.size()> twall{};
    std::vector<double> overhead;
    for (std::size_t bi = 0; bi < kBackends.size(); ++bi) {
      const auto& s = with_trace[bi];
      const std::string b = algo_name(kBackends[bi]);
      twall[bi] = median(s.walls);
      if (wall[bi] > 0) overhead.push_back(twall[bi] / wall[bi]);
      m["kernels." + b + ".comp_s"] = median_over_ops(
          s, [](const auto& row, double) { return max_rank(row, &RankDelta::comp); });
      m["kernels." + b + ".ns_per_flop"] = median_over_ops(s, [&](const auto& row, double) {
        return 1e9 * sum_rank(row, &RankDelta::comp) / flops;
      });
      m["dist." + b + ".plan_s"] =
          kind == Kind::SquareReplay
              ? median(s.setup_plans)
              : median_over_ops(s, [](const auto& row, double) {
                  return max_rank(row, &RankDelta::plan);
                });
      m["dist." + b + ".other_s"] = median_over_ops(
          s, [](const auto& row, double) { return max_rank(row, &RankDelta::other); });
      m["dist." + b + ".imbalance"] = median_over_ops(s, [](const auto& row, double) {
        const double mx = max_rank(row, &RankDelta::cpu);
        const double mean = sum_rank(row, &RankDelta::cpu) / kRanks;
        return mean > 0 ? mx / mean : 1.0;
      });
      double builds = 0, replays = 0;
      for (const auto& row : s.ops) {
        builds += sum_rank_u(row, &RankDelta::builds);
        replays += sum_rank_u(row, &RankDelta::replays);
      }
      m["dist." + b + ".replay_ratio"] = builds + replays > 0 ? replays / (builds + replays) : 0.0;
      m["runtime." + b + ".net_mib"] = median_over_ops(s, [](const auto& row, double) {
        return sum_rank_u(row, &RankDelta::net_bytes) / kMiB;
      });
      m["runtime." + b + ".net_msgs"] = median_over_ops(
          s, [](const auto& row, double) { return sum_rank_u(row, &RankDelta::net_msgs); });
      m["runtime." + b + ".comm_wait_s"] = median_over_ops(
          s, [](const auto& row, double) { return max_rank(row, &RankDelta::comm_wait); });
      m["runtime." + b + ".comm_hidden_s"] = median_over_ops(
          s, [](const auto& row, double) { return max_rank(row, &RankDelta::hidden); });
      m["runtime." + b + ".sync_wait_s"] = median_over_ops(s, [](const auto& row, double w) {
        return std::max(0.0, w - max_rank(row, &RankDelta::cpu));
      });
      m["runtime." + b + ".peak_mib"] = static_cast<double>(s.hwm_bytes) / kMiB;
      m["apps." + b + ".mcl_iterations"] = median_over_ops(
          s, [](const auto& row, double) { return static_cast<double>(row[0].iterations); });
      m["apps." + b + ".mcl_round_s"] = median_over_ops(s, [](const auto& row, double w) {
        return w / std::max(1, row[0].iterations);
      });
      if (kBackends[bi] == Algo::SparseAware1D) {
        m["core.sa1d.rdma_mib"] = median_over_ops(s, [](const auto& row, double) {
          return sum_rank_u(row, &RankDelta::rdma_bytes) / kMiB;
        });
        m["core.sa1d.rdma_msgs"] = median_over_ops(
            s, [](const auto& row, double) { return sum_rank_u(row, &RankDelta::rdma_msgs); });
      }
      if (kBackends[bi] == Algo::Auto) {
        // What Auto ran: the per-call decision on square-*, and on mcl the
        // backend whose plans the solve built most often.
        std::array<double, 5> votes{};
        double pred = 0;
        for (const auto& row : s.ops) {
          if (kind == Kind::Mcl) {
            for (std::size_t a = 1; a < 5; ++a)
              votes[a] += static_cast<double>(row[0].d.builds_by_algo[a]);
          } else {
            votes[static_cast<std::size_t>(row[0].chosen)] += 1;
          }
          pred = row[0].predicted_s;
        }
        const auto pick = static_cast<Algo>(std::max_element(votes.begin(), votes.end()) -
                                            votes.begin());
        m["runtime.auto.pick"] = static_cast<double>(pick);
        // Auto's modeled seconds per multiply over the measured ones: per
        // call on square-*, per round (first round's prediction) on mcl.
        if (kind == Kind::Mcl) pred = predicted_for(mcl_preds, pick);
        const double measured = kind == Kind::Mcl ? m["apps.auto.mcl_round_s"] : twall[bi];
        m["runtime.auto.pred_ratio"] = measured > 0 ? pred / measured : 0.0;
      }
    }
    double best = 0;
    for (std::size_t bi = 1; bi < kBackends.size(); ++bi)
      if (twall[bi] > 0 && (best == 0 || twall[bi] < best)) best = twall[bi];
    m["runtime.auto.regret"] = best > 0 ? twall[0] / best : 0.0;
    m["kernels.flops"] = static_cast<double>(in.flops);
    m["kernels.serial_symbolic_s"] = kf.symbolic_s;
    m["kernels.serial_numeric_s"] = kf.numeric_s;
    m["kernels.floor_ns_per_op"] = kf.floor_ns;
    m["trace.overhead"] = median(overhead);
    std::printf("auto picked %s; tracing overhead (traced / untraced wall, median over "
                "backends) %.4f\n",
                algo_name(static_cast<Algo>(static_cast<int>(m["runtime.auto.pick"]))),
                m["trace.overhead"]);
    if (!tracer->write(args.trace_path)) {
      std::fprintf(stderr, "cannot write trace to %s\n", args.trace_path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s (open in ui.perfetto.dev)\n",
                tracer->span_count(), args.trace_path.c_str());
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              tally.failed == 0 && gate_ok ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
