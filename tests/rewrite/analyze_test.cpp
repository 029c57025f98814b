// ompx-analyze unit tests: the CFG + dataflow layer behind the lint
// rules. Each case seeds one defect (or one idiom that must stay
// clean) and checks the verdict, its line, and its severity. The
// golden section at the bottom runs the analyzer over the six shipped
// app ports and pins their exec verdicts — the same verdicts CI's
// dogfood gate enforces stay finding-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rewrite/analyze.h"
#include "rewrite/lint.h"
#include "simt/simt.h"

namespace {

using rewrite::analyze_source;
using rewrite::AnalysisResult;
using rewrite::LintFinding;
using rewrite::LintRule;
using rewrite::Severity;

std::vector<LintFinding> of(const AnalysisResult& r, LintRule rule) {
  std::vector<LintFinding> out;
  for (const auto& f : r.findings)
    if (f.rule == rule) out.push_back(f);
  return out;
}

// --- divergent-sync: path-sensitive barrier verdicts -----------------

TEST(AnalyzeDivergentSync, MustDivergeIsAnErrorAtTheBarrierLine) {
  const auto r = analyze_source(R"(
void k() {
  int tid = kl::threadIdx().x;
  if (tid < 16) {
    __syncthreads();
  }
}
)");
  const auto hits = of(r, LintRule::kDivergentSync);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 5);
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

TEST(AnalyzeDivergentSync, EarlyExitBeforeBarrierIsCaught) {
  // `if (tid == 0) return;` means lane 0 never reaches the barrier —
  // control dependence through the early exit, not a brace around the
  // sync. A line-granular matcher cannot see this.
  const auto r = analyze_source(R"(
void k() {
  int tid = kl::threadIdx().x;
  if (tid == 0) return;
  __syncthreads();
}
)");
  const auto hits = of(r, LintRule::kDivergentSync);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 5);
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

TEST(AnalyzeDivergentSync, EqualCountsInBothArmsDowngradeToWarning) {
  // Both arms synchronize once: this engine's counted barrier pairs
  // them up, so it is tolerated — but lockstep GPUs may not, hence a
  // portability warning rather than silence.
  const auto r = analyze_source(R"(
void k() {
  int tid = kl::threadIdx().x;
  if (tid < 16) {
    __syncthreads();
  } else {
    __syncthreads();
  }
}
)");
  const auto hits = of(r, LintRule::kDivergentSync);
  ASSERT_GE(hits.size(), 1u);
  for (const auto& h : hits) EXPECT_EQ(h.severity, Severity::kWarning);
  EXPECT_TRUE(of(r, LintRule::kBarrierMismatch).empty());
}

TEST(AnalyzeDivergentSync, MayDivergeIsAWarningNotAnError) {
  // `x` is lane-dependent on one path only — the join makes it May.
  const auto r = analyze_source(R"(
void k(int c) {
  int x = 0;
  if (c) x = kl::threadIdx().x;
  if (x > 0) {
    __syncthreads();
  }
}
)");
  const auto hits = of(r, LintRule::kDivergentSync);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
}

TEST(AnalyzeDivergentSync, LaneDependentLoopBoundFlagsBodyBarrier) {
  const auto r = analyze_source(R"(
void k(int n) {
  for (int i = kl::threadIdx().x; i < n; i += 32) {
    __syncthreads();
  }
}
)");
  const auto hits = of(r, LintRule::kDivergentSync);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 4);
}

TEST(AnalyzeDivergentSync, SwitchOnLaneValueFlagsCaseBarrier) {
  const auto r = analyze_source(R"(
void k() {
  switch (kl::threadIdx().x % 4) {
    case 0:
      __syncthreads();
      break;
    default:
      break;
  }
}
)");
  EXPECT_EQ(of(r, LintRule::kDivergentSync).size(), 1u);
}

TEST(AnalyzeDivergentSync, BarrierNestedInUniformInsideLaneBranch) {
  // Uniform inner condition does not launder the outer lane-dependent
  // control dependence.
  const auto r = analyze_source(R"(
void k(int n) {
  if (kl::threadIdx().x < 16) {
    if (n > 4) {
      __syncthreads();
    }
  }
}
)");
  const auto hits = of(r, LintRule::kDivergentSync);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

TEST(AnalyzeDivergentSync, UniformLoopAndBranchStayClean) {
  const auto r = analyze_source(R"(
void k(int n) {
  if (n > 4) {
    __syncthreads();
  }
  for (int i = 0; i < n; ++i) {
    __syncthreads();
  }
  do {
    __syncthreads();
  } while (n-- > 0);
}
)");
  EXPECT_TRUE(r.findings.empty());
}

TEST(AnalyzeDivergentSync, WhileOverLaneDerivedVariablePropagates) {
  const auto r = analyze_source(R"(
void k() {
  int lo = kl::threadIdx().x * 2;
  while (lo < 4) {
    ompx_sync_thread_block();
    lo += 8;
  }
}
)");
  EXPECT_EQ(of(r, LintRule::kDivergentSync).size(), 1u);
}

// --- barrier-mismatch: sibling arm counts ----------------------------

TEST(AnalyzeBarrierMismatch, UnequalArmCountsFlagTheBranch) {
  const auto r = analyze_source(R"(
void k() {
  int tid = kl::threadIdx().x;
  if (tid < 16) {
    __syncthreads();
    __syncthreads();
  } else {
    __syncthreads();
  }
}
)");
  const auto hits = of(r, LintRule::kBarrierMismatch);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 4);  // the branch, not the arms
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

TEST(AnalyzeBarrierMismatch, MismatchClaimsArmBarriersOnce) {
  // The arm barriers belong to the mismatch verdict; they must not
  // also fire divergent-sync — one defect, one finding.
  const auto r = analyze_source(R"(
void k() {
  int tid = kl::threadIdx().x;
  if (tid < 16) {
    __syncthreads();
    __syncthreads();
  } else {
    __syncthreads();
  }
}
)");
  EXPECT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, LintRule::kBarrierMismatch);
}

// --- unsynced-shared-read: dirty-set dataflow ------------------------

TEST(AnalyzeSharedRead, MustDirtyReadIsAnError) {
  const auto r = analyze_source(R"(
void k(int tid) {
  auto tile = ompx::groupprivate<double>(256);
  tile[tid] = 1.0;
  double v = tile[255 - tid];
}
)");
  const auto hits = of(r, LintRule::kUnsyncedSharedRead);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].symbol, "tile");
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

TEST(AnalyzeSharedRead, OneSidedWriteReadsBackAsMayWarning) {
  const auto r = analyze_source(R"(
void k(int tid, int c) {
  auto tile = ompx::groupprivate<double>(256);
  if (c) {
    tile[tid] = 1.0;
  }
  double v = tile[0];
}
)");
  const auto hits = of(r, LintRule::kUnsyncedSharedRead);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
}

TEST(AnalyzeSharedRead, LoopCarriedHazardSurfacesViaBackEdge) {
  // Iteration i writes what iteration i+1 reads; no barrier in the
  // body. The first iteration is clean — only the back edge makes the
  // read dirty, so the join demotes it to a may-warning.
  const auto r = analyze_source(R"(
void k(int tid) {
  auto a = ompx::groupprivate<int>(256);
  for (int i = 0; i < 10; ++i) {
    int v = a[tid ^ 1];
    a[tid] = v + 1;
  }
}
)");
  ASSERT_EQ(of(r, LintRule::kUnsyncedSharedRead).size(), 1u);
}

TEST(AnalyzeSharedRead, BarrierInLoopBodyClearsTheBackEdge) {
  const auto r = analyze_source(R"(
void k(int tid) {
  auto a = ompx::groupprivate<int>(256);
  for (int i = 0; i < 10; ++i) {
    kl::syncthreads();
    int v = a[tid ^ 1];
    a[tid] = v + 1;
    kl::syncthreads();
  }
}
)");
  EXPECT_TRUE(of(r, LintRule::kUnsyncedSharedRead).empty());
}

TEST(AnalyzeSharedRead, AllocBindingIsNotAWrite) {
  // `tile = ompx::groupprivate<float>(n)` binds the allocation; it
  // does not dirty `tile`. (Regression: the heat2d example's lambda
  // over a freshly bound tile flagged a phantom hazard.)
  const auto r = analyze_source(R"(
void k(int tid, int n) {
  float* tile = ompx::groupprivate<float>(n);
  auto at = [&](int i) { return tile[i]; };
  float v = at(tid);
}
)");
  EXPECT_TRUE(of(r, LintRule::kUnsyncedSharedRead).empty());
}

TEST(AnalyzeSharedRead, BarrierOnEveryPathClearsMustDirty) {
  const auto r = analyze_source(R"(
void k(int tid, int c) {
  auto tile = ompx::groupprivate<double>(256);
  tile[tid] = 1.0;
  if (c) {
    kl::syncthreads();
  } else {
    kl::syncthreads();
  }
  double v = tile[255 - tid];
}
)");
  EXPECT_TRUE(of(r, LintRule::kUnsyncedSharedRead).empty());
}

TEST(AnalyzeSharedRead, BarrierOnOnePathOnlyStillWarns) {
  const auto r = analyze_source(R"(
void k(int tid, int c) {
  auto tile = ompx::groupprivate<double>(256);
  tile[tid] = 1.0;
  if (c) {
    kl::syncthreads();
  }
  double v = tile[255 - tid];
}
)");
  const auto hits = of(r, LintRule::kUnsyncedSharedRead);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
}

// --- C-ABI contract rules --------------------------------------------

TEST(AnalyzeContract, DiscardedResultAtStatementPositionWarns) {
  const auto r = analyze_source(R"(
void host(void* p) {
  ompx_free(p);
}
)");
  const auto hits = of(r, LintRule::kUncheckedResult);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_NE(hits[0].message.find("OMPX_CHECK"), std::string::npos);
}

TEST(AnalyzeContract, CheckedAndAssignedResultsAreClean) {
  const auto r = analyze_source(R"(
void host(void* p, void* d, void* s) {
  OMPX_CHECK(ompx_free(p));
  ompx_result_t rc = ompx_memcpy(d, s, 16, OMPX_COPY_DEFAULT);
  if (ompx_device_synchronize() != OMPX_SUCCESS) return;
  (void)rc;
}
)");
  EXPECT_TRUE(of(r, LintRule::kUncheckedResult).empty());
}

TEST(AnalyzeContract, GetNodesWithoutCountWarns) {
  const auto r = analyze_source(R"(
void host(ompx_graph_t g, ompx_graph_node_info_t* nodes) {
  std::size_t written = 0;
  OMPX_CHECK(ompx_graph_get_nodes(g, nodes, 64, &written));
}
)");
  const auto hits = of(r, LintRule::kTwoCallEnumeration);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
}

TEST(AnalyzeContract, TwoCallProtocolIsClean) {
  const auto r = analyze_source(R"(
void host(ompx_graph_t g, ompx_graph_node_info_t* nodes) {
  std::size_t count = 0;
  OMPX_CHECK(ompx_graph_node_count(g, &count));
  std::size_t written = 0;
  OMPX_CHECK(ompx_graph_get_nodes(g, nodes, count, &written));
}
)");
  EXPECT_TRUE(of(r, LintRule::kTwoCallEnumeration).empty());
}

// --- suppression: bare and per-rule ompx-lint-allow ------------------

TEST(AnalyzeSuppression, BareAllowSilencesAnyRule) {
  const auto r = analyze_source(R"(
void host(void* p) {
  ompx_free(p);  // ompx-lint-allow
}
)");
  EXPECT_TRUE(r.findings.empty());
}

TEST(AnalyzeSuppression, PerRuleAllowSilencesOnlyTheNamedRule) {
  const std::string src = R"(
void k() {
  int tid = kl::threadIdx().x;
  if (tid < 16) {
    __syncthreads();  // ompx-lint-allow(divergent-sync)
  }
}
)";
  EXPECT_TRUE(analyze_source(src).findings.empty());
  // The same annotation naming an unrelated rule must NOT mask it.
  std::string other = src;
  const auto pos = other.find("divergent-sync");
  other.replace(pos, std::string("divergent-sync").size(),
                "unchecked-result");
  EXPECT_EQ(analyze_source(other).findings.size(), 1u);
}

TEST(AnalyzeSuppression, CollectAllowsParsesRuleLists) {
  const auto allows = rewrite::collect_allows(
      "int a;  // ompx-lint-allow(divergent-sync, unsynced-shared-read)\n"
      "int b;  // ompx-lint-allow\n");
  EXPECT_TRUE(rewrite::allow_matches(allows, 1, "divergent-sync"));
  EXPECT_TRUE(rewrite::allow_matches(allows, 1, "unsynced-shared-read"));
  EXPECT_FALSE(rewrite::allow_matches(allows, 1, "unchecked-result"));
  EXPECT_TRUE(rewrite::allow_matches(allows, 2, "unchecked-result"));
  // Marker on line N also covers line N+1 (annotation-above style).
  EXPECT_TRUE(rewrite::allow_matches(allows, 3, "unchecked-result"));
}

// --- scanner hygiene -------------------------------------------------

TEST(AnalyzeScanner, CommentsAndStringsNeverReachTheDataflow) {
  const auto r = analyze_source(R"(
void k() {
  int tid = kl::threadIdx().x;
  // if (tid < 16) __syncthreads();
  /* tile[tid] = 1; v = tile[0]; */
  const char* s = "ompx_free(p); __syncthreads();";
  (void)tid;
  (void)s;
}
)");
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.kernels.size(), 1u);
  EXPECT_TRUE(r.kernels[0].convergent);
}

// --- exec verdicts and the engine registry ---------------------------

TEST(AnalyzeVerdict, NamedLaunchLambdaGetsItsLaunchName) {
  const auto r = analyze_source(R"(
void run(simt::Device& dev) {
  simt::LaunchParams p;
  p.name = "saxpy";
  dev.launch_sync(p, [&] {
    int i = kl::threadIdx().x;
    y[i] += a * x[i];
  });
}
)");
  ASSERT_EQ(r.kernels.size(), 1u);
  EXPECT_EQ(r.kernels[0].kernel, "saxpy");
  EXPECT_TRUE(r.kernels[0].named);
  EXPECT_TRUE(r.kernels[0].convergent);
  EXPECT_FALSE(r.kernels[0].needs_fibers);
}

TEST(AnalyzeVerdict, AtomicsOnlyKernelIsConvergentAtomicsOk) {
  const auto r = analyze_source(R"(
void run(simt::Device& dev) {
  simt::LaunchParams p;
  p.name = "histo";
  dev.launch_sync(p, [&] {
    simt::atomic_add(&bins[kl::threadIdx().x % 16], 1);
  });
}
)");
  ASSERT_EQ(r.kernels.size(), 1u);
  EXPECT_TRUE(r.kernels[0].convergent);
  EXPECT_TRUE(r.kernels[0].atomics_ok);
  EXPECT_FALSE(r.kernels[0].needs_fibers);
}

TEST(AnalyzeVerdict, BarrierKernelNeedsFibersAndNamesTheToken) {
  const auto r = analyze_source(R"(
__global__ void reduce(double* a) {
  __syncthreads();
}
)");
  ASSERT_EQ(r.kernels.size(), 1u);
  EXPECT_EQ(r.kernels[0].kernel, "reduce");
  EXPECT_TRUE(r.kernels[0].needs_fibers);
  EXPECT_NE(r.kernels[0].reason.find("__syncthreads"), std::string::npos);
}

/// The analyzer's verdict for the region launched as `kernel`.
const rewrite::ExecVerdict* verdict_of(const AnalysisResult& r,
                                       const std::string& kernel) {
  for (const rewrite::ExecVerdict& v : r.kernels)
    if (v.kernel == kernel) return &v;
  return nullptr;
}

TEST(AnalyzeVerdict, RegisterExecHintsFeedsTheSimtRegistry) {
  simt::clear_exec_hints();
  const char* src = R"(
void run(simt::Device& dev) {
  simt::LaunchParams p;
  p.name = "rt_atomic";
  dev.launch_sync(p, [&] { simt::atomic_add(&x, 1); });
  p.name = "rt_barrier";
  dev.launch_sync(p, [&] { __syncthreads(); });
}
)";
  const int n = rewrite::register_exec_hints(src);
  EXPECT_EQ(n, 2);
  // The atomics-only region is convergent, and the analyzer reports
  // its atomics; the engine hint carries no atomics flag.
  const AnalysisResult r = analyze_source(src);
  const rewrite::ExecVerdict* v = verdict_of(r, "rt_atomic");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->atomics_ok);
  const simt::ExecHint a = simt::exec_hint("rt_atomic");
  EXPECT_TRUE(a.convergent);
  EXPECT_FALSE(a.needs_fibers);
  const simt::ExecHint b = simt::exec_hint("rt_barrier");
  EXPECT_TRUE(b.needs_fibers);
  EXPECT_FALSE(b.convergent);
  simt::clear_exec_hints();
}

TEST(AnalyzeVerdict, SameNameRegionsMergeConservatively) {
  simt::clear_exec_hints();
  // Two regions share one launch name; the barrier region wins.
  rewrite::register_exec_hints(R"(
void run(simt::Device& dev) {
  simt::LaunchParams p;
  p.name = "merged";
  dev.launch_sync(p, [&] { simt::atomic_add(&x, 1); });
  dev.launch_sync(p, [&] { __syncthreads(); });
}
)");
  const simt::ExecHint h = simt::exec_hint("merged");
  EXPECT_TRUE(h.needs_fibers);
  EXPECT_FALSE(h.convergent);
  simt::clear_exec_hints();
}

// --- verdicts follow calls into the same source ---------------------
//
// A convergent verdict sends the kernel's cooperative launches to
// direct lanes, which run one barrier and no warp op, so it must hold
// for every function the kernel calls, not only its own body.

TEST(AnalyzeVerdict, BarrierInADeviceHelperNeedsFibers) {
  const auto r = analyze_source(R"(
__device__ void tile_reduce(float* a) {
  __syncthreads();
  a[0] += 1.0f;
  __syncthreads();
}
__global__ void k(float* a) { tile_reduce(a); }
)");
  const rewrite::ExecVerdict* v = verdict_of(r, "k");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->needs_fibers);
  EXPECT_FALSE(v->convergent);
  EXPECT_NE(v->reason.find("'tile_reduce'"), std::string::npos) << v->reason;
  EXPECT_NE(v->reason.find("__syncthreads"), std::string::npos) << v->reason;
}

TEST(AnalyzeVerdict, WarpOpTwoCallsDeepNeedsFibers) {
  const auto r = analyze_source(R"(
__device__ float lane_sum(float x) { return __shfl_xor_sync(~0u, x, 1); }
__device__ float scale(float x) { return 2.0f * lane_sum(x); }
__global__ void k(float* a) { a[0] = scale(a[0]); }
)");
  const rewrite::ExecVerdict* v = verdict_of(r, "k");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->needs_fibers);
  EXPECT_NE(v->reason.find("'scale'"), std::string::npos) << v->reason;
  EXPECT_NE(v->reason.find("__shfl_xor_sync"), std::string::npos)
      << v->reason;
}

TEST(AnalyzeVerdict, BarrierInABoundLambdaNeedsFibers) {
  const auto r = analyze_source(R"(
void run(simt::Device& dev) {
  auto stage = [&](int i) { sh[i] = i; __syncthreads(); };
  simt::LaunchParams p;
  p.name = "lambda_helper";
  dev.launch_sync(p, [&] { stage(kl::threadIdx().x); });
}
)");
  const rewrite::ExecVerdict* v = verdict_of(r, "lambda_helper");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->needs_fibers);
  EXPECT_NE(v->reason.find("'stage'"), std::string::npos) << v->reason;
}

TEST(AnalyzeVerdict, DeviceFunctionDefinedElsewhereNeedsFibers) {
  // Its body is in another translation unit: the analyzer cannot see
  // whether it synchronizes, so the caller keeps fibers.
  const auto r = analyze_source(R"(
__device__ float block_sum(float x);
__global__ void k(float* a) { a[0] = block_sum(a[0]); }
)");
  const rewrite::ExecVerdict* v = verdict_of(r, "k");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->needs_fibers);
  EXPECT_NE(v->reason.find("declared without a body"), std::string::npos)
      << v->reason;
}

TEST(AnalyzeVerdict, CollectiveFreeHelpersKeepTheKernelConvergent) {
  const auto r = analyze_source(R"(
__device__ float sq(float x) { return x * x; }
__device__ float norm(float x, float y) { return sq(x) + sq(y); }
__global__ void k(float* a) {
  if (a[0] > 0.0f) a[1] = norm(a[0], a[1]);
  atomicAdd(&a[2], 1.0f);
}
)");
  const rewrite::ExecVerdict* v = verdict_of(r, "k");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->convergent);
  EXPECT_FALSE(v->needs_fibers);
  EXPECT_TRUE(v->atomics_ok);
}

/// Two block barriers, both reached through a helper: the reduction
/// stages one word per lane, then sums the block's words.
void helper_two_barriers(std::uint64_t* out) {
  auto& t = simt::this_thread();
  const std::uint64_t n = t.block_dim.count();
  auto* sh = static_cast<std::uint64_t*>(
      t.block->shared_alloc(t, n * sizeof(std::uint64_t), 8));
  sh[t.flat_tid] = t.flat_tid + 1;
  t.block->sync_threads(t);
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < n; ++i) sum += sh[i];
  t.block->sync_threads(t);
  out[t.grid_dim.linear(t.block_idx) * n + t.flat_tid] = sum;
}

simt::LaunchRecord launch_helper_kernel(simt::ExecPolicy policy,
                                        std::vector<std::uint64_t>& out) {
  const simt::ExecPolicy saved = simt::exec_policy();
  simt::set_exec_policy(policy);
  simt::DeviceConfig c = simt::make_sim_a100_config();
  c.name = "analyze-test";
  simt::Device dev(c, simt::EngineOptions{});
  out.assign(3 * 32, 0);
  simt::LaunchParams p;
  p.grid = {3};
  p.block = {32};
  p.name = "helper_barrier_kernel";
  std::uint64_t* o = out.data();
  try {
    const simt::LaunchRecord rec =
        dev.launch_sync(p, [o] { helper_two_barriers(o); });
    simt::set_exec_policy(saved);
    return rec;
  } catch (...) {
    simt::set_exec_policy(saved);
    throw;
  }
}

TEST(AnalyzeVerdict, HelperBarrierKernelStaysOnFibersUnderAuto) {
  simt::clear_exec_hints();
  EXPECT_EQ(rewrite::register_exec_hints(R"(
__device__ void tile_reduce(unsigned long long* out) {
  __syncthreads();
  out[threadIdx.x] += 1;
  __syncthreads();
}
__global__ void helper_barrier_kernel(unsigned long long* out) {
  tile_reduce(out);
}
)"),
            1);
  EXPECT_TRUE(simt::exec_hint("helper_barrier_kernel").needs_fibers);
  std::vector<std::uint64_t> ref, got;
  const simt::LaunchRecord fiber =
      launch_helper_kernel(simt::ExecPolicy::kFiber, ref);
  const simt::LaunchRecord routed =
      launch_helper_kernel(simt::ExecPolicy::kAuto, got);
  EXPECT_EQ(routed.exec_mode, "fiber");
  EXPECT_EQ(got, ref);
  EXPECT_EQ(got[0], 32u * 33u / 2u);
  EXPECT_EQ(routed.stats.block_barriers, fiber.stats.block_barriers);
  EXPECT_EQ(routed.time.total_ms, fiber.time.total_ms);

  // The same kernel wrongly hinted convergent would be routed direct
  // and stop at its second barrier: the verdict above is what keeps
  // it on fibers.
  simt::set_exec_hint("helper_barrier_kernel", {true, false});
  EXPECT_THROW(launch_helper_kernel(simt::ExecPolicy::kAuto, got),
               std::logic_error);
  simt::clear_exec_hints();
}

// --- output formats --------------------------------------------------

TEST(AnalyzeFormat, ReportHasSeverityAndVerdictLines) {
  const auto r = analyze_source(R"(
void k() {
  if (kl::threadIdx().x < 16) {
    __syncthreads();
  }
}
)");
  const std::string text = rewrite::format_analysis(r, "kern.cpp");
  EXPECT_NE(text.find("kern.cpp:4: error: [divergent-sync]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("needs fibers"), std::string::npos) << text;
}

TEST(AnalyzeFormat, SarifDocumentCarriesFindingsAndKernels) {
  const auto r = analyze_source(R"(
void host(void* p) {
  ompx_free(p);
}
)");
  std::vector<std::pair<std::string, AnalysisResult>> files;
  files.emplace_back("host.cpp", r);
  const std::string sarif = rewrite::analysis_to_sarif(files);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"unchecked-result\""),
            std::string::npos);
  EXPECT_NE(sarif.find("ompx-analyze"), std::string::npos);
  EXPECT_NE(sarif.find("host.cpp"), std::string::npos);
}

// --- golden verdicts over the six shipped app ports ------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct AppGolden {
  const char* file;
  const char* kernel;
  bool needs_fibers;
  bool atomics_ok;
};

TEST(AnalyzeGolden, SixAppPortsAreFindingFreeWithPinnedVerdicts) {
  const AppGolden apps[] = {
      {"/src/apps/adam/versions.cpp", "adam_step", false, false},
      {"/src/apps/su3/versions.cpp", "su3_mult", false, false},
      {"/src/apps/aidw/versions.cpp", "aidw", true, false},
      {"/src/apps/stencil1d/versions.cpp", "stencil1d", true, false},
      {"/src/apps/xsbench/versions.cpp", "xsbench_event", false, true},
      {"/src/apps/rsbench/versions.cpp", "rsbench_event", false, false},
  };
  for (const AppGolden& app : apps) {
    const std::string src = read_file(std::string(OMPX_SOURCE_DIR) + app.file);
    ASSERT_FALSE(src.empty()) << app.file;
    const auto r = analyze_source(src);
    EXPECT_TRUE(r.findings.empty())
        << app.file << ":\n"
        << rewrite::format_lint(r.findings, app.file);
    simt::clear_exec_hints();
    EXPECT_GE(rewrite::register_exec_hints(src), 1) << app.file;
    const simt::ExecHint h = simt::exec_hint(app.kernel);
    EXPECT_EQ(h.needs_fibers, app.needs_fibers) << app.kernel;
    EXPECT_EQ(h.convergent, !app.needs_fibers) << app.kernel;
    const rewrite::ExecVerdict* v = verdict_of(r, app.kernel);
    ASSERT_NE(v, nullptr) << app.kernel;
    EXPECT_EQ(v->atomics_ok, app.atomics_ok) << app.kernel;
  }
  simt::clear_exec_hints();
}

}  // namespace
