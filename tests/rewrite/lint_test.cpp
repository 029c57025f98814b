// ompx_lint unit tests: each rule fires on its seeded defect and stays
// silent on the idioms the six app ports actually use (reduction
// trees, full-mask early exit, ::-qualified builtins).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rewrite/lint.h"

namespace {

using rewrite::LintFinding;
using rewrite::LintOptions;
using rewrite::LintRule;
using rewrite::lint_source;

std::vector<LintFinding> of(const std::vector<LintFinding>& fs, LintRule r) {
  std::vector<LintFinding> out;
  for (const auto& f : fs)
    if (f.rule == r) out.push_back(f);
  return out;
}

TEST(LintDivergentSync, FlagsBarrierUnderThreadIdCondition) {
  const auto fs = lint_source(R"(
void k() {
  int tid = kl::threadIdx().x;
  if (tid < 16) {
    kl::syncthreads();
  }
}
)");
  const auto hits = of(fs, LintRule::kDivergentSync);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 5);
}

TEST(LintDivergentSync, PropagatesThroughAssignedVariables) {
  const auto fs = lint_source(R"(
void k() {
  int lo = kl::threadIdx().x * 2;
  while (lo < 4) {
    kl::syncthreads();
    lo += 8;
  }
}
)");
  EXPECT_EQ(of(fs, LintRule::kDivergentSync).size(), 1u);
}

TEST(LintDivergentSync, ElseBranchOfDivergentIfIsAlsoDivergent) {
  const auto fs = lint_source(R"(
void k(int tid) {
  int t = ompx_thread_id_x();
  if (t == 0) {
    do_nothing();
  } else {
    ompx_sync_thread_block();
  }
}
)");
  EXPECT_EQ(of(fs, LintRule::kDivergentSync).size(), 1u);
}

TEST(LintDivergentSync, UniformConditionIsClean) {
  const auto fs = lint_source(R"(
void k(int n) {
  if (n > 4) {
    kl::syncthreads();
  }
  for (int i = 0; i < n; ++i) {
    __syncthreads();
  }
}
)",
                              {true, true, false});
  EXPECT_TRUE(of(fs, LintRule::kDivergentSync).empty());
}

TEST(LintDivergentSync, BlockIdxIsUniform) {
  // blockIdx differs across blocks, not across the threads that must
  // meet at the barrier — never divergent.
  const auto fs = lint_source(R"(
void k() {
  if (blockIdx.x == 0) {
    __syncthreads();
  }
}
)",
                              {true, true, false});
  EXPECT_TRUE(of(fs, LintRule::kDivergentSync).empty());
}

TEST(LintSharedRead, FlagsReadAfterWriteWithoutBarrier) {
  const auto fs = lint_source(R"(
void k(int tid) {
  auto tile = ompx::groupprivate<double>(256);
  tile[tid] = 1.0;
  double v = tile[255 - tid];
}
)");
  const auto hits = of(fs, LintRule::kUnsyncedSharedRead);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].symbol, "tile");
  EXPECT_EQ(hits[0].line, 5);
}

TEST(LintSharedRead, BarrierClearsTheHazard) {
  const auto fs = lint_source(R"(
void k(int tid) {
  auto tile = ompx::groupprivate<double>(256);
  tile[tid] = 1.0;
  kl::syncthreads();
  double v = tile[255 - tid];
}
)");
  EXPECT_TRUE(of(fs, LintRule::kUnsyncedSharedRead).empty());
}

TEST(LintSharedRead, ReductionTreeIdiomIsClean) {
  // `a[tid] += a[tid + s];` reads against the PRE-statement state: the
  // barrier at the top of the loop body already ordered the writes.
  const auto fs = lint_source(R"(
void k(int tid) {
  auto a = ompx::groupprivate<double>(256);
  a[tid] = 1.0;
  for (int s = 1; s < 128; s *= 2) {
    kl::sync_thread_block();
    a[tid] += a[tid + s];
  }
}
)");
  EXPECT_TRUE(of(fs, LintRule::kUnsyncedSharedRead).empty());
}

TEST(LintSharedRead, CudaSharedDeclIsTracked) {
  const auto fs = lint_source(R"(
__global__ void k() {
  __shared__ float tile[256];
  tile[threadIdx.x] = 1.0f;
  float v = tile[0];
}
)",
                              {true, true, false});
  EXPECT_EQ(of(fs, LintRule::kUnsyncedSharedRead).size(), 1u);
}

TEST(LintUnported, FlagsBareCudaBuiltins) {
  const auto fs = lint_source(R"(
void k() {
  int i = threadIdx.x + blockIdx.x * blockDim.x;
  __syncthreads();
}
)",
                              {false, false, true});
  const auto hits = of(fs, LintRule::kUnportedBuiltin);
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].symbol, "threadIdx");
}

TEST(LintUnported, FlagsPeerCopyHostApis) {
  const auto fs = lint_source(R"(
void move(void* dst, void* src, std::size_t n) {
  cudaDeviceEnablePeerAccess(1, 0);
  cudaMemcpyPeer(dst, 1, src, 0, n);
}
)",
                              {false, false, true});
  const auto hits = of(fs, LintRule::kUnportedBuiltin);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].symbol, "cudaDeviceEnablePeerAccess");
  EXPECT_EQ(hits[1].symbol, "cudaMemcpyPeer");
  EXPECT_NE(hits[1].message.find("ompx_memcpy_peer"), std::string::npos);
}

TEST(LintUnported, PortedPeerCopyIsClean) {
  const auto fs = lint_source(R"(
void move(void* dst, void* src, std::size_t n) {
  ompx_device_enable_peer_access(1, 0);
  ompx_memcpy_peer(dst, 1, src, 0, n);
}
)",
                              {false, false, true});
  EXPECT_TRUE(of(fs, LintRule::kUnportedBuiltin).empty());
}

TEST(LintUnported, QualifiedNamesAreThisLibrarys) {
  const auto fs = lint_source(R"(
void k() {
  int i = kl::threadIdx().x + kl::blockIdx().x * kl::blockDim().x;
  kl::syncthreads();
}
)");
  EXPECT_TRUE(of(fs, LintRule::kUnportedBuiltin).empty());
}

TEST(LintUnported, DimBuiltinCallFormIsTheKlSpelling) {
  // Under `using namespace kl`, ported kernels write `threadIdx().x` —
  // a call, which CUDA's struct `threadIdx.x` can never be.
  const auto fs = lint_source(R"(
void k() {
  int i = threadIdx().x + blockIdx().x * blockDim().x;
}
)",
                              {false, false, true});
  EXPECT_TRUE(of(fs, LintRule::kUnportedBuiltin).empty());
}

TEST(LintSuppression, AllowCommentSilencesSameLine) {
  const auto fs = lint_source(R"(
void k(int tid) {
  auto b = ompx::groupprivate<int>(32);
  b[tid] = tid;
  int y = b[0];  // ompx-lint-allow
}
)");
  EXPECT_TRUE(fs.empty());
}

TEST(LintSuppression, AllowCommentSilencesNextLine) {
  const auto fs = lint_source(R"(
void k(int tid) {
  auto b = ompx::groupprivate<int>(32);
  b[tid] = tid;
  // ompx-lint-allow: deliberate same-interval read, exercised in tests
  int y = b[0];
}
)");
  EXPECT_TRUE(fs.empty());
}

TEST(LintScanner, CommentsAndStringsAreIgnored) {
  const auto fs = lint_source(R"(
void k() {
  // __syncthreads() in a comment
  /* threadIdx.x in a block comment */
  const char* s = "__syncthreads() in a string";
}
)",
                              {true, true, true});
  EXPECT_TRUE(fs.empty());
}

TEST(LintFormat, OneLinePerFindingWithRuleName) {
  const auto fs = lint_source("int i = threadIdx.x;\n", {false, false, true});
  ASSERT_EQ(fs.size(), 1u);
  const std::string text = rewrite::format_lint(fs, "kern.cu");
  EXPECT_NE(text.find("kern.cu:1:"), std::string::npos) << text;
  EXPECT_NE(text.find("[unported-builtin]"), std::string::npos) << text;
}

// --- classify_exec: the static side of direct routing ----------------

TEST(ClassifyExec, PureElementwiseKernelIsConvergent) {
  const auto c = rewrite::classify_exec(R"(
void k(const float* a, float* b, int n) {
  int i = kl::blockIdx().x * kl::blockDim().x + kl::threadIdx().x;
  if (i < n) b[i] = 2.0f * a[i];
}
)");
  EXPECT_TRUE(c.convergent);
  EXPECT_FALSE(c.needs_fibers);
  EXPECT_TRUE(c.reason.empty());
}

TEST(ClassifyExec, BarrierForcesFibersAndNamesTheToken) {
  const auto c = rewrite::classify_exec(R"(
void k() {
  __syncthreads();
}
)");
  EXPECT_FALSE(c.convergent);
  EXPECT_TRUE(c.needs_fibers);
  EXPECT_NE(c.reason.find("__syncthreads"), std::string::npos) << c.reason;
}

TEST(ClassifyExec, EverySpellingLayerCounts) {
  // The classifier must see kl::, ompx::, CUDA, and C-API spellings of
  // barriers and warp collectives alike — every rendezvous forces the
  // fiber path.
  for (const char* frag :
       {"kl::syncthreads();", "ompx_sync_thread_block();",
        "__shfl_down_sync(mask, v, 1);", "ompx::shfl_down(v, 1);",
        "__ballot_sync(mask, pred);", "warp_reduce(v);"}) {
    const auto c = rewrite::classify_exec(std::string("void k() { ") + frag +
                                          " }");
    EXPECT_TRUE(c.needs_fibers) << frag;
    EXPECT_FALSE(c.convergent) << frag;
    EXPECT_FALSE(c.reason.empty()) << frag;
  }
}

TEST(ClassifyExec, AtomicsAloneStayConvergentWithAtomicsOk) {
  // An atomic is a side effect, not a rendezvous: a kernel whose only
  // collectives are atomics is proven convergent, and atomics_ok
  // reports that its direct lanes run atomics in place.
  for (const char* frag : {"atomicAdd(&x, 1);", "simt::atomic_add(&x, 1);",
                           "atomicCAS(&x, a, b);"}) {
    const auto c = rewrite::classify_exec(std::string("void k() { ") + frag +
                                          " }");
    EXPECT_TRUE(c.convergent) << frag;
    EXPECT_FALSE(c.needs_fibers) << frag;
    EXPECT_TRUE(c.atomics_ok) << frag;
    EXPECT_FALSE(c.reason.empty()) << frag;
  }
}

TEST(ClassifyExec, BarrierPlusAtomicForcesFibersNotInline) {
  const auto c = rewrite::classify_exec(
      "void k() { atomicAdd(&x, 1); __syncthreads(); }");
  EXPECT_TRUE(c.needs_fibers);
  EXPECT_FALSE(c.atomics_ok);
}

TEST(ClassifyExec, TokensInCommentsAndStringsDoNotCount) {
  const auto c = rewrite::classify_exec(R"(
void k(float* b) {
  // __syncthreads() would be needed if the tile were shared
  const char* msg = "atomicAdd disabled";
  b[kl::threadIdx().x] = 1.0f;
  (void)msg;
}
)");
  EXPECT_TRUE(c.convergent) << c.reason;
}

TEST(LintOptionsTest, RulesCanBeDisabledIndependently) {
  const std::string src = R"(
void k() {
  int tid = threadIdx.x;
  if (tid < 8) {
    __syncthreads();
  }
}
)";
  EXPECT_TRUE(lint_source(src, {false, false, false}).empty());
  EXPECT_EQ(lint_source(src, {true, false, false}).size(), 1u);
}

}  // namespace
