// ompxsan end-to-end: every seeded defect class must produce its
// specific diagnostic (category + precise fields), and the guard
// tests pin the false-positive boundaries — same-thread reuse,
// cross-epoch handoffs, and atomics must stay silent.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ompx.h"
#include "kl/kl.h"
#include "simt/simt.h"

namespace {

using namespace simt;

Device& dev() { return sim_a100(); }

/// Every test runs with a clean sanitizer: nothing recorded, nothing
/// enabled, and nothing left on for the next test.
class SanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    San::instance().disable();
    San::instance().reset();
  }
  void TearDown() override {
    San::instance().disable();
    San::instance().reset();
  }

  static std::vector<SanDiag> diags_of(SanKind k) {
    std::vector<SanDiag> out;
    for (const auto& d : San::instance().diagnostics())
      if (d.kind == k) out.push_back(d);
    return out;
  }
};

LaunchParams one_block(const char* name, unsigned threads = 64) {
  LaunchParams p;
  p.grid = {1};
  p.block = {threads};
  p.name = name;
  return p;
}

// --- racecheck -----------------------------------------------------------

TEST_F(SanTest, SharedRaceReportsBothThreadsAndAddress) {
  San::instance().enable(kSanRace);
  LaunchParams p = one_block("race_kernel");
  dev().launch_sync(p, [] {
    auto& t = this_thread();
    ompx::san::Shared<int> cell;
    cell = static_cast<int>(t.flat_tid);  // every thread writes: WAW race
  });
  const auto races = diags_of(SanKind::kSharedRace);
  ASSERT_FALSE(races.empty());
  const SanDiag& d = races.front();
  EXPECT_NE(d.message.find("write-after-write"), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("race_kernel"), std::string::npos);
  EXPECT_NE(d.tid_a, ~0u);
  EXPECT_NE(d.tid_b, ~0u);
  EXPECT_NE(d.tid_a, d.tid_b);
  EXPECT_NE(d.addr, nullptr);
}

TEST_F(SanTest, SharedReadAfterForeignWriteIsRaw) {
  San::instance().enable(kSanRace);
  LaunchParams p = one_block("raw_kernel", 2);
  dev().launch_sync(p, [] {
    auto& t = this_thread();
    auto tile = ompx::san::shared_array<int>(2);
    if (t.flat_tid == 0) tile[1] = 7;  // writes the OTHER thread's slot
    int v = tile[t.flat_tid];          // tid 1 reads it: RAW, no barrier
    (void)v;
  });
  const auto races = diags_of(SanKind::kSharedRace);
  ASSERT_FALSE(races.empty());
  EXPECT_NE(races.front().message.find("read-after-write"), std::string::npos)
      << races.front().message;
}

TEST_F(SanTest, SameThreadReuseDoesNotReport) {
  San::instance().enable(kSanRace);
  LaunchParams p = one_block("same_thread");
  dev().launch_sync(p, [] {
    auto& t = this_thread();
    auto tile = ompx::san::shared_array<double>(64);
    tile[t.flat_tid] = 1.0;            // own slot
    double v = tile[t.flat_tid];       // own slot again: not a race
    tile[t.flat_tid] = v + 1.0;
  });
  EXPECT_EQ(San::instance().error_count(), 0u) << San::instance().report();
}

TEST_F(SanTest, BarrierSeparatedHandoffDoesNotReport) {
  San::instance().enable(kSanRace);
  LaunchParams p = one_block("cross_epoch");
  dev().launch_sync(p, [] {
    auto& t = this_thread();
    auto tile = ompx::san::shared_array<int>(64);
    tile[t.flat_tid] = static_cast<int>(t.flat_tid);
    t.block->sync_threads(t);  // epoch boundary
    int v = tile[63 - t.flat_tid];  // foreign slot, different epoch: fine
    (void)v;
  });
  EXPECT_EQ(San::instance().error_count(), 0u) << San::instance().report();
}

/// The Stencil-1D shape on one 64-thread block: stage a tile plus
/// halo in racecheck-instrumented shared memory, then sum a window of
/// neighbours' slots. Without the barrier the window reads race the
/// neighbours' staging writes.
void san_stencil_launch(ExecMode mode, bool with_barrier) {
  constexpr int kR = 3;
  constexpr unsigned kN = 64;
  LaunchParams p = one_block(with_barrier ? "san_stencil" : "san_stencil_nobar",
                             kN);
  p.mode = mode;
  std::vector<int> out(kN);
  dev().launch_sync(p, [&out, with_barrier] {
    auto& t = this_thread();
    auto tile = ompx::san::shared_array<int>(kN + 2 * kR);
    const int l = static_cast<int>(t.flat_tid) + kR;
    tile[l] = l;
    if (t.flat_tid < kR) {
      tile[l - kR] = l - kR;
      tile[l + kN] = l + static_cast<int>(kN);
    }
    if (with_barrier) t.block->sync_threads(t);
    int acc = 0;
    for (int o = -kR; o <= kR; ++o) acc += tile[l + o];
    out[t.flat_tid] = acc;
  });
}

TEST_F(SanTest, StencilRacecheckAgreesAcrossExecModes) {
  for (const ExecMode mode : {ExecMode::kDirect, ExecMode::kCooperative}) {
    San::instance().reset();
    San::instance().enable(kSanRace);
    san_stencil_launch(mode, /*with_barrier=*/true);
    EXPECT_EQ(San::instance().error_count(), 0u) << San::instance().report();

    San::instance().reset();
    san_stencil_launch(mode, /*with_barrier=*/false);
    EXPECT_GE(diags_of(SanKind::kSharedRace).size(), 1u)
        << "missing barrier not caught, mode "
        << (mode == ExecMode::kDirect ? "direct" : "cooperative");
  }
}

TEST_F(SanTest, AtomicsDoNotReport) {
  San::instance().enable(kSanRace);
  LaunchParams p = one_block("atomic_kernel");
  dev().launch_sync(p, [] {
    ompx::san::Shared<int> sum;
    sum.atomic_add(1);  // every thread, same address: a rendezvous
  });
  EXPECT_EQ(San::instance().error_count(), 0u) << San::instance().report();
}

// --- memcheck ------------------------------------------------------------

TEST_F(SanTest, CheckedOutOfBoundsReadIsDiagnosedAndPoisoned) {
  San::instance().enable(kSanMem);
  ompx::DeviceBuffer<int> buf(8, &dev());
  buf.fill_bytes(0);
  int seen = 0;
  LaunchParams p = one_block("oob_kernel", 1);
  dev().launch_sync(p, [&] {
    auto a = buf.checked();
    seen = a[8];  // one past the end
  });
  const auto oob = diags_of(SanKind::kGlobalOob);
  ASSERT_FALSE(oob.empty());
  EXPECT_NE(oob.front().message.find("out-of-bounds"), std::string::npos)
      << oob.front().message;
  int poison;
  std::memset(&poison, kFreePattern, sizeof poison);
  EXPECT_EQ(seen, poison);  // the bad load never touched memory
}

TEST_F(SanTest, CheckedOutOfBoundsWriteIsDropped) {
  San::instance().enable(kSanMem);
  ompx::DeviceBuffer<int> a(4, &dev());
  ompx::DeviceBuffer<int> b(4, &dev());
  a.fill_bytes(0);
  b.fill_bytes(0);
  LaunchParams p = one_block("oob_store", 1);
  dev().launch_sync(p, [&] {
    auto pa = a.checked();
    pa[4] = 1234;  // one past the end: recorded + dropped
  });
  EXPECT_GE(diags_of(SanKind::kGlobalOob).size(), 1u);
  for (int v : b.download()) EXPECT_EQ(v, 0);  // neighbour unharmed
}

TEST_F(SanTest, UseAfterFreeIsDiagnosed) {
  San::instance().enable(kSanMem);
  int* stale = static_cast<int*>(dev().memory().allocate(16 * sizeof(int)));
  dev().memory().deallocate(stale);  // quarantined, not recycled
  LaunchParams p = one_block("uaf_kernel", 1);
  dev().launch_sync(p, [&] {
    ompx::san::GlobalPtr<int> q(stale, 16);
    int v = q[0];
    (void)v;
  });
  const auto uaf = diags_of(SanKind::kUseAfterFree);
  ASSERT_FALSE(uaf.empty());
  EXPECT_NE(uaf.front().message.find("use-after-free"), std::string::npos)
      << uaf.front().message;
}

TEST_F(SanTest, HostPointerInKernelIsDiagnosed) {
  San::instance().enable(kSanMem);
  int host_var = 41;
  LaunchParams p = one_block("hostptr_kernel", 1);
  dev().launch_sync(p, [&] {
    ompx::san::GlobalPtr<int> q(&host_var);
    *q = 42;  // not device memory: recorded + dropped
  });
  const auto hp = diags_of(SanKind::kHostPointer);
  ASSERT_FALSE(hp.empty());
  EXPECT_NE(hp.front().message.find("not a device"), std::string::npos)
      << hp.front().message;
  EXPECT_EQ(host_var, 41);
}

TEST_F(SanTest, RedzoneCatchesRawPointerOverrun) {
  San::instance().enable(kSanMem);
  // A raw (uninstrumented) overrun: nothing sees the store itself, but
  // the redzone poison check at free does.
  char* ptr = static_cast<char*>(dev().memory().allocate(100));
  ptr[100] = 'X';  // first byte past the user range
  dev().memory().deallocate(ptr);
  const auto rz = diags_of(SanKind::kRedzoneCorruption);
  ASSERT_FALSE(rz.empty());
  EXPECT_NE(rz.front().message.find("redzone"), std::string::npos)
      << rz.front().message;
}

TEST_F(SanTest, FreePoisonsPayload) {
  San::instance().enable(kSanMem);
  unsigned char* ptr =
      static_cast<unsigned char*>(dev().memory().allocate(64));
  std::memset(ptr, 0, 64);
  dev().memory().deallocate(ptr);
  // Quarantine keeps the pages mapped, so the poison is observable.
  for (int i = 0; i < 64; ++i) ASSERT_EQ(ptr[i], kFreePattern) << i;
}

TEST_F(SanTest, LeakReportListsLiveAllocations) {
  San::instance().enable(kSanMem);
  {
    Device local{[] {
      DeviceConfig c = make_sim_a100_config();
      c.name = "leak-test";
      return c;
    }()};
    void* a = local.memory().allocate(128);
    void* b = local.memory().allocate(256);
    (void)a;
    const auto leaks = local.memory().leak_report();
    ASSERT_EQ(leaks.size(), 2u);
    local.memory().deallocate(b);
    EXPECT_EQ(local.memory().leak_report().size(), 1u);
    // `a` stays live through ~Device: recorded as a leak diagnostic.
  }
  const auto leaks = diags_of(SanKind::kLeak);
  ASSERT_FALSE(leaks.empty());
  EXPECT_EQ(leaks.front().bytes, 128u);
}

// --- sync / divergence ---------------------------------------------------

TEST_F(SanTest, PartialMaskNamingExitedLaneIsDiagnosed) {
  San::instance().enable(kSanSync);
  LaunchParams p = one_block("dead_lane", 32);
  EXPECT_THROW(dev().launch_sync(p,
                                 [] {
                                   auto& t = this_thread();
                                   if (t.lane == 1) return;  // lane 1 exits
                                   // The barrier orders the exit before the
                                   // collective (exited threads release it).
                                   t.block->sync_threads(t);
                                   if (t.lane == 0) {
                                     // explicitly names dead lane 1
                                     t.warp->collective(t, WarpOp::kSync, 0,
                                                        0, 0b11);
                                   }
                                 }),
               std::logic_error);
  const auto bad = diags_of(SanKind::kInvalidWarpMask);
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().message.find("exited lane"), std::string::npos)
      << bad.front().message;
}

TEST_F(SanTest, FullMaskWithEarlyExitIsNotDiagnosed) {
  San::instance().enable(kSanSync);
  LaunchParams p = one_block("full_mask", 32);
  dev().launch_sync(p, [] {
    auto& t = this_thread();
    if (t.lane >= 16) return;  // half the warp exits
    t.block->sync_threads(t);  // orders the exits before the collective
    // Default full mask: collectives proceed over the live lanes, the
    // documented semantics — never a diagnostic.
    std::uint64_t v =
        t.warp->collective(t, WarpOp::kShflXor, t.lane, 1, ~0ull);
    (void)v;
  });
  EXPECT_EQ(San::instance().count(SanKind::kInvalidWarpMask), 0u)
      << San::instance().report();
}

TEST_F(SanTest, BarrierDivergenceDeadlockIsNamed) {
  San::instance().enable(kSanSync);
  LaunchParams p = one_block("bdiv", 64);
  try {
    dev().launch_sync(p, [] {
      auto& t = this_thread();
      if (t.flat_tid == 0) {
        t.warp->collective(t, WarpOp::kSync, 0, 0, 0b11);
      } else {
        t.block->sync_threads(t);
      }
    });
    FAIL() << "expected a deadlock diagnosis";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("SIMT deadlock in block scheduler"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("barrier divergence"), std::string::npos) << msg;
  }
  const auto bd = diags_of(SanKind::kBarrierDivergence);
  ASSERT_FALSE(bd.empty());
  EXPECT_EQ(bd.front().kernel, "bdiv");
}

TEST_F(SanTest, SharedAllocMismatchNamesBothThreads) {
  San::instance().enable(kSanSync | kSanRace);
  LaunchParams p = one_block("alloc_mismatch", 2);
  try {
    dev().launch_sync(p, [] {
      auto& t = this_thread();
      t.block->shared_alloc(t, t.flat_tid == 0 ? 64 : 32, 8);
      t.block->sync_threads(t);
    });
    FAIL() << "expected a shared_alloc mismatch diagnosis";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("64"), std::string::npos) << msg;
    EXPECT_NE(msg.find("32"), std::string::npos) << msg;
    EXPECT_NE(msg.find("thread 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("thread 1"), std::string::npos) << msg;
  }
  EXPECT_GE(San::instance().count(SanKind::kSharedAllocMismatch), 1u);
}

// --- activation surfaces -------------------------------------------------

TEST_F(SanTest, ParseChecks) {
  EXPECT_EQ(San::parse_checks("race"), kSanRace);
  EXPECT_EQ(San::parse_checks("race,mem"), kSanRace | kSanMem);
  EXPECT_EQ(San::parse_checks("race,mem,sync"), kSanAll);
  EXPECT_EQ(San::parse_checks("all"), kSanAll);
  EXPECT_EQ(San::parse_checks(""), kSanAll);
  EXPECT_EQ(San::parse_checks(nullptr), kSanAll);
  EXPECT_EQ(San::parse_checks("1"), kSanAll);
  EXPECT_EQ(San::parse_checks("sync,bogus"), kSanSync);
}

TEST_F(SanTest, CApiRoundTrip) {
  ompx_san_enable("race,mem");
  EXPECT_EQ(ompx_san_enabled(), kSanRace | kSanMem);
  ompx_san_disable();
  EXPECT_EQ(ompx_san_enabled(), 0u);
  EXPECT_EQ(ompx_san_error_count(), 0ull);
}

TEST_F(SanTest, RaiiWindowEnablesAndDisables) {
  {
    ompx::San san(kSanRace, /*report_on_exit=*/false);
    EXPECT_EQ(San::instance().checks(), kSanRace);
  }
  EXPECT_EQ(San::instance().checks(), 0u);
}

TEST_F(SanTest, KlApiRoundTrip) {
  EXPECT_EQ(kl::klSanEnable("sync"), kl::klSuccess);
  EXPECT_EQ(San::instance().checks(), kSanSync);
  unsigned long long errors = 99;
  EXPECT_EQ(kl::klSanReport(&errors), kl::klSuccess);
  EXPECT_EQ(errors, 0ull);
  EXPECT_EQ(kl::klSanDisable(), kl::klSuccess);
  EXPECT_EQ(San::instance().checks(), 0u);
}

TEST_F(SanTest, ReportAlwaysCarriesCountLine) {
  EXPECT_NE(San::instance().report().find("ompxsan: 0 error(s)"),
            std::string::npos);
  San::instance().enable(kSanRace);
  LaunchParams p = one_block("counted");
  dev().launch_sync(p, [] {
    ompx::san::Shared<int> cell;
    cell = 1;
  });
  const auto n = San::instance().error_count();
  ASSERT_GE(n, 1u);
  EXPECT_NE(San::instance().report().find(
                "ompxsan: " + std::to_string(n) + " error(s)"),
            std::string::npos);
}

// --- exec-mode compatibility ---------------------------------------------
//
// Routing a hinted kernel to ExecMode::kDirect must be invisible to
// ompxsan: the racecheck shadow records the same accesses against the
// same barrier epochs whether threads run as plain calls or on fibers,
// so every seeded defect keeps its diagnostic and every guard test
// stays silent.

/// Diagnostic fingerprint of one launch of `kernel`, hinted convergent,
/// under `policy` (kAuto runs it direct, kFiber on fibers): sanitizer
/// reset, one launch, diagnostics of `kind` returned with the launch
/// record. The policy and hints are restored on return.
struct SanExecRun {
  LaunchRecord rec;
  std::vector<SanDiag> diags;
};

template <typename Kernel>
SanExecRun run_san_exec(ExecPolicy policy, unsigned checks, SanKind kind,
                        const char* name, unsigned threads,
                        const Kernel& kernel) {
  San::instance().reset();
  San::instance().enable(checks);
  struct Restore {
    ExecPolicy saved = exec_policy();
    ~Restore() {
      set_exec_policy(saved);
      clear_exec_hints();
    }
  } restore;
  set_exec_policy(policy);
  set_exec_hint(name, {true, false});
  SanExecRun out;
  out.rec = dev().launch_sync(one_block(name, threads), kernel);
  for (const auto& d : San::instance().diagnostics())
    if (d.kind == kind) out.diags.push_back(d);
  return out;
}

TEST_F(SanTest, SeededRaceReportsIdenticallyUnderDirect) {
  const auto kernel = [] {
    auto& t = this_thread();
    ompx::san::Shared<int> cell;
    cell = static_cast<int>(t.flat_tid);  // every thread writes: WAW race
  };
  const SanExecRun fib = run_san_exec(ExecPolicy::kFiber, kSanRace,
                                      SanKind::kSharedRace, "exec_waw", 64,
                                      kernel);
  const SanExecRun dir = run_san_exec(ExecPolicy::kAuto, kSanRace,
                                      SanKind::kSharedRace, "exec_waw", 64,
                                      kernel);
  // The seeded race is sync-free, so the hinted run is direct...
  EXPECT_EQ(fib.rec.exec_mode, "fiber");
  EXPECT_EQ(dir.rec.exec_mode, "direct");
  EXPECT_EQ(dir.rec.stats.sched_lane_loops, 64u);
  EXPECT_EQ(dir.rec.stats.fibers_created + dir.rec.stats.fiber_reuses, 0u);
  // ...and the shadow cells see the identical access history.
  ASSERT_EQ(fib.diags.size(), dir.diags.size());
  ASSERT_FALSE(fib.diags.empty());
  for (std::size_t i = 0; i < fib.diags.size(); ++i) {
    EXPECT_EQ(fib.diags[i].message, dir.diags[i].message);
    EXPECT_EQ(fib.diags[i].tid_a, dir.diags[i].tid_a);
    EXPECT_EQ(fib.diags[i].tid_b, dir.diags[i].tid_b);
    EXPECT_EQ(fib.diags[i].epoch, dir.diags[i].epoch);
  }
}

TEST_F(SanTest, SeededRawRaceKeepsEpochAcrossTheDirectBarrier) {
  // Seeds a race *after* the barrier (epoch 1) between threads 0 and 1.
  // Direct lanes run their post-barrier code in descending order, so
  // thread 1's read comes before thread 0's write there: the same
  // conflict, reported from the other side of the pair (write-after-
  // read by thread 0 instead of read-after-write by thread 1), in the
  // same epoch.
  const auto kernel = [] {
    auto& t = this_thread();
    auto tile = ompx::san::shared_array<int>(64);
    tile[t.flat_tid] = static_cast<int>(t.flat_tid);
    t.block->sync_threads(t);             // epoch 0 -> 1
    if (t.flat_tid == 0) tile[1] = 7;     // writes thread 1's slot
    int v = tile[t.flat_tid];             // tid 1 reads it: RAW in epoch 1
    (void)v;
  };
  const SanExecRun fib = run_san_exec(ExecPolicy::kFiber, kSanRace,
                                      SanKind::kSharedRace, "exec_raw", 64,
                                      kernel);
  const SanExecRun dir = run_san_exec(ExecPolicy::kAuto, kSanRace,
                                      SanKind::kSharedRace, "exec_raw", 64,
                                      kernel);
  EXPECT_EQ(dir.rec.exec_mode, "direct");
  ASSERT_EQ(fib.diags.size(), 1u) << San::instance().report();
  ASSERT_EQ(dir.diags.size(), 1u) << San::instance().report();
  EXPECT_EQ(fib.diags[0].epoch, 1u);
  EXPECT_EQ(dir.diags[0].epoch, 1u);
  EXPECT_EQ(fib.diags[0].tid_a, 1u);
  EXPECT_EQ(fib.diags[0].tid_b, 0u);
  EXPECT_EQ(dir.diags[0].tid_a, 0u);
  EXPECT_EQ(dir.diags[0].tid_b, 1u);
  // The same shared-memory byte (the arenas of the two launches differ,
  // so compare the offset each report names).
  const auto offset = [](const std::string& msg) {
    const std::size_t at = msg.find("shared+");
    return at == std::string::npos ? std::string()
                                   : msg.substr(at, msg.find(' ', at) - at);
  };
  EXPECT_EQ(offset(fib.diags[0].message), "shared+4") << fib.diags[0].message;
  EXPECT_EQ(offset(fib.diags[0].message), offset(dir.diags[0].message));
  EXPECT_NE(fib.diags[0].message.find("read-after-write"), std::string::npos)
      << fib.diags[0].message;
  EXPECT_NE(dir.diags[0].message.find("write-after-read"), std::string::npos)
      << dir.diags[0].message;
}

TEST_F(SanTest, RacecheckGuardsStaySilentUnderDirect) {
  // The false-positive boundaries must not move: same-thread reuse,
  // barrier-separated handoff and atomics are all silent on fibers and
  // direct.
  const auto same_thread = [] {
    auto& t = this_thread();
    auto tile = ompx::san::shared_array<double>(64);
    tile[t.flat_tid] = 1.0;
    double v = tile[t.flat_tid];
    tile[t.flat_tid] = v + 1.0;
  };
  const auto handoff = [] {
    auto& t = this_thread();
    auto tile = ompx::san::shared_array<int>(64);
    tile[t.flat_tid] = static_cast<int>(t.flat_tid);
    t.block->sync_threads(t);
    int v = tile[63 - t.flat_tid];
    (void)v;
  };
  const auto atomics = [] {
    ompx::san::Shared<int> sum;
    sum.atomic_add(1);
  };
  for (const ExecPolicy policy : {ExecPolicy::kFiber, ExecPolicy::kAuto}) {
    const char* mode = policy == ExecPolicy::kAuto ? "direct" : "fiber";
    const auto a = run_san_exec(policy, kSanRace, SanKind::kSharedRace,
                                "exec_same_thread", 64, same_thread);
    EXPECT_EQ(a.rec.exec_mode, mode);
    EXPECT_EQ(a.diags.size(), 0u) << San::instance().report();
    const auto b = run_san_exec(policy, kSanRace, SanKind::kSharedRace,
                                "exec_handoff", 64, handoff);
    EXPECT_EQ(b.rec.exec_mode, mode);
    EXPECT_EQ(b.diags.size(), 0u) << San::instance().report();
    const auto c = run_san_exec(policy, kSanRace, SanKind::kSharedRace,
                                "exec_atomics", 64, atomics);
    EXPECT_EQ(c.rec.exec_mode, mode);
    EXPECT_EQ(c.diags.size(), 0u) << San::instance().report();
  }
}

TEST_F(SanTest, MemcheckOobDiagnosedAndPoisonedInline) {
  // memcheck runs entirely in the global-pointer accessors — no engine
  // rendezvous — so a direct run diagnoses and poisons the bad load
  // in the lane's plain call.
  ompx::DeviceBuffer<int> buf(8, &dev());
  buf.fill_bytes(0);
  int seen = 0;
  const auto r = run_san_exec(ExecPolicy::kAuto, kSanMem,
                              SanKind::kGlobalOob, "exec_oob", 1, [&] {
                                auto a = buf.checked();
                                seen = a[8];  // one past the end
                              });
  EXPECT_EQ(r.rec.exec_mode, "direct");
  EXPECT_EQ(r.rec.stats.sched_lane_loops, 1u);
  ASSERT_FALSE(r.diags.empty());
  int poison;
  std::memset(&poison, kFreePattern, sizeof poison);
  EXPECT_EQ(seen, poison);
}

TEST_F(SanTest, AccessorsWorkWithSanitizerOff) {
  // The instrumented accessors must be pure pass-throughs when off.
  ompx::DeviceBuffer<int> buf(4, &dev());
  buf.fill_bytes(0);
  LaunchParams p = one_block("off_path", 4);
  dev().launch_sync(p, [&] {
    auto& t = this_thread();
    auto tile = ompx::san::shared_array<int>(4);
    tile[t.flat_tid] = static_cast<int>(t.flat_tid);
    auto a = buf.checked();
    a[t.flat_tid] = tile[t.flat_tid] * 2;
  });
  const auto host = buf.download();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(host[i], 2 * i);
  EXPECT_EQ(San::instance().error_count(), 0u);
}

}  // namespace
