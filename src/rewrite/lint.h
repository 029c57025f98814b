// ompx_lint — the static side of ompxsan (see simt/san.h for the
// dynamic side). Since the ompx-analyze rework the dataflow rules run
// on a real per-kernel control-flow graph (rewrite/cfg.h +
// rewrite/analyze.h), not a line-granular pattern match: verdicts are
// path-sensitive, with must-diverge errors separated from may-diverge
// warnings.
//
// Rules:
//   divergent-sync        a block-wide barrier (__syncthreads /
//                         ompx_sync_thread_block / kl::syncthreads)
//                         that is control-dependent on a lane-dependent
//                         branch — the canonical barrier-divergence
//                         deadlock the engine's census reports at run
//                         time. Lane-dependent: error. Possibly
//                         lane-dependent (divergent on some paths
//                         only), or equal barrier counts across both
//                         arms (engine-tolerated, non-portable):
//                         warning.
//   barrier-mismatch      sibling branch arms that both synchronize
//                         but a different number of times — lanes
//                         pair up with the wrong barrier.
//   unsynced-shared-read  a read of a shared-memory variable that a
//                         write reaches with no block barrier on the
//                         path (dirty-set dataflow; the reduction
//                         idiom `a[tid] += a[tid+s];` after a barrier
//                         stays clean, loop-carried hazards are caught
//                         via the back edge).
//   unported-builtin      CUDA builtins left in ported code
//                         (threadIdx.x, __syncthreads, __shared__, ...)
//                         — `kl::threadIdx()` and other ::-qualified
//                         uses never flag.
//   unchecked-result      a statement-position call to a host C-ABI
//                         entry point whose ompx_result_t return is
//                         discarded (wrap it in OMPX_CHECK).
//   two-call-enumeration  ompx_graph_get_nodes called with no prior
//                         ompx_graph_node_count in the same function —
//                         the capacity/written two-call protocol.
//
// A finding on a line containing `ompx-lint-allow` (or whose previous
// line contains it) is suppressed. The per-rule form
// `ompx-lint-allow(divergent-sync)` suppresses only the named rules,
// so one annotation cannot mask an unrelated second finding.
#pragma once

#include <string>
#include <vector>

namespace rewrite {

enum class LintRule {
  kDivergentSync,
  kUnsyncedSharedRead,
  kUnportedBuiltin,
  kBarrierMismatch,
  kUncheckedResult,
  kTwoCallEnumeration,
};

/// Stable kebab-case rule name (what the output and tests key on).
const char* lint_rule_name(LintRule r);

enum class Severity { kWarning, kError };

struct LintFinding {
  LintRule rule = LintRule::kDivergentSync;
  int line = 0;        ///< 1-based source line
  std::string symbol;  ///< offending token / shared variable
  std::string message;
  Severity severity = Severity::kError;
};

struct LintOptions {
  bool check_divergent_sync = true;
  bool check_shared_sync = true;
  bool check_unported = true;
  bool check_contract = true;
};

/// Lints one translation unit's text. Comments and string literals are
/// ignored; `ompx-lint-allow` suppresses per line (optionally
/// per rule).
std::vector<LintFinding> lint_source(const std::string& source,
                                     const LintOptions& options = {});

/// "file:line: severity: [rule-name] message" lines, one per finding.
std::string format_lint(const std::vector<LintFinding>& findings,
                        const std::string& filename = "<input>");

/// Static lane-execution classification of one kernel's source (the
/// engine's ExecHint, inferred instead of declared). Since the
/// ompx-analyze rework this is region-granular: each kernel region is
/// classified separately and the result is the union. A source with no
/// collectives is convergent; atomics alone keep it convergent with
/// `atomics_ok` set (an atomic is not a rendezvous — direct lanes run
/// it in place, see BlockState::note_atomic); a block barrier or
/// warp op anywhere in a region, or in a function of the source it
/// calls, forces fibers. Feed the result to
/// ompx::launch_hints / simt::set_exec_hint, or use
/// rewrite::register_exec_hints (analyze.h) to do it in one step.
struct ExecClass {
  bool convergent = false;    ///< no barrier / warp op found
  bool needs_fibers = false;  ///< barrier or warp op present
  bool atomics_ok = false;    ///< convergent, with atomics
  std::string reason;         ///< first token that decided the verdict
};

ExecClass classify_exec(const std::string& source);

}  // namespace rewrite
