// ompx-analyze — the CFG + dataflow analysis layer behind the lint
// rules (see cfg.h for the front end, lint.h for the rule surface).
//
// Per kernel region the analyzer runs:
//  * a lane-dependence taint analysis: seeded at the thread-identity
//    spellings (threadIdx / ompx_thread_id_x / lane id / ...),
//    propagated through assignments, merged at CFG joins with
//    Uniform < May < Lane (a variable lane-dependent on only some
//    paths is May — "may diverge", a warning, not an error);
//  * path-sensitive divergent-sync verdicts: a block barrier that is
//    control-dependent (Ferrante, via postdominators) on a
//    lane-dependent branch is a must-diverge error; sibling branches
//    whose barrier counts are equal are downgraded to a portability
//    warning (this engine's counted barrier tolerates them; lockstep
//    GPUs may not); unequal counts across arms that both synchronize
//    are a barrier-mismatch finding at the branch;
//  * a shared-memory dirty-set dataflow: a write marks the variable
//    dirty, a barrier on every path to a read clears it, joins keep
//    must/may dirtiness apart — the reduction idiom falls out clean,
//    loop-carried write→read hazards surface via the back edge;
//  * a region-granular exec verdict: no collectives → convergent;
//    atomics only → convergent, with atomics (an atomic is not a
//    rendezvous; direct lanes run it in place); any block barrier or
//    warp op → needs fibers, also one reached through a call into a
//    function of the same source or into a `__device__` function only
//    declared there;
//  * C-ABI contract rules over the host code: statement-position calls
//    that discard an ompx_result_t, and ompx_graph_get_nodes without a
//    prior ompx_graph_node_count (the two-call enumeration protocol).
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rewrite/lint.h"

namespace rewrite {

/// Static lane-execution verdict for one kernel region.
struct ExecVerdict {
  std::string kernel;
  bool named = false;  ///< bound to a real launch name / __global__ fn
  int line = 1;
  bool convergent = false;
  bool needs_fibers = false;
  bool atomics_ok = false;  ///< convergent, with atomics
  std::string reason;
};

struct AnalyzeOptions {
  bool check_divergent_sync = true;
  bool check_shared_sync = true;
  bool check_contract = true;
  bool suppress_allowed = true;  ///< honor ompx-lint-allow annotations
};

struct AnalysisResult {
  std::vector<LintFinding> findings;  ///< sorted by line
  std::vector<ExecVerdict> kernels;   ///< one verdict per region
};

/// Analyzes one translation unit's text.
AnalysisResult analyze_source(const std::string& source,
                              const AnalyzeOptions& options = {});

/// Human-readable report: finding lines (format_lint style, with
/// severity) followed by one verdict line per kernel.
std::string format_analysis(const AnalysisResult& result,
                            const std::string& filename = "<input>");

/// SARIF 2.1.0 document over per-file analysis results (one run, one
/// result per finding; kernel verdicts land in the run's properties).
std::string analysis_to_sarif(
    const std::vector<std::pair<std::string, AnalysisResult>>& files);

/// Analyzes `source` and registers one simt::ExecHint per named kernel
/// region (regions sharing a launch name are merged conservatively).
/// Returns the number of hints registered. This is how a build step or
/// app startup can feed static convergence proofs straight into the
/// engine's per-kernel registry.
int register_exec_hints(const std::string& source);

/// `ompx-lint-allow` suppression markers: the bare form allows every
/// rule on that line (and the next); `ompx-lint-allow(rule-a, rule-b)`
/// allows only the named rules.
struct AllowSpec {
  bool all = false;
  std::set<std::string> rules;
};

/// Scans raw source for suppression markers, keyed by line.
std::map<int, AllowSpec> collect_allows(const std::string& source);

/// True when a finding of `rule` at `line` is suppressed.
bool allow_matches(const std::map<int, AllowSpec>& allows, int line,
                   const char* rule);

}  // namespace rewrite
