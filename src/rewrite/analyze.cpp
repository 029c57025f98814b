#include "rewrite/analyze.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rewrite/cfg.h"
#include "simt/device.h"

namespace rewrite {

namespace {

// ---------------------------------------------------------------------------
// Token vocabularies
// ---------------------------------------------------------------------------

/// Thread-identity seeds: an expression mentioning any of these (or a
/// variable assigned from one) is divergent across the threads of a
/// block. blockIdx is deliberately absent — it is uniform per block.
const std::unordered_set<std::string>& divergence_seeds() {
  static const std::unordered_set<std::string> s = {
      "threadIdx",          "ompx_thread_id_x", "ompx_thread_id_y",
      "ompx_thread_id_z",   "thread_id",        "global_thread_id",
      "global_thread_id_x", "ompx_lane_id",     "lane_id",
      "laneId",             "flat_tid",
  };
  return s;
}

/// Block-wide barrier spellings across the layers.
const std::unordered_set<std::string>& sync_tokens() {
  static const std::unordered_set<std::string> s = {
      "__syncthreads", "ompx_sync_thread_block", "sync_thread_block",
      "syncthreads",
  };
  return s;
}

/// Warp rendezvous spellings: these force the fiber path — a warp op is
/// a cross-lane rendezvous direct lanes, run one after another, cannot
/// satisfy.
const std::unordered_set<std::string>& warp_tokens() {
  static const std::unordered_set<std::string> s = {
      "__syncwarp", "__shfl_sync", "__shfl_up_sync", "__shfl_down_sync",
      "__shfl_xor_sync", "__ballot_sync", "__any_sync", "__all_sync",
      "__activemask", "__reduce_add_sync",
      "shfl", "shfl_up", "shfl_down", "shfl_xor", "ballot", "any_sync",
      "all_sync", "syncwarp", "warp_reduce", "warp_scan", "warp_vote",
      "ompx_shfl_down_sync", "ompx_shfl_sync", "ompx_ballot_sync",
  };
  return s;
}

/// Atomic spellings. An atomic is not a rendezvous: a region whose only
/// collectives are atomics is still convergent, and its direct lanes
/// run the atomics in place (see BlockState::note_atomic).
const std::unordered_set<std::string>& atomic_tokens() {
  static const std::unordered_set<std::string> s = {
      "atomicAdd", "atomicSub", "atomicMax", "atomicMin", "atomicExch",
      "atomicCAS", "atomicAnd", "atomicOr", "atomicXor", "atomic_add",
      "atomic_sub", "atomic_max", "atomic_min", "atomic_exch", "atomic_xor",
      "atomic_cas",
      "atomic_ref",
  };
  return s;
}

/// Shared-memory allocator spellings (library equivalents of a
/// __shared__ declaration).
const std::unordered_set<std::string>& shared_alloc_tokens() {
  static const std::unordered_set<std::string> s = {
      "groupprivate", "dynamic_groupprivate", "shared_array", "shared_var",
      "dynamic_shared",
  };
  return s;
}

/// Host C-ABI entry points returning ompx_result_t whose result must
/// not be discarded (rule unchecked-result). Device-side calls are
/// deliberately absent.
const std::unordered_set<std::string>& must_check_apis() {
  static const std::unordered_set<std::string> s = {
      "ompx_free", "ompx_memcpy", "ompx_memset", "ompx_device_synchronize",
      "ompx_set_device", "ompx_memcpy_peer", "ompx_device_enable_peer_access",
      "ompx_device_disable_peer_access", "ompx_device_can_access_peer",
      "ompx_stream_create", "ompx_stream_destroy", "ompx_stream_synchronize",
      "ompx_memcpy_async", "ompx_memset_async", "ompx_free_async",
      "ompx_mempool_get_stats", "ompx_mempool_trim",
      "ompx_stream_begin_capture", "ompx_stream_end_capture",
      "ompx_graph_instantiate", "ompx_graph_launch", "ompx_graph_destroy",
      "ompx_graph_node_count", "ompx_graph_get_nodes", "ompx_launch_kernel",
      "ompx_event_create", "ompx_event_destroy", "ompx_event_record",
      "ompx_event_synchronize", "ompx_stream_wait_event",
      "ompx_set_exec_hint", "ompx_set_exec_policy",
      "ompx_register_exec_hints",
  };
  return s;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool is_assign_op(const Token& t) {
  if (t.kind != Token::Kind::kPunct) return false;
  static const std::unordered_set<std::string> ops = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
  return ops.count(t.text) != 0;
}

// ---------------------------------------------------------------------------
// Lane-dependence taint lattice
// ---------------------------------------------------------------------------

// Uniform < May < Lane. Eval over an expression takes the max of its
// parts; the merge at a CFG join keeps equal values and demotes
// disagreement to May ("lane-dependent on some paths only").
constexpr int kUniform = 0;
constexpr int kMay = 1;
constexpr int kLane = 2;

using VarState = std::map<std::string, int>;

int state_get(const VarState& st, const std::string& name) {
  const auto it = st.find(name);
  return it == st.end() ? kUniform : it->second;
}

void state_set(VarState& st, const std::string& name, int taint) {
  if (taint == kUniform) st.erase(name);
  else st[name] = taint;
}

/// Join at a CFG merge point. Returns true when `into` changed.
bool state_join(VarState& into, const VarState& other) {
  bool changed = false;
  std::set<std::string> keys;
  for (const auto& [k, v] : into) keys.insert(k);
  for (const auto& [k, v] : other) keys.insert(k);
  for (const std::string& k : keys) {
    const int a = state_get(into, k);
    const int b = state_get(other, k);
    const int merged = a == b ? a : kMay;
    if (merged != a) {
      state_set(into, k, merged);
      changed = true;
    }
  }
  return changed;
}

/// Taint of an expression: max over thread-identity seeds and tainted
/// variables it mentions.
int eval_taint(const std::vector<Token>& toks, std::size_t begin,
               std::size_t end, const VarState& st) {
  int taint = kUniform;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (divergence_seeds().count(t.text) != 0) return kLane;
    taint = std::max(taint, state_get(st, t.text));
  }
  return taint;
}

/// Applies the assignments of one statement's tokens to the state.
/// `x = e` overwrites x's taint with e's; `x op= e` joins; writes to an
/// array element (`a[i] = e`) do not retaint the array's name.
void apply_assignments(const std::vector<Token>& toks, VarState& st) {
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_assign_op(toks[i]) || i == 0) continue;
    const Token& prev = toks[i - 1];
    std::string target;
    if (prev.kind == Token::Kind::kIdent) target = prev.text;
    // else: `a[i] =` / `*p =` — element or indirect write; no rename.
    // Right-hand side: up to `,` or `;` at depth 0 (multi-declarators).
    std::size_t stop = i + 1;
    int depth = 0;
    for (; stop < n; ++stop) {
      const Token& t = toks[stop];
      if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) depth++;
      else if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) {
        if (depth == 0) break;
        depth--;
      } else if (depth == 0 && (is_punct(t, ",") || is_punct(t, ";"))) {
        break;
      }
    }
    if (target.empty()) continue;
    const int rhs = eval_taint(toks, i + 1, stop, st);
    const bool compound = toks[i].text != "=";
    state_set(st, target,
              compound ? std::max(state_get(st, target), rhs) : rhs);
  }
}

const std::vector<Token>* node_tokens(const CfgNode& node) {
  if (node.stmt == nullptr) return nullptr;
  return &node.stmt->head;
}

// ---------------------------------------------------------------------------
// Taint dataflow over the CFG
// ---------------------------------------------------------------------------

struct TaintResult {
  std::vector<VarState> in;          // per CFG node
  std::vector<char> reached;         // per CFG node
  std::map<const Stmt*, int> branch_taint;
  std::vector<int> divergence;       // per CFG node, via control deps
};

TaintResult run_taint(const Cfg& cfg) {
  TaintResult r;
  const std::size_t count = cfg.nodes.size();
  r.in.assign(count, {});
  r.reached.assign(count, 0);
  r.reached[Cfg::kEntry] = 1;
  std::deque<int> work = {Cfg::kEntry};
  std::vector<char> queued(count, 0);
  queued[Cfg::kEntry] = 1;
  std::size_t guard = 0;
  const std::size_t max_steps = count * count * 8 + 64;
  while (!work.empty() && ++guard < max_steps) {
    const int node = work.front();
    work.pop_front();
    queued[static_cast<std::size_t>(node)] = 0;
    VarState out = r.in[static_cast<std::size_t>(node)];
    const CfgNode& cn = cfg.nodes[static_cast<std::size_t>(node)];
    if (const std::vector<Token>* toks = node_tokens(cn))
      apply_assignments(*toks, out);
    for (int s : cn.succs) {
      bool changed = false;
      if (!r.reached[static_cast<std::size_t>(s)]) {
        r.reached[static_cast<std::size_t>(s)] = 1;
        r.in[static_cast<std::size_t>(s)] = out;
        changed = true;
      } else {
        changed = state_join(r.in[static_cast<std::size_t>(s)], out);
      }
      if (changed && !queued[static_cast<std::size_t>(s)]) {
        queued[static_cast<std::size_t>(s)] = 1;
        work.push_back(s);
      }
    }
  }

  // Branch condition taints (at the fixpoint's IN states).
  std::vector<int> branch_node_taint(count, kUniform);
  for (std::size_t i = 0; i < count; ++i) {
    const CfgNode& cn = cfg.nodes[i];
    if (cn.kind != CfgNode::Kind::kBranch || cn.stmt == nullptr) continue;
    const int t = eval_taint(cn.stmt->head, 0, cn.stmt->head.size(), r.in[i]);
    branch_node_taint[i] = t;
    auto it = r.branch_taint.find(cn.stmt);
    if (it == r.branch_taint.end() || it->second < t)
      r.branch_taint[cn.stmt] = t;
  }

  // Divergence level per node: transitive max over the branches it is
  // control-dependent on.
  r.divergence.assign(count, kUniform);
  bool changed = true;
  std::size_t iters = 0;
  while (changed && ++iters <= count + 2) {
    changed = false;
    for (std::size_t i = 0; i < count; ++i) {
      int lvl = r.divergence[i];
      for (int b : cfg.control_deps[i]) {
        lvl = std::max(lvl, branch_node_taint[static_cast<std::size_t>(b)]);
        lvl = std::max(lvl, r.divergence[static_cast<std::size_t>(b)]);
      }
      if (lvl != r.divergence[i]) {
        r.divergence[i] = lvl;
        changed = true;
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Divergent-sync verdicts: sibling barrier counting on the statement
// tree, early-exit coverage via CFG control dependence.
// ---------------------------------------------------------------------------

struct ArmCount {
  int n = 0;
  bool unknown = false;  // conditional or loop-varying barrier count
};

int count_token_barriers(const std::vector<Token>& toks) {
  int n = 0;
  for (const Token& t : toks)
    if (t.kind == Token::Kind::kIdent && sync_tokens().count(t.text) != 0) n++;
  return n;
}

ArmCount count_arm(const std::vector<Stmt>& stmts);

ArmCount count_one(const Stmt& s) {
  ArmCount c;
  switch (s.kind) {
    case Stmt::Kind::kSimple:
    case Stmt::Kind::kReturn:
      c.n = count_token_barriers(s.head);
      break;
    case Stmt::Kind::kBlock:
      return count_arm(s.body);
    case Stmt::Kind::kIf: {
      const ArmCount t = count_arm(s.body);
      const ArmCount e = count_arm(s.orelse);
      if (!t.unknown && !e.unknown && t.n == e.n) c.n = t.n;
      else c.unknown = true;
      break;
    }
    case Stmt::Kind::kLoop:
    case Stmt::Kind::kDoWhile: {
      const ArmCount b = count_arm(s.body);
      if (b.n > 0 || b.unknown) c.unknown = true;  // trip-count dependent
      break;
    }
    case Stmt::Kind::kSwitch: {
      bool first = true;
      int common = 0;
      bool ok = s.has_default && !s.arms.empty();
      for (const std::vector<Stmt>& arm : s.arms) {
        const ArmCount a = count_arm(arm);
        if (a.unknown) ok = false;
        if (first) common = a.n;
        else if (a.n != common) ok = false;
        first = false;
        if (a.n > 0 || a.unknown) c.unknown = true;  // provisional
      }
      if (ok) {
        c.n = common;
        c.unknown = false;
      }
      break;
    }
    case Stmt::Kind::kBreak:
    case Stmt::Kind::kContinue:
      break;
  }
  return c;
}

ArmCount count_arm(const std::vector<Stmt>& stmts) {
  ArmCount total;
  for (const Stmt& s : stmts) {
    const ArmCount c = count_one(s);
    total.n += c.n;
    total.unknown = total.unknown || c.unknown;
  }
  return total;
}

void barrier_token_lines(const std::vector<Stmt>& stmts,
                         std::vector<int>& out) {
  for (const Stmt& s : stmts) {
    for (const Token& t : s.head)
      if (t.kind == Token::Kind::kIdent && sync_tokens().count(t.text) != 0)
        out.push_back(t.line);
    barrier_token_lines(s.body, out);
    barrier_token_lines(s.orelse, out);
    for (const auto& arm : s.arms) barrier_token_lines(arm, out);
  }
}

struct BarrierClaim {
  bool emit = true;
  Severity severity = Severity::kError;
  std::string message;
};

struct DivergenceWalker {
  const std::map<const Stmt*, int>& branch_taint;
  std::map<int, BarrierClaim>& claims;  // keyed by barrier token line
  std::vector<LintFinding>& findings;

  void claim(int line, bool emit, Severity sev, std::string msg) {
    auto it = claims.find(line);
    if (it == claims.end()) {
      claims[line] = {emit, sev, std::move(msg)};
      return;
    }
    // Keep the more severe verdict for a doubly-claimed line.
    if (emit && it->second.emit && sev == Severity::kError &&
        it->second.severity == Severity::kWarning)
      it->second = {emit, sev, std::move(msg)};
  }

  static const char* may_suffix(int taint) {
    return taint == kLane ? "" : " (condition is lane-dependent on some paths)";
  }

  void claim_arm(const std::vector<Stmt>& arm, int taint,
                 const std::string& msg, bool emit = true) {
    std::vector<int> lines;
    barrier_token_lines(arm, lines);
    for (int line : lines)
      claim(line, emit,
            taint == kLane ? Severity::kError : Severity::kWarning, msg);
  }

  int taint_of(const Stmt& s) const {
    const auto it = branch_taint.find(&s);
    return it == branch_taint.end() ? kUniform : it->second;
  }

  void walk(const std::vector<Stmt>& stmts) {
    for (const Stmt& s : stmts) {
      switch (s.kind) {
        case Stmt::Kind::kIf: {
          const int ct = taint_of(s);
          if (ct >= kMay) handle_branch_arms(s, ct, s.body, s.orelse);
          walk(s.body);
          walk(s.orelse);
          break;
        }
        case Stmt::Kind::kLoop:
        case Stmt::Kind::kDoWhile: {
          const int ct = taint_of(s);
          if (ct >= kMay) {
            std::vector<int> lines;
            barrier_token_lines(s.body, lines);
            for (int line : lines)
              claim(line, true,
                    ct == kLane ? Severity::kError : Severity::kWarning,
                    std::string("block-wide barrier inside a loop whose trip "
                                "count depends on the thread id — lanes "
                                "iterate different numbers of times and "
                                "mismatch at the barrier") +
                        may_suffix(ct));
          }
          walk(s.body);
          break;
        }
        case Stmt::Kind::kSwitch: {
          const int ct = taint_of(s);
          if (ct >= kMay) handle_switch(s, ct);
          for (const auto& arm : s.arms) walk(arm);
          break;
        }
        case Stmt::Kind::kBlock:
          walk(s.body);
          break;
        default:
          break;
      }
    }
  }

  void handle_branch_arms(const Stmt& s, int ct,
                          const std::vector<Stmt>& then_arm,
                          const std::vector<Stmt>& else_arm) {
    const ArmCount t = count_arm(then_arm);
    const ArmCount e = count_arm(else_arm);
    const bool then_syncs = t.n > 0 || t.unknown;
    const bool else_syncs = e.n > 0 || e.unknown;
    if (!then_syncs && !else_syncs) return;
    if (!t.unknown && !e.unknown && t.n == e.n) {
      // Equal counts: every lane passes the same number of barriers.
      // This engine's counted barrier tolerates it; lockstep GPUs that
      // pair barriers by instruction may not.
      claim_arm(then_arm, kMay,
                "lane-divergent branches synchronize equal barrier counts — "
                "tolerated by a counted barrier, non-portable to lockstep "
                "GPUs");
      claim_arm(else_arm, kMay,
                "lane-divergent branches synchronize equal barrier counts — "
                "tolerated by a counted barrier, non-portable to lockstep "
                "GPUs");
      return;
    }
    if (then_syncs && else_syncs) {
      // Both arms synchronize, counts differ: report once at the branch.
      LintFinding f;
      f.rule = LintRule::kBarrierMismatch;
      f.line = s.line;
      f.symbol = "barrier";
      f.severity = ct == kLane ? Severity::kError : Severity::kWarning;
      auto count_str = [](const ArmCount& c) {
        return c.unknown ? std::string("?") : std::to_string(c.n);
      };
      f.message = "branch arms under a lane-dependent condition synchronize "
                  "different barrier counts (then: " +
                  count_str(t) + ", else: " + count_str(e) +
                  ") — lanes taking different arms pair up with the wrong "
                  "barrier" +
                  may_suffix(ct);
      findings.push_back(std::move(f));
      claim_arm(then_arm, kUniform, "", /*emit=*/false);
      claim_arm(else_arm, kUniform, "", /*emit=*/false);
      return;
    }
    const std::vector<Stmt>& syncing = then_syncs ? then_arm : else_arm;
    claim_arm(syncing, ct,
              std::string("block-wide barrier under a lane-dependent "
                          "condition — threads that skip it deadlock the "
                          "block (barrier divergence)") +
                  may_suffix(ct));
  }

  void handle_switch(const Stmt& s, int ct) {
    std::vector<ArmCount> counts;
    for (const auto& arm : s.arms) counts.push_back(count_arm(arm));
    if (!s.has_default) counts.push_back({0, false});
    int syncing = 0;
    bool all_equal = true;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i].n > 0 || counts[i].unknown) syncing++;
      if (counts[i].unknown || counts[i].n != counts[0].n ||
          counts[0].unknown)
        all_equal = false;
    }
    if (syncing == 0) return;
    if (all_equal) {
      for (const auto& arm : s.arms)
        claim_arm(arm, kMay,
                  "lane-divergent switch arms synchronize equal barrier "
                  "counts — tolerated by a counted barrier, non-portable to "
                  "lockstep GPUs");
      return;
    }
    if (syncing >= 2) {
      LintFinding f;
      f.rule = LintRule::kBarrierMismatch;
      f.line = s.line;
      f.symbol = "barrier";
      f.severity = ct == kLane ? Severity::kError : Severity::kWarning;
      f.message = "switch arms under a lane-dependent selector synchronize "
                  "different barrier counts — lanes taking different arms "
                  "pair up with the wrong barrier" +
                  std::string(may_suffix(ct));
      findings.push_back(std::move(f));
      for (const auto& arm : s.arms)
        claim_arm(arm, kUniform, "", /*emit=*/false);
      return;
    }
    for (const auto& arm : s.arms)
      claim_arm(arm, ct,
                std::string("block-wide barrier under a lane-dependent "
                            "switch arm — lanes taking other arms skip it "
                            "(barrier divergence)") +
                    may_suffix(ct));
  }
};

// ---------------------------------------------------------------------------
// Shared-memory dirty-set dataflow
// ---------------------------------------------------------------------------

struct DirtyInfo {
  int level = kMay;  // kMay: dirty on some paths; kLane used as "must"
  int line = 0;      // where the write happened
};
constexpr int kMustDirty = 2;
constexpr int kMayDirty = 1;

using DirtyState = std::map<std::string, DirtyInfo>;

bool dirty_join(DirtyState& into, const DirtyState& other, bool into_reached) {
  bool changed = false;
  if (!into_reached) return false;
  // Vars present in only one input demote to may-dirty.
  for (auto& [name, info] : into) {
    const auto it = other.find(name);
    const int merged =
        it == other.end() ? kMayDirty : std::min(info.level, it->second.level);
    if (merged != info.level) {
      info.level = merged;
      changed = true;
    }
  }
  for (const auto& [name, info] : other) {
    if (into.count(name) != 0) continue;
    into[name] = {kMayDirty, info.line};
    changed = true;
  }
  return changed;
}

/// Per-statement shared-memory operations.
struct SharedOps {
  std::vector<std::pair<std::string, int>> reads;   // (var, token line)
  std::vector<std::pair<std::string, int>> writes;  // (var, token line)
  bool barrier = false;
};

SharedOps shared_ops(const std::vector<Token>& toks,
                     const std::set<std::string>& shared_vars) {
  SharedOps ops;
  const std::size_t n = toks.size();
  // Occurrence indices that are plain-assignment targets (not reads).
  std::set<std::size_t> write_targets;
  for (std::size_t i = 1; i < n; ++i) {
    const bool assign = is_assign_op(toks[i]);
    const bool incdec = toks[i].kind == Token::Kind::kPunct &&
                        (toks[i].text == "++" || toks[i].text == "--");
    if (!assign && !incdec) continue;
    std::size_t ti = n;
    const Token& prev = toks[i - 1];
    if (prev.kind == Token::Kind::kIdent) {
      ti = i - 1;
    } else if (is_punct(prev, "]")) {
      int depth = 0;
      for (std::size_t j = i - 1; j-- > 0;) {
        if (is_punct(toks[j], "]")) depth++;
        else if (is_punct(toks[j], "[")) {
          if (depth == 0) {
            if (j > 0 && toks[j - 1].kind == Token::Kind::kIdent) ti = j - 1;
            break;
          }
          depth--;
        }
      }
      if (ti == n && is_punct(prev, "]")) {
        // no match found; ignore
      }
    }
    if (ti >= n) continue;
    const std::string& name = toks[ti].text;
    if (shared_vars.count(name) == 0) continue;
    const bool plain = assign && toks[i].text == "=";
    if (plain) write_targets.insert(ti);  // compound ops also read
    // `tile = groupprivate<...>(n)` binds the handle; it does not write
    // the shared contents another thread could observe.
    bool alloc_binding = false;
    int depth = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const Token& t = toks[j];
      if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) depth++;
      else if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) {
        if (depth == 0) break;
        depth--;
      } else if (depth == 0 && (is_punct(t, ";") || is_punct(t, ","))) {
        break;
      } else if (t.kind == Token::Kind::kIdent &&
                 shared_alloc_tokens().count(t.text) != 0) {
        alloc_binding = true;
        break;
      }
    }
    if (alloc_binding) continue;
    ops.writes.emplace_back(name, toks[ti].line);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (sync_tokens().count(t.text) != 0) ops.barrier = true;
    if (shared_vars.count(t.text) != 0 && write_targets.count(i) == 0)
      ops.reads.emplace_back(t.text, t.line);
  }
  return ops;
}

/// Collects the region's shared-memory variable names: `__shared__ T
/// name` declarations and `name = ...shared allocator<...>` bindings.
void collect_shared_vars(const std::vector<Token>& toks,
                         std::set<std::string>& out) {
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    if (toks[i].text == "__shared__") {
      // __shared__ [extern] T name [dims]; take the ident right before
      // `[`, `;` or `=`.
      std::size_t j = i + 1;
      std::string last_ident;
      while (j < n && !is_punct(toks[j], ";") && !is_punct(toks[j], "[") &&
             !is_punct(toks[j], "=")) {
        if (toks[j].kind == Token::Kind::kIdent) last_ident = toks[j].text;
        j++;
      }
      if (!last_ident.empty()) out.insert(last_ident);
      continue;
    }
    if (shared_alloc_tokens().count(toks[i].text) != 0) {
      // Scan back within the statement for the nearest `=`, then the
      // declared name just before it.
      for (std::size_t j = i; j-- > 0;) {
        if (is_punct(toks[j], ";") || is_punct(toks[j], "{")) break;
        if (is_punct(toks[j], "=") && j > 0 &&
            toks[j - 1].kind == Token::Kind::kIdent) {
          out.insert(toks[j - 1].text);
          break;
        }
      }
    }
  }
}

void run_shared_analysis(const Cfg& cfg, const std::set<std::string>& shared,
                         std::vector<LintFinding>& findings) {
  if (shared.empty()) return;
  const std::size_t count = cfg.nodes.size();
  std::vector<DirtyState> in(count);
  std::vector<char> reached(count, 0);
  reached[Cfg::kEntry] = 1;
  std::deque<int> work = {Cfg::kEntry};
  std::vector<char> queued(count, 0);
  queued[Cfg::kEntry] = 1;
  std::size_t guard = 0;
  const std::size_t max_steps = count * count * 8 + 64;

  auto transfer = [&](int node, DirtyState st) {
    const CfgNode& cn = cfg.nodes[static_cast<std::size_t>(node)];
    if (const std::vector<Token>* toks = node_tokens(cn)) {
      const SharedOps ops = shared_ops(*toks, shared);
      if (ops.barrier) {
        st.clear();
      } else {
        for (const auto& [name, line] : ops.writes)
          st[name] = {kMustDirty, line};
      }
    }
    return st;
  };

  while (!work.empty() && ++guard < max_steps) {
    const int node = work.front();
    work.pop_front();
    queued[static_cast<std::size_t>(node)] = 0;
    const DirtyState out = transfer(node, in[static_cast<std::size_t>(node)]);
    const CfgNode& cn = cfg.nodes[static_cast<std::size_t>(node)];
    for (int s : cn.succs) {
      bool changed = false;
      if (!reached[static_cast<std::size_t>(s)]) {
        reached[static_cast<std::size_t>(s)] = 1;
        in[static_cast<std::size_t>(s)] = out;
        changed = true;
      } else {
        changed = dirty_join(in[static_cast<std::size_t>(s)], out, true);
      }
      if (changed && !queued[static_cast<std::size_t>(s)]) {
        queued[static_cast<std::size_t>(s)] = 1;
        work.push_back(s);
      }
    }
  }

  // Reporting pass at the fixpoint: reads are checked against the
  // pre-statement state, so `a[tid] += a[tid+s];` after a barrier is
  // clean while the same statement with the barrier missing flags.
  std::set<std::pair<int, std::string>> reported;
  for (std::size_t i = 0; i < count; ++i) {
    if (!reached[i]) continue;
    const std::vector<Token>* toks = node_tokens(cfg.nodes[i]);
    if (toks == nullptr) continue;
    const SharedOps ops = shared_ops(*toks, shared);
    for (const auto& [name, line] : ops.reads) {
      const auto it = in[i].find(name);
      if (it == in[i].end()) continue;
      if (!reported.insert({line, name}).second) continue;
      LintFinding f;
      f.rule = LintRule::kUnsyncedSharedRead;
      f.line = line;
      f.symbol = name;
      f.severity =
          it->second.level == kMustDirty ? Severity::kError : Severity::kWarning;
      f.message = "read of shared variable '" + name +
                  "' after a write with no block barrier in between — "
                  "another thread's write may not be visible";
      if (it->second.level != kMustDirty)
        f.message += " (dirty on some paths only — e.g. across loop "
                     "iterations or one branch arm)";
      if (it->second.line != 0 && it->second.line != line)
        f.message += " [written at line " + std::to_string(it->second.line) +
                     "]";
      findings.push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Exec verdicts
// ---------------------------------------------------------------------------

/// The first sync or warp token of `toks` as a verdict reason, or "".
std::string first_rendezvous(const std::vector<Token>& toks) {
  for (const bool barrier : {true, false})
    for (const Token& t : toks)
      if (t.kind == Token::Kind::kIdent &&
          (barrier ? sync_tokens() : warp_tokens()).count(t.text) != 0)
        return (barrier ? "block barrier '" : "warp op '") + t.text +
               "' (line " + std::to_string(t.line) + ")";
  return {};
}

/// The first call `f(` in `toks` whose callee is a key of `why`, or
/// nullptr.
const Token* first_call_into(const std::vector<Token>& toks,
                             const std::map<std::string, std::string>& why) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i)
    if (toks[i].kind == Token::Kind::kIdent && is_punct(toks[i + 1], "(") &&
        why.count(toks[i].text) != 0)
      return &toks[i];
  return nullptr;
}

/// Why calling each callable of a source may reach a block barrier or
/// a warp op, keyed by the callables that may: a sync or warp token in
/// one of its bodies, a `__device__` function whose body is in another
/// translation unit, or a call into another such callable (followed to
/// a fixed point, so call chains and recursion resolve).
std::map<std::string, std::string> rendezvous_callees(const Callables& c) {
  std::map<std::string, std::string> why;
  for (const auto& [name, line] : c.bodiless)
    why.emplace(name, "'" + name + "' declared without a body (line " +
                          std::to_string(line) + ")");
  for (const auto& [name, bodies] : c.bodies)
    for (const std::vector<Token>& body : bodies) {
      std::string r = first_rendezvous(body);
      if (r.empty()) continue;
      why.emplace(name, std::move(r));
      break;
    }
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [name, bodies] : c.bodies) {
      if (why.count(name) != 0) continue;
      for (const std::vector<Token>& body : bodies)
        if (const Token* call = first_call_into(body, why)) {
          why.emplace(name, why.at(call->text));
          changed = true;
          break;
        }
    }
  }
  return why;
}

/// A region needs fibers when its own tokens hold a block barrier or a
/// warp op, or when it calls a function of the same source that may
/// reach one (`rendezvous`, from rendezvous_callees): a convergent
/// verdict must hold for everything the kernel runs, because a
/// convergent hint sends its cooperative launches to direct lanes.
ExecVerdict classify_region(const KernelRegion& region,
                            const std::map<std::string, std::string>&
                                rendezvous) {
  ExecVerdict v;
  v.kernel = region.name;
  v.named = region.named;
  v.line = region.line;
  v.reason = first_rendezvous(region.tokens);
  const Token* call =
      v.reason.empty() ? first_call_into(region.tokens, rendezvous) : nullptr;
  if (call != nullptr)
    v.reason = "call to '" + call->text + "' (line " +
               std::to_string(call->line) + "), which may reach " +
               rendezvous.at(call->text);
  v.needs_fibers = !v.reason.empty();
  v.convergent = !v.needs_fibers;
  if (v.needs_fibers) return v;
  for (const Token& t : region.tokens)
    if (t.kind == Token::Kind::kIdent && atomic_tokens().count(t.text) != 0) {
      v.atomics_ok = true;
      v.reason = "atomics only ('" + t.text + "', line " +
                 std::to_string(t.line) + ") — run in place by direct lanes";
      return v;
    }
  v.reason = "no collectives";
  return v;
}

// ---------------------------------------------------------------------------
// C-ABI contract rules
// ---------------------------------------------------------------------------

void run_contract_rules(const std::vector<Token>& toks,
                        std::vector<LintFinding>& findings) {
  const std::size_t n = toks.size();
  // unchecked-result: statement-position calls that discard the result.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        must_check_apis().count(toks[i].text) == 0 ||
        !is_punct(toks[i + 1], "("))
      continue;
    const bool at_statement =
        i == 0 || is_punct(toks[i - 1], ";") || is_punct(toks[i - 1], "{") ||
        is_punct(toks[i - 1], "}") || is_punct(toks[i - 1], ":");
    if (!at_statement) continue;
    LintFinding f;
    f.rule = LintRule::kUncheckedResult;
    f.line = toks[i].line;
    f.symbol = toks[i].text;
    f.severity = Severity::kWarning;
    f.message = "return value of '" + toks[i].text +
                "' (ompx_result_t) discarded at statement position — wrap "
                "the call in OMPX_CHECK or handle the result";
    findings.push_back(std::move(f));
  }
  // two-call-enumeration: ompx_graph_get_nodes needs a prior
  // ompx_graph_node_count in the same function body.
  int depth = 0;
  bool seen_count = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_punct(toks[i], "{")) depth++;
    else if (is_punct(toks[i], "}")) {
      depth--;
      if (depth <= 0) {
        depth = std::max(depth, 0);
        seen_count = false;  // function (or top-level scope) ended
      }
      continue;
    }
    if (toks[i].kind != Token::Kind::kIdent) continue;
    if (toks[i].text == "ompx_graph_node_count") {
      seen_count = true;
    } else if (toks[i].text == "ompx_graph_get_nodes" && !seen_count) {
      LintFinding f;
      f.rule = LintRule::kTwoCallEnumeration;
      f.line = toks[i].line;
      f.symbol = toks[i].text;
      f.severity = Severity::kWarning;
      f.message =
          "ompx_graph_get_nodes without a prior ompx_graph_node_count in "
          "this function — size the buffer with the two-call enumeration "
          "protocol (count first, then fetch with capacity/written)";
      findings.push_back(std::move(f));
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Suppression markers
// ---------------------------------------------------------------------------

std::map<int, AllowSpec> collect_allows(const std::string& source) {
  std::map<int, AllowSpec> allows;
  static const std::string kMarker = "ompx-lint-allow";
  int line = 1;
  for (std::size_t i = 0; i < source.size(); ++i) {
    if (source[i] == '\n') {
      line++;
      continue;
    }
    if (source.compare(i, kMarker.size(), kMarker) != 0) continue;
    std::size_t j = i + kMarker.size();
    AllowSpec spec;
    while (j < source.size() &&
           (source[j] == ' ' || source[j] == '\t'))
      j++;
    if (j < source.size() && source[j] == '(') {
      const std::size_t close = source.find(')', j);
      if (close != std::string::npos) {
        std::string name;
        for (std::size_t k = j + 1; k <= close; ++k) {
          const char c = k == close ? ',' : source[k];
          if (c == ',' ) {
            if (!name.empty()) spec.rules.insert(name);
            name.clear();
          } else if (!std::isspace(static_cast<unsigned char>(c))) {
            name += c;
          }
        }
        i = close;
      }
    }
    if (spec.rules.empty()) spec.all = true;
    AllowSpec& slot = allows[line];
    slot.all = slot.all || spec.all;
    slot.rules.insert(spec.rules.begin(), spec.rules.end());
  }
  return allows;
}

bool allow_matches(const std::map<int, AllowSpec>& allows, int line,
                   const char* rule) {
  for (int probe : {line, line - 1}) {
    const auto it = allows.find(probe);
    if (it == allows.end()) continue;
    if (it->second.all || it->second.rules.count(rule) != 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

AnalysisResult analyze_source(const std::string& source,
                              const AnalyzeOptions& options) {
  AnalysisResult result;
  const std::vector<Token> toks = lex(source);
  const std::vector<KernelRegion> regions = find_kernel_regions(toks);
  const std::map<std::string, std::string> rendezvous =
      rendezvous_callees(find_callables(toks));

  for (const KernelRegion& region : regions) {
    result.kernels.push_back(classify_region(region, rendezvous));
    if (!options.check_divergent_sync && !options.check_shared_sync) continue;
    const Cfg cfg = build_cfg(region.stmts);
    const TaintResult taint = run_taint(cfg);

    if (options.check_divergent_sync) {
      std::map<int, BarrierClaim> claims;
      DivergenceWalker walker{taint.branch_taint, claims, result.findings};
      walker.walk(region.stmts);
      // Early-exit coverage: barriers control-dependent on a
      // lane-dependent branch that no enclosing construct claimed
      // (e.g. `if (tid == 0) return;` followed by a barrier).
      for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
        const std::vector<Token>* ntoks = node_tokens(cfg.nodes[i]);
        if (ntoks == nullptr || cfg.nodes[i].kind != CfgNode::Kind::kStmt)
          continue;
        for (const Token& t : *ntoks) {
          if (t.kind != Token::Kind::kIdent || sync_tokens().count(t.text) == 0)
            continue;
          if (claims.count(t.line) != 0) continue;
          const int lvl = taint.divergence[i];
          if (lvl < kMay) continue;
          BarrierClaim c;
          c.severity = lvl == kLane ? Severity::kError : Severity::kWarning;
          c.message =
              std::string("block-wide barrier not reached by all threads — a "
                          "lane-dependent early exit or branch skips it "
                          "(barrier divergence)") +
              (lvl == kLane ? ""
                            : " (lane-dependent on some paths only)");
          claims[t.line] = std::move(c);
        }
      }
      for (const auto& [line, c] : claims) {
        if (!c.emit) continue;
        LintFinding f;
        f.rule = LintRule::kDivergentSync;
        f.line = line;
        f.symbol = "barrier";
        f.severity = c.severity;
        f.message = c.message;
        result.findings.push_back(std::move(f));
      }
    }

    if (options.check_shared_sync) {
      std::set<std::string> shared;
      collect_shared_vars(region.tokens, shared);
      run_shared_analysis(cfg, shared, result.findings);
    }
  }

  if (options.check_contract) run_contract_rules(toks, result.findings);

  if (options.suppress_allowed) {
    const std::map<int, AllowSpec> allows = collect_allows(source);
    std::vector<LintFinding> kept;
    for (LintFinding& f : result.findings)
      if (!allow_matches(allows, f.line, lint_rule_name(f.rule)))
        kept.push_back(std::move(f));
    result.findings = std::move(kept);
  }

  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const LintFinding& a, const LintFinding& b) {
                     return a.line < b.line;
                   });
  return result;
}

std::string format_analysis(const AnalysisResult& result,
                            const std::string& filename) {
  std::string out = format_lint(result.findings, filename);
  for (const ExecVerdict& v : result.kernels) {
    out += filename + ":" + std::to_string(v.line) + ": kernel '" + v.kernel +
           "': ";
    if (v.needs_fibers) out += "needs fibers";
    else if (v.atomics_ok) out += "convergent, with atomics";
    else out += "convergent";
    out += " — " + v.reason + "\n";
  }
  return out;
}

std::string analysis_to_sarif(
    const std::vector<std::pair<std::string, AnalysisResult>>& files) {
  static const char* const kRules[] = {
      "divergent-sync",   "unsynced-shared-read", "unported-builtin",
      "barrier-mismatch", "unchecked-result",     "two-call-enumeration",
  };
  std::string out;
  out += "{\n  \"version\": \"2.1.0\",\n";
  out += "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"runs\": [{\n";
  out += "    \"tool\": {\"driver\": {\"name\": \"ompx-analyze\", "
         "\"rules\": [";
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    if (i != 0) out += ", ";
    out += std::string("{\"id\": \"") + kRules[i] + "\"}";
  }
  out += "]}},\n    \"results\": [";
  bool first = true;
  for (const auto& [file, result] : files) {
    for (const LintFinding& f : result.findings) {
      if (!first) out += ",";
      first = false;
      out += "\n      {\"ruleId\": \"" + std::string(lint_rule_name(f.rule)) +
             "\", \"level\": \"" +
             (f.severity == Severity::kError ? "error" : "warning") +
             "\", \"message\": {\"text\": \"" + json_escape(f.message) +
             "\"}, \"locations\": [{\"physicalLocation\": "
             "{\"artifactLocation\": {\"uri\": \"" +
             json_escape(file) + "\"}, \"region\": {\"startLine\": " +
             std::to_string(f.line) + "}}}]}";
    }
  }
  out += "\n    ],\n    \"properties\": {\"kernels\": [";
  first = true;
  for (const auto& [file, result] : files) {
    for (const ExecVerdict& v : result.kernels) {
      if (!first) out += ",";
      first = false;
      out += "\n      {\"file\": \"" + json_escape(file) + "\", \"name\": \"" +
             json_escape(v.kernel) + "\", \"line\": " +
             std::to_string(v.line) + ", \"convergent\": " +
             (v.convergent ? "true" : "false") + ", \"needsFibers\": " +
             (v.needs_fibers ? "true" : "false") + ", \"atomicsOk\": " +
             (v.atomics_ok ? "true" : "false") + ", \"reason\": \"" +
             json_escape(v.reason) + "\"}";
    }
  }
  out += "\n    ]}\n  }]\n}\n";
  return out;
}

int register_exec_hints(const std::string& source) {
  const AnalysisResult result =
      analyze_source(source, AnalyzeOptions{false, false, false, false});
  std::map<std::string, bool> needs_fibers;
  for (const ExecVerdict& v : result.kernels)
    if (v.named) needs_fibers[v.kernel] |= v.needs_fibers;
  for (const auto& [name, fibers] : needs_fibers)
    simt::set_exec_hint(name, {!fibers, fibers});
  return static_cast<int>(needs_fibers.size());
}

ExecClass classify_exec(const std::string& source) {
  const AnalysisResult result =
      analyze_source(source, AnalyzeOptions{false, false, false, false});
  ExecClass out;
  out.convergent = true;
  bool any_atomics = false;
  for (const ExecVerdict& v : result.kernels) {
    if (v.needs_fibers && !out.needs_fibers) {
      out.needs_fibers = true;
      out.convergent = false;
      out.reason = v.reason;
    }
    any_atomics = any_atomics || v.atomics_ok;
    if (out.reason.empty() && v.atomics_ok) out.reason = v.reason;
  }
  out.atomics_ok = out.convergent && any_atomics;
  return out;
}

}  // namespace rewrite
