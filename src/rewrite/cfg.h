// Statement-level tokenizer, kernel-region finder, structured-statement
// parser, and control-flow graph for the ompx-analyze passes.
//
// The pipeline is: lex() raw source (comments and preprocessor lines
// skipped, string/char literals kept as single opaque tokens so kernel
// names survive but their contents are never scanned as code) ->
// find_kernel_regions() (bodies of __global__ functions and of lambdas
// passed to the launch family, bound to the nearest preceding
// `.name = "..."` assignment) -> parse_statements() (a structured
// statement tree: if/else, for/while/do, switch with case segments,
// break/continue/return) -> build_cfg() (basic blocks with explicit
// back edges and early-exit edges, plus postdominators and Ferrante
// control dependence, which is what makes the divergent-sync verdicts
// path-sensitive instead of same-line pattern matches).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rewrite {

struct Token {
  enum class Kind : std::uint8_t { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;  // kString/kChar hold the literal's inner value
  int line = 1;
};

/// Tokenizes C++-ish source. Comments and preprocessor directives are
/// skipped (a collective named in a comment must not affect verdicts);
/// string and char literals become single opaque tokens.
std::vector<Token> lex(const std::string& source);

/// One structured statement. `head` holds the controlling tokens: the
/// parenthesized condition for if/loop/switch (for `for`, all three
/// clauses), the whole statement for kSimple, the returned expression
/// for kReturn, the trailing condition for kDoWhile.
struct Stmt {
  enum class Kind : std::uint8_t {
    kSimple,
    kIf,
    kLoop,  // for / while
    kDoWhile,
    kSwitch,
    kBreak,
    kContinue,
    kReturn,
    kBlock,
  };
  Kind kind = Kind::kSimple;
  int line = 1;
  std::vector<Token> head;
  std::vector<Stmt> body;                // then-branch / loop body / block
  std::vector<Stmt> orelse;              // if: else branch
  std::vector<std::vector<Stmt>> arms;   // switch: one list per case label
  bool has_default = false;              // switch: a `default:` label exists
};

/// Parses tokens[begin, end) as a statement sequence. Braces inside an
/// expression (lambdas passed as arguments, braced initializers) are
/// consumed as part of that statement; only a `{` in statement position
/// opens a block.
std::vector<Stmt> parse_statements(const std::vector<Token>& toks,
                                   std::size_t begin, std::size_t end);

/// A kernel region: the body of one candidate device-code scope.
struct KernelRegion {
  std::string name;  // launch-name binding, function name, or "<file>"
  bool named = false;  // true when bound to a real launch name / __global__
  int line = 1;        // line of the region's opening brace
  std::vector<Token> tokens;
  std::vector<Stmt> stmts;
};

/// Finds kernel regions in a token stream, in priority order:
///  1. bodies of `__global__` functions (named after the function);
///  2. bodies of lambdas passed to launch-family calls (`launch`,
///     `launch_sync`, `launch_async`, `shard_launch`, `klLaunchKernel`),
///     named by the nearest preceding `<ident>.name = "<string>"`;
///  3. when neither exists, every free-function body;
///  4. when the source has no function at all (bare fragments), the
///     whole token stream as one region.
std::vector<KernelRegion> find_kernel_regions(const std::vector<Token>& toks);

/// The named callables of a token stream, for following a kernel
/// region's calls: every definition `name(...) [qualifiers] { ... }` at
/// any depth (control keywords excluded; overloads share one entry) and
/// every lambda bound as `name = [...](...) { ... }`, plus the
/// `__device__` functions only declared here — defined in another
/// translation unit, so their bodies cannot be seen.
struct Callables {
  std::map<std::string, std::vector<std::vector<Token>>> bodies;
  std::map<std::string, int> bodiless;  ///< name -> line of declaration
};
Callables find_callables(const std::vector<Token>& toks);

/// CFG node. kStmt nodes carry one kSimple/kBreak/kContinue/kReturn
/// statement; kBranch nodes carry the condition of an if/loop/switch.
struct CfgNode {
  enum class Kind : std::uint8_t { kEntry, kExit, kStmt, kBranch, kJoin };
  Kind kind = Kind::kJoin;
  const Stmt* stmt = nullptr;
  int line = 0;
  std::vector<int> succs;
  std::vector<int> preds;
};

struct Cfg {
  std::vector<CfgNode> nodes;  // nodes[0] = entry, nodes[1] = exit
  static constexpr int kEntry = 0;
  static constexpr int kExit = 1;
  /// Immediate postdominator per node (-1 for exit and unreachable).
  std::vector<int> ipostdom;
  /// Branch nodes each node is directly control-dependent on.
  std::vector<std::vector<int>> control_deps;
};

/// Builds the CFG for a statement list (break/continue resolve to the
/// innermost loop or switch, return to the exit node) and computes
/// postdominators and control dependence.
Cfg build_cfg(const std::vector<Stmt>& stmts);

}  // namespace rewrite
