#include "rewrite/cfg.h"

#include <algorithm>
#include <cctype>
#include <cstddef>

namespace rewrite {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Multi-character punctuators, longest first within each leading char.
const char* const kPuncts3[] = {"<<=", ">>=", "...", "->*"};
const char* const kPuncts2[] = {"::", "->", "==", "!=", "<=", ">=", "&&",
                                "||", "+=", "-=", "*=", "/=", "%=", "&=",
                                "|=", "^=", "++", "--", "<<", ">>"};

}  // namespace

std::vector<Token> lex(const std::string& src) {
  std::vector<Token> out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the newline
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      line++;
      at_line_start = true;
      i++;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      i++;
      continue;
    }
    // Preprocessor directive: skip to end of line, honoring \-splices.
    if (c == '#' && at_line_start) {
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          line++;
          i += 2;
          continue;
        }
        i++;
      }
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') i++;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') line++;
        i++;
      }
      i = std::min(i + 2, n);
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"' && i + 2 < n) {
      std::size_t d = i + 2;
      while (d < n && src[d] != '(' && src[d] != '"' && src[d] != '\n') d++;
      if (d < n && src[d] == '(') {
        const std::string delim = src.substr(i + 2, d - (i + 2));
        const std::string close = ")" + delim + "\"";
        const std::size_t end = src.find(close, d + 1);
        const int start_line = line;
        const std::size_t stop = end == std::string::npos ? n : end;
        std::string value = src.substr(d + 1, stop - (d + 1));
        for (char vc : value)
          if (vc == '\n') line++;
        out.push_back({Token::Kind::kString, std::move(value), start_line});
        i = end == std::string::npos ? n : end + close.size();
        continue;
      }
    }
    // String / char literal: one opaque token carrying the inner value.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::string value;
      i++;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          value += src[i + 1];
          i += 2;
          continue;
        }
        if (src[i] == '\n') line++;  // unterminated; be forgiving
        value += src[i];
        i++;
      }
      i = std::min(i + 1, n);
      out.push_back({quote == '"' ? Token::Kind::kString : Token::Kind::kChar,
                     std::move(value), line});
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) j++;
      out.push_back({Token::Kind::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t j = i;
      while (j < n) {
        const char d = src[j];
        if (ident_char(d) || d == '.' || d == '\'') {
          j++;
          continue;
        }
        if ((d == '+' || d == '-') && j > i) {
          const char p = src[j - 1];
          if (p == 'e' || p == 'E' || p == 'p' || p == 'P') {
            j++;
            continue;
          }
        }
        break;
      }
      out.push_back({Token::Kind::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuator: longest match.
    bool matched = false;
    if (i + 2 < n) {
      for (const char* p : kPuncts3) {
        if (src.compare(i, 3, p) == 0) {
          out.push_back({Token::Kind::kPunct, p, line});
          i += 3;
          matched = true;
          break;
        }
      }
    }
    if (!matched && i + 1 < n) {
      for (const char* p : kPuncts2) {
        if (src.compare(i, 2, p) == 0) {
          out.push_back({Token::Kind::kPunct, p, line});
          i += 2;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      out.push_back({Token::Kind::kPunct, std::string(1, c), line});
      i++;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statement parser
// ---------------------------------------------------------------------------

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}
bool is_ident(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

/// Index just past the matching closer for the opener at `i`.
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t i,
                          std::size_t end, const char* open,
                          const char* close) {
  int depth = 0;
  for (; i < end; ++i) {
    if (is_punct(toks[i], open)) depth++;
    else if (is_punct(toks[i], close) && --depth == 0) return i + 1;
  }
  return end;
}

struct Parser {
  const std::vector<Token>& toks;

  std::vector<Stmt> parse_list(std::size_t begin, std::size_t end) {
    std::vector<Stmt> out;
    std::size_t i = begin;
    while (i < end) {
      if (is_punct(toks[i], ";")) {
        i++;
        continue;
      }
      out.push_back(parse_one(i, end));
    }
    return out;
  }

  Stmt parse_one(std::size_t& i, std::size_t end) {
    Stmt s;
    s.line = toks[i].line;
    if (is_punct(toks[i], "{")) {
      s.kind = Stmt::Kind::kBlock;
      const std::size_t close = skip_balanced(toks, i, end, "{", "}");
      s.body = parse_list(i + 1, close - 1);
      i = close;
      return s;
    }
    if (is_ident(toks[i], "if")) {
      s.kind = Stmt::Kind::kIf;
      i++;
      if (i < end && is_ident(toks[i], "constexpr")) i++;
      i = parse_head(i, end, s.head);
      s.body = parse_branch(i, end);
      if (i < end && is_ident(toks[i], "else")) {
        i++;
        s.orelse = parse_branch(i, end);
      }
      return s;
    }
    if (is_ident(toks[i], "for") || is_ident(toks[i], "while")) {
      s.kind = Stmt::Kind::kLoop;
      i++;
      i = parse_head(i, end, s.head);
      s.body = parse_branch(i, end);
      return s;
    }
    if (is_ident(toks[i], "do")) {
      s.kind = Stmt::Kind::kDoWhile;
      i++;
      s.body = parse_branch(i, end);
      if (i < end && is_ident(toks[i], "while")) {
        i++;
        i = parse_head(i, end, s.head);
      }
      if (i < end && is_punct(toks[i], ";")) i++;
      return s;
    }
    if (is_ident(toks[i], "switch")) {
      s.kind = Stmt::Kind::kSwitch;
      i++;
      i = parse_head(i, end, s.head);
      if (i < end && is_punct(toks[i], "{")) {
        const std::size_t close = skip_balanced(toks, i, end, "{", "}");
        parse_switch_arms(i + 1, close - 1, s);
        i = close;
      }
      return s;
    }
    if (is_ident(toks[i], "break") || is_ident(toks[i], "continue")) {
      s.kind = is_ident(toks[i], "break") ? Stmt::Kind::kBreak
                                          : Stmt::Kind::kContinue;
      i++;
      if (i < end && is_punct(toks[i], ";")) i++;
      return s;
    }
    if (is_ident(toks[i], "return")) {
      s.kind = Stmt::Kind::kReturn;
      i++;
      consume_simple(i, end, s.head);
      return s;
    }
    s.kind = Stmt::Kind::kSimple;
    consume_simple(i, end, s.head);
    return s;
  }

  /// Parses `( ... )` into `head`; returns the index past the `)`.
  std::size_t parse_head(std::size_t i, std::size_t end,
                         std::vector<Token>& head) {
    if (i >= end || !is_punct(toks[i], "(")) return i;
    const std::size_t close = skip_balanced(toks, i, end, "(", ")");
    head.assign(toks.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                toks.begin() + static_cast<std::ptrdiff_t>(close) - 1);
    return close;
  }

  /// A branch body: either a braced block's statements or one statement.
  std::vector<Stmt> parse_branch(std::size_t& i, std::size_t end) {
    if (i < end && is_punct(toks[i], "{")) {
      const std::size_t close = skip_balanced(toks, i, end, "{", "}");
      std::vector<Stmt> body = parse_list(i + 1, close - 1);
      i = close;
      return body;
    }
    if (i >= end) return {};
    std::vector<Stmt> body;
    body.push_back(parse_one(i, end));
    return body;
  }

  /// Consumes a plain statement up to its terminating `;` (at paren
  /// depth 0). A `{` encountered mid-statement — lambda argument or
  /// braced initializer — is swallowed whole as part of the statement.
  void consume_simple(std::size_t& i, std::size_t end,
                      std::vector<Token>& out) {
    int paren = 0;
    while (i < end) {
      const Token& t = toks[i];
      if (is_punct(t, "(")) paren++;
      else if (is_punct(t, ")")) paren--;
      else if (is_punct(t, "{")) {
        const std::size_t close = skip_balanced(toks, i, end, "{", "}");
        out.insert(out.end(), toks.begin() + static_cast<std::ptrdiff_t>(i),
                   toks.begin() + static_cast<std::ptrdiff_t>(close));
        i = close;
        // A brace group ending a statement needs no `;` (e.g. a local
        // struct); but `} ;` and `}(...)` continue below.
        continue;
      } else if (is_punct(t, "}")) {
        return;  // ran off the enclosing block; let the caller see it
      }
      if (paren <= 0 && is_punct(t, ";")) {
        i++;
        return;
      }
      out.push_back(t);
      i++;
    }
  }

  void parse_switch_arms(std::size_t begin, std::size_t end, Stmt& s) {
    // Split the switch body at top-level `case X:` / `default:` labels.
    std::size_t i = begin;
    std::size_t seg_start = begin;
    bool saw_label = false;
    auto flush = [&](std::size_t upto) {
      if (upto > seg_start && saw_label)
        s.arms.push_back(parse_list(seg_start, upto));
    };
    while (i < end) {
      if (is_punct(toks[i], "{")) {
        i = skip_balanced(toks, i, end, "{", "}");
        continue;
      }
      if (is_punct(toks[i], "(")) {
        i = skip_balanced(toks, i, end, "(", ")");
        continue;
      }
      if (is_ident(toks[i], "case") || is_ident(toks[i], "default")) {
        flush(i);
        if (is_ident(toks[i], "default")) s.has_default = true;
        // Skip the label expression up to its `:` (not `::`).
        while (i < end && !is_punct(toks[i], ":")) i++;
        if (i < end) i++;
        seg_start = i;
        saw_label = true;
        continue;
      }
      i++;
    }
    flush(end);
  }
};

}  // namespace

std::vector<Stmt> parse_statements(const std::vector<Token>& toks,
                                   std::size_t begin, std::size_t end) {
  Parser p{toks};
  return p.parse_list(begin, std::min(end, toks.size()));
}

// ---------------------------------------------------------------------------
// Kernel-region discovery
// ---------------------------------------------------------------------------

namespace {

bool is_launch_callee(const std::string& s) {
  return s == "launch" || s == "launch_sync" || s == "launch_async" ||
         s == "shard_launch" || s == "klLaunchKernel";
}

/// True when toks[i] is a `[` that begins a lambda-introducer: the
/// previous token cannot end an expression (which would make it a
/// subscript).
bool starts_lambda(const std::vector<Token>& toks, std::size_t i,
                   std::size_t begin) {
  if (i == begin) return true;
  const Token& p = toks[i - 1];
  if (p.kind == Token::Kind::kIdent || p.kind == Token::Kind::kNumber ||
      p.kind == Token::Kind::kString)
    return false;
  return !(is_punct(p, "]") || is_punct(p, ")"));
}

/// From a lambda-introducer `[` at `i`, finds its body braces. Returns
/// the index of the `{` or `end` when this is not a lambda after all.
std::size_t lambda_body_brace(const std::vector<Token>& toks, std::size_t i,
                              std::size_t end) {
  std::size_t j = skip_balanced(toks, i, end, "[", "]");
  if (j < end && is_punct(toks[j], "("))
    j = skip_balanced(toks, j, end, "(", ")");
  // mutable / noexcept / -> trailing-return tokens before the body.
  std::size_t guard = 0;
  while (j < end && !is_punct(toks[j], "{")) {
    if (is_punct(toks[j], ",") || is_punct(toks[j], ")") ||
        is_punct(toks[j], ";") || ++guard > 16)
      return end;
    j++;
  }
  return j;
}

KernelRegion make_region(const std::vector<Token>& toks, std::size_t open,
                         std::size_t close, std::string name, bool named) {
  KernelRegion r;
  r.name = std::move(name);
  r.named = named;
  r.line = toks[open].line;
  r.tokens.assign(toks.begin() + static_cast<std::ptrdiff_t>(open) + 1,
                  toks.begin() + static_cast<std::ptrdiff_t>(close) - 1);
  r.stmts = parse_statements(toks, open + 1, close - 1);
  return r;
}

}  // namespace

std::vector<KernelRegion> find_kernel_regions(const std::vector<Token>& toks) {
  std::vector<KernelRegion> regions;
  const std::size_t n = toks.size();
  std::string last_name;  // most recent `.name = "..."` binding

  for (std::size_t i = 0; i < n; ++i) {
    // Track launch-name bindings: `<expr>.name = "kernel"`.
    if (is_punct(toks[i], ".") && i + 3 < n && is_ident(toks[i + 1], "name") &&
        is_punct(toks[i + 2], "=") &&
        toks[i + 3].kind == Token::Kind::kString) {
      last_name = toks[i + 3].text;
      continue;
    }
    // `__global__ <ret> name(...) { ... }`.
    if (is_ident(toks[i], "__global__")) {
      std::size_t j = i + 1;
      while (j < n && !is_punct(toks[j], "(")) j++;
      if (j >= n || j == i + 1 || toks[j - 1].kind != Token::Kind::kIdent)
        continue;
      const std::string fn = toks[j - 1].text;
      std::size_t k = skip_balanced(toks, j, n, "(", ")");
      std::size_t guard = 0;
      while (k < n && !is_punct(toks[k], "{")) {
        if (is_punct(toks[k], ";") || ++guard > 8) break;
        k++;
      }
      if (k < n && is_punct(toks[k], "{")) {
        const std::size_t close = skip_balanced(toks, k, n, "{", "}");
        regions.push_back(make_region(toks, k, close, fn, true));
      }
      continue;
    }
    // Launch-family call with a lambda kernel argument.
    if (toks[i].kind == Token::Kind::kIdent && is_launch_callee(toks[i].text) &&
        i + 1 < n && is_punct(toks[i + 1], "(")) {
      const std::size_t close = skip_balanced(toks, i + 1, n, "(", ")");
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (is_punct(toks[j], "(")) depth++;
        else if (is_punct(toks[j], ")")) depth--;
        else if (depth == 1 && is_punct(toks[j], "[") &&
                 starts_lambda(toks, j, i + 2)) {
          const std::size_t brace = lambda_body_brace(toks, j, close);
          if (brace >= close) continue;
          const std::size_t bclose = skip_balanced(toks, brace, close, "{", "}");
          regions.push_back(make_region(
              toks, brace, bclose,
              last_name.empty()
                  ? "lambda@" + std::to_string(toks[brace].line)
                  : last_name,
              !last_name.empty()));
          j = bclose - 1;
        }
      }
    }
  }
  if (!regions.empty()) return regions;

  // Fallback: every free-function body `ident(...) ... { ... }`.
  int depth = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (is_punct(toks[i], "{")) depth++;
    else if (is_punct(toks[i], "}")) depth--;
    if (depth != 0) continue;
    if (toks[i].kind != Token::Kind::kIdent || !is_punct(toks[i + 1], "("))
      continue;
    const std::size_t after = skip_balanced(toks, i + 1, n, "(", ")");
    std::size_t k = after;
    std::size_t guard = 0;
    bool ok = true;
    while (k < n && !is_punct(toks[k], "{")) {
      if (is_punct(toks[k], ";") || is_punct(toks[k], "=") || ++guard > 8) {
        ok = false;
        break;
      }
      k++;
    }
    if (!ok || k >= n) continue;
    const std::size_t close = skip_balanced(toks, k, n, "{", "}");
    regions.push_back(make_region(toks, k, close, toks[i].text, false));
    i = close - 1;
  }
  if (!regions.empty()) return regions;

  // Bare fragment: the whole stream is one region.
  KernelRegion whole;
  whole.name = "<source>";
  whole.named = false;
  whole.line = toks.empty() ? 1 : toks.front().line;
  whole.tokens = toks;
  whole.stmts = parse_statements(toks, 0, n);
  regions.push_back(std::move(whole));
  return regions;
}

namespace {

/// Identifiers that take a parenthesized head before a `{` without
/// naming a function.
bool is_control_keyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "alignof" ||
         s == "decltype" || s == "noexcept";
}

}  // namespace

Callables find_callables(const std::vector<Token>& toks) {
  Callables out;
  std::map<std::string, int> declared;  // `__device__` prototypes
  const std::size_t n = toks.size();
  const auto add_body = [&](const std::string& name, std::size_t open) {
    const std::size_t close = skip_balanced(toks, open, n, "{", "}");
    out.bodies[name].emplace_back(
        toks.begin() + static_cast<std::ptrdiff_t>(open) + 1,
        toks.begin() + static_cast<std::ptrdiff_t>(close) - 1);
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const std::string& name = toks[i].text;
    // `__device__ <ret> f(...);` — a device function defined elsewhere.
    if (name == "__device__") {
      std::size_t j = i + 1;
      while (j < n && j < i + 12 && !is_punct(toks[j], "(") &&
             !is_punct(toks[j], ";") && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], "="))
        j++;
      if (j < n && j > i + 1 && is_punct(toks[j], "(") &&
          toks[j - 1].kind == Token::Kind::kIdent) {
        std::size_t k = skip_balanced(toks, j, n, "(", ")");
        while (k < n && k < j + 16 && toks[k].kind == Token::Kind::kIdent)
          k++;  // const / noexcept
        if (k < n && is_punct(toks[k], ";"))
          declared.emplace(toks[j - 1].text, toks[j - 1].line);
      }
      continue;
    }
    // `name = [...](...) { ... }`.
    if (is_punct(toks[i + 1], "=")) {
      if (i + 2 < n && is_punct(toks[i + 2], "[")) {
        const std::size_t brace = lambda_body_brace(toks, i + 2, n);
        if (brace < n) add_body(name, brace);
      }
      continue;
    }
    // `name(...) [qualifiers] { ... }`.
    if (!is_punct(toks[i + 1], "(") || is_control_keyword(name)) continue;
    std::size_t k = skip_balanced(toks, i + 1, n, "(", ")");
    std::size_t guard = 0;
    while (k < n && !is_punct(toks[k], "{")) {
      if (is_punct(toks[k], ";") || is_punct(toks[k], "=") ||
          is_punct(toks[k], ",") || is_punct(toks[k], ")") || ++guard > 8) {
        k = n;
        break;
      }
      k++;
    }
    if (k < n) add_body(name, k);
  }
  for (const auto& [name, line] : declared)
    if (out.bodies.count(name) == 0) out.bodiless.emplace(name, line);
  return out;
}

// ---------------------------------------------------------------------------
// CFG construction + postdominators + control dependence
// ---------------------------------------------------------------------------

namespace {

struct CfgBuilder {
  Cfg cfg;

  int add_node(CfgNode::Kind kind, const Stmt* stmt, int line) {
    CfgNode node;
    node.kind = kind;
    node.stmt = stmt;
    node.line = line;
    cfg.nodes.push_back(std::move(node));
    return static_cast<int>(cfg.nodes.size()) - 1;
  }

  void edge(int a, int b) {
    cfg.nodes[static_cast<std::size_t>(a)].succs.push_back(b);
    cfg.nodes[static_cast<std::size_t>(b)].preds.push_back(a);
  }

  void edges(const std::vector<int>& from, int to) {
    for (int f : from) edge(f, to);
  }

  std::vector<int> build_list(const std::vector<Stmt>& stmts,
                              std::vector<int> preds, std::vector<int>* brks,
                              int cont_target) {
    for (const Stmt& s : stmts)
      preds = build_stmt(s, std::move(preds), brks, cont_target);
    return preds;
  }

  std::vector<int> build_stmt(const Stmt& s, std::vector<int> preds,
                              std::vector<int>* brks, int cont_target) {
    switch (s.kind) {
      case Stmt::Kind::kSimple: {
        const int node = add_node(CfgNode::Kind::kStmt, &s, s.line);
        edges(preds, node);
        return {node};
      }
      case Stmt::Kind::kBlock:
        return build_list(s.body, std::move(preds), brks, cont_target);
      case Stmt::Kind::kReturn: {
        const int node = add_node(CfgNode::Kind::kStmt, &s, s.line);
        edges(preds, node);
        edge(node, Cfg::kExit);
        return {};
      }
      case Stmt::Kind::kBreak: {
        const int node = add_node(CfgNode::Kind::kStmt, &s, s.line);
        edges(preds, node);
        if (brks != nullptr) brks->push_back(node);
        return {};
      }
      case Stmt::Kind::kContinue: {
        const int node = add_node(CfgNode::Kind::kStmt, &s, s.line);
        edges(preds, node);
        if (cont_target >= 0) edge(node, cont_target);
        return {};
      }
      case Stmt::Kind::kIf: {
        const int branch = add_node(CfgNode::Kind::kBranch, &s, s.line);
        edges(preds, branch);
        std::vector<int> out =
            build_list(s.body, {branch}, brks, cont_target);
        if (s.orelse.empty()) {
          out.push_back(branch);
        } else {
          std::vector<int> other =
              build_list(s.orelse, {branch}, brks, cont_target);
          out.insert(out.end(), other.begin(), other.end());
        }
        return out;
      }
      case Stmt::Kind::kLoop: {
        const int branch = add_node(CfgNode::Kind::kBranch, &s, s.line);
        edges(preds, branch);
        std::vector<int> inner_brks;
        std::vector<int> body_out =
            build_list(s.body, {branch}, &inner_brks, branch);
        edges(body_out, branch);  // back edge
        std::vector<int> out = {branch};
        out.insert(out.end(), inner_brks.begin(), inner_brks.end());
        return out;
      }
      case Stmt::Kind::kDoWhile: {
        const int head = add_node(CfgNode::Kind::kJoin, &s, s.line);
        const int branch = add_node(CfgNode::Kind::kBranch, &s, s.line);
        edges(preds, head);
        std::vector<int> inner_brks;
        std::vector<int> body_out =
            build_list(s.body, {head}, &inner_brks, branch);
        edges(body_out, branch);
        edge(branch, head);  // back edge
        std::vector<int> out = {branch};
        out.insert(out.end(), inner_brks.begin(), inner_brks.end());
        return out;
      }
      case Stmt::Kind::kSwitch: {
        const int branch = add_node(CfgNode::Kind::kBranch, &s, s.line);
        edges(preds, branch);
        std::vector<int> inner_brks;
        std::vector<int> out;
        for (const std::vector<Stmt>& arm : s.arms) {
          std::vector<int> arm_out =
              build_list(arm, {branch}, &inner_brks, cont_target);
          out.insert(out.end(), arm_out.begin(), arm_out.end());
        }
        if (!s.has_default || s.arms.empty()) out.push_back(branch);
        out.insert(out.end(), inner_brks.begin(), inner_brks.end());
        return out;
      }
    }
    return preds;
  }
};

}  // namespace

Cfg build_cfg(const std::vector<Stmt>& stmts) {
  CfgBuilder b;
  b.add_node(CfgNode::Kind::kEntry, nullptr, 0);  // index 0
  b.add_node(CfgNode::Kind::kExit, nullptr, 0);   // index 1
  std::vector<int> out = b.build_list(stmts, {Cfg::kEntry}, nullptr, -1);
  b.edges(out, Cfg::kExit);
  Cfg cfg = std::move(b.cfg);

  const std::size_t count = cfg.nodes.size();
  // Postorder of the reverse CFG from exit (edges reversed: walk preds).
  std::vector<int> po;
  po.reserve(count);
  std::vector<int> po_index(count, -1);
  {
    std::vector<std::uint8_t> state(count, 0);
    std::vector<int> stack = {Cfg::kExit};
    while (!stack.empty()) {
      const int node = stack.back();
      if (state[static_cast<std::size_t>(node)] == 0) {
        state[static_cast<std::size_t>(node)] = 1;
        for (int p : cfg.nodes[static_cast<std::size_t>(node)].preds)
          if (state[static_cast<std::size_t>(p)] == 0) stack.push_back(p);
      } else {
        stack.pop_back();
        if (state[static_cast<std::size_t>(node)] == 1) {
          state[static_cast<std::size_t>(node)] = 2;
          po_index[static_cast<std::size_t>(node)] = static_cast<int>(po.size());
          po.push_back(node);
        }
      }
    }
  }

  // Cooper–Harvey–Kennedy on the reverse graph: immediate
  // postdominators, rooted at exit.
  std::vector<int> ipdom(count, -1);
  ipdom[Cfg::kExit] = Cfg::kExit;
  auto intersect = [&](int a, int b) {
    while (a != b) {
      while (po_index[static_cast<std::size_t>(a)] <
             po_index[static_cast<std::size_t>(b)])
        a = ipdom[static_cast<std::size_t>(a)];
      while (po_index[static_cast<std::size_t>(b)] <
             po_index[static_cast<std::size_t>(a)])
        b = ipdom[static_cast<std::size_t>(b)];
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    // Reverse postorder of the reverse graph.
    for (auto it = po.rbegin(); it != po.rend(); ++it) {
      const int node = *it;
      if (node == Cfg::kExit) continue;
      int new_idom = -1;
      for (int s : cfg.nodes[static_cast<std::size_t>(node)].succs) {
        if (po_index[static_cast<std::size_t>(s)] < 0) continue;
        if (ipdom[static_cast<std::size_t>(s)] < 0) continue;
        new_idom = new_idom < 0 ? s : intersect(new_idom, s);
      }
      if (new_idom >= 0 && ipdom[static_cast<std::size_t>(node)] != new_idom) {
        ipdom[static_cast<std::size_t>(node)] = new_idom;
        changed = true;
      }
    }
  }
  ipdom[Cfg::kExit] = -1;
  cfg.ipostdom = ipdom;

  // Ferrante control dependence: for branch edge (b, s), every node on
  // the postdominator chain from s up to (excluding) ipdom(b) is
  // control-dependent on b. Loop headers come out dependent on
  // themselves, which is exactly right for trip-count divergence.
  cfg.control_deps.assign(count, {});
  for (std::size_t bi = 0; bi < count; ++bi) {
    const CfgNode& node = cfg.nodes[bi];
    if (node.kind != CfgNode::Kind::kBranch) continue;
    const int stop = cfg.ipostdom[bi];
    for (int s : node.succs) {
      int t = s;
      std::size_t guard = 0;
      while (t >= 0 && t != stop && ++guard <= count) {
        auto& deps = cfg.control_deps[static_cast<std::size_t>(t)];
        if (std::find(deps.begin(), deps.end(), static_cast<int>(bi)) ==
            deps.end())
          deps.push_back(static_cast<int>(bi));
        t = cfg.ipostdom[static_cast<std::size_t>(t)];
      }
    }
  }
  return cfg;
}

}  // namespace rewrite
