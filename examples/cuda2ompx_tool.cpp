// cuda2ompx command-line tool — the code-rewriting integration the
// paper's §6 lists as future work, built on src/rewrite.
//
//   ./cuda2ompx_tool < kernel.cu > kernel_ompx.cpp
//   ./cuda2ompx_tool --no-launches < kernel.cu
//   ./cuda2ompx_tool --lint < kernel.cu     # also lint the ported output
//   ./cuda2ompx_tool --analyze < kernel.cu  # + per-kernel exec verdicts
//
// Reads CUDA source on stdin, writes ompx source on stdout, and prints
// a rewrite report (counts + anything left for a human) on stderr.
// With --lint, the *rewritten* output is run through ompx_lint too —
// anything the rewriter left behind shows up as unported-builtin, and
// divergence/sync hazards survive the port unchanged. With --analyze,
// the full ompx-analyze pass runs instead: the same findings plus one
// exec verdict per ported kernel (convergent / convergent with atomics
// / needs fibers), so a port lands together with its lane-exec proof.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "rewrite/analyze.h"
#include "rewrite/cuda2ompx.h"
#include "rewrite/lint.h"

int main(int argc, char** argv) {
  rewrite::Options opt;
  bool lint = false;
  bool analyze = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-launches") == 0)
      opt.rewrite_launches = false;
    else if (std::strcmp(argv[i], "--lint") == 0)
      lint = true;
    else if (std::strcmp(argv[i], "--analyze") == 0)
      analyze = true;
    else if (std::strcmp(argv[i], "--help") == 0) {
      std::fprintf(
          stderr,
          "usage: %s [--no-launches] [--lint] [--analyze] < cuda.cu > "
          "ompx.cpp\n",
          argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  std::ostringstream in;
  in << std::cin.rdbuf();

  rewrite::Report report;
  const std::string out = rewrite::cuda_to_ompx(in.str(), &report, opt);
  std::cout << out;

  std::fprintf(stderr, "cuda2ompx: %d replacements\n", report.replacements);
  for (const auto& n : report.notes)
    std::fprintf(stderr, "  %s\n", n.c_str());
  if (!report.unported.empty()) {
    std::fprintf(stderr, "needs a human:\n");
    for (const auto& u : report.unported)
      std::fprintf(stderr, "  ! %s\n", u.c_str());
  }

  if (analyze) {
    rewrite::AnalysisResult r = rewrite::analyze_source(out);
    // Fold in the unported scan so --analyze subsumes --lint.
    rewrite::LintOptions uopt;
    uopt.check_divergent_sync = false;
    uopt.check_shared_sync = false;
    uopt.check_contract = false;
    for (auto& f : rewrite::lint_source(out, uopt))
      r.findings.push_back(std::move(f));
    std::fputs(rewrite::format_analysis(r, "<ported>").c_str(), stderr);
    if (!r.findings.empty()) {
      std::fprintf(stderr, "ompx-analyze: %zu finding(s)\n",
                   r.findings.size());
      return 2;
    }
    std::fprintf(stderr, "ompx-analyze: clean\n");
  } else if (lint) {
    const auto findings = rewrite::lint_source(out);
    if (findings.empty()) {
      std::fprintf(stderr, "ompx_lint: clean\n");
    } else {
      std::fprintf(stderr, "ompx_lint: %zu finding(s)\n", findings.size());
      std::fputs(rewrite::format_lint(findings, "<ported>").c_str(), stderr);
      return 2;
    }
  }
  return 0;
}
