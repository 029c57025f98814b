// ompx_lint — the static side of ompxsan as a standalone tool.
//
//   ./ompx_lint kernel.cpp [more.cpp ...]
//   ./ompx_lint --no-unported ported/*.cpp   # divergence/sync rules only
//   ./ompx_lint --analyze src/apps/*/*.cpp   # + per-kernel exec verdicts
//   ./ompx_lint --analyze --json=out.sarif src/apps/*/*.cpp  # SARIF for CI
//
// Lints each file for barrier-divergence hazards (path-sensitive, on a
// real CFG since the ompx-analyze rework), barrier-count mismatches,
// unsynced shared-memory reads, unported CUDA builtins, and C-ABI
// contract violations (unchecked ompx_result_t, two-call enumeration)
// — see rewrite/lint.h and rewrite/analyze.h. `--analyze` additionally
// prints one exec verdict per kernel region (convergent / convergent
// with atomics / needs fibers); `--json[=path]` writes the findings and
// verdicts as a SARIF 2.1.0 document. Exits 1 if any finding survives
// the per-line `ompx-lint-allow(<rule>)` suppressions, 0 on a clean
// run. CI runs this over the six app ports, bench/, and examples/.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rewrite/analyze.h"
#include "rewrite/lint.h"

int main(int argc, char** argv) {
  rewrite::LintOptions opt;
  bool analyze = false;
  bool json = false;
  std::string json_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-unported") == 0)
      opt.check_unported = false;
    else if (std::strcmp(argv[i], "--no-divergent-sync") == 0)
      opt.check_divergent_sync = false;
    else if (std::strcmp(argv[i], "--no-shared-sync") == 0)
      opt.check_shared_sync = false;
    else if (std::strcmp(argv[i], "--no-contract") == 0)
      opt.check_contract = false;
    else if (std::strcmp(argv[i], "--analyze") == 0)
      analyze = true;
    else if (std::strncmp(argv[i], "--json", 6) == 0) {
      json = true;
      if (argv[i][6] == '=') json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::fprintf(stderr,
                   "usage: %s [--analyze] [--json[=path]] [--no-unported] "
                   "[--no-divergent-sync] [--no-shared-sync] "
                   "[--no-contract] file [file ...]\n",
                   argv[0]);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "ompx_lint: no input files (see --help)\n");
    return 2;
  }

  std::size_t total = 0;
  std::vector<std::pair<std::string, rewrite::AnalysisResult>> results;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "ompx_lint: cannot read %s\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (analyze || json) {
      rewrite::AnalyzeOptions aopt;
      aopt.check_divergent_sync = opt.check_divergent_sync;
      aopt.check_shared_sync = opt.check_shared_sync;
      aopt.check_contract = opt.check_contract;
      rewrite::AnalysisResult r = rewrite::analyze_source(text.str(), aopt);
      if (opt.check_unported) {
        // The unported scan lives in lint_source; merge its findings so
        // --analyze covers the full rule family.
        rewrite::LintOptions uopt;
        uopt.check_divergent_sync = false;
        uopt.check_shared_sync = false;
        uopt.check_contract = false;
        uopt.check_unported = true;
        for (auto& f : rewrite::lint_source(text.str(), uopt))
          r.findings.push_back(std::move(f));
      }
      total += r.findings.size();
      if (analyze)
        std::fputs(rewrite::format_analysis(r, path).c_str(), stdout);
      results.emplace_back(path, std::move(r));
    } else {
      const auto findings = rewrite::lint_source(text.str(), opt);
      total += findings.size();
      std::fputs(rewrite::format_lint(findings, path).c_str(), stdout);
    }
  }
  if (json) {
    const std::string sarif = rewrite::analysis_to_sarif(results);
    if (json_path.empty()) {
      std::fputs(sarif.c_str(), stdout);
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::fprintf(stderr, "ompx_lint: cannot write %s\n",
                     json_path.c_str());
        return 2;
      }
      out << sarif;
    }
  }
  std::printf("ompx_lint: %zu finding(s) in %zu file(s)\n", total,
              files.size());
  return total == 0 ? 0 : 1;
}
