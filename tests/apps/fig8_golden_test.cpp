// Golden text of the Fig. 8 grid: every (app, version, device) cell of
// apps::run_cell, with its modeled kernel time printed as an exact
// hex float (%a) and its validity. The table in fig8_golden.txt was
// captured before the stream executor, the serve layer and the watchdog
// moved onto the one host thread pool; both launch modes must still
// reproduce it bit for bit. Which host thread runs an op may change,
// the modeled output may not: the registry devices and devices built
// with one and with three block workers all reproduce it. The XSBench
// omp cells stay INVALID, as in the paper.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/harness.h"
#include "core/ompx.h"
#include "simt/simt.h"

namespace {

using apps::Version;

/// One line per cell: "<app> <bar> <device> <kernel_ms as %a> <valid>".
std::vector<std::string> grid_lines() {
  std::vector<std::string> lines;
  for (simt::Device* dev : simt::device_registry()) {
    for (const apps::AppDesc& app : apps::registry()) {
      for (Version v : {Version::kOmpx, Version::kOmp, Version::kNative,
                        Version::kNativeVendor}) {
        const apps::RunResult r = apps::run_cell(app, v, *dev);
        char ms[64];
        std::snprintf(ms, sizeof ms, "%a", r.kernel_ms);
        lines.push_back(r.app + " " + r.version + " " + r.device + " " + ms +
                        (r.valid ? " valid" : " INVALID"));
      }
    }
  }
  return lines;
}

std::vector<std::string> golden_lines() {
  std::ifstream in(std::string(OMPX_SOURCE_DIR) +
                   "/tests/apps/fig8_golden.txt");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  return lines;
}

void expect_grid_matches_golden() {
  const std::vector<std::string> want = golden_lines();
  const std::vector<std::string> got = grid_lines();
  std::ostringstream table;
  for (const std::string& line : got) table << line << "\n";
  ASSERT_EQ(want.size(), 48u) << "fig8_golden.txt is missing or short; "
                                 "this run's grid:\n"
                              << table.str();
  ASSERT_EQ(got.size(), want.size()) << table.str();
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "cell " << i << "; full grid:\n"
                               << table.str();
}

class Fig8Golden : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = ompx::launch_mode(); }
  void TearDown() override { ompx::set_launch_mode(saved_); }

 private:
  ompx::LaunchMode saved_ = ompx::LaunchMode::kAsync;
};

TEST_F(Fig8Golden, AsyncDefaultMatchesCapture) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  expect_grid_matches_golden();
}

TEST_F(Fig8Golden, SyncModeMatchesCapture) {
  ompx::set_launch_mode(ompx::LaunchMode::kSync);
  expect_grid_matches_golden();
}

/// The grid on devices with the registry's configurations (so its
/// device names) and `workers` block workers. They stand in the
/// registry's two slots while the grid runs: run_cell gets them as its
/// Device&, and the CUDA/HIP versions, which select a device by
/// registry index, reach them there. Built once per worker count and
/// never destroyed, like the registry's own devices.
void expect_grid_matches_golden_at(unsigned workers) {
  static std::map<unsigned, std::vector<simt::Device*>> devices;
  std::vector<simt::Device*>& devs = devices[workers];
  if (devs.empty()) {
    simt::EngineOptions opts;
    opts.workers = workers;
    devs = {new simt::Device(simt::make_sim_a100_config(), opts),
            new simt::Device(simt::make_sim_mi250_config(), opts)};
  }
  struct Swap {
    std::vector<simt::Device*> saved = simt::device_registry();
    ~Swap() { simt::device_registry() = saved; }
  } swap;
  simt::device_registry() = devs;
  expect_grid_matches_golden();
}

TEST_F(Fig8Golden, OneWorkerDevicesMatchCapture) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  expect_grid_matches_golden_at(1);
}

TEST_F(Fig8Golden, ThreeWorkerDevicesMatchCapture) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  expect_grid_matches_golden_at(3);
}

}  // namespace
