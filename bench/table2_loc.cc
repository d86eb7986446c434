// Table 2 reproduction: lines of code of the reproduction's components.
//
// The paper's Table 2 argues that ghOSt concentrates mechanism in a
// modest, rarely-changing kernel component plus a reusable userspace support
// library, so each *policy* is only hundreds of lines. This binary counts the
// same breakdown for this reproduction (non-blank, non-comment-only lines),
// so the claim can be checked against our own code.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace {

namespace fs = std::filesystem;

int CountFileLoc(const fs::path& path) {
  std::ifstream in(path);
  int loc = 0;
  std::string line;
  bool in_block_comment = false;
  while (std::getline(in, line)) {
    size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos) {
      continue;  // blank
    }
    if (in_block_comment) {
      if (line.find("*/") != std::string::npos) {
        in_block_comment = false;
      }
      continue;
    }
    if (line.compare(i, 2, "//") == 0) {
      continue;  // line comment
    }
    if (line.compare(i, 2, "/*") == 0 && line.find("*/") == std::string::npos) {
      in_block_comment = true;
      continue;
    }
    ++loc;
  }
  return loc;
}

int CountDirLoc(const fs::path& dir, const std::vector<std::string>& only = {}) {
  int total = 0;
  if (!fs::exists(dir)) {
    return 0;
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") {
      continue;
    }
    if (!only.empty()) {
      bool match = false;
      for (const std::string& stem : only) {
        if (entry.path().filename().string().rfind(stem, 0) == 0) {
          match = true;
          break;
        }
      }
      if (!match) {
        continue;
      }
    }
    total += CountFileLoc(entry.path());
  }
  return total;
}

void Row(gs::bench::Run& run, const char* name, int loc, const char* paper) {
  std::printf("%-46s %6d LOC   (paper: %s)\n", name, loc, paper);
  run.AddRow().Set("component", name).Set("loc", loc).Set("paper_loc", paper);
}

}  // namespace

int main(int argc, char** argv) {
  // LOC counting is a pure host-filesystem walk: no simulation, nothing to
  // fan out, so multi-seed runs are rejected up front.
  gs::bench::Harness::Options options;
  options.allow_parallel = false;
  gs::bench::Harness harness("table2_loc", argc, argv, options);
  const fs::path root = GHOST_SIM_SOURCE_DIR;
  const fs::path src = root / "src";

  std::printf("Table 2 reproduction: lines of code (non-blank, non-comment)\n\n");

  // Nothing here is random: the seed (0 unless --seed) is only recorded.
  harness.RunAll(0, [&src](gs::bench::Run& run) {
    Row(run, "Simulated kernel substrate (src/kernel, sim, ...)",
        CountDirLoc(src / "kernel") + CountDirLoc(src / "sim") +
            CountDirLoc(src / "topology") + CountDirLoc(src / "base"),
        "Linux CFS alone is 6,217");
    Row(run, "ghOSt kernel scheduling class (src/ghost)", CountDirLoc(src / "ghost"),
        "3,777");
    Row(run, "ghOSt userspace support library (src/agent)", CountDirLoc(src / "agent"),
        "3,115");
    // The Shinjuku, Shinjuku+Shenango and Snap settings are three rows of the
    // policy factory's table over this one class.
    Row(run, "Shinjuku policy", CountDirLoc(src / "policies", {"centralized_fifo"}),
        "710 (+17 for Shenango ext)");
    Row(run, "Per-CPU FIFO policy", CountDirLoc(src / "policies", {"per_cpu_fifo"}), "n/a");
    Row(run, "Google Search policy", CountDirLoc(src / "policies", {"search"}), "929");
    Row(run, "Secure VM (core scheduling) policy",
        CountDirLoc(src / "policies", {"vm_core_sched"}), "4,702 (ghOSt) vs 7,164 (kernel)");
    Row(run, "Shinjuku dataplane baseline (src/baselines)", CountDirLoc(src / "baselines"),
        "Shinjuku system: 3,900");
    Row(run, "Workloads (src/workloads)", CountDirLoc(src / "workloads"), "n/a");
    Row(run, "Whole repository (src/)", CountDirLoc(src), "-");
  });

  std::printf(
      "\nThe paper's structural claim to check: policies are small (100s of\n"
      "lines) because mechanism lives in the kernel class and bookkeeping in\n"
      "the reusable userspace library.\n");
  return harness.Finish();
}
