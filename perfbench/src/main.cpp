// perfbench: one workload of the window-to-epoch / query-to-answer
// benchmark.  perfbench/run.py builds this binary and runs it as
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// It prints progress on stderr and one JSON report as the last line of
// stdout.  Exit codes: 0 measured, 1 failed, 2 refused (bad arguments, a
// non-release build, or a thread budget over nproc).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include <sys/statfs.h>

#include "report.hpp"
#include "workloads.hpp"

namespace {

#ifdef NDEBUG
constexpr bool kReleaseBuild = true;
#else
constexpr bool kReleaseBuild = false;
#endif

/// Filesystem type of `path` (the durability scratch directory).
std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x6969UL:
      return "nfs";
    case 0x2FC12FC1UL:
      return "zfs";
    case 0x65735546UL:
      return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

bool parse(int argc, char** argv, perfbench::Options& options) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_out = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
      have_out = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse(argc, argv, options)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out <dir>\n";
    return 2;
  }
  if (!kReleaseBuild) {
    std::cerr << "perfbench: refusing to measure a build without NDEBUG (not release)\n";
    return 2;
  }
  std::filesystem::create_directories(options.out_dir);

  perfbench::Report report;
  report.context("workload", options.workload);
  report.context("seed", options.seed);
  report.context("trace", static_cast<std::uint64_t>(options.trace));
  report.context("build_type", "release");
  report.context("compiler", __VERSION__);
  report.context("scratch_fs", filesystem_type(options.out_dir));
  try {
    perfbench::run_workload(options, report);
  } catch (const perfbench::Refusal& refusal) {
    std::cerr << "perfbench: refused: " << refusal.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
  std::cout << report.to_json() << std::endl;
  return 0;
}
