// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH] [--layers-file PATH]
//
// Runs one workload (fmm_matvec, ulv_solve, hodlr_solve, service_mix),
// checks its outputs, and prints one JSON object as the last line of
// standard output: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured untraced; with
// --trace 1 they are the per-layer ones of a traced run, which also writes
// every layer figure of the workload to --layers-file. Progress and a
// human-readable table go to stderr. Exit code: 0 when every check passed,
// 1 when a check failed (the JSON still says which way), 2 on bad usage or
// an exception (no JSON).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH] "
               "[--layers-file PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, void (*)(const Args&, Report&)> workloads = {
      {"fmm_matvec", run_fmm_matvec},
      {"ulv_solve", run_ulv_solve},
      {"hodlr_solve", run_hodlr_solve},
      {"service_mix", run_service_mix},
  };
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0))
        return usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else if (flag == "--layers-file") {
      args.layers_file = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const auto it = workloads.find(args.workload);
  if (!have_workload || it == workloads.end())
    return usage("unknown or missing --workload");

  Report report;
  try {
    it->second(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }
  if (args.trace && !args.layers_file.empty())
    report.check(report.write_layers(args.layers_file, args.workload),
                 "cannot write " + args.layers_file);
  report.print_table();
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
