// Benchmark of the self-checkpoint library: HPL with self-checkpointing,
// an asynchronous commit stream, and measured kill-to-restore recovery.
//
//   perfbench --workload hpl_ckpt|sparse_async|kill_restore --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Stdout carries exactly one line: the JSON result. Diagnostics (the
// environment stamp, failed checks) go to stderr; the traced run writes
// its spans to DIR/trace_<workload>_<seed>.json.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload hpl_ckpt|sparse_async|kill_restore --seed N"
               " --seconds S --trace 0|1 [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag);
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  void (*workload)(const perfbench::RunOptions&, perfbench::Outcome&) = nullptr;
  if (options.workload == "hpl_ckpt") {
    workload = perfbench::run_hpl_ckpt;
  } else if (options.workload == "sparse_async") {
    workload = perfbench::run_sparse_async;
  } else if (options.workload == "kill_restore") {
    workload = perfbench::run_kill_restore;
  } else {
    return usage("unknown workload '" + options.workload + "'");
  }

  // The library warns on every node power-off; the result line must stay
  // the only thing on stdout and stderr should stay readable.
  skt::util::set_log_level(skt::util::LogLevel::kError);
  std::filesystem::create_directories(options.out_dir);

  perfbench::Outcome outcome(options.trace);
  const perfbench::CpuTimes before = perfbench::read_cpu_times();
  try {
    workload(options, outcome);
  } catch (const std::exception& e) {
    outcome.fail(std::string("workload threw: ") + e.what());
  }
  perfbench::stamp_environment(options, before, perfbench::read_cpu_times());
  if (!options.trace) outcome.set("peak_rss_mib", perfbench::peak_rss_mib());

  std::cout << outcome.json() << std::endl;
  return outcome.correct() ? EXIT_SUCCESS : EXIT_FAILURE;
}
