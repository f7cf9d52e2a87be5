// perfbench: the repository benchmark's measuring binary. perfbench/run.py
// builds it and turns its JSON line into the benchmark's result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data <reference dir>] [--spans <file>]
//   perfbench --write-references [--data <dir>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hs_pq|hs_resumed|campaign_table4a|"
               "fleet_16x4 --seed N --seconds S --trace 0|1 [--data DIR] "
               "[--spans FILE]\n"
               "       perfbench --write-references [--data DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool write_refs = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--write-references") {
      write_refs = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (!(args.seconds > 0)) return usage();
    } else if (arg == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) return usage();
    } else if (arg == "--data") {
      args.data_dir = value;
    } else if (arg == "--spans") {
      args.spans_path = value;
    } else {
      return usage();
    }
    if (end && *end) return usage();
  }
  if (write_refs) return perfbench::write_references(args);

  const std::string& w = args.workload;
  if (w != "hs_pq" && w != "hs_resumed" && w != "campaign_table4a" &&
      w != "fleet_16x4")
    return usage();

  perfbench::Report report;
  try {
    if (args.trace) {
      perfbench::run_layers(args, report);
    } else if (w == "hs_pq" || w == "hs_resumed") {
      perfbench::run_hs(args, w == "hs_resumed", report);
    } else if (w == "campaign_table4a") {
      perfbench::run_campaign_workload(args, report);
    } else {
      perfbench::run_fleet_workload(args, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    report.check(false, std::string("exception: ") + e.what());
  }
  std::fflush(stdout);
  report.write_json(std::cout, args);
  return report.correct() ? 0 : 1;
}
