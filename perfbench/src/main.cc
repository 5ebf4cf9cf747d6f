// perfbench: runs one workload of the ringdb benchmark and prints its
// metrics. Normally started through perfbench/run.py, which builds this
// binary from the checkout and validates the output:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--source-id ID]
//   perfbench selftest
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
int SelfTest();
}

namespace {

// Named in advance for checking later claims: a gain measured while a
// change was written on other seeds must also hold on this one.
constexpr unsigned long long kHeldOutSeed = 7919;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--source-id ID]\n"
               "       perfbench selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "selftest") {
    return perfbench::SelfTest();
  }
  std::string workload, source_id = "unknown";
  perfbench::RunOptions opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || opt.work_dir.empty() ||
      opt.seconds <= 0) {
    return Usage();
  }
  const perfbench::WorkloadSpec* spec = nullptr;
  for (const perfbench::WorkloadSpec& w : perfbench::Workloads()) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  utsname host{};
  uname(&host);
  std::printf(
      "provenance: {\"workload\": %s, \"seed\": %llu, \"held_out_seed\": "
      "%llu, \"threads\": %d, \"trace\": %d, \"seconds\": %s, \"cpu\": %s, "
      "\"nproc\": %ld, \"kernel\": %s, \"build_type\": %s, \"compiler\": "
      "%s, \"source\": %s}\n",
      JsonString(spec->name).c_str(),
      static_cast<unsigned long long>(opt.seed), kHeldOutSeed, spec->threads,
      opt.trace ? 1 : 0, Number(opt.seconds).c_str(),
      JsonString(CpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(host.release).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(__VERSION__).c_str(), JsonString(source_id).c_str());
  std::fflush(stdout);

  const perfbench::RunResult r = perfbench::RunWorkload(*spec, opt);
  std::printf("[%s seed %llu%s]\n", spec->name,
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? ", traced" : "");
  for (const std::string& line : r.report) std::printf("%s\n", line.c_str());
  if (!r.correct) {
    std::printf("OUTPUT CHECK FAILED: %s\n", r.error.c_str());
  }
  std::string json = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    json += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
            Number(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
