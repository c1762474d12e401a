// perfbench: runs one benchmark workload in this process and prints two
// JSON lines — a record of the run (environment, sample counts, the
// metrics of this workload only) and, last, the result:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// A correctness violation prints no result and exits 1; bad arguments
// or a failed set-up exit 2; a build without NDEBUG refuses to run (3).
// perfbench/run.py builds this binary and is the command to run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "util/worker_pool.h"
#include "workloads.h"

namespace {

std::string JsonNumber(double value) {
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string MetricsObject(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool AllFinite(const std::vector<perfbench::Metric>& metrics) {
  for (const perfbench::Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) return false;
  }
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: this build has assertions on (no NDEBUG); "
               "timings from it are not reported. Build Release.\n");
  return 3;
#endif
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_path = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown --workload");
  if (!have_seed) return Usage("--seed is required");
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }

  perfbench::Report report;
  try {
    report = perfbench::RunWorkload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
  const char* threads_env = std::getenv("PPR_THREADS");
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %u, \"PPR_THREADS\": %s, \"thread_budget\": %u, "
      "\"compiler\": %s, \"build_type\": %s, \"PPR_FAULT_INJECTION\": %d, "
      "\"details\": %s}}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      threads_env != nullptr ? JsonString(threads_env).c_str() : "null",
      ppr::ThreadBudget(), JsonString(__VERSION__).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), PPR_FAULT_INJECTION,
      MetricsObject(report.details).c_str());
  if (!report.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", report.error.c_str());
    return 1;
  }
  if (!AllFinite(report.metrics)) {
    std::fprintf(stderr, "perfbench: a metric is not a finite number\n");
    return 1;
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      MetricsObject(report.metrics).c_str());
  return 0;
}
