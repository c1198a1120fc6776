// perfbench: runs one workload of the repository benchmark and prints its
// result. Normally started through perfbench/run.py, which builds this
// binary and selects the metrics BENCHMARK.json names.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE]
//
// Output: one "# ..." line per note (provenance, sample counts, failed
// checks), then one JSON line with every metric the workload measured:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status 0 when every output check held, 1 when a check or a library
// call failed, 2 on a usage error, 3 when the watchdog fired.

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "fixture.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// A run that has not finished by then has a hung call: fail it rather
/// than stall whoever waits for the result.
constexpr int kWatchdogSeconds = 160;

/// Audit fan-out width. Two, not one per core: on a 4-vCPU VM with steal
/// time, 4-thread ExplainAll timings of one input spread 12-19% between
/// runs against ~4% at 2 threads, which leaves the other cores to the
/// operating system and the neighbours.
constexpr size_t kAuditThreads = 2;

std::mutex output_mu;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::string model = "unknown";
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return model;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* value = std::strchr(line, ':');
    if (value == nullptr) continue;
    model = value + 1;
    while (!model.empty() && (model.front() == ' ' || model.front() == '\t')) {
      model.erase(model.begin());
    }
    while (!model.empty() && (model.back() == '\n' || model.back() == '\r')) {
      model.pop_back();
    }
    break;
  }
  std::fclose(f);
  return model;
}

void PrintResult(const Result& result) {
  std::lock_guard<std::mutex> lock(output_mu);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    line += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload "
               "audit_full|ingest_durable|mine_templates "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--trace-out FILE]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  void (*run)(const RunConfig&, Result*) = nullptr;
  if (config.workload == "audit_full") {
    run = RunAuditFull;
  } else if (config.workload == "ingest_durable") {
    run = RunIngestDurable;
  } else if (config.workload == "mine_templates") {
    run = RunMineTemplates;
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (config.workload == "ingest_durable" && config.work_dir.empty()) {
    return Usage("ingest_durable needs --work-dir");
  }

  const size_t nproc = eba::HardwareThreads();
  config.threads = std::min<size_t>(kAuditThreads, std::max<size_t>(1, nproc));

  Result result;
  result.notes.push_back(
      "provenance {\"workload\": " + JsonString(config.workload) +
      ", \"seed\": " + std::to_string(config.seed) +
      ", \"seconds\": " + std::to_string(config.seconds) +
      ", \"trace\": " + (config.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(std::string("gcc-compatible ") + __VERSION__) +
      ", \"audit_threads\": " + std::to_string(config.threads) +
      ", \"wal_sync\": " +
      JsonString(config.workload == "ingest_durable" ? "none" : "no WAL") +
      "}");

  // Watchdog: AuditClient calls have no deadline, so a hung call would
  // otherwise hang the run.
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(done_mu);
    if (done_cv.wait_for(lock, std::chrono::seconds(kWatchdogSeconds),
                         [&] { return done; })) {
      return;
    }
    Result hung;
    hung.correct = false;
    hung.attempted = 1;
    hung.failed = 1;
    hung.notes.push_back("watchdog: run still busy after " +
                         std::to_string(kWatchdogSeconds) +
                         " s; a call hung");
    PrintResult(hung);
    std::_Exit(3);
  });

  int status = 0;
  try {
    run(config, &result);
  } catch (const BenchFailure& e) {
    result.correct = false;
    result.notes.push_back(std::string("FAILED: ") + e.what());
  }
  {
    std::lock_guard<std::mutex> lock(done_mu);
    done = true;
  }
  done_cv.notify_all();
  watchdog.join();

  if (!result.correct) {
    result.attempted = std::max<uint64_t>(result.attempted, 1);
    result.failed = result.attempted;
    status = 1;
  }
  PrintResult(result);
  return status;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
