// psmgen benchmark binary.
//
//   psmgen_perfbench setup --workload W --seed N --dir D
//   psmgen_perfbench run   --workload W --seed N --seconds S --trace 0|1
//                          --dir D [--perturb]
//
// `setup` writes the workload's inputs and references under D. `run`
// measures and prints one JSON line: correct, attempted, failed, metrics
// (name -> {value, unit}) and info (sample counts and the host/toolchain
// stamp). perfbench/run.py drives both; see perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "common/build_info.hpp"
#include "obs/log.hpp"

namespace {

using perfbench::Options;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string cpuModel() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void printOutcome(const perfbench::Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + jsonString(m.unit) + "}";
  }
  json += "}, \"info\": {";
  auto info = out.info;
  info.emplace_back("nproc", std::to_string(perfbench::nprocs()));
  info.emplace_back("cpu_model", cpuModel());
  info.emplace_back("compiler", kCompiler);
  info.emplace_back("build_type", psmgen::common::kBuildType);
  info.emplace_back("git_sha", psmgen::common::kGitSha);
  for (std::size_t i = 0; i < info.size(); ++i) {
    json += (i ? ", " : "") + jsonString(info[i].first) + ": " +
            jsonString(info[i].second);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: psmgen_perfbench setup|run --workload W --seed N "
               "--dir D [--seconds S] [--trace 0|1] [--perturb]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Options opts;
  bool have_workload = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb") {
      opts.perturb = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      have_workload = perfbench::parseWorkload(value, opts.workload);
      if (!have_workload) return usage();
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--dir") {
      opts.dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || opts.dir.empty() || opts.seconds <= 0.0) {
    return usage();
  }
  // psmgen's warnings (resyncs, drift) are rate-limited by wall clock, so
  // how many get written depends on speed; silence them so every run does
  // the same work.
  psmgen::obs::logger().setLevel(psmgen::obs::LogLevel::Error);
  try {
    if (command == "setup") {
      // Set-up is single-threaded; see pinToFastestCpu.
      perfbench::pinToFastestCpu();
      perfbench::runSetup(opts);
      return 0;
    }
    if (command == "run") {
      printOutcome(perfbench::runMeasure(opts));
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psmgen_perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
