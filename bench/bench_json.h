// `--json <path>` support for the ablation benches.
//
// Every record is one measured configuration:
//   { "name": ..., "config": {...}, "ns_per_op": ..., "ops_per_sec": ... }
// and the file is a single object naming the benchmark binary plus the
// record array, so downstream tooling (EXPERIMENTS.md tables, CI smoke
// checks) can diff runs without scraping console output. A
// "provenance" object records where the numbers come from, with the
// facts nnnbench prints: commit, compiler, flags, build type, CPU
// model, nproc and SHA-256 backend.
#pragma once

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.h"
#include "json/json.h"

namespace nnn::bench {

struct BenchRecord {
  std::string name;
  json::Object config;
  double ns_per_op = 0;
  double ops_per_sec = 0;
};

/// Remove a `--json <path>` (or `--json=<path>`) pair from argv before
/// the argv is handed to the benchmark library / positional parsing.
/// Returns the path, or "" when the flag is absent.
inline std::string strip_json_flag(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return path;
}

/// The source tree's commit, with "-dirty" when tracked files differ
/// from it; "unknown" outside a git checkout. It is read when the bench
/// runs, so it names the binary only if the tree has not changed since
/// the build: record a committed ledger from a clean checkout.
inline std::string source_commit() {
  std::string commit;
  if (FILE* git = popen("git -C '" NNN_BENCH_SOURCE_DIR
                        "' describe --always --dirty --abbrev=40"
                        " --exclude='*' 2>/dev/null",
                        "r")) {
    char buffer[128];
    while (std::fgets(buffer, sizeof buffer, git) != nullptr) {
      commit += buffer;
    }
    pclose(git);
  }
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == ' ')) {
    commit.pop_back();
  }
  return commit.empty() ? "unknown" : commit;
}

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

inline json::Object provenance() {
  json::Object p;
  p["commit"] = source_commit();
#if defined(__clang__)
  p["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  p["compiler"] = std::string("gcc ") + __VERSION__;
#else
  p["compiler"] = "unknown";
#endif
  p["cxx_flags"] = NNN_BENCH_CXX_FLAGS;
  p["build_type"] = NNN_BENCH_BUILD_TYPE;
  p["cpu"] = cpu_model();
  p["nproc"] = static_cast<uint64_t>(std::thread::hardware_concurrency());
  p["sha256_backend"] = crypto::to_string(crypto::sha256_backend());
  return p;
}

/// Serialize records to `path`. Returns false (after a perror-style
/// message on stderr) when the file cannot be written.
inline bool write_bench_json(const std::string& path,
                             const std::string& benchmark,
                             const std::vector<BenchRecord>& records) {
  json::Array results;
  results.reserve(records.size());
  for (const BenchRecord& r : records) {
    json::Object o;
    o["name"] = r.name;
    o["config"] = json::Value(r.config);
    o["ns_per_op"] = r.ns_per_op;
    o["ops_per_sec"] = r.ops_per_sec;
    results.push_back(json::Value(std::move(o)));
  }
  json::Object root;
  root["benchmark"] = benchmark;
  root["provenance"] = json::Value(provenance());
  root["results"] = json::Value(std::move(results));

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << json::Value(std::move(root)).dump_pretty() << "\n";
  return out.good();
}

}  // namespace nnn::bench
