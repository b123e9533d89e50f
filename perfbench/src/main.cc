// Command-line entry of the end-to-end benchmark.
//
//   perfbench --workload oltp|hot_reads|fs_varmail --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//
// Prints one line per metric (name, value, unit, samples), a line with the
// set-up, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  Exits 1 when any check failed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "oltp|hot_reads|fs_varmail --seed N --seconds S --trace 0|1 "
               "[--spans FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t number(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage("not a number");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      o.seed = number(v);
    } else if (a == "--seconds") {
      o.seconds = static_cast<std::uint32_t>(number(v));
    } else if (a == "--trace") {
      o.trace = number(v) != 0;
    } else if (a == "--spans") {
      o.span_path = v;
    } else {
      usage("unknown option");
    }
  }
  if (o.seconds == 0) usage("--seconds must be at least 1");
  perfbench::Result r;
  try {
    if (workload == "oltp")
      r = perfbench::run_oltp(o);
    else if (workload == "hot_reads")
      r = perfbench::run_hot_reads(o);
    else if (workload == "fs_varmail")
      r = perfbench::run_fs_varmail(o);
    else
      usage("unknown workload");
  } catch (const std::exception& e) {
    r.fail(std::string("uncaught: ") + e.what());
  }

  const auto& metrics = o.trace ? r.per_layer : r.end_to_end;
  std::printf("setup: %s\n", r.setup.c_str());
  for (const perfbench::Metric& m : metrics)
    std::printf("%-40s %14.6g %-6s samples=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  for (const std::string& e : r.errors) std::printf("FAILED: %s\n", e.c_str());
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char val[64];
    std::snprintf(val, sizeof val, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            val + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.failed == 0 ? 0 : 1;
}
