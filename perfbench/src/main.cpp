// privid_perfbench: runs one benchmark workload against the public privid
// API, checks its outputs and prints the end-to-end metrics, the
// per-layer table and, as its last line, one machine-readable record.
//
//   privid_perfbench --workload cold_adhoc --seed 7 --seconds 20
//                    --run-dir DIR [--trace 1] [--inject GATE]
//
// The client and worker count is the number of cores the process may run
// on (nproc); the record's build block reports it. run.py builds this
// binary and turns the record into the benchmark's result line; see
// README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"
#include "obs/trace.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "privid_perfbench: %s\n"
               "usage: privid_perfbench --workload NAME --seed N --seconds S "
               "--run-dir DIR [--trace 0|1] [--inject GATE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--run-dir") {
      a.run_dir = val;
    } else if (key == "--inject") {
      a.inject = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty() || a.run_dir.empty()) usage("missing arguments");
  if (a.seconds <= 0) usage("bad --seconds");
  return a;
}

// The cores this process may run on, as nproc counts them.
std::size_t usable_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
  }
  return std::max(std::thread::hardware_concurrency(), 1u);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Row {
  const char* name;
  const char* count;  // layer metric holding the count, or nullptr
  const char* ms;
};

// The per-layer table: count, total ms, share of the query stream's wall
// time and of the summed query latency. Shares above 100% mean the layer
// ran on several threads at once.
void print_layer_table(const Result& r) {
  const Row rows[] = {
      {"analyst.exec", "analyst.exec.calls", "analyst.exec.ms"},
      {"cv.detect", "cv.detect.calls", "cv.detect.ms"},
      {"cv.track", nullptr, "cv.track.ms"},
      {"engine.task", "engine.task.count", "engine.task.ms"},
      {"engine.task_overhead", nullptr, "engine.task_overhead.ms"},
      {"engine.assemble", nullptr, "engine.assemble.ms"},
      {"engine.finish", nullptr, "engine.finish.ms"},
      {"engine.dedup.wait", "engine.dedup.followers", "engine.dedup.wait_ms"},
      {"query.parse", nullptr, "query.parse.ms"},
      {"service.submit_call", nullptr, "service.submit_call.ms"},
      {"service.queue_wait", nullptr, "service.queue_wait_ms"},
      {"pool.batch", nullptr, "pool.batch.ms"},
  };
  const double wall = r.layer.at("workload.wall_ms");
  const double qtime = r.layer.at("workload.query_ms");
  auto line = [&](const std::string& name, double count, double ms) {
    std::printf("  %-26s %12.0f %12.3f %8.1f%% %8.1f%%\n", name.c_str(), count,
                ms, wall > 0 ? 100 * ms / wall : 0,
                qtime > 0 ? 100 * ms / qtime : 0);
  };
  std::printf("per-layer table (wall %.1f ms, summed query time %.1f ms)\n",
              wall, qtime);
  std::printf("  %-26s %12s %12s %9s %9s\n", "layer", "count", "total ms",
              "% wall", "% query");
  for (const Row& row : rows) {
    line(row.name, row.count ? r.layer.at(row.count) : 0, r.layer.at(row.ms));
  }
  for (const auto& [name, count] : r.span_counts) {
    line("self." + name, static_cast<double>(count),
         r.layer.at("self." + name + ".ms"));
  }
  std::printf("  cache: %.0f lookups, hit ratio %.4f, %.0f misses, "
              "%.0f evictions, %.0f disk hits\n",
              r.layer.at("engine.cache.lookups"),
              r.layer.at("engine.cache.hit_ratio"),
              r.layer.at("engine.cache.misses"),
              r.layer.at("engine.cache.evictions"),
              r.layer.at("engine.cache.disk_hits"));
  if (!r.flush_s.empty()) {
    std::printf("  disk tier: flush_disk %.1f ms, %.0f files, %.1f "
                "bytes/entry; attach %.1f ms of restart %.1f ms\n",
                r.layer.at("engine.cache.flush_ms"),
                r.layer.at("engine.cache.disk.files"),
                r.layer.at("engine.cache.disk.bytes_per_entry"),
                r.layer.at("engine.cache.attach_ms"),
                median(r.restart_s) * 1e3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  args.threads = usable_cores();
  std::filesystem::create_directories(args.run_dir);
  set_tracing(args.trace);
  if (args.trace) {
    auto& rec = privid::obs::TraceRecorder::global();
    rec.set_output_file("");  // spans are folded in-process, never dumped
    rec.set_enabled(true);
  }

  Gates gates(args.inject);
  Result r;
  if (args.workload == "cold_adhoc") {
    r = run_cold_adhoc(args, &gates);
  } else if (args.workload == "service_mixed") {
    r = run_service_mixed(args, &gates);
  } else if (args.workload == "standing_restart") {
    r = run_standing_restart(args, &gates);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  const auto wrong = static_cast<std::uint64_t>(gates.failures().size());
  const std::uint64_t errors = r.failed + r.refused + wrong;
  const double completed = static_cast<double>(r.latencies_ms.size());
  const std::pair<const char*, double> metrics[] = {
      {"setup_s", median(r.setup_s)},
      {"video_s_per_s", r.video_s / r.stream_wall_s},
      {"queries_per_s", completed / r.stream_wall_s},
      {"query_p50_ms", percentile(r.latencies_ms, 50)},
      {"query_p90_ms", percentile(r.latencies_ms, 90)},
      {"query_p99_ms", percentile(r.latencies_ms, 99)},
      {"restart_s", median(r.restart_s)},
      {"peak_rss_mb", peak_rss_mb()},
      {"error_rate", static_cast<double>(errors) /
                         static_cast<double>(std::max<std::uint64_t>(
                             r.attempted, 1))},
  };

  std::printf("%s seed %llu%s: %.0f queries in %.2f s, %zu gate checks\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? " (traced)" : "", completed, r.stream_wall_s,
              static_cast<std::size_t>(gates.checks()));
  for (const auto& [name, value] : metrics) {
    std::printf("  %-16s %14.6f\n", name, value);
  }
  std::printf("  errors: %llu failed, %llu refused, %llu wrong outputs of "
              "%llu attempted\n",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.refused),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(r.attempted));
  auto samples = [](const char* name, const std::vector<double>& v) {
    if (v.empty()) return;
    std::printf("  %s: %zu samples, min %.4g, median %.4g, max %.4g\n", name,
                v.size(), *std::min_element(v.begin(), v.end()), median(v),
                *std::max_element(v.begin(), v.end()));
  };
  samples("setup_s", r.setup_s);
  samples("flush_s", r.flush_s);
  samples("restart_s", r.restart_s);
  // The first failures are enough to debug; the count is in `errors`.
  const std::size_t shown = std::min<std::size_t>(gates.failures().size(), 20);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("  GATE FAILED %s\n", gates.failures()[i].c_str());
  }
  if (args.trace) print_layer_table(r);

  std::string out = "PERFBENCH_RECORD {\"correct\": ";
  out += wrong == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(errors);
  out += ", \"gate_failures\": [";
  for (std::size_t i = 0; i < shown; ++i) {
    out += (i ? ", " : "") + json_string(gates.failures()[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_number(value);
    first = false;
  }
  out += "}, \"layers\": {";
  first = true;
  for (const auto& [name, value] : r.layer) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_number(value);
    first = false;
  }
  out += "}, \"build\": {\"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"nproc\": " + std::to_string(args.threads) + "}}";
  std::printf("%s\n", out.c_str());
  return errors == 0 ? 0 : 1;
}
