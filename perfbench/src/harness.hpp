// Shared machinery of the benchmark workloads: run arguments, layer timers
// filled from outside the library, correctness gates, obs-registry deltas,
// span self time, budget-book checks and the result record.
//
// Everything here drives the library through its public entry points and
// times those calls from outside; nothing reaches into src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/privid.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t threads = 1;  // cores the process may run on (nproc), from main
  std::string run_dir;  // scratch directory (the disk tier)
  // Name of one correctness gate whose expectation is deliberately made
  // wrong (the self-check that proves the gates can fail); empty = none.
  std::string inject;
};

// Layer timers the benchmark fills around public calls. Counts are kept on
// every run (the restart gate reads analyst.exec.calls); clock reads happen
// only when tracing, so the measured runs pay one relaxed branch.
struct LayerTimers {
  std::atomic<std::uint64_t> exec_calls{0}, exec_ns{0};
  std::atomic<std::uint64_t> detect_calls{0}, detect_ns{0}, detections{0};
  std::atomic<std::uint64_t> track_ns{0};
  std::atomic<std::uint64_t> parse_ns{0}, submit_ns{0};
};
LayerTimers& layers();
// A plain copy of the timers, read at the end of a measured region.
struct LayerCounts {
  std::uint64_t exec_calls = 0, exec_ns = 0;
  std::uint64_t detect_calls = 0, detect_ns = 0, detections = 0;
  std::uint64_t track_ns = 0;
  std::uint64_t parse_ns = 0, submit_ns = 0;
};
LayerCounts read_layers();
void reset_layers();
bool tracing();
void set_tracing(bool on);

// Correctness gates. Each failed check counts one wrong-output query and
// makes the run exit non-zero.
class Gates {
 public:
  explicit Gates(std::string inject) : inject_(std::move(inject)) {}
  // True when `gate` is the one whose expectation the self-check corrupts.
  bool injected(const char* gate) const { return inject_ == gate; }
  // Records one check; returns `ok`.
  bool check(bool ok, const char* gate, const std::string& detail);
  const std::vector<std::string>& failures() const { return failures_; }
  std::uint64_t checks() const { return checks_; }

 private:
  std::string inject_;
  std::vector<std::string> failures_;
  std::uint64_t checks_ = 0;
};

// Counter and histogram deltas of the global obs registry between begin()
// and end(), accumulated over several segments (standing_restart destroys
// the system, and with it its cache metrics, once per cycle).
class ObsDelta {
 public:
  void begin();
  void end();
  std::uint64_t counter(const std::string& name) const;
  std::uint64_t hist_count(const std::string& name) const;
  double hist_ms(const std::string& name) const;

 private:
  privid::obs::Snapshot start_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::pair<std::uint64_t, double>> hists_;
};

// Self time per span name from the trace recorder: a span's duration minus
// the time its child spans (same thread, nested interval) cover. drain()
// moves the recorder's buffered events into the totals; call it only when
// no span can be ending concurrently, or events recorded between the copy
// and the clear are lost.
class SpanSelfTime {
 public:
  void drain();
  struct Totals {
    std::uint64_t count = 0;
    double self_ms = 0;
  };
  const std::map<std::string, Totals>& totals() const { return totals_; }
  // The span names the library records today (src/**: obs::Span sites).
  static const std::vector<std::string>& known_spans();

 private:
  struct Open {
    std::uint64_t start, end;
  };
  // Completed spans per thread not yet claimed by an enclosing parent.
  std::unordered_map<unsigned, std::vector<Open>> pending_;
  std::map<std::string, Totals> totals_;
};

// Plan-computed ledger charges of every admitted query, per camera, kept
// as charge deltas at interval endpoints (memory bounded by the distinct
// endpoints, not by the number of queries).
class ChargeBook {
 public:
  // Adds the plan's charges `times` over (once per admitted run).
  void add(const privid::engine::QueryPlan& plan, double times = 1);
  // Checks every camera's remaining ε against ε_C minus the summed
  // charges, at every breakpoint of the charge intervals.
  void check(const privid::engine::Privid& sys, double epsilon_c,
             Gates* gates, const char* gate) const;

 private:
  std::map<std::string, std::map<privid::FrameIndex, double>> deltas_;
};

// Owner checkpoint of the budget books: save_budget of every camera into
// memory (the bytes an owner writes to storage; the durable write itself is
// the owner's, not the library's, and is not timed), and the matching
// restore into a freshly built system.
using Books = std::vector<std::string>;  // one serialized ledger per camera
Books save_books(const privid::engine::Privid& sys,
                 const std::vector<std::string>& cameras);
void restore_books(privid::engine::Privid* sys,
                   const std::vector<std::string>& cameras, const Books& books);

// Everything one workload run measured.
struct Result {
  std::vector<double> setup_s;       // one per setup repetition
  std::vector<double> latencies_ms;  // one per completed query
  double stream_wall_s = 0;          // wall time of the query stream
  // Wall time of the whole measured region: the query stream plus, on
  // standing_restart, the flush and restart legs between cold years.
  double measured_wall_s = 0;
  double video_s = 0;                // camera video covered by completions
  std::vector<double> restart_s;     // restart samples; the run's median
  std::vector<double> flush_s;       // standing_restart: one per flush_disk
  std::uint64_t attempted = 0, failed = 0, refused = 0;
  // Per-layer metrics, by their BENCHMARK.json names.
  std::map<std::string, double> layer;
  std::map<std::string, std::uint64_t> span_counts;  // traced runs only
};

// The restart leg of the workloads without a disk tier. freeze() saves the
// books every later restart restores, so the restored state does not
// depend on how far the run got; sample() takes one restart_s sample: a
// fresh system from `rebuild` plus restore_books, averaged over a batch
// sized to take about 10 ms, so sub-millisecond restarts are timed far
// above the clock's resolution. Each restarted system is destroyed,
// untimed, before the next is built, so at most one extra system is alive.
// Samples are taken outside the query stream's timed region.
class Checkpoint {
 public:
  Checkpoint(std::vector<std::string> cameras,
             std::function<std::unique_ptr<privid::engine::Privid>()> rebuild)
      : cameras_(std::move(cameras)), rebuild_(std::move(rebuild)) {}

  // Saves the books of `sys` and restores them into a fresh system;
  // checks that restored system against `book` (gate "ledger_restore").
  void freeze(const privid::engine::Privid& sys, const ChargeBook& book,
              double epsilon_c, Gates* gates);
  bool frozen() const { return !books_.empty(); }
  void sample(Result* r);

 private:
  std::vector<std::string> cameras_;
  std::function<std::unique_ptr<privid::engine::Privid>()> rebuild_;
  Books books_;
  std::size_t restart_batch_ = 0;
};

double median(std::vector<double> v);
// Linear-interpolated percentile, q in [0, 100].
double percentile(std::vector<double> v, double q);

// Fills the layer metrics every workload reports from the obs deltas, the
// benchmark's own timers and the span totals.
void fill_common_layers(const ObsDelta& obs, const LayerCounts& timers,
                        const SpanSelfTime* spans, Result* r);

// Bit-identical comparison of two doubles.
bool same_bits(double a, double b);
// True when two release lists match label, group key, raw value and
// sensitivity, bit for bit; otherwise `why` (if given) says where.
bool same_releases(const std::vector<privid::engine::Release>& a,
                   const std::vector<privid::engine::Release>& b,
                   std::string* why = nullptr);

// Workload entry points.
Result run_cold_adhoc(const Args& args, Gates* gates);
Result run_service_mixed(const Args& args, Gates* gates);
Result run_standing_restart(const Args& args, Gates* gates);

}  // namespace perfbench
