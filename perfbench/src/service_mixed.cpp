// service_mixed: two analysts in a closed loop against one QueryService
// with a shared chunk cache and a pool of two workers, all on one core.
//
// Every query shares one PROCESS statement over one camera; only SELECT
// varies. Windows come from a small set anchored at one start, so most
// chunk lookups hit the memory tier. A fixed seeded share of steps is a
// miss: video past the hot windows, split on a chunk grid no earlier query
// used, asked by every analyst at the same step, so the first computes,
// concurrent ones single-flight behind it and later ones hit. The detector
// runs only for misses; each query's fixed cost (parse, admission,
// scheduling, cache probes, assembly, sensitivity, noise, release)
// dominates. Set-up samples are taken before the stream. Restart samples
// are spread over it: every kSampleEvery seconds the clients park between
// queries, the main thread takes one sample on the idle system, and the
// parked time is left out of the stream's wall time.
#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "analyst.hpp"
#include "common/error.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"
#include "query/parser.hpp"
#include "sim/scenarios.hpp"

namespace perfbench {

using namespace privid;

namespace {

// A fixed scene seed keeps the scene's cost statistics independent of the
// workload seed, which drives the query stream.
constexpr std::uint64_t kSceneSeed = 602;
constexpr double kSceneHours = 1.0;
constexpr double kChunkSeconds = 10.0;
constexpr double kHotMinutes[] = {10, 20, 30, 40};
// Misses cover minutes 40-60, which no hot window reaches, in ten 2-min
// windows (the m-th miss takes window m mod 10), each split in chunks of
// 10.0 s + a tenth of a second (the scene is 10 fps) times a walk over
// 1100 offsets. Short windows keep a miss's detector work small next to
// the hits' fixed cost.
constexpr double kMissBeginMinutes = 40;
constexpr double kMissMinutes = 2;
constexpr std::int64_t kMissWindows = 10;
constexpr std::int64_t kMissChunkOffsets = 1100;
// One step in 32: the slow queries (misses, their single-flight followers
// and the hits queued behind them) are then a few per cent of the stream,
// clear of p90 on one side and of p99 on the other.
constexpr std::uint64_t kMissOneIn = 32;
// Every hot frame is charged by every query; nothing may be refused.
constexpr double kEpsilonC = 1e9;
// Set-ups repeat for this long before the stream: a shared host switches
// between fast and slow stretches of a few hundred ms, so a short burst of
// set-ups would measure one stretch and a run's median would jump.
constexpr double kSetupSeconds = 2.0;
// Stream seconds between restart samples; a run too short for
// kMinSamples tops them up after the stream.
constexpr double kSampleEvery = 0.25;
constexpr std::size_t kMinSamples = 8;
// The traced run keeps every span in the recorder until the stream ends
// and folds them once, so no drain can race a span ending. It stops the
// stream once the recorder holds this many spans, which bounds its memory.
constexpr std::size_t kMaxTraceEvents = 400'000;
constexpr std::int64_t kMissWindowBase = 1000;

constexpr const char* kSelects[] = {
    "SELECT COUNT(*) FROM t GROUP BY hour(chunk);",
    "SELECT SUM(range(dwell, 0, 60)) FROM t;",
    "SELECT side, COUNT(*) FROM t GROUP BY side WITH KEYS [0, 1];",
    "SELECT AVG(range(dwell, 0, 60)) FROM t;",
};
constexpr std::size_t kShapes = std::size(kSelects);

// Analysts, and workers in the service's pool.
constexpr std::size_t kClients = 2;

// Confines the calling thread, and every thread it starts afterwards, to
// the last core it may run on. A query passes through several threads
// (client, dispatcher, pool workers, client). On a shared virtual machine
// each hand-over to a thread on another core waits for the hypervisor to
// run that core's vCPU, and the tail latency then follows the host's CPU
// steal: on a 4-vCPU virtual machine, p90 of the same code ranged from
// 1.1 to 3.5 ms across runs spread over four cores, and from 0.75 to
// 0.79 ms on one. On one core the workload measures what the pipeline
// costs per query, concurrency included.
void pin_to_one_core() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

std::uint64_t mix(std::uint64_t x) {  // SplitMix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Setup {
  std::shared_ptr<const sim::Scene> scene;
  std::unique_ptr<engine::Privid> sys;
};

std::unique_ptr<engine::Privid> make_system(
    const std::shared_ptr<const sim::Scene>& scene, std::uint64_t seed,
    std::size_t threads) {
  auto sys = std::make_unique<engine::Privid>(seed);
  engine::CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = seed ^ 0x5151;
  reg.policy = {33.0, 2};
  reg.epsilon_budget = kEpsilonC;
  sys->register_camera(std::move(reg));
  cv::DetectorConfig det;
  det.base_detect_prob = 0.92;
  sys->register_executable(
      "count_cars",
      make_tracking_counter(det, cv::TrackerConfig::sort(20, 2, 0.1)));
  service::QueryService::Config cfg;
  cfg.num_threads = threads;
  cfg.cache = engine::CacheMode::kShared;
  sys->configure_service(cfg);
  return sys;
}

// Window ids: 0..3 are the hot windows, kMissWindowBase + m the m-th miss.
class Windows {
 public:
  Windows(const sim::Scene& scene, std::uint64_t seed)
      : ext_(scene.meta().extent),
        first_(static_cast<std::int64_t>(mix(seed) % kMissChunkOffsets)) {}

  TimeInterval window(std::int64_t id) const {
    if (id < kMissWindowBase) {
      return {ext_.begin, ext_.begin + kHotMinutes[id] * 60};
    }
    const std::int64_t m = id - kMissWindowBase;
    const double begin =
        ext_.begin +
        (kMissBeginMinutes + static_cast<double>(m % kMissWindows) *
                                 kMissMinutes) * 60;
    return {begin, begin + kMissMinutes * 60};
  }

  double chunk(std::int64_t id) const {
    if (id < kMissWindowBase) return kChunkSeconds;
    // 7919 is prime and does not divide kMissChunkOffsets, so the first
    // 11000 misses all use distinct (window, chunk length) pairs.
    const std::int64_t m = (id - kMissWindowBase) / kMissWindows;
    return 10.0 + static_cast<double>((first_ + m * 7919) % kMissChunkOffsets) /
                      10.0;
  }

  std::string text(std::size_t shape, std::int64_t id) const {
    const TimeInterval w = window(id);
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "SPLIT highway BEGIN %.1f END %.1f BY TIME %.1f STRIDE 0 "
                  "INTO chunks;"
                  "PROCESS chunks USING count_cars TIMEOUT 1 PRODUCING 10 ROWS "
                  "WITH SCHEMA (entered:NUMBER=0, dwell:NUMBER=0, "
                  "side:NUMBER=0) INTO t;%s",
                  w.begin, w.end, chunk(id), kSelects[shape]);
    return buf;
  }

 private:
  TimeInterval ext_;
  std::int64_t first_;
};

using Key = std::pair<std::size_t, std::int64_t>;  // (SELECT shape, window)

// Lets the main thread stop the closed loop between queries: hold() waits
// until every client still in the stream is parked, runs `fn` on the idle
// system and releases them. It returns how long every client was parked.
class PauseGate {
 public:
  explicit PauseGate(std::size_t clients) : active_(clients) {}

  // Client side, between two queries: parks while a hold is on.
  void between_queries() {
    if (!paused_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lk(m_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return !paused_.load(std::memory_order_relaxed); });
    --parked_;
  }
  // Client side, on leaving the stream.
  void leave() {
    std::lock_guard<std::mutex> lk(m_);
    --active_;
    cv_.notify_all();
  }

  template <typename Fn>
  double hold(Fn&& fn) {
    std::unique_lock<std::mutex> lk(m_);
    paused_.store(true, std::memory_order_release);
    cv_.wait(lk, [&] { return parked_ == active_; });
    const auto t0 = Clock::now();
    fn();
    const double held = seconds_since(t0);
    paused_.store(false, std::memory_order_release);
    cv_.notify_all();
    return held;
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::atomic<bool> paused_{false};
  std::size_t parked_ = 0, active_;
};

// What one analyst saw per key: the first releases and how many queries
// asked it. Memory stays bounded by the distinct keys.
struct Seen {
  std::vector<engine::Release> releases;
  std::uint64_t count = 0;
};

}  // namespace

Result run_service_mixed(const Args& args, Gates* gates) {
  Result r;
  pin_to_one_core();
  std::vector<double> scene_ms;
  // One set-up: the scene and a configured system serving it.
  auto set_up = [&](Setup* out) {
    const auto t0 = Clock::now();
    auto scene = std::make_shared<sim::Scene>(
        std::move(sim::make_highway(kSceneSeed, kSceneHours, 0.2).scene));
    scene->visible_at(scene->meta().extent.begin);
    out->scene = std::move(scene);
    const double scene_s = seconds_since(t0);
    out->sys = make_system(out->scene, args.seed, kClients);
    scene_ms.push_back(scene_s * 1e3);
    r.setup_s.push_back(seconds_since(t0));
  };
  Setup s;
  set_up(&s);
  service::QueryService& svc = s.sys->service();
  const Windows windows(*s.scene, args.seed);
  engine::RunOptions opts;
  opts.reveal_raw = true;

  // Fill the cache with the hot windows before timing; these releases are
  // the reference every analyst's hot answers must match.
  ChargeBook book;
  std::map<Key, std::vector<engine::Release>> reference;
  for (std::int64_t w = 0; w < static_cast<std::int64_t>(std::size(kHotMinutes));
       ++w) {
    const std::string text = windows.text(0, w);
    reference[{0, w}] = svc.wait(svc.submit("warmup", text, opts)).releases;
    book.add(s.sys->plan(text));
  }
  // The books are saved after the fill, so every restart restores the
  // same state whatever the query count.
  Checkpoint checkpoint({"highway"}, [&] {
    return make_system(s.scene, args.seed, kClients);
  });
  checkpoint.freeze(*s.sys, book, kEpsilonC, gates);
  for (const auto t0 = Clock::now(); seconds_since(t0) < kSetupSeconds;) {
    Setup scratch;
    set_up(&scratch);
  }

  std::vector<std::map<Key, Seen>> seen(kClients);
  std::vector<std::vector<double>> latencies(kClients);
  std::vector<std::uint64_t> attempted(kClients), refused(kClients),
      failed(kClients), mismatched(kClients);
  auto& recorder = obs::TraceRecorder::global();
  std::atomic<bool> stop{false};
  PauseGate gate(kClients);
  SpanSelfTime spans;
  ObsDelta obs;
  reset_layers();
  obs.begin();
  const auto start = Clock::now();

  auto client = [&](std::size_t a) {
    const std::string analyst = "analyst" + std::to_string(a);
    Rng rng(mix(args.seed * 131 + a));
    std::int64_t misses = 0;
    for (std::uint64_t step = 0; !stop.load(std::memory_order_relaxed);
         ++step) {
      gate.between_queries();
      Key key;
      const std::uint64_t h = mix(args.seed ^ (step * 0x100000001B3ull));
      if (h % kMissOneIn == 0) {
        key = {(h >> 32) % kShapes, kMissWindowBase + misses++};
      } else {
        key = {static_cast<std::size_t>(rng.uniform_int(0, kShapes - 1)),
               rng.uniform_int(0, std::size(kHotMinutes) - 1)};
      }
      const std::string text = windows.text(key.first, key.second);
      ++attempted[a];
      std::vector<engine::Release> releases;
      try {
        auto t0 = Clock::now();
        query::ParsedQuery q = query::parse_query(text);
        const std::uint64_t parse_ns = ns_since(t0);
        t0 = Clock::now();
        service::QueryTicket ticket = svc.submit(analyst, std::move(q), opts);
        const std::uint64_t submit_ns = ns_since(t0);
        releases = svc.wait(ticket).releases;
        latencies[a].push_back(seconds_since(t0) * 1e3);
        LayerTimers& lt = layers();
        lt.parse_ns.fetch_add(parse_ns, std::memory_order_relaxed);
        lt.submit_ns.fetch_add(submit_ns, std::memory_order_relaxed);
      } catch (const BudgetError&) {
        ++refused[a];
        continue;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "query failed: %s\n", e.what());
        ++failed[a];
        continue;
      }
      Seen& mine = seen[a][key];
      if (mine.count++ == 0) {
        mine.releases = std::move(releases);
      } else if (!same_releases(mine.releases, releases)) {
        ++mismatched[a];
      }
    }
    gate.leave();
  };
  std::vector<std::thread> clients;
  for (std::size_t a = 0; a < kClients; ++a) clients.emplace_back(client, a);

  // The traced run takes its samples after the stream, so their spans and
  // registry updates stay out of the layer totals.
  double paused_s = 0;
  for (double next_sample_s = 0;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const double stream_s = seconds_since(start) - paused_s;
    if (stream_s >= args.seconds ||
        (args.trace && recorder.event_count() >= kMaxTraceEvents)) {
      break;
    }
    if (!args.trace && stream_s >= next_sample_s) {
      paused_s += gate.hold([&] { checkpoint.sample(&r); });
      next_sample_s += kSampleEvery;
    }
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  r.stream_wall_s = seconds_since(start) - paused_s;
  if (args.trace) {
    // Pool workers may still be closing spans of the last rounds.
    std::size_t count = recorder.event_count();
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      const std::size_t now = recorder.event_count();
      if (now == count) break;
      count = now;
    }
    spans.drain();
  }
  obs.end();
  const LayerCounts timers = read_layers();

  // Gate: every analyst asking the same (SELECT, window) gets the same raw
  // values and sensitivities — within one analyst (counted as the queries
  // ran), across analysts, and against the pre-timing fill.
  if (gates->injected("same_window") && !reference.begin()->second.empty()) {
    reference.begin()->second[0].raw += 1;
  }
  std::map<Key, double> asked;
  for (std::size_t a = 0; a < kClients; ++a) {
    r.attempted += attempted[a];
    r.refused += refused[a];
    r.failed += failed[a];
    r.latencies_ms.insert(r.latencies_ms.end(), latencies[a].begin(),
                          latencies[a].end());
    gates->check(mismatched[a] == 0, "same_window",
                 std::to_string(mismatched[a]) +
                     " answers differ from the analyst's earlier ones");
    for (auto& [key, mine] : seen[a]) {
      r.video_s += windows.window(key.second).duration() *
                   static_cast<double>(mine.count);
      asked[key] += static_cast<double>(mine.count);
      auto [ref, fresh] = reference.try_emplace(key, mine.releases);
      gates->check(fresh || same_releases(ref->second, mine.releases),
                   "same_window",
                   "window " + std::to_string(key.second) + " shape " +
                       std::to_string(key.first) +
                       " differs across analysts");
    }
  }

  // Gate: the books hold exactly the plan-computed charges of every
  // admitted query.
  for (const auto& [key, n] : asked) {
    book.add(s.sys->plan(windows.text(key.first, key.second)), n);
  }
  book.check(*s.sys, kEpsilonC, gates, "budget_books");
  while (r.restart_s.size() < kMinSamples) checkpoint.sample(&r);
  r.layer["sim.scene_build.ms"] = median(scene_ms);

  fill_common_layers(obs, timers, args.trace ? &spans : nullptr, &r);
  return r;
}

}  // namespace perfbench
