// standing_restart: a year of daily standing periods (one chunk per day, a
// sampled-detection counter) on the synchronous path, with a disk tier
// under the shared chunk cache.
//
// Each cycle runs the cold year with one advance() per period (the
// per-period latency), flushes the cache to disk (flush_s), destroys the
// system, then 20 times builds a new one that attaches the tier with
// preload and replays the year (restart_s). It is the only workload that
// writes the disk tier and reads it back after a restart.
//
// Chunks are a day long, not an hour: a year of hourly chunks is 8760
// slab files (about 17,500 fsyncs) per flush; the per-entry flush path
// (write, fsync, rename, directory fsync) is the same. The counter
// samples one detection every 10 s of video, so a period costs about
// 7 ms: long enough that the brief interruptions of a shared host do not
// decide its p99, as they did at about 1 ms a period, and short enough
// that a 30-s run makes about ten cycles, spreading the flush and restart
// samples over the run.
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>

#include "analyst.hpp"
#include "engine/standing.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace privid;
namespace fs = std::filesystem;

namespace {

constexpr double kDay = 86400.0;
constexpr int kDays = 365;
constexpr double kEpsilonC = 1e9;
// Set-ups repeat for this long between cycles; a shared host switches
// between fast and slow stretches of a few hundred ms.
constexpr double kSetupSecondsPerCycle = 0.1;
constexpr int kRestartsPerCycle = 20;
// Seconds of video between the counter's detections.
constexpr double kSampleSeconds = 10.0;
constexpr const char* kCamera = "yearcam";
constexpr const char* kTemplate =
    "SPLIT yearcam BEGIN {BEGIN} END {END} BY TIME 86400 STRIDE 0 INTO c;"
    "PROCESS c USING counter TIMEOUT 1 PRODUCING 1 ROWS "
    "WITH SCHEMA (n:NUMBER=0) INTO t;"
    "SELECT SUM(range(n, 0, 500)) FROM t;";

// A year at 1 fps with about two crossings a day at seeded times.
std::shared_ptr<const sim::Scene> year_scene(std::uint64_t seed) {
  VideoMeta m;
  m.camera_id = kCamera;
  m.fps = 1;
  m.width = 1280;
  m.height = 720;
  m.extent = {0, kDays * kDay};
  auto s = std::make_shared<sim::Scene>(m);
  Rng rng(seed);
  const int entities = 2 * kDays;
  for (int i = 0; i < entities; ++i) {
    sim::Entity e;
    e.id = i + 1;
    e.cls = sim::EntityClass::kPerson;
    e.appearance_feature.assign(8, 0.1);
    const double t0 =
        (kDays * kDay / entities) * i + rng.uniform(40.0, kDay / 2 - 200);
    e.appearances.push_back(sim::Trajectory::linear(
        t0, t0 + 120, Box{0, 300, 60, 120}, Box{1200, 300, 60, 120}));
    s->add_entity(e);
  }
  s->visible_at(0);
  return s;
}

std::unique_ptr<engine::Privid> make_system(
    const std::shared_ptr<const sim::Scene>& scene, std::uint64_t seed) {
  auto sys = std::make_unique<engine::Privid>(seed);
  engine::CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = seed ^ 0x5151;
  reg.policy = {60.0, 2};
  reg.epsilon_budget = kEpsilonC;
  sys->register_camera(std::move(reg));
  cv::DetectorConfig det;
  det.base_detect_prob = 0.9;
  det.false_positives_per_frame = 0;
  sys->register_executable("counter",
                           make_sampling_counter(det, kSampleSeconds));
  return sys;
}

engine::StandingQuery::Spec spec() {
  engine::StandingQuery::Spec s;
  s.query_template = kTemplate;
  s.period = kDay;
  s.opts.num_threads = 1;
  s.opts.cache = engine::CacheMode::kShared;
  s.opts.reveal_raw = true;
  return s;
}

std::vector<double> raws(const std::vector<engine::Release>& rels) {
  std::vector<double> v;
  for (const auto& r : rels) v.push_back(r.raw);
  return v;
}

bool same_raws(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

engine::DiskTierConfig tier(const std::string& dir, bool preload) {
  engine::DiskTierConfig c;
  c.dir = dir;
  c.preload = preload;
  return c;
}

}  // namespace

Result run_standing_restart(const Args& args, Gates* gates) {
  Result r;
  std::vector<double> scene_ms;
  // One set-up: the year scene and a system serving it.
  auto set_up = [&] {
    const auto t0 = Clock::now();
    auto scene = year_scene(args.seed);
    scene_ms.push_back(seconds_since(t0) * 1e3);
    auto sys = make_system(scene, args.seed);
    r.setup_s.push_back(seconds_since(t0));
    return scene;
  };
  const std::shared_ptr<const sim::Scene> scene = set_up();

  // One period's plan, reused for every replay of that period.
  std::vector<engine::QueryPlan> plans;
  {
    auto sys = make_system(scene, args.seed);
    for (int d = 0; d < kDays; ++d) {
      plans.push_back(sys->plan(engine::substitute_window(
          kTemplate, d * kDay, (d + 1) * kDay)));
    }
  }

  // Each cycle writes a fresh tier directory; all of them are deleted only
  // after the measurements, so no flush runs beside the file system's work
  // of unlinking (and discarding) an earlier tier.
  int cycle = 0;
  SpanSelfTime spans;
  auto drain = [&] {
    if (args.trace) spans.drain();
  };
  ObsDelta obs;
  std::vector<double> attach_ms, files, bytes_per_entry;
  std::uint64_t recomputed = 0;
  reset_layers();
  const auto start = Clock::now();
  while (r.flush_s.empty() || seconds_since(start) < args.seconds) {
    const std::string dir =
        args.run_dir + "/cache-" + std::to_string(cycle++);
    ChargeBook book;
    obs.begin();
    auto sys = make_system(scene, args.seed);
    sys->chunk_cache().attach_disk_tier(tier(dir, /*preload=*/false));

    // The cold year, one period per advance() call.
    engine::StandingQuery cold(sys.get(), spec());
    std::vector<double> cold_raw;
    const auto stream_start = Clock::now();
    for (int d = 1; d <= kDays; ++d) {
      ++r.attempted;
      const auto t0 = Clock::now();
      const std::vector<engine::Release> rel = cold.advance(d * kDay);
      r.latencies_ms.push_back(seconds_since(t0) * 1e3);
      if (rel.size() != 1) {
        ++r.failed;
        continue;
      }
      cold_raw.push_back(rel[0].raw);
      book.add(plans[d - 1]);
      r.video_s += kDay;
      drain();
    }
    r.stream_wall_s += seconds_since(stream_start);
    if (gates->injected("restart_equal")) cold_raw[0] += 1;

    // Gate: a warm replay on the same system equals the cold year.
    engine::StandingQuery warm(sys.get(), spec());
    gates->check(same_raws(raws(warm.advance(kDays * kDay)), cold_raw),
                 "restart_equal", "warm replay differs from the cold year");
    for (const auto& p : plans) book.add(p);
    drain();

    auto t0 = Clock::now();
    sys->chunk_cache().flush_disk();
    r.flush_s.push_back(seconds_since(t0));
    const Books books = save_books(*sys, {kCamera});
    drain();
    double n_files = 0, bytes = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      ++n_files;
      bytes += static_cast<double>(entry.file_size());
    }
    files.push_back(n_files);
    bytes_per_entry.push_back(n_files > 0 ? bytes / n_files : 0);
    book.check(*sys, kEpsilonC, gates, "budget_books");
    obs.end();
    sys.reset();
    drain();

    // Restarts: each a new system with the books restored, the tier
    // attached with preload, then the whole year replayed. A restart takes
    // a few ms, so many per cycle, from the same flushed tier, spread the
    // samples over the host's fast and slow stretches.
    for (int k = 0; k < kRestartsPerCycle; ++k) {
      obs.begin();
      const std::uint64_t calls_before = layers().exec_calls.load();
      t0 = Clock::now();
      sys = make_system(scene, args.seed);
      restore_books(sys.get(), {kCamera}, books);
      const auto attach_start = Clock::now();
      sys->chunk_cache().attach_disk_tier(tier(dir, /*preload=*/true));
      attach_ms.push_back(seconds_since(attach_start) * 1e3);
      engine::StandingQuery replay(sys.get(), spec());
      const std::vector<double> replay_raw =
          raws(replay.advance(kDays * kDay));
      r.restart_s.push_back(seconds_since(t0));
      drain();
      std::uint64_t calls = layers().exec_calls.load() - calls_before;
      recomputed += calls;
      if (gates->injected("restart_recomputed")) ++calls;
      gates->check(same_raws(replay_raw, cold_raw), "restart_equal",
                   "restart replay differs from the cold year");
      gates->check(calls == 0, "restart_recomputed",
                   std::to_string(calls) + " chunks recomputed after restart");
      if (k == 0) {
        // The restored books plus this replay's charges.
        for (const auto& p : plans) book.add(p);
        book.check(*sys, kEpsilonC, gates, "ledger_restore");
      }
      obs.end();  // before the reset detaches the system's cache metrics
      sys.reset();
    }
    drain();
    // Set-up samples between cycles, while no system is alive.
    for (const auto t1 = Clock::now();
         seconds_since(t1) < kSetupSecondsPerCycle;) {
      set_up();
    }
  }
  r.measured_wall_s = seconds_since(start);
  // Delete the tiers and commit the deletions before exiting, so the file
  // system's unlink and discard work lands in this run, after its
  // measurements, instead of under the next run's flushes.
  for (int i = 0; i < cycle; ++i) {
    fs::remove_all(args.run_dir + "/cache-" + std::to_string(i));
  }
  const int run_dir_fd = ::open(args.run_dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (run_dir_fd >= 0) {
    ::fsync(run_dir_fd);
    ::close(run_dir_fd);
  }
  r.layer["sim.scene_build.ms"] = median(scene_ms);
  const LayerCounts timers = read_layers();

  r.layer["engine.cache.flush_ms"] = median(r.flush_s) * 1e3;
  r.layer["engine.cache.attach_ms"] = median(attach_ms);
  r.layer["engine.cache.disk.files"] = median(files);
  r.layer["engine.cache.disk.bytes_per_entry"] = median(bytes_per_entry);
  r.layer["engine.restart.recomputed"] = static_cast<double>(recomputed);
  fill_common_layers(obs, timers, args.trace ? &spans : nullptr, &r);
  return r;
}

}  // namespace perfbench
