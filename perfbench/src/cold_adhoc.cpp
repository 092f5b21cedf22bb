// cold_adhoc: Case-1 counting queries, one at a time through
// Privid::execute on one thread with the chunk cache off.
//
// Every chunk is computed, so the time goes to the analyst executable's
// detector and tracker; the service, the cache and SELECT do almost
// nothing. A change to the CV/RNG path should move this workload; a cache
// or service change should leave it unchanged.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "analyst.hpp"
#include "common/error.hpp"
#include "harness.hpp"
#include "sim/scenarios.hpp"

namespace perfbench {

using namespace privid;

namespace {

// Scenes come from a fixed seed so their cost statistics do not depend on
// the workload seed, which drives the query stream.
constexpr std::uint64_t kSceneSeed = 601;
constexpr double kSceneHours = 2.0;
constexpr double kWindowSeconds = 120.0;
// Sized so the run never refuses a query: every charge is 1 per frame.
constexpr double kEpsilonC = 1e9;
// Set-ups repeat for this long before the stream: a shared host switches
// between fast and slow stretches of a few hundred ms, so a short burst of
// set-ups would measure one stretch and a run's median would jump.
constexpr double kSetupSeconds = 2.0;
// Once the books are frozen, one restart sample is taken every
// kSampleEvery seconds of the stream (outside its timed region), so the
// samples spread over the whole run instead of one stretch of a shared
// host's fast and slow ones; a run too short for kMinSamples tops them up
// after the stream.
constexpr double kSampleEvery = 0.25;
constexpr std::size_t kMinSamples = 8;
// The books are saved once this many queries have completed, so the
// restored state is the same whatever the run's throughput.
constexpr std::size_t kCheckpointAt = 250;
constexpr std::size_t kReplaySample = 32;
constexpr double kChunks[] = {5, 10, 30, 60};
constexpr std::size_t kCaps[] = {2, 5, 10, 25};

struct Camera {
  std::string name;
  std::shared_ptr<const sim::Scene> scene;
  Seconds rho;
  cv::DetectorConfig det;
};

// The three primary videos at the Fig. 6 scale: campus, highway, urban.
std::vector<Camera> make_cameras() {
  const std::uint64_t seed = kSceneSeed;
  std::vector<Camera> cams;
  auto add = [&](sim::Scenario s, Seconds rho, double detect_prob) {
    auto scene = std::make_shared<sim::Scene>(std::move(s.scene));
    // Build the lazy temporal index now, as part of set-up.
    scene->visible_at(scene->meta().extent.begin);
    cv::DetectorConfig det;
    det.base_detect_prob = detect_prob;
    cams.push_back({s.name, std::move(scene), rho, det});
  };
  add(sim::make_campus(seed, kSceneHours, 0.5), 17.0, 0.8);
  add(sim::make_highway(seed + 1, kSceneHours, 0.2), 33.0, 0.92);
  add(sim::make_urban(seed + 2, kSceneHours, 0.2), 20.0, 0.6);
  return cams;
}

std::unique_ptr<engine::Privid> make_system(const std::vector<Camera>& cams,
                                            std::uint64_t seed) {
  auto sys = std::make_unique<engine::Privid>(seed);
  for (const auto& c : cams) {
    engine::CameraRegistration reg;
    reg.meta = c.scene->meta();
    reg.content.scene = c.scene;
    reg.content.seed = seed ^ 0x5151;
    reg.policy = {c.rho, 2};
    reg.epsilon_budget = kEpsilonC;
    sys->register_camera(std::move(reg));
    sys->register_executable("count_" + c.name,
                             make_tracking_counter(
                                 c.det, cv::TrackerConfig::sort(20, 2, 0.1)));
  }
  return sys;
}

// Query stream: blocks of every (camera, chunk size, cap) combination in a
// seeded order, so any run covers the combinations evenly. Window starts
// walk each camera's tenth-of-a-second offsets with a prime stride from a
// seeded origin, so no two queries of a run share a window.
class QueryGen {
 public:
  QueryGen(const std::vector<Camera>& cams, std::uint64_t seed)
      : cams_(cams), rng_(seed), next_(cams.size()), origin_(cams.size()) {
    for (auto& o : origin_) o = rng_.uniform_int(0, 1 << 30);
  }

  std::string next() {
    if (pos_ == block_.size()) refill();
    const auto [cam, chunk, cap] = block_[pos_++];
    const Camera& c = cams_[cam];
    const TimeInterval ext = c.scene->meta().extent;
    const auto slots = static_cast<std::int64_t>(
        (ext.duration() - kWindowSeconds) * 10);
    // 7919 is prime and does not divide `slots` (70800 here).
    const std::int64_t slot = (origin_[cam] + next_[cam]++ * 7919) % slots;
    const double begin = ext.begin + static_cast<double>(slot) / 10.0;
    char text[512];
    std::snprintf(
        text, sizeof text,
        "SPLIT %s BEGIN %.1f END %.1f BY TIME %g STRIDE 0 INTO chunks;"
        "PROCESS chunks USING count_%s TIMEOUT 1 PRODUCING %zu ROWS "
        "WITH SCHEMA (entered:NUMBER=0, dwell:NUMBER=0, side:NUMBER=0) "
        "INTO t;"
        "SELECT COUNT(*) FROM t GROUP BY hour(chunk);",
        c.name.c_str(), begin, begin + kWindowSeconds, kChunks[chunk],
        c.name.c_str(), kCaps[cap]);
    return text;
  }

 private:
  void refill() {
    block_.clear();
    for (std::size_t cam = 0; cam < cams_.size(); ++cam) {
      for (std::size_t ch = 0; ch < std::size(kChunks); ++ch) {
        for (std::size_t cap = 0; cap < std::size(kCaps); ++cap) {
          block_.push_back({cam, ch, cap});
        }
      }
    }
    for (std::size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1],
                block_[static_cast<std::size_t>(rng_.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    pos_ = 0;
  }

  const std::vector<Camera>& cams_;
  Rng rng_;
  std::vector<std::array<std::size_t, 3>> block_;
  std::size_t pos_ = 0;
  std::vector<std::int64_t> next_, origin_;
};

// A release's plan row: per-key labels carry a "[key]" suffix.
std::string plan_label(const std::string& label) {
  return label.substr(0, label.find('['));
}

}  // namespace

Result run_cold_adhoc(const Args& args, Gates* gates) {
  Result r;
  std::vector<double> scene_ms;
  // One set-up: the three scenes and a system serving them.
  auto set_up = [&](std::vector<Camera>* cams) {
    const auto t0 = Clock::now();
    *cams = make_cameras();
    const double scene_s = seconds_since(t0);
    auto sys = make_system(*cams, args.seed);
    scene_ms.push_back(scene_s * 1e3);
    r.setup_s.push_back(seconds_since(t0));
    return sys;
  };
  std::vector<Camera> cams;
  std::unique_ptr<engine::Privid> sys = set_up(&cams);
  std::vector<std::string> names;
  for (const auto& c : cams) names.push_back(c.name);
  Checkpoint checkpoint(names, [&] { return make_system(cams, args.seed); });
  for (const auto t0 = Clock::now(); seconds_since(t0) < kSetupSeconds;) {
    std::vector<Camera> scratch;
    set_up(&scratch);
  }

  engine::RunOptions opts;
  opts.num_threads = 1;
  opts.cache = engine::CacheMode::kOff;
  opts.reveal_raw = true;

  QueryGen gen(cams, args.seed ^ 0xC01DADull);
  ChargeBook book;
  // The queries the service path replays after the stream: a seeded pick.
  struct Sample {
    std::string text;
    std::vector<engine::Release> releases;
  };
  std::vector<Sample> sample;
  Rng pick(args.seed ^ 0x5A3B1Eull);
  SpanSelfTime spans;
  ObsDelta obs;
  // Spent on inline checks and the checkpoint freeze, kept out of the
  // stream.
  double paused_s = 0;
  double next_sample_s = 0;  // stream time of the next checkpoint sample
  reset_layers();
  obs.begin();
  const auto start = Clock::now();
  while (seconds_since(start) < args.seconds) {
    const std::string text = gen.next();
    ++r.attempted;
    const auto t0 = Clock::now();
    engine::QueryResult res;
    try {
      res = sys->execute(text, opts);
    } catch (const BudgetError&) {
      ++r.refused;
      continue;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "query failed: %s\n", e.what());
      ++r.failed;
      continue;
    }
    r.latencies_ms.push_back(seconds_since(t0) * 1e3);
    r.video_s += kWindowSeconds;
    if (args.trace) spans.drain();

    // Gate: each release's sensitivity is the one Privid::plan computes;
    // the plan's charges are what the ledger must hold.
    const auto check_start = Clock::now();
    const engine::QueryPlan plan = sys->plan(text);
    book.add(plan);
    std::map<std::string, double> sens;
    for (const auto& s : plan.selects) {
      for (const auto& rp : s.releases) sens[rp.label] = rp.sensitivity;
    }
    if (r.latencies_ms.size() == 1 && gates->injected("plan_sensitivity")) {
      for (auto& [label, v] : sens) v = std::nextafter(v, 1e300);
    }
    std::string why;
    for (const auto& rel : res.releases) {
      auto it = sens.find(plan_label(rel.label));
      if (it == sens.end() || !same_bits(it->second, rel.sensitivity)) {
        why = rel.label + ": released sensitivity " +
              std::to_string(rel.sensitivity) + " differs from plan";
        break;
      }
    }
    gates->check(why.empty(), "plan_sensitivity", why);
    if (sample.size() < kReplaySample &&
        (sample.empty() || pick.uniform() < 1.0 / 64)) {
      sample.push_back({text, std::move(res.releases)});
    }
    if (r.latencies_ms.size() == kCheckpointAt) {
      checkpoint.freeze(*sys, book, kEpsilonC, gates);
      next_sample_s = seconds_since(start) - paused_s;
    }
    if (checkpoint.frozen() &&
        seconds_since(start) - paused_s >= next_sample_s) {
      checkpoint.sample(&r);
      next_sample_s += kSampleEvery;
    }
    paused_s += seconds_since(check_start);
  }
  r.stream_wall_s = seconds_since(start) - paused_s;
  obs.end();
  const LayerCounts timers = read_layers();
  // A run too short to reach kCheckpointAt checkpoints what it has.
  if (!checkpoint.frozen()) checkpoint.freeze(*sys, book, kEpsilonC, gates);
  while (r.restart_s.size() < kMinSamples) checkpoint.sample(&r);
  r.layer["sim.scene_build.ms"] = median(scene_ms);
  book.check(*sys, kEpsilonC, gates, "budget_books");

  // Gate: the sampled queries replayed on a fresh system through the
  // service path (nproc workers, shared cache) give byte-identical raw
  // values and sensitivities.
  {
    auto replay = make_system(cams, args.seed);
    service::QueryService::Config cfg;
    cfg.num_threads = args.threads;
    cfg.cache = engine::CacheMode::kShared;
    replay->configure_service(cfg);
    engine::RunOptions ropts;
    ropts.reveal_raw = true;
    ropts.charge_budget = false;
    std::vector<service::QueryTicket> tickets;
    for (const Sample& s : sample) {
      tickets.push_back(replay->submit("replay", s.text, ropts));
    }
    for (std::size_t k = 0; k < sample.size(); ++k) {
      std::vector<engine::Release> expected = sample[k].releases;
      if (k == 0 && gates->injected("replay_raw") && !expected.empty()) {
        expected[0].raw += 1;
      }
      std::string why;
      const bool ok =
          same_releases(expected, replay->wait(tickets[k]).releases, &why);
      gates->check(ok, "replay_raw", why);
    }
  }

  fill_common_layers(obs, timers, args.trace ? &spans : nullptr, &r);
  return r;
}

}  // namespace perfbench
