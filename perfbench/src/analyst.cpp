#include "analyst.hpp"

#include <algorithm>

#include "harness.hpp"

namespace perfbench {

using privid::Seconds;
using privid::Value;
using privid::engine::ChunkView;
using privid::engine::ExecOutput;
using privid::engine::Executable;

namespace {

// Per-call accumulation, published to the global timers once per chunk so
// the per-frame path touches no shared cache line.
struct CallTimes {
  std::uint64_t detect_calls = 0, detect_ns = 0, detections = 0, track_ns = 0;

  void publish(Clock::time_point call_start) const {
    LayerTimers& t = layers();
    t.detect_calls.fetch_add(detect_calls, std::memory_order_relaxed);
    t.detect_ns.fetch_add(detect_ns, std::memory_order_relaxed);
    t.detections.fetch_add(detections, std::memory_order_relaxed);
    t.track_ns.fetch_add(track_ns, std::memory_order_relaxed);
    t.exec_ns.fetch_add(ns_since(call_start), std::memory_order_relaxed);
  }
};

const privid::cv::DetectionBatch& detect(const ChunkView& view,
                                         const privid::cv::DetectorConfig& det,
                                         Seconds t, bool timed,
                                         CallTimes* times) {
  if (!timed) return view.detect_into(det, t);
  const auto t0 = Clock::now();
  const auto& batch = view.detect_into(det, t);
  times->detect_ns += ns_since(t0);
  ++times->detect_calls;
  times->detections += batch.size();
  return batch;
}

}  // namespace

Executable make_tracking_counter(privid::cv::DetectorConfig det,
                                 privid::cv::TrackerConfig trk) {
  return [det, trk](const ChunkView& view) {
    layers().exec_calls.fetch_add(1, std::memory_order_relaxed);
    const bool timed = tracing();
    const auto call_start = Clock::now();
    CallTimes times;
    privid::cv::Tracker tracker(trk);
    view.for_each_frame([&](Seconds t) {
      const auto& batch = detect(view, det, t, timed, &times);
      if (!timed) {
        tracker.step(t, batch);
        return;
      }
      const auto t0 = Clock::now();
      tracker.step(t, batch);
      times.track_ns += ns_since(t0);
    });
    const auto t0 = Clock::now();
    std::vector<privid::cv::TrackRecord> tracks = tracker.take_tracks();
    if (timed) times.track_ns += ns_since(t0);

    ExecOutput out;
    // The §6.2 entering convention: tracks first seen after a short grace
    // period belong to this chunk; earlier ones are carry-overs.
    const Seconds grace = std::min(1.0, view.time().duration() / 4);
    const double mid_y = view.video().height / 2.0;
    for (const auto& rec : tracks) {
      if (rec.first_seen <= view.time().begin + grace) continue;
      out.rows.push_back({Value(1.0), Value(rec.duration()),
                          Value(rec.last_box.cy() < mid_y ? 0.0 : 1.0)});
    }
    out.simulated_runtime = 0.5;
    if (timed) times.publish(call_start);
    return out;
  };
}

Executable make_sampling_counter(privid::cv::DetectorConfig det,
                                 double sample_s) {
  return [det, sample_s](const ChunkView& view) {
    layers().exec_calls.fetch_add(1, std::memory_order_relaxed);
    const bool timed = tracing();
    const auto call_start = Clock::now();
    CallTimes times;
    double seen = 0;
    for (Seconds t = view.time().begin; t < view.time().end; t += sample_s) {
      seen += static_cast<double>(detect(view, det, t, timed, &times).size());
    }
    ExecOutput out;
    out.rows.push_back({Value(seen)});
    out.simulated_runtime = 0.1;
    if (timed) times.publish(call_start);
    return out;
  };
}

}  // namespace perfbench
