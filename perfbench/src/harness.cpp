#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "obs/trace.hpp"

namespace perfbench {

namespace {
LayerTimers g_layers;
std::atomic<bool> g_tracing{false};
}  // namespace

LayerTimers& layers() { return g_layers; }

LayerCounts read_layers() {
  const LayerTimers& t = g_layers;
  LayerCounts c;
  c.exec_calls = t.exec_calls.load();
  c.exec_ns = t.exec_ns.load();
  c.detect_calls = t.detect_calls.load();
  c.detect_ns = t.detect_ns.load();
  c.detections = t.detections.load();
  c.track_ns = t.track_ns.load();
  c.parse_ns = t.parse_ns.load();
  c.submit_ns = t.submit_ns.load();
  return c;
}

void reset_layers() {
  LayerTimers& t = g_layers;
  for (auto* a : {&t.exec_calls, &t.exec_ns, &t.detect_calls, &t.detect_ns,
                  &t.detections, &t.track_ns, &t.parse_ns, &t.submit_ns}) {
    a->store(0);
  }
}

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool Gates::check(bool ok, const char* gate, const std::string& detail) {
  ++checks_;
  if (!ok) failures_.push_back(std::string(gate) + ": " + detail);
  return ok;
}

// ---------------------------------------------------------------- ObsDelta

void ObsDelta::begin() { start_ = privid::obs::Registry::global().snapshot(); }

void ObsDelta::end() {
  const privid::obs::Snapshot now = privid::obs::Registry::global().snapshot();
  for (const auto& [name, v] : now.counters) {
    const std::uint64_t before = start_.counter_value(name);
    counters_[name] += v > before ? v - before : 0;
  }
  for (const auto& row : now.rows) {
    const auto* before = start_.histogram_row(row.name);
    const std::uint64_t c0 = before ? before->count : 0;
    const double ms0 = before ? before->total_ms : 0;
    auto& acc = hists_[row.name];
    acc.first += row.count > c0 ? row.count - c0 : 0;
    acc.second += std::max(0.0, row.total_ms - ms0);
  }
}

std::uint64_t ObsDelta::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}
std::uint64_t ObsDelta::hist_count(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? 0 : it->second.first;
}
double ObsDelta::hist_ms(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? 0 : it->second.second;
}

// ------------------------------------------------------------ SpanSelfTime

const std::vector<std::string>& SpanSelfTime::known_spans() {
  static const std::vector<std::string> names = {
      "admission.reserve", "cache.probe",    "dedup.wait",
      "fault.fire",        "pool.batch",     "pool.inline",
      "query.assemble",    "query.finalize", "query.finish",
      "query.select",      "sched.round",    "sched.task",
      "service.submit",    "task.process",   "task.sandbox"};
  return names;
}

void SpanSelfTime::drain() {
  auto& rec = privid::obs::TraceRecorder::global();
  std::vector<privid::obs::TraceEvent> events = rec.events();
  rec.clear();
  // Events arrive in completion order, so on one thread every child is
  // recorded before its parent and sits at the tail of that thread's
  // pending list when the parent arrives.
  for (const auto& e : events) {
    const std::uint64_t start = e.start_ns;
    const std::uint64_t end = e.start_ns + e.duration_ns;
    auto& pend = pending_[e.tid];
    std::uint64_t child_ns = 0;
    while (!pend.empty() && pend.back().start >= start &&
           pend.back().end <= end) {
      child_ns += pend.back().end - pend.back().start;
      pend.pop_back();
    }
    pend.push_back({start, end});
    Totals& t = totals_[e.name];
    ++t.count;
    t.self_ms +=
        static_cast<double>(e.duration_ns - std::min(child_ns, e.duration_ns)) /
        1e6;
  }
}

// -------------------------------------------------------------- ChargeBook

void ChargeBook::add(const privid::engine::QueryPlan& plan, double times) {
  for (const auto& s : plan.selects) {
    for (const auto& c : s.charges) {
      auto& d = deltas_[c.camera];
      d[c.frames.begin] += c.epsilon * times;
      d[c.frames.end] -= c.epsilon * times;
    }
  }
}

void ChargeBook::check(const privid::engine::Privid& sys, double epsilon_c,
                       Gates* gates, const char* gate) const {
  // The self-check corrupts the expectation: one extra unit charged.
  const double skew = gates->injected(gate) ? 1.0 : 0.0;
  for (const auto& [camera, delta] : deltas_) {
    // The expected remaining ε is constant between consecutive
    // breakpoints, so one probe per segment suffices. Charges are sums of
    // binary fractions far below 2^53, so the comparison is exact.
    double spent = 0;
    std::size_t mismatches = 0;
    std::string first;
    for (const auto& [frame, d] : delta) {
      spent += d;
      const double expected = epsilon_c - spent - skew;
      const double actual = sys.remaining_budget(camera, frame);
      if (actual != expected && mismatches++ == 0) {
        first = "camera " + camera + " frame " + std::to_string(frame) +
                ": remaining " + std::to_string(actual) + ", expected " +
                std::to_string(expected);
      }
    }
    gates->check(mismatches == 0, gate,
                 first + " (" + std::to_string(mismatches) + " segments)");
  }
}

Books save_books(const privid::engine::Privid& sys,
                 const std::vector<std::string>& cameras) {
  Books books;
  for (const auto& cam : cameras) {
    std::ostringstream os;
    sys.save_budget(cam, os);
    books.push_back(std::move(os).str());
  }
  return books;
}

void restore_books(privid::engine::Privid* sys,
                   const std::vector<std::string>& cameras, const Books& books) {
  for (std::size_t i = 0; i < cameras.size(); ++i) {
    std::istringstream is(books[i]);
    sys->restore_budget(cameras[i], is);
  }
}

void Checkpoint::freeze(const privid::engine::Privid& sys,
                        const ChargeBook& book, double epsilon_c,
                        Gates* gates) {
  books_ = save_books(sys, cameras_);
  std::unique_ptr<privid::engine::Privid> restored = rebuild_();
  restore_books(restored.get(), cameras_, books_);
  book.check(*restored, epsilon_c, gates, "ledger_restore");
}

void Checkpoint::sample(Result* r) {
  // Only construct + restore is timed; each system's teardown is not.
  auto restart = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<privid::engine::Privid> fresh = rebuild_();
    restore_books(fresh.get(), cameras_, books_);
    const double took = seconds_since(t0);
    fresh.reset();
    return took;
  };
  if (restart_batch_ == 0) {
    constexpr double kBatchSeconds = 0.01;
    restart();
    restart_batch_ = static_cast<std::size_t>(std::clamp(
        kBatchSeconds / std::max(restart(), 1e-9), 1.0, 100000.0));
  }
  double total = 0;
  for (std::size_t i = 0; i < restart_batch_; ++i) total += restart();
  r->restart_s.push_back(total / static_cast<double>(restart_batch_));
}

// ------------------------------------------------------------------ stats

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_releases(const std::vector<privid::engine::Release>& a,
                   const std::vector<privid::engine::Release>& b,
                   std::string* why) {
  if (a.size() != b.size()) {
    if (why) {
      *why = "release count " + std::to_string(a.size()) + " vs " +
             std::to_string(b.size());
    }
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].group_key != b[i].group_key ||
        !same_bits(a[i].raw, b[i].raw) ||
        !same_bits(a[i].sensitivity, b[i].sensitivity)) {
      if (!why) return false;
      *why = "release " + std::to_string(i) + " (" + a[i].label + "): raw " +
             std::to_string(a[i].raw) + " vs " + std::to_string(b[i].raw) +
             ", sensitivity " + std::to_string(a[i].sensitivity) + " vs " +
             std::to_string(b[i].sensitivity);
      return false;
    }
  }
  return true;
}

void fill_common_layers(const ObsDelta& obs, const LayerCounts& t,
                        const SpanSelfTime* spans, Result* r) {
  auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  auto& L = r->layer;
  L["analyst.exec.calls"] = static_cast<double>(t.exec_calls);
  L["analyst.exec.ms"] = ms(t.exec_ns);
  L["cv.detect.calls"] = static_cast<double>(t.detect_calls);
  L["cv.detect.ms"] = ms(t.detect_ns);
  L["cv.detect.detections"] = static_cast<double>(t.detections);
  L["cv.track.ms"] = ms(t.track_ns);
  L["engine.task.count"] = static_cast<double>(obs.hist_count("task.process"));
  L["engine.task.ms"] = obs.hist_ms("task.process");
  L["engine.task_overhead.ms"] = L["engine.task.ms"] - L["analyst.exec.ms"];
  L["engine.assemble.ms"] = obs.hist_ms("query.assemble");
  L["engine.finish.ms"] = obs.hist_ms("query.finish");
  const double hits = static_cast<double>(obs.counter("cache.hits"));
  const double misses = static_cast<double>(obs.counter("cache.misses"));
  L["engine.cache.lookups"] = hits + misses;
  L["engine.cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  L["engine.cache.misses"] = misses;
  L["engine.cache.evictions"] =
      static_cast<double>(obs.counter("cache.evictions"));
  L["engine.cache.disk_hits"] =
      static_cast<double>(obs.counter("cache.disk.hits"));
  L["engine.dedup.followers"] =
      static_cast<double>(obs.counter("dedup.followers"));
  L["engine.dedup.wait_ms"] = obs.hist_ms("dedup.wait");
  L["engine.retry.attempts"] =
      static_cast<double>(obs.counter("retry.attempts"));
  L["query.parse.ms"] = ms(t.parse_ns);
  L["service.submit_call.ms"] = ms(t.submit_ns);
  L["service.queue_wait_ms"] = obs.hist_ms("sched.queue_wait");
  L["service.sched.rounds"] = static_cast<double>(obs.counter("sched.rounds"));
  L["service.admission.reserved"] =
      static_cast<double>(obs.counter("admission.reserved"));
  L["service.admission.rejected"] =
      static_cast<double>(obs.counter("admission.rejected"));
  L["pool.batch.ms"] = obs.hist_ms("pool.batch");
  L["pool.inline_batches"] =
      static_cast<double>(obs.counter("pool.inline_batches"));
  for (const auto& name : SpanSelfTime::known_spans()) {
    double self = 0;
    if (spans != nullptr) {
      auto it = spans->totals().find(name);
      if (it != spans->totals().end()) {
        self = it->second.self_ms;
        r->span_counts[name] = it->second.count;
      }
    }
    L["self." + name + ".ms"] = self;
  }
  // Workload-specific layers default to zero where a workload has none.
  for (const char* name :
       {"sim.scene_build.ms", "engine.cache.flush_ms", "engine.cache.disk.files",
        "engine.cache.disk.bytes_per_entry", "engine.cache.attach_ms",
        "engine.restart.recomputed"}) {
    L.emplace(name, 0.0);
  }
  double query_ms = 0;
  for (double v : r->latencies_ms) query_ms += v;
  L["workload.queries"] = static_cast<double>(r->latencies_ms.size());
  L["workload.query_ms"] = query_ms;
  L["workload.wall_ms"] =
      std::max(r->stream_wall_s, r->measured_wall_s) * 1e3;
}

}  // namespace perfbench
