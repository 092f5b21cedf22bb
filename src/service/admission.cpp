#include "service/admission.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace privid::service {

namespace {

// File-scoped admission.* metrics: the controller is a thin stateless-ish
// layer over the camera ledgers, so one shared group (not per-instance)
// is the right granularity. Function-local static keeps construction
// ordered and the registration detaching at exit.
struct AdmissionMetrics {
  obs::MetricGroup group;
  obs::Counter* reserved = group.counter("admission.reserved");
  obs::Counter* rejected = group.counter("admission.rejected");
  obs::Registration registration = obs::Registry::global().attach(&group);
};

AdmissionMetrics& admission_metrics() {
  static AdmissionMetrics m;
  return m;
}

}  // namespace

Reservation::Reservation(Reservation&& other) noexcept
    : charges_(std::move(other.charges_)), settled_(other.settled_),
      committed_(other.committed_) {
  other.charges_.clear();
  other.settled_ = false;
  other.committed_ = false;
}

Reservation& Reservation::operator=(Reservation&& other) noexcept {
  if (this != &other) {
    // An overwritten live reservation must not leak its charges — and a
    // noexcept path must not let a ledger refusal (possible only if the
    // owner swapped the ledger out underneath, e.g. restore_budget from a
    // pre-reservation snapshot) escape as std::terminate.
    try {
      refund();
    } catch (...) {
    }
    charges_ = std::move(other.charges_);
    settled_ = other.settled_;
    committed_ = other.committed_;
    other.charges_.clear();
    other.settled_ = false;
    other.committed_ = false;
  }
  return *this;
}

Reservation::~Reservation() {
  try {
    refund();
  } catch (...) {
    // See operator=: never terminate from the destructor over a ledger
    // the owner already replaced.
  }
}

void Reservation::commit() {
  if (settled_) return;
  settled_ = true;
  committed_ = true;
}

void Reservation::refund() {
  if (settled_) return;
  settled_ = true;
  for (const auto& c : charges_) {
    c.ledger->refund(c.frames, c.epsilon);
  }
}

double Reservation::total_epsilon() const {
  double total = 0;
  for (const auto& c : charges_) total += c.epsilon;
  return total;
}

AdmissionController::AdmissionController(
    std::map<std::string, engine::CameraState>* cameras)
    : cameras_(cameras) {
  if (!cameras) throw ArgumentError("AdmissionController requires cameras");
}

Reservation AdmissionController::reserve(
    const std::vector<engine::CameraCharge>& charges) {
  obs::Span span("admission.reserve", "service");
  if (span.active()) {
    span.tag("cameras", static_cast<std::uint64_t>(charges.size()));
  }
  Reservation res;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ch : charges) {
    auto it = cameras_->find(ch.camera);
    if (it == cameras_->end()) {
      // The charges were resolved moments ago; losing the camera here
      // means they are stale. Roll back via ~Reservation and report.
      throw LookupError("admission: unknown camera '" + ch.camera + "'");
    }
    BudgetLedger* ledger = it->second.ledger.get();
    if (!ledger->try_reserve(ch.frames, ch.margin, ch.epsilon)) {
      // ~Reservation refunds the charges applied so far.
      admission_metrics().rejected->add();
      if (span.active()) span.tag("outcome", "rejected");
      throw BudgetError("query rejected at admission: camera '" + ch.camera +
                        "' lacks budget for epsilon " +
                        std::to_string(ch.epsilon));
    }
    res.charges_.push_back(Reservation::Charge{ledger, ch.frames, ch.epsilon});
  }
  admission_metrics().reserved->add();
  if (span.active()) span.tag("outcome", "reserved");
  return res;
}

}  // namespace privid::service
