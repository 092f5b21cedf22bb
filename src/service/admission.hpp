// Admission control: atomic budget reservation before a query runs.
//
// Every query — synchronous Privid::execute, standing periods and
// QueryService::submit alike — is admitted here, through the one
// controller the Privid facade owns. Before any PROCESS work the
// controller reserves every SELECT's ledger charge atomically (all
// cameras, all SELECTs, under one lock), so an admitted query can never
// die of budget mid-run and a denied one has touched nothing.
//
// A reservation *is* the charge: the (camera, frames, margin, ε) tuples
// come from PreparedQuery::admission_charges, and the executor itself
// never touches a ledger, so this file holds the only call that puts ε
// into one (BudgetLedger::try_reserve). Commit simply disarms the refund;
// refund — on abort (sandbox crash, SELECT-time failure) — exactly
// reverses the charges, exactly once, no matter how many paths race to
// report the failure.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/executor.hpp"
#include "privacy/budget.hpp"

namespace privid::service {

class AdmissionController;

// The refundable record of one admitted query's ledger charges. Move-only;
// exactly one of commit() / refund() takes effect, whichever is called
// first (later calls are no-ops). A reservation abandoned without either —
// e.g. submit() throws after admission — refunds itself on destruction, so
// no error path can leak budget.
class Reservation {
 public:
  Reservation() = default;
  Reservation(Reservation&& other) noexcept;
  Reservation& operator=(Reservation&& other) noexcept;
  Reservation(const Reservation&) = delete;
  Reservation& operator=(const Reservation&) = delete;
  ~Reservation();

  // Makes the charges permanent (the query released its results).
  void commit();
  // Reverses the charges. Idempotent: only the first settle (commit or
  // refund) acts.
  void refund();

  // Charges held and not yet settled.
  bool active() const { return !settled_ && !charges_.empty(); }
  bool committed() const { return settled_ && committed_; }
  // Sum of ε over the held charges (one term per camera per SELECT).
  double total_epsilon() const;

 private:
  friend class AdmissionController;
  struct Charge {
    BudgetLedger* ledger = nullptr;
    FrameInterval frames;
    double epsilon = 0;
  };
  std::vector<Charge> charges_;
  bool settled_ = false;
  bool committed_ = false;
};

class AdmissionController {
 public:
  explicit AdmissionController(
      std::map<std::string, engine::CameraState>* cameras);

  // Atomically reserves every charge (in SELECT order, cumulatively —
  // two SELECTs over the same frames must both fit). On success returns
  // the reservation holding the applied charges; on failure rolls back
  // whatever was applied and throws BudgetError, with the ledgers exactly
  // as before the call. Thread-safe: concurrent reservations serialize,
  // so rejecting is race-free even when two analysts contend for the
  // last ε of one camera. The charge list comes from
  // PreparedQuery::admission_charges().
  Reservation reserve(const std::vector<engine::CameraCharge>& charges);

 private:
  std::map<std::string, engine::CameraState>* cameras_;
  std::mutex mu_;
};

}  // namespace privid::service
