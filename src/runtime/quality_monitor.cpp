#include "runtime/quality_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace psmgen::runtime {

namespace {

/// Handles resolved once (see the registry's cost policy); the monitor
/// updates the scalar gauges on every row.
struct QualityGauges {
  obs::Gauge& rows = obs::metrics().gauge("quality.window_rows");
  obs::Gauge& wsp = obs::metrics().gauge("quality.window_wsp_percent");
  obs::Gauge& lost = obs::metrics().gauge("quality.window_lost_percent");
  obs::Gauge& resyncs =
      obs::metrics().gauge("quality.window_resyncs_per_kilorow");
  obs::Gauge& residual = obs::metrics().gauge("quality.residual_ewma_z");
  obs::Gauge& status = obs::metrics().gauge("quality.status");
  obs::Counter& changes = obs::metrics().counter("quality.status_changes");
};

QualityGauges& gauges() {
  static QualityGauges g;
  return g;
}

/// Fixed thresholds: no caller tunes the lost and resync signals.
constexpr double kLostDegradedPercent = 10.0;
constexpr double kLostDriftedPercent = 40.0;
constexpr double kResyncDegradedPerKiloRow = 5.0;
constexpr double kResyncDriftedPerKiloRow = 25.0;
/// EWMA smoothing factor for the power residual |power - mu| / sigma.
constexpr double kResidualAlpha = 0.02;
/// Occupancy gauges are refreshed every this many rows (they loop over
/// the per-state table; the scalar gauges update every row).
constexpr std::size_t kOccupancyUpdateRows = 64;

/// Floor for sigma in the residual z-score: a constant-power state has
/// sigma == 0, and a regression-refined state legitimately emits a few
/// permille around mu — without a floor those states would turn any
/// nonzero residual into a spurious drift signal.
double sigmaFloor(double mu, double sigma) {
  return std::max({sigma, 1e-3 * std::abs(mu), 1e-12});
}

}  // namespace

const char* driftStatusName(DriftStatus status) {
  switch (status) {
    case DriftStatus::Ok: return "ok";
    case DriftStatus::Degraded: return "degraded";
    case DriftStatus::Drifted: return "drifted";
  }
  return "?";
}

QualityMonitor::QualityMonitor(const core::Psm& psm,
                               QualityMonitorConfig config)
    : psm_(&psm), config_(config) {
  occupancy_.assign(psm_->stateCount(), 0);
}

void QualityMonitor::reset() {
  common::MutexLock lock(mutex_);
  ring_.clear();
  window_ = QualityWindow{};
  occupancy_.assign(psm_->stateCount(), 0);
  rows_seen_ = 0;
  residual_primed_ = false;
  status_.store(static_cast<int>(DriftStatus::Ok),
                std::memory_order_relaxed);
  gauges().status.set(0.0);
}

void QualityMonitor::observe(const core::RowVerdict& row, double power) {
  common::MutexLock lock(mutex_);

  // Power residual against the occupied state's stored <mu, sigma>; a
  // reference sample measures true error, the bare estimate measures how
  // far the regression output strays from the characterized level.
  if (row.state != core::kNoState) {
    const core::PowerAttr& attr = psm_->state(row.state).power;
    const double z =
        std::abs(power - attr.mean) / sigmaFloor(attr.mean, attr.stddev);
    if (!residual_primed_) {
      window_.residual_ewma_z = z;
      residual_primed_ = true;
    } else {
      window_.residual_ewma_z += kResidualAlpha * (z - window_.residual_ewma_z);
    }
  }

  // Slide the window: admit the new row, evict the oldest beyond the cap.
  ring_.push_back(row);
  window_.add(row);
  if (row.state != core::kNoState &&
      static_cast<std::size_t>(row.state) < occupancy_.size()) {
    ++occupancy_[static_cast<std::size_t>(row.state)];
  }
  if (ring_.size() > config_.window_rows) {
    const core::RowVerdict& old = ring_.front();
    window_.remove(old);
    if (old.state != core::kNoState &&
        static_cast<std::size_t>(old.state) < occupancy_.size()) {
      --occupancy_[static_cast<std::size_t>(old.state)];
    }
    ring_.pop_front();
  }

  evaluateLocked();

  QualityGauges& g = gauges();
  g.rows.set(static_cast<double>(window_.rows));
  g.wsp.set(window_.wspPercent());
  g.lost.set(window_.lostPercent());
  g.resyncs.set(window_.resyncsPerKiloRow());
  g.residual.set(window_.residual_ewma_z);
  if (++rows_seen_ % kOccupancyUpdateRows == 0) updateOccupancyGaugesLocked();
}

void QualityMonitor::evaluateLocked() {
  DriftStatus next = DriftStatus::Ok;
  if (window_.rows >= config_.min_rows) {
    const bool judge_wsp = window_.predictions >= config_.min_predictions;
    const double wsp = judge_wsp ? window_.wspPercent() : 0.0;
    const double lost = window_.lostPercent();
    const double resyncs = window_.resyncsPerKiloRow();
    const double z = window_.residual_ewma_z;
    if (wsp >= config_.wsp_drifted_percent || lost >= kLostDriftedPercent ||
        resyncs >= kResyncDriftedPerKiloRow ||
        z >= config_.residual_drifted_z) {
      next = DriftStatus::Drifted;
    } else if (wsp >= config_.wsp_drifted_percent / 2.0 ||
               lost >= kLostDegradedPercent ||
               resyncs >= kResyncDegradedPerKiloRow ||
               z >= config_.residual_drifted_z / 2.0) {
      next = DriftStatus::Degraded;
    }
  }
  const auto previous = static_cast<DriftStatus>(
      status_.exchange(static_cast<int>(next), std::memory_order_relaxed));
  window_.status = next;
  gauges().status.set(static_cast<double>(next));
  if (next != previous) {
    gauges().changes.add(1);
    const auto log_level = static_cast<int>(next) > static_cast<int>(previous)
                               ? obs::LogLevel::Warn
                               : obs::LogLevel::Info;
    obs::logger().log(log_level, "quality.status_changed",
                      {{"from", driftStatusName(previous)},
                       {"to", driftStatusName(next)},
                       {"window_rows", window_.rows},
                       {"wsp_percent", window_.wspPercent()},
                       {"lost_percent", window_.lostPercent()},
                       {"resyncs_per_kilorow", window_.resyncsPerKiloRow()},
                       {"residual_ewma_z", window_.residual_ewma_z}});
    if (obs::flightRecorder().enabled()) {
      // The event's session comes from the thread binding (a serve
      // session thread carries its id; other callers record session 0).
      obs::FlightEvent event;
      event.row = window_.rows;
      event.detail = static_cast<std::uint32_t>(next);
      event.kind = static_cast<std::uint16_t>(obs::FlightEventKind::Drift);
      if (next == DriftStatus::Degraded) event.flags |= obs::kFlightDegraded;
      if (next == DriftStatus::Drifted) event.flags |= obs::kFlightDrifted;
      obs::flightRecorder().record(event);
      // Entering Drifted is a dump trigger: capture the window of events
      // that led here while it is still in the rings.
      if (next == DriftStatus::Drifted) {
        obs::flightRecorder().triggerDump(
            "drift", obs::FlightRecorder::threadSession());
      }
    }
  } else if (next == DriftStatus::Drifted) {
    // Heartbeat while drifted, throttled so a long drift cannot storm.
    static obs::RateLimiter drift_warn_limiter(/*tokens_per_second=*/0.2,
                                               /*burst=*/1.0);
    if (const auto d = drift_warn_limiter.tick(); d.allowed) {
      obs::warn("quality.drifted",
                {{"window_rows", window_.rows},
                 {"wsp_percent", window_.wspPercent()},
                 {"lost_percent", window_.lostPercent()},
                 {"resyncs_per_kilorow", window_.resyncsPerKiloRow()},
                 {"residual_ewma_z", window_.residual_ewma_z},
                 {"suppressed", d.suppressed}});
    }
  }
}

void QualityMonitor::publishOccupancy() {
  common::MutexLock lock(mutex_);
  updateOccupancyGaugesLocked();
}

void QualityMonitor::updateOccupancyGaugesLocked() {
  if (window_.rows == 0) return;
  const double denom = static_cast<double>(window_.rows);
  for (std::size_t s = 0; s < occupancy_.size(); ++s) {
    char name[64];
    std::snprintf(name, sizeof(name), "quality.state_occupancy.%zu", s);
    obs::metrics().gauge(name).set(static_cast<double>(occupancy_[s]) /
                                   denom);
  }
}

QualityWindow QualityMonitor::window() const {
  common::MutexLock lock(mutex_);
  return window_;
}

std::vector<double> QualityMonitor::stateOccupancy() const {
  common::MutexLock lock(mutex_);
  std::vector<double> out(occupancy_.size(), 0.0);
  if (window_.rows == 0) return out;
  for (std::size_t s = 0; s < occupancy_.size(); ++s) {
    out[s] = static_cast<double>(occupancy_[s]) /
             static_cast<double>(window_.rows);
  }
  return out;
}

}  // namespace psmgen::runtime
