// Fault-injection campaign bench ("Table V" — no analogue in the paper;
// ROADMAP "fault-injection campaigns + prediction-accuracy offensive").
//
// For each benchmark IP the campaign answers three robustness questions
// about a clean-trained PSM served against a faulted device:
//
//   1. Detection: a model that no longer fits its input must say so. The
//      eval device runs clean until `onset`, then suffers register bit
//      flips (ip::FaultyDevice, DFA-style per-IP targets), input clock
//      perturbations (ip::PerturbedStimulus) and a DVFS power-mode square
//      wave (ip::scalePowerModes). QualityMonitor watches the served
//      stream; the bench reports the drift-detection latency in rows from
//      the fault onset and the final drift status.
//   2. Resync cost: how the session degrades — lost%, resyncs/kilorow and
//      WSP% over the faulted stream (predict.* metrics as in table4).
//   3. Mining hygiene: a model mined *from* the faulty trace must not
//      pass silently — the bench mines one model per IP from the glitched
//      pair and runs the `psmgen lint` checks over it, reporting finding
//      counts by severity.
//
// stdout is a JSON array of {"ip", "metrics"} objects (the psmgen
// .metrics.v1 registry dump, as in table4_prediction); the campaign
// quantities land in bench.fault.* gauges. --cycles N overrides the eval
// length (the fault onset sits at N/2).

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "bench_common.hpp"
#include "core/flow.hpp"
#include "ip/fault.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/quality_monitor.hpp"

namespace {

/// Indents every line of a JSON blob (same helper as table4_prediction).
std::string indented(const std::string& json, const std::string& pad) {
  std::string out;
  out.reserve(json.size());
  for (const char c : json) {
    out.push_back(c);
    if (c == '\n') out += pad;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psmgen;
  const std::size_t cycles = bench::cyclesArg(argc, argv, 40000);
  const std::size_t onset = cycles / 2;
  bench::obsArgs(argc, argv, /*force_metrics=*/true);
  bench::ProfileScope profile(argc, argv);

  std::printf("[\n");
  bool first = true;
  for (const ip::IpKind kind : ip::kAllIps) {
    obs::metrics().reset();
    const bench::FlowRun run =
        bench::trainFlow(kind, ip::TestsetMode::Short, ip::shortTSPlan(kind));

    // Faulted evaluation pair: clean until `onset`, then register upsets
    // + input perturbations + a power-mode square wave.
    ip::FaultConfig fault = ip::faultPreset(kind);
    fault.onset_cycle = onset;
    fault.flip_rate = 0.05;
    ip::FaultyDevice device(ip::makeDevice(kind), fault);
    power::GateLevelEstimator estimator(device, ip::powerConfig(kind));
    ip::PerturbedStimulus::Config perturb;
    perturb.onset_cycle = onset;
    perturb.stall_rate = 0.02;
    perturb.drop_rate = 0.01;
    ip::PerturbedStimulus stimulus(
        ip::makeTestbench(kind, ip::TestsetMode::Long, 0x715EED), perturb);
    auto pair = estimator.run(stimulus, cycles);
    ip::scalePowerModes(pair.power, onset, /*period=*/512, /*factor=*/2.0);

    // Serve the faulted stream against the clean model, watching drift.
    runtime::OnlinePredictor predictor(run.flow->psm(), run.flow->domain());
    runtime::QualityMonitor monitor(run.flow->psm());
    std::ptrdiff_t drift_latency = -1;
    std::ptrdiff_t degraded_latency = -1;
    std::vector<common::BitVector> row;
    for (std::size_t t = 0; t < pair.functional.length(); ++t) {
      pair.functional.readRow(t, row);
      predictor.predictRow(row);
      monitor.observe(predictor.lastRow(), pair.power.at(t));
      if (t >= onset) {
        const runtime::DriftStatus status = monitor.status();
        if (degraded_latency < 0 && status != runtime::DriftStatus::Ok) {
          degraded_latency = static_cast<std::ptrdiff_t>(t - onset);
        }
        if (drift_latency < 0 && status == runtime::DriftStatus::Drifted) {
          drift_latency = static_cast<std::ptrdiff_t>(t - onset);
        }
      }
    }
    const runtime::PredictorStats& stats = predictor.stats();

    // Mine a model from the glitched pair and lint it.
    core::CharacterizationFlow faulty_flow;
    faulty_flow.addTrainingTrace(pair.functional, pair.power);
    faulty_flow.build();
    const analysis::LintReport lint =
        analysis::lintModel(faulty_flow.psm(), faulty_flow.domain());
    std::size_t lint_errors = 0;
    std::size_t lint_warnings = 0;
    for (const analysis::Finding& f : lint.findings) {
      if (f.severity == analysis::Severity::Error) ++lint_errors;
      if (f.severity == analysis::Severity::Warn) ++lint_warnings;
    }

    obs::Registry& reg = obs::metrics();
    reg.gauge("bench.fault.onset_row").set(static_cast<double>(onset));
    reg.gauge("bench.fault.flips_injected")
        .set(static_cast<double>(device.faultsInjected()));
    reg.gauge("bench.fault.stimulus_perturbations")
        .set(static_cast<double>(stimulus.perturbationsApplied()));
    reg.gauge("bench.fault.final_status")
        .set(static_cast<double>(monitor.status()));
    reg.gauge("bench.fault.degraded_latency_rows")
        .set(static_cast<double>(degraded_latency));
    reg.gauge("bench.fault.drift_latency_rows")
        .set(static_cast<double>(drift_latency));
    reg.gauge("bench.fault.wsp_percent").set(stats.wspPercent());
    reg.gauge("bench.fault.lost_percent").set(stats.lostPercent());
    reg.gauge("bench.fault.resyncs_per_kilorow")
        .set(stats.resyncsPerKiloRow());
    reg.gauge("bench.fault.lint_findings")
        .set(static_cast<double>(lint.findings.size()));
    reg.gauge("bench.fault.lint_errors").set(static_cast<double>(lint_errors));
    reg.gauge("bench.fault.lint_warnings")
        .set(static_cast<double>(lint_warnings));

    std::ostringstream metrics_json;
    reg.writeJson(metrics_json);
    std::string mj = metrics_json.str();
    while (!mj.empty() && (mj.back() == '\n' || mj.back() == ' ')) {
      mj.pop_back();
    }
    std::printf("%s  {\"ip\": \"%s\", \"metrics\": %s}",
                first ? "" : ",\n", ip::ipName(kind).c_str(),
                indented(mj, "  ").c_str());
    first = false;
  }
  std::printf("\n]\n");
  obs::flushOutputs();
  return 0;
}
