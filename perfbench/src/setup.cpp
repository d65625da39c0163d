// Set-up: generates every input of a workload from its seed with the
// gate-level power surrogate (the stand-in for PrimeTime PX, used here and
// nowhere else), writes the functional/power CSVs, trains the served
// artifacts with num_threads = 1, and records the references the
// measurement checks against.

#include <filesystem>

#include "bench.hpp"
#include "core/flow.hpp"
#include "power/gate_estimator.hpp"
#include "runtime/online_predictor.hpp"
#include "serialize/psm_artifact.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

namespace ip = psmgen::ip;

std::string statsLine(const psmgen::runtime::PredictorStats& s) {
  return std::to_string(s.rows) + " " + std::to_string(s.predictions) + " " +
         std::to_string(s.wrong_predictions) + " " +
         std::to_string(s.unexpected_behaviours) + " " +
         std::to_string(s.lost_instants) + " " + std::to_string(s.resyncs);
}

void runSetup(const Options& opts) {
  Reference ref;
  Fnv inputs;
  auto written = [&](const std::string& path) {
    const std::uint64_t d = fileDigest(path);
    inputs.add(&d, sizeof d);
  };
  for (const Job& job : jobsFor(opts.workload, opts.seed)) {
    std::filesystem::create_directories(opts.dir + "/" + job.name());
    auto device = ip::makeDevice(job.ip);
    psmgen::power::GateLevelEstimator estimator(*device,
                                                ip::powerConfig(job.ip));
    psmgen::core::FlowConfig config;
    config.num_threads = 1;
    psmgen::core::CharacterizationFlow flow(config);
    for (std::size_t i = 0; i < job.plan.size(); ++i) {
      auto tb = ip::makeTestbench(job.ip, job.train_mode, job.plan[i].seed);
      auto pair = estimator.run(*tb, job.plan[i].cycles);
      psmgen::trace::saveFunctionalTrace(job.trainFunctional(opts.dir, i),
                                         pair.functional);
      psmgen::trace::savePowerTrace(job.trainPower(opts.dir, i), pair.power);
      written(job.trainFunctional(opts.dir, i));
      written(job.trainPower(opts.dir, i));
      flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
    }
    flow.build();
    psmgen::serialize::savePsmModel(job.model(opts.dir), flow.psm(),
                                    flow.domain());
    ref["artifact." + job.name()] = hex64(fileDigest(job.model(opts.dir)));

    if (job.eval_seeds.empty()) continue;
    const psmgen::serialize::PsmModel model =
        psmgen::serialize::loadPsmModel(job.model(opts.dir));
    for (std::size_t k = 0; k < job.eval_seeds.size(); ++k) {
      auto tb = ip::makeTestbench(job.ip, ip::TestsetMode::Long,
                                  job.eval_seeds[k]);
      const psmgen::trace::FunctionalTrace eval =
          estimator.run(*tb, job.eval_cycles).functional;
      psmgen::trace::saveFunctionalTrace(job.eval(opts.dir, k), eval);
      written(job.eval(opts.dir, k));

      psmgen::runtime::OnlinePredictor predictor(model);
      const std::vector<double> estimates = predictor.predictTrace(eval);
      Fnv digest;
      for (const double e : estimates) digest.addDouble(e);
      const std::string key = job.name() + "." + std::to_string(k);
      ref["estimates." + key] = hex64(digest.h);
      ref["stats." + key] = statsLine(predictor.stats());

    }
  }
  ref["inputs"] = hex64(inputs.h);
  writeReference(opts.dir + "/reference.txt", ref);
}

}  // namespace perfbench
