// Tests for the streaming prediction runtime (runtime/): row-at-a-time
// trace iteration, exact equivalence of the online predictor with the
// fused PsmSimulator::simulate path, and the per-stream counters.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <sstream>

#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/streaming_reader.hpp"
#include "serialize/psm_artifact.hpp"
#include "trace/trace_io.hpp"

namespace psmgen {
namespace {

using common::BitVector;

trace::FunctionalTrace randomTrace(std::size_t rows, std::uint64_t seed) {
  trace::VariableSet vars;
  vars.add("a", 3, trace::VarKind::Input);
  vars.add("b", 9, trace::VarKind::Output);
  trace::FunctionalTrace t(vars);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    t.append({BitVector(3, rng() & 0x7), BitVector(9, rng() & 0x1FF)});
  }
  return t;
}

std::string toCsv(const trace::FunctionalTrace& t) {
  std::ostringstream os;
  trace::writeFunctionalTrace(os, t);
  return os.str();
}

TEST(StreamingReader, MatchesBatchLoader) {
  const trace::FunctionalTrace t = randomTrace(10, 1);
  // The same trace with CRLF line endings and blank lines between rows.
  std::string crlf;
  std::size_t lines = 0;
  for (const char c : toCsv(t)) {
    if (c != '\n') {
      crlf += c;
      continue;
    }
    crlf += "\r\n";
    if (++lines > 2 && lines % 3 == 0) crlf += lines % 2 ? "\r\n" : " \t\r\n";
  }
  for (const std::string& csv : {toCsv(t), crlf}) {
    std::istringstream batch(csv);
    EXPECT_EQ(trace::readFunctionalTrace(batch), t);
    std::istringstream is(csv);
    runtime::StreamingTraceReader reader(is);
    EXPECT_EQ(reader.variables(), t.variables());
    std::vector<BitVector> row;
    std::size_t i = 0;
    while (reader.next(row)) {
      ASSERT_LT(i, t.length());
      EXPECT_EQ(row, t.step(i));
      ++i;
    }
    EXPECT_EQ(i, t.length());
    EXPECT_FALSE(reader.next(row));  // stays exhausted
  }
}

TEST(StreamingReader, EmptyTraceYieldsNoRows) {
  trace::FunctionalTrace empty(randomTrace(0, 3));
  std::istringstream is(toCsv(empty));
  runtime::StreamingTraceReader reader(is);
  std::vector<BitVector> row;
  EXPECT_FALSE(reader.next(row));
}

TEST(StreamingReader, DeliversEveryRowBeforeABadOne) {
  // 5000 good rows on file lines 3-5002, then a row with one cell too
  // many on line 5003: each good row arrives before the reader throws.
  const trace::FunctionalTrace t = randomTrace(5000, 2);
  std::istringstream is(toCsv(t) + "1,2,3\n");
  runtime::StreamingTraceReader reader(is);
  std::vector<BitVector> row;
  std::size_t delivered = 0;
  try {
    while (reader.next(row)) {
      ASSERT_LT(delivered, t.length());
      ASSERT_EQ(row, t.step(delivered));
      ++delivered;
    }
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5003"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(delivered, t.length());
}

TEST(StreamingReader, RejectsBadInput) {
  std::istringstream garbage("not a trace\n");
  EXPECT_THROW(runtime::StreamingTraceReader{garbage}, std::runtime_error);

  std::istringstream headers_only("# psmgen functional trace v1\n");
  EXPECT_THROW(runtime::StreamingTraceReader{headers_only},
               std::runtime_error);

  EXPECT_THROW(runtime::StreamingTraceReader("/nonexistent/trace.csv"),
               std::runtime_error);
}

TEST(StreamingReader, ArityMismatchNamesTheLine) {
  std::string csv = toCsv(randomTrace(3, 5));
  csv += "1,2,3\n";  // 3 cells, the variable set has 2; this is file line 6
  std::istringstream is(csv);
  runtime::StreamingTraceReader reader(is);
  std::vector<BitVector> row;
  try {
    while (reader.next(row)) {
    }
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 6"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("arity"), std::string::npos);
  }
}

TEST(StreamingReader, EmptyCellNamesTheLine) {
  std::string csv = toCsv(randomTrace(3, 6));
  csv += "1,\n";  // b's cell is empty; this is file line 6
  std::istringstream is(csv);
  runtime::StreamingTraceReader reader(is);
  std::vector<BitVector> row;
  try {
    while (reader.next(row)) {
    }
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 6"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("bad value for variable 'b'"),
              std::string::npos)
        << e.what();
  }
}

// --- predictor ----------------------------------------------------------

struct TrainedRam {
  core::CharacterizationFlow flow;
  trace::FunctionalTrace eval;
  trace::PowerTrace eval_power;

  TrainedRam() {
    auto device = ip::makeDevice(ip::IpKind::Ram);
    power::GateLevelEstimator est(*device, ip::powerConfig(ip::IpKind::Ram));
    for (const auto& spec : ip::shortTSPlan(ip::IpKind::Ram)) {
      auto tb =
          ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Short, spec.seed);
      auto pair = est.run(*tb, 2500);
      flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
    }
    flow.build();
    auto tb = ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Long, 0xBEEF);
    auto pair = est.run(*tb, 6000);
    eval = std::move(pair.functional);
    eval_power = std::move(pair.power);
  }
};

TrainedRam& trainedRam() {
  static TrainedRam ram;
  return ram;
}

TEST(OnlinePredictor, MatchesFusedSimulateExactly) {
  TrainedRam& ram = trainedRam();
  const core::SimResult fused = ram.flow.estimate(ram.eval);

  runtime::OnlinePredictor predictor(ram.flow.psm(), ram.flow.domain());
  const std::vector<double> streamed = predictor.predictTrace(ram.eval);
  EXPECT_EQ(streamed, fused.estimate);
  EXPECT_EQ(predictor.stats().rows, ram.eval.length());
  EXPECT_EQ(predictor.stats().predictions, fused.predictions);
  EXPECT_EQ(predictor.stats().wrong_predictions, fused.wrong_predictions);
  EXPECT_EQ(predictor.stats().unexpected_behaviours,
            fused.unexpected_behaviours);
  EXPECT_EQ(predictor.stats().lost_instants, fused.lost_instants);
}

TEST(OnlinePredictor, LoadedArtifactServesIdenticalEstimates) {
  TrainedRam& ram = trainedRam();
  std::ostringstream os(std::ios::binary);
  serialize::writePsmModel(os, ram.flow.psm(), ram.flow.domain());
  std::istringstream is(os.str(), std::ios::binary);
  const serialize::PsmModel model = serialize::readPsmModel(is);

  runtime::OnlinePredictor predictor(model);
  const std::vector<double> streamed = predictor.predictTrace(ram.eval);
  EXPECT_EQ(streamed, ram.flow.estimate(ram.eval).estimate);
}

TEST(OnlinePredictor, StreamedPredictionIsBoundedAndIdentical) {
  TrainedRam& ram = trainedRam();
  std::istringstream is(toCsv(ram.eval));
  runtime::StreamingTraceReader reader(is);

  runtime::OnlinePredictor predictor(ram.flow.psm(), ram.flow.domain());
  std::vector<double> streamed;
  std::size_t next_index = 0;
  const runtime::PredictorStats stats =
      predictor.predictStream(reader, [&](std::size_t t, double estimate) {
        EXPECT_EQ(t, next_index++);
        streamed.push_back(estimate);
      });
  EXPECT_EQ(streamed, ram.flow.estimate(ram.eval).estimate);
  EXPECT_EQ(stats.rows, ram.eval.length());
}

TEST(OnlinePredictor, ResetStartsAFreshEquivalentStream) {
  TrainedRam& ram = trainedRam();
  runtime::OnlinePredictor predictor(ram.flow.psm(), ram.flow.domain());
  const std::vector<double> first = predictor.predictTrace(ram.eval);
  const runtime::PredictorStats first_stats = predictor.stats();
  const std::vector<double> second = predictor.predictTrace(ram.eval);
  EXPECT_EQ(first, second);
  EXPECT_EQ(predictor.stats().rows, first_stats.rows);
  EXPECT_EQ(predictor.stats().predictions, first_stats.predictions);
  EXPECT_EQ(predictor.stats().resyncs, first_stats.resyncs);
}

TEST(OnlinePredictor, RejectsARowOfTheWrongShape) {
  TrainedRam& ram = trainedRam();
  runtime::OnlinePredictor predictor(ram.flow.psm(), ram.flow.domain());
  const std::vector<BitVector>& first = ram.eval.step(0);
  const double estimate = predictor.predictRow(first);

  std::vector<BitVector> longer = first;
  longer.push_back(BitVector(8, 0x5A));
  std::vector<BitVector> shorter = first;
  shorter.pop_back();
  std::vector<BitVector> wider = first;
  wider.back() = BitVector(wider.back().width() + 1, 1);
  for (const auto* bad : {&longer, &shorter, &wider}) {
    EXPECT_THROW(predictor.predictRow(*bad), std::invalid_argument);
  }
  // A rejected row leaves the stream as it was.
  EXPECT_EQ(predictor.stats().rows, 1u);
  runtime::OnlinePredictor fresh(ram.flow.psm(), ram.flow.domain());
  EXPECT_EQ(fresh.predictRow(first), estimate);
  EXPECT_EQ(predictor.predictRow(ram.eval.step(1)),
            fresh.predictRow(ram.eval.step(1)));
}

/// `t` declared with its first two same-width variables swapped, each row's
/// values swapped with them: the same widths position by position, so
/// every row passes the row-shape check.
trace::FunctionalTrace swapFirstSameWidthPair(const trace::FunctionalTrace& t) {
  const trace::VariableSet& vars = t.variables();
  for (std::size_t i = 0; i < vars.size(); ++i) {
    for (std::size_t j = i + 1; j < vars.size(); ++j) {
      if (vars[i].width != vars[j].width) continue;
      std::vector<trace::VariableDef> defs = vars.all();
      std::swap(defs[i], defs[j]);
      trace::FunctionalTrace out{trace::VariableSet(defs)};
      for (std::size_t r = 0; r < t.length(); ++r) {
        std::vector<BitVector> row = t.step(r);
        std::swap(row[i], row[j]);
        out.append(std::move(row));
      }
      return out;
    }
  }
  ADD_FAILURE() << "no two variables of one width";
  return t;
}

TEST(OnlinePredictor, RefusesATraceThatDeclaresOtherVariables) {
  TrainedRam& ram = trainedRam();
  const trace::FunctionalTrace swapped = swapFirstSameWidthPair(ram.eval);
  ASSERT_FALSE(swapped.variables() == ram.flow.domain().variables());
  const std::string model_decl =
      trace::formatVariableDeclaration(ram.flow.domain().variables());
  const std::string trace_decl =
      trace::formatVariableDeclaration(swapped.variables());
  auto expectRefusal = [&](const std::function<void()>& run) {
    try {
      run();
      ADD_FAILURE() << "a trace declaring '" << trace_decl << "' was scored";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + model_decl + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + trace_decl + "'"), std::string::npos) << what;
    }
  };

  expectRefusal([&] { ram.flow.simulator().simulate(swapped); });
  runtime::OnlinePredictor predictor(ram.flow.psm(), ram.flow.domain());
  expectRefusal([&] { predictor.predictTrace(swapped); });
  std::istringstream is(toCsv(swapped));
  runtime::StreamingTraceReader reader(is);
  std::size_t sunk = 0;
  expectRefusal([&] {
    predictor.predictStream(reader, [&](std::size_t, double) { ++sunk; });
  });
  EXPECT_EQ(sunk, 0u);

  // The model's own declaration is still served.
  EXPECT_EQ(predictor.predictTrace(ram.eval),
            ram.flow.estimate(ram.eval).estimate);
}

TEST(OnlinePredictor, CountersTrackLatencyAndThroughput) {
  TrainedRam& ram = trainedRam();
  runtime::OnlinePredictor predictor(ram.flow.psm(), ram.flow.domain());
  predictor.predictTrace(ram.eval);
  const runtime::PredictorStats& stats = predictor.stats();
  EXPECT_EQ(stats.rows, ram.eval.length());
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GT(stats.rowsPerSecond(), 0.0);
  predictor.reset();
  EXPECT_EQ(predictor.stats().rows, 0u);
  EXPECT_EQ(predictor.stats().seconds, 0.0);
}

}  // namespace
}  // namespace psmgen
