// Tests for the PSM static analyzer (analysis/analyzer.hpp): every
// check of the registry fired by a hand-built defective model, the
// suppression / werror gate mechanics, the machine-readable report
// (golden byte-exact), artifact-level findings from corrupted files,
// and the property that freshly trained models lint clean.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"
#include "serialize/psm_artifact.hpp"

namespace psmgen {
namespace {

using analysis::LintOptions;
using analysis::LintReport;
using analysis::Severity;
using common::BitVector;

/// Two-proposition domain (one `en = 1` atom): p0 = !en, p1 = en.
core::PropositionDomain makeDomain() {
  trace::VariableSet vars;
  vars.add("en", 1, trace::VarKind::Input);
  std::vector<core::AtomicProposition> atoms(1);
  atoms[0].lhs = 0;
  atoms[0].op = core::CmpOp::Eq;
  atoms[0].rhs_const = BitVector(1, 1);
  core::PropositionDomain domain(vars, atoms);
  domain.intern(core::Signature({false}));  // p0
  domain.intern(core::Signature({true}));   // p1
  return domain;
}

/// Two-state cycle referencing both propositions, with agreeing initial
/// bookkeeping and well-formed attributes: zero findings by design, the
/// canvas every negative test below defaces.
core::Psm makeCleanPsm() {
  core::Psm psm;
  core::PowerState idle;
  idle.assertion.alts = {{{0, 1, true}}};  // p0 U p1
  idle.power = core::PowerAttr::single(1.0, 0.1, 100);
  idle.initial_count = 1;
  core::PowerState active;
  active.assertion.alts = {{{1, 0, true}}};  // p1 U p0
  active.power = core::PowerAttr::single(5.0, 0.2, 50);
  psm.addState(std::move(idle));
  psm.addState(std::move(active));
  psm.addInitial(0);
  psm.addTransition({0, 1, 1, 2});
  psm.addTransition({1, 0, 0, 2});
  return psm;
}

std::vector<std::string> idsOf(const LintReport& report) {
  std::vector<std::string> ids;
  for (const auto& f : report.findings) ids.push_back(f.check_id);
  return ids;
}

bool fired(const LintReport& report, const std::string& id) {
  const auto ids = idsOf(report);
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

LintReport lint(const core::Psm& psm, const core::PropositionDomain& domain,
                const LintOptions& options = {}) {
  return analysis::lintModel(psm, domain, options);
}

TEST(AnalyzerRegistry, IdsAreUniqueAndResolvable) {
  std::set<std::string> seen;
  for (const auto& info : analysis::checkRegistry()) {
    EXPECT_TRUE(seen.insert(info.id).second) << "duplicate id " << info.id;
    EXPECT_EQ(analysis::findCheck(info.id), &info);
    EXPECT_STRNE(info.summary, "");
  }
  EXPECT_GE(seen.size(), 30u);
  EXPECT_EQ(analysis::findCheck("PSM-NOPE-999"), nullptr);
}

TEST(Analyzer, CleanModelHasNoFindings) {
  const LintReport report = lint(makeCleanPsm(), makeDomain());
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.findings.empty()) << analysis::renderText(report, "x");
}

TEST(Analyzer, UnreachableStateIsAnError) {
  core::Psm psm = makeCleanPsm();
  core::PowerState orphan;
  orphan.assertion.alts = {{{0, 1, true}}};
  orphan.power = core::PowerAttr::single(2.0, 0.1, 10);
  const core::StateId id = psm.addState(std::move(orphan));
  psm.addTransition({id, 0, 0, 1});  // can leave, cannot be entered
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-STATE-001"));
  EXPECT_FALSE(report.clean());
  // The locus names the orphan.
  for (const auto& f : report.findings) {
    if (f.check_id == "PSM-STATE-001") {
      EXPECT_EQ(f.locus.state, id);
    }
  }
}

TEST(Analyzer, SinkStateIsInfoOnly) {
  core::Psm psm = makeCleanPsm();
  core::PowerState tail;
  tail.assertion.alts = {{{0, 1, true}}};
  tail.power = core::PowerAttr::single(3.0, 0.1, 10);
  const core::StateId id = psm.addState(std::move(tail));
  psm.addTransition({0, id, 1, 1});
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-STATE-002"));
  EXPECT_TRUE(report.clean()) << analysis::renderText(report, "x");
  // ... but a 0 -> {1, tail} fork on p1 is now nondeterministic: Info.
  EXPECT_TRUE(fired(report, "PSM-TRANS-003"));
}

TEST(Analyzer, NoInitialStateIsAnError) {
  core::Psm psm;
  core::PowerState only;
  only.assertion.alts = {{{0, 1, true}}};
  only.power = core::PowerAttr::single(1.0, 0.1, 10);
  psm.addState(std::move(only));  // no addInitial, initial_count 0
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-INIT-001"));
}

TEST(Analyzer, InitialBookkeepingDisagreementIsAWarning) {
  core::Psm psm = makeCleanPsm();
  psm.state(1).initial_count = 3;  // counted but not listed
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-INIT-002"));
  EXPECT_EQ(report.warnings, 1u);
  EXPECT_TRUE(report.clean());
}

TEST(Analyzer, ZeroCountTransitionBreaksTheStochasticRow) {
  core::Psm psm = makeCleanPsm();
  psm.transitions()[0].count = 0;  // state 0's only out-edge
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-TRANS-002"));
  // The derived A row of state 0 now sums to 0, not 1.
  EXPECT_TRUE(fired(report, "PSM-TRANS-001"));
  EXPECT_GE(report.errors, 2u);
}

TEST(Analyzer, MissingAndDanglingEnablingPropositions) {
  core::Psm psm = makeCleanPsm();
  psm.transitions()[0].enabling = core::kNoProp;
  psm.transitions()[1].enabling = 42;  // domain has 2 propositions
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-TRANS-005"));
  EXPECT_TRUE(fired(report, "PSM-TRANS-006"));
}

TEST(Analyzer, UnfoldedDuplicateTransitionIsAWarning) {
  core::Psm psm = makeCleanPsm();
  psm.addTransition({0, 1, 1, 2});  // duplicate of the first edge
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-TRANS-004"));
  EXPECT_TRUE(report.clean());
}

TEST(Analyzer, BadPowerAttributes) {
  core::Psm psm = makeCleanPsm();
  psm.state(0).power.stddev = -1.0;
  psm.state(1).power.mean = std::numeric_limits<double>::quiet_NaN();
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-POWER-001"));
  EXPECT_TRUE(fired(report, "PSM-POWER-002"));
  EXPECT_FALSE(report.clean());
}

TEST(Analyzer, UnderSampledAndOutOfRangeMeans) {
  core::Psm psm = makeCleanPsm();
  psm.state(0).power.n = 1;
  psm.state(1).power.min_mean = 10.0;  // mean 5.0 below the range
  psm.state(1).power.max_mean = 20.0;
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-POWER-003"));
  EXPECT_TRUE(fired(report, "PSM-POWER-004"));
  EXPECT_TRUE(report.clean());  // both are warnings
  EXPECT_EQ(report.warnings, 2u);
}

TEST(Analyzer, BadRegressionRefinements) {
  core::Psm psm = makeCleanPsm();
  psm.state(0).regression =
      stats::LinearFit{std::numeric_limits<double>::infinity(), 1.0, 0.5,
                       0.25, 10};
  psm.state(1).regression = stats::LinearFit{1.0, 0.0, 0.0, 0.0, 2};
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-REG-001"));
  EXPECT_TRUE(fired(report, "PSM-REG-002"));
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(report.warnings, 1u);
}

TEST(Analyzer, MalformedAssertions) {
  core::Psm psm = makeCleanPsm();
  psm.state(0).assertion.alts.clear();  // ASSERT-001
  // ASSERT-002 (non-terminal pattern without exit prop, missing entry)
  // + ASSERT-003 (dangling id) + ASSERT-004 (continuity break) in s1.
  psm.state(1).assertion.alts = {
      {{1, core::kNoProp, true}, {0, 1, true}},   // terminal mid-sequence
      {{core::kNoProp, 1, false}},                // missing entry prop
      {{1, 42, true}},                            // dangling exit prop
      {{1, 0, true}, {1, 0, true}},               // exit 0 != entry 1
  };
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-ASSERT-001"));
  EXPECT_TRUE(fired(report, "PSM-ASSERT-002"));
  EXPECT_TRUE(fired(report, "PSM-ASSERT-003"));
  EXPECT_TRUE(fired(report, "PSM-ASSERT-004"));
}

TEST(Analyzer, InconsistentAndDuplicateAlternatives) {
  core::Psm psm = makeCleanPsm();
  psm.state(0).assertion.counts = {1, 2, 3};  // 3 counts for 1 alt
  psm.state(1).assertion.alts = {{{1, 0, true}}, {{1, 0, true}}};
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-ASSERT-005"));
  EXPECT_TRUE(fired(report, "PSM-ASSERT-006"));
}

TEST(Analyzer, ZeroMultiplicityAlternativeIsAnError) {
  core::Psm psm = makeCleanPsm();
  psm.state(0).assertion.counts = {0};
  const LintReport report = lint(psm, makeDomain());
  EXPECT_TRUE(fired(report, "PSM-ASSERT-005"));
  EXPECT_FALSE(report.clean());
}

TEST(Analyzer, UnusedPropositionsAreOneInfoTally) {
  core::PropositionDomain domain = makeDomain();
  domain.intern(core::Signature({false}));  // already interned: no-op
  core::Psm psm = makeCleanPsm();
  // Drop every reference to p0 so one proposition goes unused.
  psm.state(0).assertion.alts = {{{1, 1, true}}};
  psm.state(1).assertion.alts = {{{1, 1, false}}};
  psm.transitions()[0].enabling = 1;
  psm.transitions()[1].enabling = 1;
  const LintReport report = lint(psm, domain);
  EXPECT_TRUE(fired(report, "PSM-DOM-002"));
  EXPECT_EQ(report.infos,
            static_cast<std::size_t>(
                std::count_if(report.findings.begin(), report.findings.end(),
                              [](const analysis::Finding& f) {
                                return f.severity == Severity::Info;
                              })));
  // One tally, not one finding per unused proposition.
  const auto ids = idsOf(report);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), std::string("PSM-DOM-002")), 1);
}

TEST(Analyzer, SuppressionDropsAndRetallies) {
  core::Psm psm = makeCleanPsm();
  psm.state(0).power.stddev = -1.0;
  LintOptions options;
  options.suppress = {"PSM-POWER-001"};
  const LintReport report = lint(psm, makeDomain(), options);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.errors, 0u);
  EXPECT_TRUE(report.clean());
}

TEST(Analyzer, GateExitCodes) {
  core::Psm psm = makeCleanPsm();
  psm.state(0).power.n = 1;  // one warning, no errors
  LintOptions options;
  const LintReport report = lint(psm, makeDomain(), options);
  EXPECT_EQ(report.warnings, 1u);
  EXPECT_EQ(analysis::gateExitCode(report, options), 0);
  options.werror = true;
  EXPECT_EQ(analysis::gateExitCode(report, options), 1);
  psm.state(0).power.stddev = -1.0;
  EXPECT_EQ(analysis::gateExitCode(lint(psm, makeDomain()), options), 1);
}

TEST(Analyzer, EpsilonControlsTheRowSumTolerance) {
  // A clean model passes at the default epsilon; a zero-count edge fails
  // at any epsilon < 1 because the row collapses to 0.
  core::Psm psm = makeCleanPsm();
  LintOptions loose;
  loose.epsilon = 0.5;
  EXPECT_FALSE(fired(lint(psm, makeDomain(), loose), "PSM-TRANS-001"));
  psm.transitions()[0].count = 0;
  EXPECT_TRUE(fired(lint(psm, makeDomain(), loose), "PSM-TRANS-001"));
}

TEST(Analyzer, RenderTextNamesSeverityIdAndLocus) {
  core::Psm psm = makeCleanPsm();
  psm.state(1).power.stddev = -1.0;
  const std::string text =
      analysis::renderText(lint(psm, makeDomain()), "unit.psm");
  EXPECT_NE(text.find("lint: unit.psm"), std::string::npos) << text;
  EXPECT_NE(text.find("error PSM-POWER-001 [state 1]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("hint:"), std::string::npos);
  EXPECT_NE(text.find("summary: 1 error, 0 warnings, 0 info"),
            std::string::npos)
      << text;
}

// The psmgen.lint.v1 report is a machine interface: CI parses it and
// the lint gate archives it, so its shape is pinned byte-for-byte.
TEST(Analyzer, RenderJsonGolden) {
  core::Psm psm = makeCleanPsm();
  psm.state(1).power.stddev = -1.0;
  const std::string json =
      analysis::renderJson(lint(psm, makeDomain()), "golden");
  EXPECT_EQ(json,
            "{\"schema\": \"psmgen.lint.v1\", \"subject\": \"golden\", "
            "\"summary\": {\"errors\": 1, \"warnings\": 0, \"infos\": 0, "
            "\"findings\": 1, \"clean\": false}, \"findings\": [{\"id\": "
            "\"PSM-POWER-001\", \"severity\": \"error\", \"locus\": "
            "{\"state\": 1}, \"message\": \"state 1 power stddev is -1\", "
            "\"hint\": \"sigma must be finite and non-negative; the drift "
            "monitor divides by it\"}]}\n");
}

TEST(Analyzer, RenderJsonEscapesStrings) {
  LintReport report;
  analysis::Finding finding;
  finding.check_id = "PSM-ART-006";
  finding.severity = Severity::Error;
  finding.locus.detail = "quote \" backslash \\ newline \n tab \t";
  finding.message = "control \x01 char";
  report.add(std::move(finding));
  const std::string json = analysis::renderJson(report, "esc");
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n tab \\t"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("control \\u0001 char"), std::string::npos) << json;
}

// --- artifact-level findings ----------------------------------------------

std::string writeCleanArtifact(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  serialize::savePsmModel(path, makeCleanPsm(), makeDomain());
  return path;
}

TEST(AnalyzerArtifact, CleanArtifactLintsClean) {
  const std::string path = writeCleanArtifact("psmgen_lint_clean.psm");
  const LintReport report = analysis::lintArtifact(path);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.findings.empty());
  std::remove(path.c_str());
}

TEST(AnalyzerArtifact, MissingFileIsIoFinding) {
  const LintReport report =
      analysis::lintArtifact(testing::TempDir() + "does_not_exist.psm");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].check_id, "PSM-ART-001");
  EXPECT_FALSE(report.clean());
}

TEST(AnalyzerArtifact, BadMagicFinding) {
  const std::string path = writeCleanArtifact("psmgen_lint_magic.psm");
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');
  }
  const LintReport report = analysis::lintArtifact(path);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].check_id, "PSM-ART-002");
  std::remove(path.c_str());
}

TEST(AnalyzerArtifact, TruncationFinding) {
  const std::string path = writeCleanArtifact("psmgen_lint_trunc.psm");
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  const LintReport report = analysis::lintArtifact(path);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].check_id, "PSM-ART-004");
  // The locus carries the decoder's field @offset context.
  EXPECT_FALSE(report.findings[0].locus.detail.empty());
  std::remove(path.c_str());
}

TEST(AnalyzerArtifact, BitFlipChecksumFinding) {
  const std::string path = writeCleanArtifact("psmgen_lint_flip.psm");
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streampos size = f.tellg();
    f.seekp(static_cast<std::streamoff>(size) / 2);
    const char byte = static_cast<char>(f.peek() ^ 0x10);
    f.seekp(static_cast<std::streamoff>(size) / 2);
    f.put(byte);
  }
  const LintReport report = analysis::lintArtifact(path);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].check_id, "PSM-ART-005");
  std::remove(path.c_str());
}

TEST(AnalyzerArtifact, ArtifactFindingsAreSuppressible) {
  LintOptions options;
  options.suppress = {"PSM-ART-001"};
  const LintReport report = analysis::lintArtifact(
      testing::TempDir() + "also_missing.psm", options);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_TRUE(report.clean());
}

// --- property: trained models lint clean ----------------------------------

void expectTrainedModelLintsClean(ip::IpKind kind) {
  core::CharacterizationFlow flow;
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator est(*device, ip::powerConfig(kind));
  for (const auto& spec : ip::shortTSPlan(kind)) {
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Short, spec.seed);
    auto pair = est.run(*tb, 2000);
    flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
  }
  flow.build();
  const LintReport report = analysis::lintModel(flow.psm(), flow.domain());
  EXPECT_TRUE(report.clean())
      << analysis::renderText(report, "trained model");
  EXPECT_EQ(report.warnings, 0u)
      << analysis::renderText(report, "trained model");
}

TEST(AnalyzerProperty, TrainedRamLintsClean) {
  expectTrainedModelLintsClean(ip::IpKind::Ram);
}
TEST(AnalyzerProperty, TrainedMultSumLintsClean) {
  expectTrainedModelLintsClean(ip::IpKind::MultSum);
}
TEST(AnalyzerProperty, TrainedAesLintsClean) {
  expectTrainedModelLintsClean(ip::IpKind::Aes);
}
TEST(AnalyzerProperty, TrainedCamelliaLintsClean) {
  expectTrainedModelLintsClean(ip::IpKind::Camellia);
}

}  // namespace
}  // namespace psmgen
