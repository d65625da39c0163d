#include "analysis/analyzer.hpp"

#include <algorithm>
#include <utility>

#include "analysis/checks.hpp"
#include "common/json.hpp"

namespace psmgen::analysis {

const std::vector<CheckInfo>& checkRegistry() {
  // Report order; ids are stable and never renumbered. New checks
  // append within their family.
  static const std::vector<CheckInfo> registry = {
      {"PSM-ART-001", Severity::Error,
       "artifact unreadable (I/O failure opening or writing the file)"},
      {"PSM-ART-002", Severity::Error,
       "bad magic: the file is not a psmgen model artifact"},
      {"PSM-ART-003", Severity::Error,
       "unsupported artifact format version"},
      {"PSM-ART-004", Severity::Error,
       "artifact truncated mid-field"},
      {"PSM-ART-005", Severity::Error,
       "payload checksum mismatch (corrupted artifact)"},
      {"PSM-ART-006", Severity::Error,
       "a field decoded to a semantically invalid value"},
      {"PSM-ART-007", Severity::Error,
       "stored HMM parameters differ from the ones re-derived on load"},
      {"PSM-ART-008", Severity::Error,
       "trailing bytes after the last artifact section"},
      {"PSM-DOM-001", Severity::Error,
       "proposition signature arity differs from the mined atom set"},
      {"PSM-DOM-002", Severity::Info,
       "interned propositions never referenced by the PSM"},
      {"PSM-INIT-001", Severity::Error,
       "model has no initial state at all"},
      {"PSM-INIT-002", Severity::Warn,
       "initial multiset and per-state initial_count disagree"},
      {"PSM-STATE-001", Severity::Error,
       "state unreachable from every initial state"},
      {"PSM-STATE-002", Severity::Info,
       "sink state (no outgoing transitions)"},
      {"PSM-TRANS-001", Severity::Error,
       "transition-probability row does not sum to 1 (+/- epsilon)"},
      {"PSM-TRANS-002", Severity::Error,
       "transition with multiplicity 0"},
      {"PSM-TRANS-003", Severity::Info,
       "nondeterministic (state, proposition) pair with several targets"},
      {"PSM-TRANS-004", Severity::Warn,
       "duplicate transition not folded into a multiplicity"},
      {"PSM-TRANS-005", Severity::Error,
       "transition without an enabling proposition"},
      {"PSM-TRANS-006", Severity::Error,
       "transition enabling proposition outside the domain"},
      {"PSM-POWER-001", Severity::Error,
       "power stddev negative or non-finite"},
      {"PSM-POWER-002", Severity::Error,
       "power mean non-finite"},
      {"PSM-POWER-003", Severity::Warn,
       "power attribute pooled from fewer than 2 samples"},
      {"PSM-POWER-004", Severity::Warn,
       "power mean outside its recorded interval-mean range"},
      {"PSM-REG-001", Severity::Error,
       "regression refinement with non-finite coefficients"},
      {"PSM-REG-002", Severity::Warn,
       "degenerate regression refinement (flat slope or n < 3)"},
      {"PSM-ASSERT-001", Severity::Error,
       "state without assertion alternatives"},
      {"PSM-ASSERT-002", Severity::Error,
       "malformed pattern (empty sequence or missing operand)"},
      {"PSM-ASSERT-003", Severity::Error,
       "pattern proposition id outside the domain"},
      {"PSM-ASSERT-004", Severity::Warn,
       "broken `;`-sequence continuity between adjacent patterns"},
      {"PSM-ASSERT-005", Severity::Error,
       "alternative multiplicities inconsistent with the alternatives"},
      {"PSM-ASSERT-006", Severity::Warn,
       "duplicate alternative not folded into a multiplicity"},
  };
  return registry;
}

const CheckInfo* findCheck(const std::string& id) {
  for (const CheckInfo& info : checkRegistry()) {
    if (id == info.id) return &info;
  }
  return nullptr;
}

namespace {

bool suppressed(const LintOptions& options, const std::string& id) {
  return std::find(options.suppress.begin(), options.suppress.end(), id) !=
         options.suppress.end();
}

/// Re-tallies `raw` into a fresh report with the suppressed ids dropped.
LintReport applySuppression(LintReport raw, const LintOptions& options) {
  if (options.suppress.empty()) return raw;
  LintReport filtered;
  for (Finding& f : raw.findings) {
    if (!suppressed(options, f.check_id)) filtered.add(std::move(f));
  }
  return filtered;
}

const char* artifactCheckId(serialize::FormatErrorCode code) {
  using serialize::FormatErrorCode;
  switch (code) {
    case FormatErrorCode::Io: return "PSM-ART-001";
    case FormatErrorCode::BadMagic: return "PSM-ART-002";
    case FormatErrorCode::UnsupportedVersion: return "PSM-ART-003";
    case FormatErrorCode::Truncated: return "PSM-ART-004";
    case FormatErrorCode::ChecksumMismatch: return "PSM-ART-005";
    case FormatErrorCode::BadField: return "PSM-ART-006";
    case FormatErrorCode::HmmMismatch: return "PSM-ART-007";
    case FormatErrorCode::TrailingData: return "PSM-ART-008";
  }
  return "PSM-ART-006";
}

}  // namespace

LintReport lintModel(const core::Psm& psm,
                     const core::PropositionDomain& domain,
                     const LintOptions& options) {
  LintReport report;
  detail::runModelChecks(psm, domain, options, report);
  return applySuppression(std::move(report), options);
}

LintReport lintArtifact(const std::string& path, const LintOptions& options) {
  try {
    const serialize::PsmModel model = serialize::loadPsmModel(path);
    return lintModel(model.psm, model.domain, options);
  } catch (const serialize::FormatError& e) {
    LintReport report;
    Locus locus;
    locus.detail = e.field();
    if (e.offset() != serialize::FormatError::kNoOffset) {
      locus.detail += (locus.detail.empty() ? "" : " ");
      locus.detail += '@';
      locus.detail += std::to_string(e.offset());
    }
    report.add(Finding{artifactCheckId(e.code()), Severity::Error,
                       std::move(locus), e.what(),
                       "the artifact cannot be served; re-train or restore "
                       "it from a good copy"});
    return applySuppression(std::move(report), options);
  }
}

std::string renderText(const LintReport& report, const std::string& subject) {
  std::string out = "lint: " + subject + "\n";
  for (const Finding& f : report.findings) {
    out += "  ";
    out += severityName(f.severity);
    out += ' ';
    out += f.check_id;
    std::string where;
    if (f.locus.state != core::kNoState) {
      where += "state " + std::to_string(f.locus.state);
      if (f.locus.alt >= 0) where += " alt " + std::to_string(f.locus.alt);
      if (f.locus.transition >= 0) {
        where += " transition " + std::to_string(f.locus.transition);
      }
    }
    if (!f.locus.detail.empty()) {
      where += (where.empty() ? "" : ", ") + f.locus.detail;
    }
    if (!where.empty()) out += " [" + where + "]";
    out += ": " + f.message + "\n";
    if (!f.hint.empty()) out += "    hint: " + f.hint + "\n";
  }
  out += "summary: " + std::to_string(report.errors) + " error" +
         (report.errors == 1 ? "" : "s") + ", " +
         std::to_string(report.warnings) + " warning" +
         (report.warnings == 1 ? "" : "s") + ", " +
         std::to_string(report.infos) + " info\n";
  return out;
}

std::string renderJson(const LintReport& report, const std::string& subject) {
  std::string out = "{\"schema\": \"psmgen.lint.v1\", \"subject\": ";
  common::appendJsonString(out, subject);
  out += ", \"summary\": {\"errors\": " + std::to_string(report.errors);
  out += ", \"warnings\": " + std::to_string(report.warnings);
  out += ", \"infos\": " + std::to_string(report.infos);
  out += ", \"findings\": " + std::to_string(report.findings.size());
  out += std::string(", \"clean\": ") + (report.clean() ? "true" : "false");
  out += "}, \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i > 0) out += ", ";
    out += "{\"id\": ";
    common::appendJsonString(out, f.check_id);
    out += ", \"severity\": ";
    common::appendJsonString(out, severityName(f.severity));
    out += ", \"locus\": {";
    bool first = true;
    const auto key = [&](const char* name) {
      if (!first) out += ", ";
      first = false;
      out += '"';
      out += name;
      out += "\": ";
    };
    if (f.locus.state != core::kNoState) {
      key("state");
      out += std::to_string(f.locus.state);
    }
    if (f.locus.alt >= 0) {
      key("alt");
      out += std::to_string(f.locus.alt);
    }
    if (f.locus.transition >= 0) {
      key("transition");
      out += std::to_string(f.locus.transition);
    }
    if (!f.locus.detail.empty()) {
      key("detail");
      common::appendJsonString(out, f.locus.detail);
    }
    out += "}, \"message\": ";
    common::appendJsonString(out, f.message);
    out += ", \"hint\": ";
    common::appendJsonString(out, f.hint);
    out += "}";
  }
  out += "]}\n";
  return out;
}

int gateExitCode(const LintReport& report, const LintOptions& options) {
  if (report.errors > 0) return 1;
  if (options.werror && report.warnings > 0) return 1;
  return 0;
}

}  // namespace psmgen::analysis
