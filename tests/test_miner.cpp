// Unit tests for the assertion miner: atom candidates, filters, the walk
// over the training rows, proposition domain interning (and its signature
// index) and proposition traces.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/flow.hpp"
#include "core/miner.hpp"
#include "serialize/psm_artifact.hpp"

namespace psmgen::core {
namespace {

using common::BitVector;

trace::VariableSet vars3() {
  trace::VariableSet vars;
  vars.add("en", 1, trace::VarKind::Input);
  vars.add("mode", 4, trace::VarKind::Input);
  vars.add("data", 16, trace::VarKind::Input);
  return vars;
}

void row(trace::FunctionalTrace& t, bool en, unsigned mode, unsigned data) {
  t.append({BitVector(1, en), BitVector(4, mode), BitVector(16, data)});
}

TEST(Miner, BooleanAndFrequentConstantAtoms) {
  trace::FunctionalTrace t(vars3());
  common::Rng rng(1);
  // mode is control-like (two values), data is random noise.
  for (int i = 0; i < 100; ++i) row(t, false, 1, 0);
  for (int i = 0; i < 100; ++i) {
    row(t, true, 2, static_cast<unsigned>(rng.next() & 0xFFFF));
  }
  AssertionMiner miner;
  const auto atoms = miner.mine({&t}).domain.atoms();
  std::vector<std::string> names;
  for (const auto& a : atoms) names.push_back(a.toString(t.variables()));
  EXPECT_NE(std::find(names.begin(), names.end(), "en=1"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "mode=0x1"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "mode=0x2"), names.end());
  // No constants over the data bus (data-like), but the zero atom exists.
  for (const auto& n : names) {
    if (n.rfind("data=", 0) == 0) {
      EXPECT_EQ(n, "data=0x0000");
    }
  }
}

TEST(Miner, ConstantAtomsAreDropped) {
  trace::FunctionalTrace t(vars3());
  for (int i = 0; i < 50; ++i) row(t, true, 3, 7);  // everything constant
  AssertionMiner miner;
  // Every candidate holds always => no informative atom survives.
  EXPECT_TRUE(miner.mine({&t}).domain.atoms().empty());
}

TEST(Miner, ToggleNoiseFiltered) {
  trace::FunctionalTrace t(vars3());
  for (int i = 0; i < 200; ++i) row(t, i % 2 == 0, 1, 0);  // en toggles always
  MinerConfig cfg;
  cfg.max_toggle_rate = 0.25;
  AssertionMiner miner(cfg);
  const auto atoms = miner.mine({&t}).domain.atoms();
  for (const auto& a : atoms) {
    EXPECT_NE(a.toString(t.variables()), "en=1");
  }
}

TEST(Miner, SpikyWideAtomsFiltered) {
  trace::FunctionalTrace t(vars3());
  // data crosses zero for exactly one instant within long nonzero runs —
  // an incidental coincidence, not a mode.
  for (int rep = 0; rep < 10; ++rep) {
    for (int i = 0; i < 20; ++i) row(t, true, 1, 100 + i);
    row(t, true, 1, 0);
    for (int i = 0; i < 20; ++i) row(t, true, 1, 200 + i);
  }
  AssertionMiner miner;
  const MinedRows mined = miner.mine({&t});
  for (const auto& a : mined.domain.atoms()) {
    EXPECT_NE(a.toString(t.variables()), "data=0x0000");
  }
}

TEST(Miner, VarVarOnlyForControlLikePairs) {
  trace::VariableSet vars;
  vars.add("a", 4, trace::VarKind::Input);
  vars.add("b", 4, trace::VarKind::Input);
  vars.add("x", 16, trace::VarKind::Input);
  vars.add("y", 16, trace::VarKind::Output);
  trace::FunctionalTrace t(vars);
  common::Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const unsigned a = i < 150 ? 3 : 1;
    const unsigned b = 2;
    t.append({BitVector(4, a), BitVector(4, b),
              BitVector(16, rng.next() & 0xFFFF),
              BitVector(16, rng.next() & 0xFFFF)});
  }
  AssertionMiner miner;
  const auto atoms = miner.mine({&t}).domain.atoms();
  bool saw_ab = false;
  for (const auto& a : atoms) {
    const std::string n = a.toString(vars);
    if (n == "a>b") saw_ab = true;
    EXPECT_NE(n, "x=y");
    EXPECT_NE(n, "x>y");
  }
  EXPECT_TRUE(saw_ab);
}

/// Two traces of one 8-bit bus that holds 0x00, 0x11, ..., 0x77 for runs
/// of 60, 50, 45, 40, 35, 30, 25 and 20 rows, the first four values on the
/// first trace: as many distinct values as a control-like variable may
/// take. `ninth_value` puts a ninth value on the last row of the last
/// trace instead.
std::vector<trace::FunctionalTrace> busTraces(bool ninth_value) {
  trace::VariableSet vars;
  vars.add("bus", 8, trace::VarKind::Input);
  std::vector<trace::FunctionalTrace> traces(2, trace::FunctionalTrace(vars));
  const std::size_t runs[] = {60, 50, 45, 40, 35, 30, 25, 20};
  for (unsigned k = 0; k < 8; ++k) {
    for (std::size_t i = 0; i < runs[k]; ++i) {
      traces[k / 4].append({BitVector(8, 0x11 * k)});
    }
  }
  if (ninth_value) {
    trace::FunctionalTrace& last = traces.back();
    last = last.subtrace(0, last.length() - 1);
    last.append({BitVector(8, 0x88)});
  }
  return traces;
}

std::vector<std::string> atomNames(
    const std::vector<trace::FunctionalTrace>& traces) {
  AssertionMiner miner;
  std::vector<std::string> names;
  const MinedRows mined = miner.mine({&traces[0], &traces[1]});
  for (const auto& a : mined.domain.atoms()) {
    names.push_back(a.toString(traces[0].variables()));
  }
  return names;
}

TEST(Miner, WideVariableAtTheDistinctBoundMinesItsConstants) {
  ASSERT_EQ(MinerConfig{}.max_distinct_for_constants, 8u);
  // The four most frequent values (0x00 among them, so no extra zero atom).
  EXPECT_EQ(atomNames(busTraces(false)),
            (std::vector<std::string>{"bus=0x00", "bus=0x11", "bus=0x22",
                                      "bus=0x33"}));
}

TEST(Miner, OneMoreDistinctValueLeavesOnlyTheZeroAtom) {
  // The ninth value arrives on the very last row the miner reads.
  EXPECT_EQ(atomNames(busTraces(true)),
            (std::vector<std::string>{"bus=0x00"}));
}

TEST(Miner, RejectsBadInputs) {
  AssertionMiner miner;
  EXPECT_THROW(miner.mine({}), std::invalid_argument);
  trace::FunctionalTrace empty(vars3());
  EXPECT_THROW(miner.mine({&empty}), std::invalid_argument);
  trace::FunctionalTrace a(vars3());
  row(a, true, 1, 2);
  trace::FunctionalTrace b{trace::VariableSet{}};
  EXPECT_THROW(miner.mine({&a, &b}), std::invalid_argument);
}

// --- The walk over the training rows ---------------------------------------

/// 40 one-bit variables, six 3-bit control variables, a 16-bit data bus and
/// a 130-bit one (stored on the heap); inputs and outputs mixed.
trace::VariableSet walkVars() {
  trace::VariableSet vars;
  const auto name = [](char prefix, int i) {
    std::string out(1, prefix);
    return out += std::to_string(i);
  };
  for (int i = 0; i < 40; ++i) {
    vars.add(name('b', i), 1,
             i % 3 == 2 ? trace::VarKind::Output : trace::VarKind::Input);
  }
  for (int j = 0; j < 6; ++j) {
    vars.add(name('m', j), 3,
             j % 2 == 1 ? trace::VarKind::Output : trace::VarKind::Input);
  }
  vars.add("data", 16, trace::VarKind::Input);
  vars.add("wide", 130, trace::VarKind::Output);
  return vars;
}

struct WalkPair {
  trace::FunctionalTrace functional;
  trace::PowerTrace power;
};

/// A random training pair of `rows` rows over walkVars(). A hidden mode, one
/// of 12, sets every bit and control value (the same way in every trace)
/// and zeroes the data bus in every third mode and the wide bus in every
/// fourth; the buses carry random data otherwise. A mode holds for a single
/// row one time in four and for 2 to 40 rows otherwise, so runs of every
/// length, single rows included, cross the chunk boundaries. With `noise`,
/// b36..b39 also flip on their own, each on one row in three.
WalkPair walkPair(std::size_t rows, std::uint64_t seed, bool noise) {
  common::Rng modes(99);
  std::vector<std::uint64_t> masks(12);
  std::vector<std::array<unsigned, 6>> controls(12);
  for (std::size_t m = 0; m < 12; ++m) {
    masks[m] = modes.next();
    for (unsigned& c : controls[m]) c = static_cast<unsigned>(modes.uniform(8));
  }
  common::Rng rng(seed);
  WalkPair out{trace::FunctionalTrace(walkVars()), trace::PowerTrace()};
  std::uint64_t flips = 0;
  std::size_t mode = 0;
  std::size_t left = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (left == 0) {
      mode = rng.uniform(12);
      left = rng.chance(0.25) ? 1 : rng.range(2, 40);
    }
    --left;
    if (noise) {
      for (unsigned i = 36; i < 40; ++i) {
        if (rng.chance(1.0 / 3)) flips ^= std::uint64_t{1} << i;
      }
    }
    std::vector<BitVector> row;
    for (unsigned i = 0; i < 40; ++i) {
      row.emplace_back(1, ((masks[mode] ^ flips) >> i) & 1);
    }
    for (const unsigned c : controls[mode]) row.emplace_back(3, c);
    row.push_back(mode % 3 == 0 ? BitVector(16) : rng.bits(16));
    row.push_back(mode % 4 == 1 ? BitVector(130) : rng.bits(130));
    out.functional.append(std::move(row));
    out.power.append(1.0 + 0.1 * static_cast<double>(mode));
  }
  return out;
}

/// One atom's statistics as a scan of every row counts them: toggles
/// restart per trace, and a run closes where the truth changes or its
/// trace ends.
AtomStats scanAtom(const AtomicProposition& atom,
                   const std::vector<const trace::FunctionalTrace*>& traces) {
  AtomStats s;
  const auto close = [&s](bool truth, std::size_t length) {
    ++s.runs[truth];
    if (length == 1) ++s.singleton_runs[truth];
  };
  std::vector<BitVector> row;
  for (const trace::FunctionalTrace* t : traces) {
    bool prev = false;
    std::size_t length = 0;
    for (std::size_t i = 0; i < t->length(); ++i) {
      t->readRow(i, row);
      const bool truth = atom.eval(row);
      s.hold += truth;
      if (i > 0 && truth != prev) {
        ++s.toggles;
        close(prev, length);
        length = 0;
      }
      ++length;
      prev = truth;
    }
    close(prev, length);
  }
  return s;
}

/// Row r's Hamming distances to row r - 1, summed variable by variable
/// over the values, apart from the trace's own distance methods.
RowDistances distancesByValue(const trace::FunctionalTrace& t,
                              std::size_t r) {
  RowDistances d;
  if (r == 0) return d;
  for (std::size_t v = 0; v < t.variables().size(); ++v) {
    const int id = static_cast<int>(v);
    const unsigned hd =
        BitVector::hammingDistance(t.value(r, id), t.value(r - 1, id));
    d.interface += hd;
    if (t.variables()[v].kind == trace::VarKind::Input) d.inputs += hd;
  }
  return d;
}

/// The candidates that the miner's filters keep, by scanAtom's counts.
std::vector<AtomicProposition> keptByScan(
    const std::vector<AtomicProposition>& candidates,
    const std::vector<const trace::FunctionalTrace*>& traces,
    const MinerConfig& cfg) {
  std::size_t total = 0;
  for (const trace::FunctionalTrace* t : traces) total += t->length();
  const trace::VariableSet& vars = traces.front()->variables();
  std::vector<AtomicProposition> kept;
  for (const AtomicProposition& atom : candidates) {
    const AtomStats s = scanAtom(atom, traces);
    if (s.hold == 0 || s.hold == total) continue;
    if (static_cast<double>(s.toggles) / static_cast<double>(total) >
        cfg.max_toggle_rate) {
      continue;
    }
    bool spiky = false;
    if (vars[static_cast<std::size_t>(atom.lhs)].width > 1) {
      for (const bool truth : {false, true}) {
        spiky = spiky || (s.runs[truth] > 0 &&
                          static_cast<double>(s.singleton_runs[truth]) /
                                  static_cast<double>(s.runs[truth]) >
                              cfg.max_singleton_run_fraction);
      }
    }
    if (!spiky) kept.push_back(atom);
  }
  return kept;
}

std::string show(const AtomStats& s) {
  std::ostringstream out;
  out << "hold " << s.hold << ", toggles " << s.toggles << ", runs "
      << s.runs[0] << "/" << s.runs[1] << ", singletons "
      << s.singleton_runs[0] << "/" << s.singleton_runs[1];
  return out.str();
}

/// Keeps every candidate that is not constant.
MinerConfig permissiveConfig() {
  MinerConfig cfg;
  cfg.max_toggle_rate = 1.0;
  cfg.max_singleton_run_fraction = 1.0;
  return cfg;
}

TEST(MinerWalk, CountsTruthsAndDistancesAsARowByRowScan) {
  // Trace lengths around the 2048-row chunk, alone and together.
  const std::vector<std::vector<std::size_t>> sets = {
      {1}, {2047}, {2048}, {2049}, {5000}, {1, 2047, 2048, 2049, 5000}};
  common::ThreadPool pool(4);
  std::uint64_t seed = 1;
  for (const std::vector<std::size_t>& lengths : sets) {
    std::vector<trace::FunctionalTrace> traces;
    for (const std::size_t n : lengths) {
      traces.push_back(walkPair(n, seed++, true).functional);
    }
    std::vector<const trace::FunctionalTrace*> views;
    for (const trace::FunctionalTrace& t : traces) views.push_back(&t);
    for (const MinerConfig& cfg : {MinerConfig{}, permissiveConfig()}) {
      for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                    &pool}) {
        const std::string where =
            std::to_string(lengths.size()) + " traces, first of " +
            std::to_string(lengths.front()) + " rows, " +
            (p == nullptr ? "1 thread" : "4 threads") +
            (cfg.max_toggle_rate == 1.0 ? ", permissive" : ", default");
        const MinedRows mined = AssertionMiner(cfg).mine(views, p);
        ASSERT_GT(mined.candidates.size(), 64u) << where;
        ASSERT_EQ(mined.stats.size(), mined.candidates.size()) << where;
        for (std::size_t a = 0; a < mined.candidates.size(); ++a) {
          const AtomStats expected = scanAtom(mined.candidates[a], views);
          EXPECT_TRUE(mined.stats[a] == expected)
              << where << ", " << mined.candidates[a].toString(walkVars())
              << ": " << show(mined.stats[a]) << ", expected "
              << show(expected);
        }
        EXPECT_EQ(mined.domain.atoms(),
                  keptByScan(mined.candidates, views, cfg))
            << where;

        // The PropIds of interning row by row, trace by trace.
        PropositionDomain reference(walkVars(), mined.domain.atoms());
        std::size_t wrong_distances = 0;
        ASSERT_EQ(mined.propositions.size(), traces.size()) << where;
        for (std::size_t i = 0; i < traces.size(); ++i) {
          const trace::FunctionalTrace& t = traces[i];
          EXPECT_EQ(mined.propositions[i].ids,
                    AssertionMiner::tracePropositions(reference, t).ids)
              << where << ", trace " << i;
          ASSERT_EQ(mined.distances[i].size(), t.length()) << where;
          for (std::size_t r = 0; r < t.length(); ++r) {
            wrong_distances +=
                !(mined.distances[i][r] == distancesByValue(t, r));
          }
        }
        EXPECT_TRUE(mined.domain == reference) << where;
        EXPECT_EQ(wrong_distances, 0u) << where;
      }
    }
  }
}

TEST(MinerWalk, FlowInternsAsRowByRowInTraceOrder) {
  std::vector<WalkPair> pairs;
  std::uint64_t seed = 20;
  for (const std::size_t n : {1u, 2047u, 2048u, 2049u, 5000u}) {
    pairs.push_back(walkPair(n, seed++, false));
  }
  std::vector<const trace::FunctionalTrace*> views;
  for (const WalkPair& pair : pairs) views.push_back(&pair.functional);
  PropositionDomain reference(
      views.front()->variables(),
      AssertionMiner(permissiveConfig()).mine(views).domain.atoms());
  std::vector<PropositionTrace> gammas;
  for (const WalkPair& pair : pairs) {
    gammas.push_back(
        AssertionMiner::tracePropositions(reference, pair.functional));
  }
  ASSERT_GT(reference.atoms().size(), 64u);  // two-limb signatures
  ASSERT_GT(reference.size(), 1u);
  common::ThreadPool pool(4);
  for (common::ThreadPool* p :
       {static_cast<common::ThreadPool*>(nullptr), &pool}) {
    const char* where = p == nullptr ? "1 thread" : "4 threads";
    const MinedRows mined = AssertionMiner(permissiveConfig()).mine(views, p);
    EXPECT_TRUE(mined.domain == reference) << where;
    ASSERT_EQ(mined.propositions.size(), pairs.size()) << where;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(mined.propositions[i].ids, gammas[i].ids)
          << where << ", trace " << i;
    }
  }
  for (const unsigned threads : {1u, 4u}) {
    FlowConfig cfg;
    cfg.miner = permissiveConfig();
    cfg.num_threads = threads;
    CharacterizationFlow flow(cfg);
    for (const WalkPair& pair : pairs) {
      flow.addTrainingTrace(pair.functional, pair.power);
    }
    flow.build();
    EXPECT_TRUE(flow.domain() == reference) << threads << " threads";
  }
}

TEST(Domain, InterningIsStable) {
  trace::FunctionalTrace t(vars3());
  for (int i = 0; i < 20; ++i) row(t, i % 8 < 4, 1, 0);
  MinerConfig cfg;
  cfg.max_toggle_rate = 1.0;
  AssertionMiner miner(cfg);
  PropositionDomain domain(t.variables(), miner.mine({&t}).domain.atoms());
  const PropId p0 = domain.internRow(t.step(0));
  const PropId p0_again = domain.internRow(t.step(0));
  EXPECT_EQ(p0, p0_again);
  const PropId p2 = domain.internRow(t.step(4));  // en differs
  EXPECT_NE(p0, p2);
  EXPECT_EQ(domain.find(domain.evalRow(t.step(0))), p0);
}

TEST(Domain, FindDoesNotIntern) {
  trace::FunctionalTrace t(vars3());
  row(t, true, 1, 0);
  row(t, false, 2, 0);
  MinerConfig cfg;
  cfg.max_toggle_rate = 1.0;
  cfg.max_singleton_run_fraction = 1.0;
  AssertionMiner miner(cfg);
  PropositionDomain domain(t.variables(), miner.mine({&t}).domain.atoms());
  EXPECT_EQ(domain.find(domain.evalRow(t.step(0))), kNoProp);
  EXPECT_EQ(domain.size(), 0u);
  domain.internRow(t.step(0));
  EXPECT_EQ(domain.size(), 1u);
  EXPECT_EQ(domain.find(domain.evalRow(t.step(1))), kNoProp);
}

TEST(Domain, ExactlyOnePropositionPerInstant) {
  // The AND-composition guarantees a partition: two instants map to the
  // same proposition iff all atoms agree.
  trace::FunctionalTrace t(vars3());
  common::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    row(t, rng.chance(0.5), rng.chance(0.5) ? 1 : 2,
        static_cast<unsigned>(rng.next() & 0xFFFF));
  }
  MinerConfig cfg;
  cfg.max_toggle_rate = 1.0;
  cfg.max_singleton_run_fraction = 1.0;
  AssertionMiner miner(cfg);
  PropositionDomain domain(t.variables(), miner.mine({&t}).domain.atoms());
  const PropositionTrace gamma = AssertionMiner::tracePropositions(domain, t);
  ASSERT_EQ(gamma.length(), t.length());
  for (std::size_t i = 0; i < t.length(); ++i) {
    for (std::size_t j = i + 1; j < t.length(); ++j) {
      bool atoms_agree = true;
      for (const auto& a : domain.atoms()) {
        if (a.eval(t.step(i)) != a.eval(t.step(j))) {
          atoms_agree = false;
          break;
        }
      }
      EXPECT_EQ(gamma.at(i) == gamma.at(j), atoms_agree)
          << "instants " << i << "," << j;
    }
  }
}

/// The signature whose bit i is truths[i].
BitVector signatureOf(const std::vector<bool>& truths) {
  BitVector sig(static_cast<unsigned>(truths.size()));
  for (std::size_t i = 0; i < truths.size(); ++i) {
    sig.setBit(static_cast<unsigned>(i), truths[i]);
  }
  return sig;
}

TEST(Domain, SignatureIndexAgreesWithAMapAcrossGrowth) {
  // 70 atoms: two limbs per signature, inside the BitVector; 200 atoms:
  // four limbs, on the heap. The index starts at 16 slots and doubles past
  // half full, so 3000 signatures cross eight growths.
  for (const std::size_t atom_count : {70u, 200u}) {
    SCOPED_TRACE(std::to_string(atom_count) + " atoms");
    std::vector<AtomicProposition> atoms(atom_count);
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      atoms[i].lhs = 2;
      atoms[i].rhs_const = BitVector(16, i);
    }
    PropositionDomain domain(vars3(), atoms);
    std::map<std::vector<bool>, PropId> reference;
    common::Rng rng(11);
    const auto randomTruths = [&] {
      std::vector<bool> truths(atoms.size());
      for (std::size_t i = 0; i < truths.size(); ++i) {
        truths[i] = rng.chance(0.5);
      }
      return truths;
    };
    std::vector<std::vector<bool>> seen;
    for (int n = 0; n < 4000; ++n) {
      // One draw in four repeats an earlier signature.
      const std::vector<bool> truths =
          !seen.empty() && rng.chance(0.25) ? seen[rng.uniform(seen.size())]
                                            : randomTruths();
      const auto [it, fresh] = reference.emplace(
          truths, static_cast<PropId>(reference.size()));
      if (fresh) seen.push_back(truths);
      ASSERT_EQ(domain.intern(signatureOf(truths)), it->second)
          << "draw " << n;
      ASSERT_EQ(domain.size(), reference.size());
    }
    ASSERT_GT(reference.size(), 2048u);
    for (const auto& [truths, id] : reference) {
      EXPECT_EQ(domain.find(signatureOf(truths)), id);
      EXPECT_TRUE(domain.signature(id) == signatureOf(truths));
    }
    for (int n = 0; n < 1000; ++n) {
      const std::vector<bool> truths = randomTruths();
      const auto it = reference.find(truths);
      EXPECT_EQ(domain.find(signatureOf(truths)),
                it == reference.end() ? kNoProp : it->second);
    }

    // A serialize round trip re-interns every signature in id order.
    Psm psm;
    PowerState s;
    s.assertion.alts = {{{0, 1, true}}};
    psm.addState(std::move(s));
    std::stringstream bytes;
    serialize::writePsmModel(bytes, psm, domain);
    const serialize::PsmModel loaded = serialize::readPsmModel(bytes);
    EXPECT_TRUE(loaded.domain == domain);
    EXPECT_EQ(loaded.domain.find(domain.signature(1234)), 1234);
  }
}

TEST(Domain, DescribeListsTrueAtoms) {
  trace::FunctionalTrace t(vars3());
  row(t, true, 1, 0);
  row(t, false, 2, 5);
  MinerConfig cfg;
  cfg.max_toggle_rate = 1.0;
  cfg.max_singleton_run_fraction = 1.0;
  AssertionMiner miner(cfg);
  PropositionDomain domain(t.variables(), miner.mine({&t}).domain.atoms());
  const PropId p = domain.internRow(t.step(0));
  const std::string desc = domain.describe(p);
  EXPECT_NE(desc.find("en=1"), std::string::npos);
  EXPECT_EQ(domain.describe(kNoProp), "<unknown>");
  EXPECT_EQ(domain.shortName(p), "p0");
}

}  // namespace
}  // namespace psmgen::core
