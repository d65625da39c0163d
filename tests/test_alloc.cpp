// Allocation counts of BitVector storage, of the batch CSV loader, of the
// streaming CSV reader, of a trace's input Hamming distance, of the
// characterization build, of the readers of a loaded trace, and of the
// predictor's per-row step.
//
// This executable replaces the global operator new and delete, array
// forms included, with counting versions that forward to std::malloc and
// std::free, so that the sanitizers, which intercept malloc and free,
// still see every block. The sanitizer runtimes define their own array
// forms, which would bypass the count if they were not replaced too.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "core/flow.hpp"
#include "core/psm_simulator.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/streaming_reader.hpp"
#include "trace/functional_trace.hpp"
#include "trace/trace_io.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* allocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line: where GCC inlines an operator delete into a caller that
// also holds the operator new call, it would see free() take a pointer
// from operator new and warn of a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void deallocate(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void operator delete(void* p) noexcept { deallocate(p); }
void operator delete(void* p, std::size_t) noexcept { deallocate(p); }
void operator delete[](void* p) noexcept { deallocate(p); }
void operator delete[](void* p, std::size_t) noexcept { deallocate(p); }

namespace psmgen {
namespace {

using common::BitVector;

template <typename F>
std::size_t allocationsDuring(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(Allocations, CopyingUpTo128BitsAllocatesNothing) {
  const BitVector narrow = BitVector::ones(128);
  const BitVector wide = BitVector::ones(129);
  for (int pass = 0; pass < 2; ++pass) {
    std::optional<BitVector> copy;
    EXPECT_EQ(allocationsDuring([&] { copy.emplace(narrow); }), 0u);
    EXPECT_EQ(*copy, narrow);
    copy.reset();
    EXPECT_EQ(allocationsDuring([&] { copy.emplace(wide); }), 1u);
    EXPECT_EQ(*copy, wide);
    // Assignment keeps a heap block whose limb count does not change.
    BitVector other = BitVector(129, 5);
    EXPECT_EQ(allocationsDuring([&] { *copy = other; }), 0u);
    EXPECT_EQ(*copy, other);
  }
}

TEST(Allocations, AssignHexReusesAHeapBlockOfTheSameLimbCount) {
  BitVector v(262);
  // Widths 257-320 all take five limbs; 321 takes six; 128 is inline.
  for (const auto& [width, allocations] :
       {std::pair{262u, 0u}, {257u, 0u}, {320u, 0u}, {321u, 1u}, {128u, 0u}}) {
    const std::string hex = BitVector::ones(width).toHex();
    EXPECT_EQ(allocationsDuring([&] { v.assignHex(hex, width); }),
              allocations)
        << "width " << width;
    EXPECT_EQ(v, BitVector::ones(width));
  }
}

/// A functional-trace CSV of `rows` rows whose columns are 1, 8, 64 and
/// 128 bits wide: all of them inline.
std::string inlineCsv(std::size_t rows) {
  const unsigned widths[] = {1, 8, 64, 128};
  std::string csv = trace::functionalTraceHeader() +
                    "\nen:in:1,op:in:8,a:in:64,key:in:128\n";
  common::Rng rng(7);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      if (c > 0) csv += ',';
      csv += rng.bits(widths[c]).toHex();
    }
    csv += '\n';
  }
  return csv;
}

std::size_t loadAllocations(const std::string& csv) {
  std::istringstream is(csv);
  std::optional<trace::FunctionalTrace> trace;
  return allocationsDuring(
      [&] { trace.emplace(trace::readFunctionalTrace(is)); });
}

TEST(Allocations, BatchLoaderAllocatesLogarithmicallyInRows) {
  // The header alone fixes the constant part: the variable set, the limb
  // offsets and the line buffer. The rows then cost one reused row and the
  // growth of the trace's limb array, a logarithmic number of blocks.
  const std::size_t header = loadAllocations(inlineCsv(0));
  for (const std::size_t rows : {1000u, 4000u, 40000u}) {
    const std::string csv = inlineCsv(rows);
    const std::size_t n = loadAllocations(csv);
    EXPECT_EQ(loadAllocations(csv), n) << "counts must repeat exactly";
    EXPECT_GE(n, header);
    EXPECT_LE(n, header + 2 * std::bit_width(rows))
        << rows << " rows, " << header << " for the header alone";
  }
}

TEST(Allocations, StreamingReaderAllocatesNothingOnceWarm) {
  // About 1 MB: many 64 KiB blocks, each read into the same buffer.
  const std::string csv = inlineCsv(20000);
  std::istringstream is(csv);
  runtime::StreamingTraceReader reader(is);
  // The first row sizes the caller's row, one value per variable; every
  // later row decodes in place into those values.
  std::vector<BitVector> row;
  ASSERT_TRUE(reader.next(row));
  std::size_t rows = 1;
  EXPECT_EQ(allocationsDuring([&] {
              while (reader.next(row)) ++rows;
            }),
            0u);
  EXPECT_EQ(rows, 20000u);
}

TEST(Allocations, InputHammingDistanceAllocatesNothing) {
  // Inputs of 1, 8 and 129 bits (the last on the heap) around an output
  // that the input distance must skip.
  trace::VariableSet vars;
  vars.add("en", 1, trace::VarKind::Input);
  vars.add("op", 8, trace::VarKind::Input);
  vars.add("out", 8, trace::VarKind::Output);
  vars.add("key", 129, trace::VarKind::Input);
  trace::FunctionalTrace t(vars);
  common::Rng rng(3);
  for (int r = 0; r < 64; ++r) {
    t.append({rng.bits(1), rng.bits(8), rng.bits(8), rng.bits(129)});
  }
  std::vector<unsigned> hd(t.length());
  EXPECT_EQ(allocationsDuring([&] {
              for (std::size_t r = 0; r < t.length(); ++r) {
                hd[r] = t.inputHammingDistance(r);
              }
            }),
            0u);
  EXPECT_EQ(hd[0], 0u);
  for (std::size_t r = 1; r < t.length(); ++r) {
    unsigned expected = 0;
    for (const int v : {0, 1, 3}) {
      expected += BitVector::hammingDistance(t.value(r, v), t.value(r - 1, v));
    }
    EXPECT_EQ(hd[r], expected) << "row " << r;
  }
}

/// A training pair whose 2-bit input "mode" steps through 0, 1, 2, 3 in 16
/// stretches of rows / 16 rows, beside a random 8-bit input: the pair
/// yields 16 raw states whatever its length.
/// Power is 1 + mode, plus 0.5 per changed data bit in mode 3, whose
/// state the refinement fits.
std::pair<trace::FunctionalTrace, trace::PowerTrace> stretchPair(
    std::size_t rows) {
  trace::VariableSet vars;
  vars.add("mode", 2, trace::VarKind::Input);
  vars.add("data", 8, trace::VarKind::Input);
  vars.add("busy", 1, trace::VarKind::Output);
  std::pair<trace::FunctionalTrace, trace::PowerTrace> pair{
      trace::FunctionalTrace(vars), trace::PowerTrace()};
  common::Rng rng(5);
  BitVector prev(8);
  for (std::size_t r = 0; r < rows; ++r) {
    const unsigned mode = static_cast<unsigned>(r / (rows / 16) % 4);
    BitVector data = rng.bits(8);
    const unsigned hd = BitVector::hammingDistance(data, prev);
    prev = data;
    pair.first.append({BitVector(2, mode), std::move(data),
                       BitVector(1, mode != 0)});
    pair.second.append(1.0 + mode + (mode == 3 ? 0.5 * hd : 0.0));
  }
  return pair;
}

TEST(Allocations, BuildAllocatesNoBlockPerRow) {
  // Ten times the rows in the same stretches: the build's extra blocks are
  // per 2048-row chunk, never per row.
  const auto buildAllocations = [](std::size_t rows) {
    core::CharacterizationFlow flow;
    auto [functional, power] = stretchPair(rows);
    flow.addTrainingTrace(std::move(functional), std::move(power));
    core::BuildReport report;
    const std::size_t n = allocationsDuring([&] { report = flow.build(); });
    EXPECT_EQ(report.raw_states, 16u) << rows << " rows";
    EXPECT_EQ(report.refined_states, 1u) << rows << " rows";
    return n;
  };
  const std::size_t small = buildAllocations(4096);
  const std::size_t large = buildAllocations(40960);
  EXPECT_GE(large, small);
  EXPECT_LT(large - small, (40960 - 4096) / 64)
      << small << " blocks for 4096 rows, " << large << " for 40960";
}

/// The rows of stretchPair(rows), with a 129-bit input "key" that holds
/// one value throughout, written to CSV and loaded back: every row keeps a
/// value that a BitVector stores on the heap.
std::pair<trace::FunctionalTrace, trace::PowerTrace> keyedPair(
    std::size_t rows) {
  auto [functional, power] = stretchPair(rows);
  trace::VariableSet vars = functional.variables();
  vars.add("key", 129, trace::VarKind::Input);
  trace::FunctionalTrace keyed(vars);
  const BitVector key = BitVector::ones(129);
  for (std::size_t t = 0; t < functional.length(); ++t) {
    std::vector<BitVector> row = functional.step(t);
    row.push_back(key);
    keyed.append(row);
  }
  std::stringstream csv;
  trace::writeFunctionalTrace(csv, keyed);
  return {trace::readFunctionalTrace(csv), std::move(power)};
}

TEST(Allocations, TraceReadersAllocateNoBlockPerRow) {
  core::CharacterizationFlow flow;
  {
    auto [functional, power] = keyedPair(4096);
    flow.addTrainingTrace(std::move(functional), std::move(power));
  }
  EXPECT_EQ(flow.build().raw_states, 16u);
  const trace::FunctionalTrace small = keyedPair(4096).first;
  const trace::FunctionalTrace large = keyedPair(40960).first;

  // Once a row holds the trace's widths, refilling it only copies limbs.
  std::vector<BitVector> row;
  large.readRow(0, row);
  EXPECT_EQ(allocationsDuring([&] {
              for (std::size_t t = 0; t < large.length(); ++t) {
                large.readRow(t, row);
              }
            }),
            0u);
  EXPECT_EQ(row, large.step(large.length() - 1));

  // Ten times the rows in the same stretches: the blocks of a simulation
  // or a prediction are per call, never per row. One call first warms the
  // metric registry.
  const core::PsmSimulator sim(flow.psm(), flow.domain());
  runtime::OnlinePredictor predictor(flow.psm(), flow.domain());
  sim.simulate(small);
  predictor.predictTrace(small);
  const auto perCall = [&](auto&& run) {
    const std::size_t few = allocationsDuring([&] { run(small); });
    const std::size_t many = allocationsDuring([&] { run(large); });
    EXPECT_GE(many, few);
    EXPECT_LT(many - few, (large.length() - small.length()) / 64)
        << few << " blocks for " << small.length() << " rows, " << many
        << " for " << large.length();
  };
  perCall([&](const trace::FunctionalTrace& t) {
    EXPECT_EQ(sim.simulate(t).lost_instants, 0u);
  });
  perCall([&](const trace::FunctionalTrace& t) {
    EXPECT_EQ(predictor.predictTrace(t).size(), t.length());
  });
}

/// One 2-bit input "m" with one Eq atom per value: PropId k <=> m == k.
core::PropositionDomain modeDomain() {
  trace::VariableSet vars;
  vars.add("m", 2, trace::VarKind::Input);
  std::vector<core::AtomicProposition> atoms(4);
  for (unsigned k = 0; k < 4; ++k) {
    atoms[k].lhs = 0;
    atoms[k].rhs_const = BitVector(2, k);
  }
  core::PropositionDomain domain(vars, std::move(atoms));
  for (unsigned k = 0; k < 4; ++k) domain.internRow({BitVector(2, k)});
  return domain;
}

TEST(Allocations, SessionStepsWithoutAllocatingOnceWarm) {
  // State 0 reads a p0 run two ways: leave on its first row (alternative
  // 0), or absorb it and leave on p2 (alternative 1). The session keeps
  // the second and checkpoints the exit of the first; p3 then kills the
  // second, and the replay takes the checkpointed exit through state 1
  // into state 2, which p1 leaves for state 0 again. So each cycle stays,
  // exits, and takes a checkpointed exit.
  const core::PropositionDomain domain = modeDomain();
  core::Psm psm;
  core::PowerState s0;
  s0.assertion.alts = {{{1, 0, true}}, {{1, 0, true}, {0, 2, true}}};
  s0.power = core::PowerAttr::single(2.0, 0.1, 10);
  s0.initial_count = 1;
  core::PowerState s1;
  s1.assertion.alts = {{{0, 3, true}}};
  s1.power = core::PowerAttr::single(1.0, 0.1, 10);
  core::PowerState s2;
  s2.assertion.alts = {{{3, 1, true}}};
  s2.power = core::PowerAttr::single(7.0, 0.1, 10);
  s2.regression = stats::LinearFit{7.0, 0.5, 0.9, 0.8, 10};
  psm.addState(std::move(s0));
  psm.addState(std::move(s1));
  psm.addState(std::move(s2));
  psm.addInitial(0);
  psm.addTransition({0, 1, 0, 1});
  psm.addTransition({1, 2, 3, 1});
  psm.addTransition({2, 0, 1, 1});
  const core::PsmSimulator sim(psm, domain);
  auto session = sim.startSession();

  std::vector<std::vector<BitVector>> rows;
  for (unsigned m = 0; m < 4; ++m) rows.push_back({BitVector(2, m)});
  bool replayed = true;
  const auto cycle = [&] {
    for (const unsigned m : {1, 1, 1, 0, 0, 0, 0, 0}) session.step(rows[m]);
    session.step(rows[3]);
    replayed = replayed && session.currentState() == 2;
    for (const unsigned m : {3, 3, 3}) session.step(rows[m]);
  };
  for (int warm = 0; warm < 3; ++warm) cycle();
  EXPECT_EQ(allocationsDuring([&] {
              for (int n = 0; n < 20; ++n) cycle();
            }),
            0u);
  EXPECT_TRUE(replayed);
  EXPECT_EQ(session.counts().rows, 23u * 12u);
  EXPECT_EQ(session.counts().unexpected_behaviours, 0u);
  EXPECT_EQ(session.counts().lost_instants, 0u);
}

TEST(Allocations, SessionOverA130AtomDomainStepsWithoutAllocatingOnceWarm) {
  // One atom per value 0..129 of an 8-bit input "m": a row's signature
  // takes three limbs, which a BitVector keeps on the heap and evalRow
  // refills in place. State 0 holds p0 until p1, state 1 p1 until p0.
  trace::VariableSet vars;
  vars.add("m", 8, trace::VarKind::Input);
  std::vector<core::AtomicProposition> atoms(130);
  for (unsigned k = 0; k < atoms.size(); ++k) {
    atoms[k].lhs = 0;
    atoms[k].rhs_const = BitVector(8, k);
  }
  core::PropositionDomain domain(vars, std::move(atoms));
  const std::vector<std::vector<BitVector>> rows = {{BitVector(8, 0)},
                                                    {BitVector(8, 129)}};
  const core::PropId p0 = domain.internRow(rows[0]);
  const core::PropId p1 = domain.internRow(rows[1]);
  ASSERT_EQ(domain.signature(p1).limbCount(), 3u);
  core::Psm psm;
  for (const auto& [p, q, watts] : {std::tuple{p0, p1, 2.0}, {p1, p0, 5.0}}) {
    core::PowerState s;
    s.assertion.alts = {{{p, q, true}}};
    s.power = core::PowerAttr::single(watts, 0.1, 10);
    psm.addState(std::move(s));
  }
  psm.state(0).initial_count = 1;
  psm.addInitial(0);
  psm.addTransition({0, 1, p1, 1});
  psm.addTransition({1, 0, p0, 1});
  const core::PsmSimulator sim(psm, domain);
  auto session = sim.startSession();

  const auto cycle = [&] {
    for (const std::size_t r : {0, 0, 0, 1, 1, 1}) session.step(rows[r]);
  };
  for (int warm = 0; warm < 3; ++warm) cycle();
  EXPECT_EQ(allocationsDuring([&] {
              for (int n = 0; n < 20; ++n) cycle();
            }),
            0u);
  EXPECT_EQ(session.counts().rows, 23u * 6u);
  EXPECT_EQ(session.counts().unexpected_behaviours, 0u);
  EXPECT_EQ(session.counts().lost_instants, 0u);
}

}  // namespace
}  // namespace psmgen
