#include "rtl/simulator.hpp"

namespace psmgen::rtl {

trace::VariableSet traceVariables(const Device& device) {
  trace::VariableSet vars;
  for (const auto& p : device.inputPorts()) {
    vars.add(p.name, p.width, trace::VarKind::Input);
  }
  for (const auto& p : device.outputPorts()) {
    vars.add(p.name, p.width, trace::VarKind::Output);
  }
  return vars;
}

trace::FunctionalTrace Simulator::run(Stimulus& stimulus, std::size_t cycles,
                                      const Observer& observer) {
  trace::FunctionalTrace trace(traceVariables(device_));
  device_.reset();
  stimulus.restart();
  PortValues out;
  std::vector<common::BitVector> row;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    const PortValues in = stimulus.next(cycle);
    device_.tick(in, out);
    row.assign(in.begin(), in.end());
    row.insert(row.end(), out.begin(), out.end());
    trace.append(row);
    if (observer) observer(cycle, in, out);
  }
  return trace;
}

void Simulator::runSilent(Stimulus& stimulus, std::size_t cycles,
                          const Observer& observer) {
  device_.reset();
  stimulus.restart();
  PortValues out;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    const PortValues in = stimulus.next(cycle);
    device_.tick(in, out);
    if (observer) observer(cycle, in, out);
  }
}

}  // namespace psmgen::rtl
