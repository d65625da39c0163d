#include "trace/vcd_writer.hpp"

#include <fstream>
#include <stdexcept>
#include <vector>

namespace psmgen::trace {

namespace {
// VCD identifier codes: printable ASCII 33..126, shortest-first.
std::string idCode(std::size_t index) {
  std::string code;
  do {
    code.push_back(static_cast<char>(33 + index % 94));
    index /= 94;
  } while (index != 0);
  return code;
}

void emitValue(std::ostream& os, const common::BitVector& v,
               const std::string& code) {
  if (v.width() == 1) {
    os << (v.bit(0) ? '1' : '0') << code << "\n";
  } else {
    os << 'b' << v.toBinary() << ' ' << code << "\n";
  }
}
}  // namespace

void writeVcd(std::ostream& os, const FunctionalTrace& trace,
              const std::string& top, const std::string& timescale) {
  const auto& vars = trace.variables();
  os << "$date psmgen $end\n";
  os << "$version psmgen vcd_writer $end\n";
  os << "$timescale " << timescale << " $end\n";
  os << "$scope module " << top << " $end\n";
  std::vector<std::string> codes;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    codes.push_back(idCode(i));
    os << "$var wire " << vars[i].width << ' ' << codes.back() << ' '
       << vars[i].name << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";
  std::vector<common::BitVector> row;
  std::vector<common::BitVector> prev;
  for (std::size_t t = 0; t < trace.length(); ++t) {
    os << '#' << t << "\n";
    trace.readRow(t, row);
    for (std::size_t i = 0; i < vars.size(); ++i) {
      // Emit only changes (and everything at t = 0).
      if (t == 0 || row[i] != prev[i]) emitValue(os, row[i], codes[i]);
    }
    row.swap(prev);
  }
  if (trace.length() > 0) os << '#' << trace.length() << "\n";
}

void saveVcd(const std::string& path, const FunctionalTrace& trace,
             const std::string& top, const std::string& timescale) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("vcd_writer: cannot open " + path);
  writeVcd(os, trace, top, timescale);
}

}  // namespace psmgen::trace
