#include "runtime/streaming_reader.hpp"

#include <fstream>
#include <stdexcept>

namespace psmgen::runtime {

StreamingTraceReader::StreamingTraceReader(std::istream& is)
    : lines_(is), vars_(trace::readFunctionalPreamble(lines_)) {}

StreamingTraceReader::StreamingTraceReader(const std::string& path)
    : owned_(std::make_unique<std::ifstream>(path)), lines_(*owned_) {
  if (!*owned_) {
    throw std::runtime_error("StreamingTraceReader: cannot open " + path);
  }
  vars_ = trace::readFunctionalPreamble(lines_);
}

}  // namespace psmgen::runtime
