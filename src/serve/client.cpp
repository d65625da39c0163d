#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/socket.hpp"

namespace psmgen::serve {

bool Client::connect(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder();
}

bool Client::sendRaw(const std::string& bytes) {
  return common::sendAll(fd_, bytes);
}

Frame Client::readFrame() {
  for (;;) {
    if (auto frame = decoder_.next()) return *frame;
    char buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error(
          "serve client: connection closed mid-frame by server");
    }
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

Frame Client::readExpected(FrameType type) {
  Frame frame = readFrame();
  if (frame.type == FrameType::Error) {
    throw RemoteError(decodeError(frame.payload));
  }
  if (frame.type != type) {
    throw ProtocolError(ErrorCode::Protocol,
                        "unexpected frame type " +
                            std::to_string(static_cast<int>(frame.type)));
  }
  return frame;
}

HelloReply Client::hello(const std::string& model_id,
                         const std::string& variables,
                         std::uint32_t version) {
  HelloRequest hello;
  hello.version = version;
  hello.model_id = model_id;
  hello.variables = variables;
  if (!sendRaw(encodeHello(hello))) {
    throw std::runtime_error("serve client: hello send failed");
  }
  return decodeHelloOk(readExpected(FrameType::HelloOk).payload);
}

std::vector<EstRow> Client::predict(
    const std::vector<std::vector<common::BitVector>>& rows) {
  if (!sendRaw(encodeRows(rows))) {
    throw std::runtime_error("serve client: rows send failed");
  }
  return decodeEst(readExpected(FrameType::Est).payload);
}

FinSummary Client::finish() {
  if (!sendRaw(encodeFin())) {
    throw std::runtime_error("serve client: fin send failed");
  }
  return decodeFinAck(readExpected(FrameType::FinAck).payload);
}

}  // namespace psmgen::serve
