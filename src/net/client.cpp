#include "net/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "net/socket.hpp"

namespace softcell::net {

bool WireConn::connect(std::uint16_t port, std::string* err,
                       std::size_t rcvbuf_bytes) {
  close();
  fd_ = connect_loopback(port, err, rcvbuf_bytes);
  return fd_ >= 0;
}

void WireConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_.reset();
}

bool WireConn::send_bytes(std::span<const std::uint8_t> bytes) {
  return fd_ >= 0 && send_all(fd_, bytes);
}

std::optional<std::vector<std::uint8_t>> WireConn::recv_frame(
    std::chrono::milliseconds timeout) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + timeout;
  std::span<const std::uint8_t> frame;
  for (;;) {
    switch (in_.next(frame)) {
      case ofp::FrameAssembler::Status::kFrame:
        return std::vector<std::uint8_t>(frame.begin(), frame.end());
      case ofp::FrameAssembler::Status::kBad:
        return std::nullopt;
      case ofp::FrameAssembler::Status::kNeedMore:
        break;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return std::nullopt;
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return std::nullopt;  // timeout or poll failure
    const auto buf = in_.writable(16 * 1024);
    const auto n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n == 0) return std::nullopt;  // peer closed
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      return std::nullopt;
    }
    in_.commit(static_cast<std::size_t>(n));
  }
}

bool WireConn::send_packet_in(const ofp::PacketInMsg& msg) {
  return send_bytes(ofp::encode_packet_in(msg));
}

std::optional<ofp::PacketInReply> WireConn::request(
    const ofp::PacketInMsg& msg, std::chrono::milliseconds timeout) {
  if (!send_packet_in(msg)) return std::nullopt;
  const auto frame = recv_frame(timeout);
  if (!frame) return std::nullopt;
  return ofp::decode_packet_in_reply(*frame);
}

std::optional<ofp::ServerStatsMsg> WireConn::server_stats(
    std::uint32_t xid, std::chrono::milliseconds timeout) {
  if (!send_bytes(ofp::encode_control(ofp::MsgType::kServerStatsRequest, xid)))
    return std::nullopt;
  const auto frame = recv_frame(timeout);
  if (!frame) return std::nullopt;
  return ofp::decode_server_stats(*frame);
}

bool WireConn::echo(std::uint32_t xid, std::chrono::milliseconds timeout) {
  if (!send_bytes(ofp::encode_control(ofp::MsgType::kEchoRequest, xid)))
    return false;
  const auto frame = recv_frame(timeout);
  if (!frame) return false;
  const auto h = ofp::peek_header(*frame);
  return h && h->type == static_cast<std::uint8_t>(ofp::MsgType::kEchoReply) &&
         h->xid == xid;
}

}  // namespace softcell::net
