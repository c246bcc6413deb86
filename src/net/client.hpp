// softcell::net -- blocking wire client (the load generator's half).
//
// One WireConn is one emulated switch agent: a blocking loopback TCP
// socket speaking the ofp frame format.  The load generator runs one
// thread per connection with a window of outstanding packet-ins, so a
// simple blocking send / poll-based receive is the right shape -- all the
// epoll machinery lives on the server side.  recv_frame() reassembles
// through the same FrameAssembler the server uses, so arbitrary
// fragmentation on the return path is handled identically.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ofp/codec.hpp"

namespace softcell::net {

class WireConn {
 public:
  WireConn() = default;
  ~WireConn() { close(); }

  WireConn(WireConn&& other) noexcept : fd_(other.fd_) {
    in_ = std::move(other.in_);
    other.fd_ = -1;
  }
  WireConn& operator=(WireConn&&) = delete;
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  // Blocking connect to 127.0.0.1:port; rcvbuf_bytes > 0 pins SO_RCVBUF
  // before the handshake (see connect_loopback).
  [[nodiscard]] bool connect(std::uint16_t port, std::string* err,
                             std::size_t rcvbuf_bytes = 0);
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  void close();

  // Raw fd, for tests that need to shape traffic byte-by-byte.
  [[nodiscard]] int fd() const { return fd_; }

  // Blocking send-all of raw bytes (a frame, a batch of frames, or an
  // arbitrary fragment when a test wants to exercise partial reads).
  [[nodiscard]] bool send_bytes(std::span<const std::uint8_t> bytes);

  // Next complete frame, waiting up to `timeout` for bytes; nullopt on
  // timeout, peer close, or broken framing.  The frame is copied out so it
  // survives subsequent calls.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> recv_frame(
      std::chrono::milliseconds timeout);

  // --- convenience round-trips ----------------------------------------------

  [[nodiscard]] bool send_packet_in(const ofp::PacketInMsg& msg);

  // One blocking request -> reply (no pipelining).
  [[nodiscard]] std::optional<ofp::PacketInReply> request(
      const ofp::PacketInMsg& msg,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

  [[nodiscard]] std::optional<ofp::ServerStatsMsg> server_stats(
      std::uint32_t xid,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

  [[nodiscard]] bool echo(
      std::uint32_t xid,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

 private:
  int fd_ = -1;
  ofp::FrameAssembler in_;
};

}  // namespace softcell::net
