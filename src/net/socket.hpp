// softcell::net -- thin fd helpers over the BSD socket calls.
//
// Everything here is loopback TCP: the serving front end is a controller
// process and its switch agents / load generators on the same host (the
// Cbench setup, paper section 6.2).  The helpers return plain fds; the
// EventLoop / Conn layer owns their lifetime.  This file and its .cpp are
// part of the one directory the raw-socket lint rule allows to touch the
// socket syscalls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace softcell::net {

// Makes fd non-blocking; returns false on fcntl failure.
bool set_nonblocking(int fd);

// Binds + listens on 127.0.0.1:port (port 0 = kernel-chosen ephemeral).
// Returns the listening fd (non-blocking, SO_REUSEADDR) or -1; on success
// *bound_port is the actual port.  On failure *err describes the step.
[[nodiscard]] int listen_loopback(std::uint16_t port,
                                  std::uint16_t* bound_port,
                                  std::string* err);

// Blocking connect to 127.0.0.1:port.  Returns the connected fd (blocking
// mode, TCP_NODELAY) or -1 with *err set.  rcvbuf_bytes > 0 pins SO_RCVBUF
// before the handshake, so the window the peer may fill is small from the
// first byte (set after connect, it cannot shrink the advertised window).
[[nodiscard]] int connect_loopback(std::uint16_t port, std::string* err,
                                   std::size_t rcvbuf_bytes = 0);

// Blocking send-all; returns false if the peer went away.  Used by the
// client side (the load generator blocks per-connection by design); the
// server side never blocks and goes through Conn's buffered writer.
bool send_all(int fd, std::span<const std::uint8_t> bytes);

}  // namespace softcell::net
