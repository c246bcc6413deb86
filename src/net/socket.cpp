#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace softcell::net {

namespace {

void fail(std::string* err, const char* what) {
  if (err) {
    *err = what;
    *err += ": ";
    *err += std::strerror(errno);
  }
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int listen_loopback(std::uint16_t port, std::uint16_t* bound_port,
                    std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    fail(err, "socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail(err, "bind");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 128) != 0) {
    fail(err, "listen");
    ::close(fd);
    return -1;
  }
  if (!set_nonblocking(fd)) {
    fail(err, "fcntl");
    ::close(fd);
    return -1;
  }
  if (bound_port) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      fail(err, "getsockname");
      ::close(fd);
      return -1;
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

int connect_loopback(std::uint16_t port, std::string* err,
                     std::size_t rcvbuf_bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    fail(err, "socket");
    return -1;
  }
  if (rcvbuf_bytes > 0) {
    const int rcvbuf = static_cast<int>(rcvbuf_bytes);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr = loopback_addr(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail(err, "connect");
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const auto n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                          MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace softcell::net
