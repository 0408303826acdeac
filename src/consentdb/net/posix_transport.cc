#include "consentdb/net/posix_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>
#include <vector>

namespace consentdb::net {
namespace {

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

// "host:port" or bare "port" (-> 127.0.0.1). Returns false on parse error.
bool ParseAddress(const std::string& address, sockaddr_in* out) {
  std::string host = "127.0.0.1";
  std::string port = address;
  const size_t colon = address.rfind(':');
  if (colon != std::string::npos) {
    host = address.substr(0, colon);
    port = address.substr(colon + 1);
  }
  if (port.empty() || port.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const unsigned long p = std::stoul(port);
  if (p > 65535) return false;
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(p));
  if (inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1) return true;
  // Not a numeric IPv4 address — resolve it ("localhost", a DNS name).
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  if (getaddrinfo(host.c_str(), nullptr, &hints, &found) != 0 ||
      found == nullptr) {
    return false;
  }
  out->sin_addr = reinterpret_cast<sockaddr_in*>(found->ai_addr)->sin_addr;
  freeaddrinfo(found);
  return true;
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

class PosixConnection : public Connection {
 public:
  explicit PosixConnection(int fd) : fd_(fd) {}
  ~PosixConnection() override { Close(); }

  Result<size_t> Write(std::string_view data) override {
    if (fd_ < 0) return Status::Unavailable("connection closed");
    const ssize_t n = send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Errno("send");
  }

  Result<std::string> Read() override {
    if (fd_ < 0) return Status::Unavailable("connection closed");
    std::string out;
    char buf[65536];
    while (true) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        out.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {  // orderly shutdown by the peer
        eof_ = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return Errno("recv");
    }
    if (out.empty() && eof_) {
      return Status::Unavailable("connection closed by peer");
    }
    return out;
  }

  void Close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_;
  bool eof_ = false;
};

class PosixListener : public Listener {
 public:
  PosixListener(int fd, std::string address)
      : fd_(fd), address_(std::move(address)) {}
  ~PosixListener() override { Close(); }

  Result<std::unique_ptr<Connection>> Accept() override {
    if (fd_ < 0) return Status::Unavailable("listener closed");
    const int conn = accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return std::unique_ptr<Connection>();
      }
      return Errno("accept");
    }
    if (!SetNonBlocking(conn)) {
      ::close(conn);
      return Errno("fcntl");
    }
    const int one = 1;
    setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::unique_ptr<Connection>(std::make_unique<PosixConnection>(conn));
  }

  std::string address() const override { return address_; }

  void Close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_;
  const std::string address_;
};

// poll(2) counts in whole milliseconds: round up, so a sub-millisecond wait
// still sleeps rather than spinning.
int PollTimeoutMillis(int64_t timeout_nanos) {
  if (timeout_nanos <= 0) return 0;
  const int64_t millis = (timeout_nanos + 999'999) / 1'000'000;
  return millis > INT_MAX ? INT_MAX : static_cast<int>(millis);
}

}  // namespace

Result<std::unique_ptr<Listener>> PosixTransport::Listen(
    const std::string& address) {
  sockaddr_in addr;
  if (!ParseAddress(address, &addr)) {
    return Status::InvalidArgument("bad address: " + address);
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = Errno("bind");
    ::close(fd);
    return st;
  }
  if (listen(fd, 128) != 0 || !SetNonBlocking(fd)) {
    const Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  // Report the port actually bound (meaningful when the caller asked for 0).
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status st = Errno("getsockname");
    ::close(fd);
    return st;
  }
  char host[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
  const std::string bound =
      std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
  return std::unique_ptr<Listener>(std::make_unique<PosixListener>(fd, bound));
}

Result<std::unique_ptr<Connection>> PosixTransport::Connect(
    const std::string& address) {
  sockaddr_in addr;
  if (!ParseAddress(address, &addr)) {
    return Status::InvalidArgument("bad address: " + address);
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  // Blocking connect (loopback handshakes are instantaneous), non-blocking
  // I/O afterwards per the Transport contract.
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = Errno("connect");
    ::close(fd);
    return st;
  }
  if (!SetNonBlocking(fd)) {
    const Status st = Errno("fcntl");
    ::close(fd);
    return st;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(std::make_unique<PosixConnection>(fd));
}

bool PosixTransport::WaitReady(const Listener* listener,
                               std::span<const WaitInterest> conns,
                               int64_t timeout_nanos) {
  // poll(2) skips the negative fd of an endpoint closed on this side.
  std::vector<pollfd> fds;
  fds.reserve(conns.size() + 1);
  if (listener != nullptr) {
    const auto* posix = dynamic_cast<const PosixListener*>(listener);
    if (posix == nullptr) return false;
    fds.push_back(pollfd{posix->fd(), POLLIN, 0});
  }
  for (const WaitInterest& interest : conns) {
    const auto* posix = dynamic_cast<const PosixConnection*>(interest.conn);
    if (posix == nullptr) return false;
    const short events = static_cast<short>(
        POLLIN | (interest.output_queued ? POLLOUT : 0));
    fds.push_back(pollfd{posix->fd(), events, 0});
  }
  // EINTR and errors end the wait early; the caller re-reads either way.
  ::poll(fds.data(), fds.size(), PollTimeoutMillis(timeout_nanos));
  return true;
}

}  // namespace consentdb::net
