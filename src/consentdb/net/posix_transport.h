// PosixTransport: the Transport seam over real TCP sockets.
//
// Addresses are "host:port" (IPv4 dotted quad) or a bare "port", which
// binds/connects on 127.0.0.1. Listening on port 0 picks a free port; the
// Listener's address() reports the one actually bound, so tests can listen
// on "0" and hand the resolved address to the client.
//
// All sockets are non-blocking, matching the Transport contract: Accept()
// returns OK-null when nothing is pending, Read() drains what the kernel
// has, Write() may accept only part of the buffer when the send queue is
// full. WaitReady() is one poll(2) over the listener and connection fds, so
// an idle server or client sleeps in the kernel until bytes arrive. This
// file is the only place in the tree allowed to touch the socket and
// readiness APIs directly (consentdb-lint `raw-socket`).

#ifndef CONSENTDB_NET_POSIX_TRANSPORT_H_
#define CONSENTDB_NET_POSIX_TRANSPORT_H_

#include <memory>
#include <string>

#include "consentdb/util/transport.h"

namespace consentdb::net {

class PosixTransport : public Transport {
 public:
  Result<std::unique_ptr<Listener>> Listen(const std::string& address) override;
  Result<std::unique_ptr<Connection>> Connect(
      const std::string& address) override;
  bool WaitReady(const Listener* listener, std::span<const WaitInterest> conns,
                 int64_t timeout_nanos) override;
};

}  // namespace consentdb::net

#endif  // CONSENTDB_NET_POSIX_TRANSPORT_H_
