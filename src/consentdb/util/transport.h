// Byte-stream transport abstraction for every networking path in ConsentDB.
//
// All code that moves bytes between processes opens connections through a
// Transport rather than touching sockets directly — the `raw-socket` lint
// rule enforces this, exactly as Env (util/io.h) owns file I/O. Two
// implementations exist, both in net/:
//
//   * PosixTransport — real TCP sockets, used by the shell's `serve` command
//     and by production deployments.
//   * ChaosTransport — an in-memory transport whose deliveries follow a
//     deterministic, SplitMix64-scheduled fault plan (drops, torn writes,
//     duplicate delivery, delays on the VirtualClock). The network chaos
//     harness runs entirely on it.
//
// The Connection contract is a non-blocking byte stream: Write may accept
// fewer bytes than offered (backpressure — buffer and retry), Read drains
// whatever is available right now (possibly nothing), and a dropped or
// closed connection surfaces as kUnavailable from either call. Message
// boundaries are a higher layer's job (net/frame.h).
//
// An idle caller has nothing to do until bytes arrive. Transport::WaitReady
// lets it block on the endpoints' readiness instead of napping on a clock;
// a transport that cannot (the chaos harness, decorators) says so, and the
// caller keeps its own cooperative idle path.

#ifndef CONSENTDB_UTIL_TRANSPORT_H_
#define CONSENTDB_UTIL_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "consentdb/util/result.h"

namespace consentdb {

// One end of an established byte stream. Not thread-safe; each endpoint is
// owned and driven by a single caller (the server reactor or a client).
class Connection {
 public:
  virtual ~Connection() = default;

  // Queues up to data.size() bytes onto the stream and returns how many were
  // accepted (possibly fewer under backpressure, possibly 0 — retry later).
  // kUnavailable once the connection is closed or dropped; bytes accepted by
  // earlier calls may or may not have reached the peer.
  [[nodiscard]] virtual Result<size_t> Write(std::string_view data) = 0;

  // Returns every byte available right now, in stream order; an empty
  // string means nothing is readable yet. kUnavailable once the connection
  // is closed or dropped and all delivered bytes have been drained.
  [[nodiscard]] virtual Result<std::string> Read() = 0;

  // Closes this end; the peer's next Read/Write observes kUnavailable
  // (after draining). Idempotent.
  virtual void Close() = 0;
};

// A bound listening endpoint.
class Listener {
 public:
  virtual ~Listener() = default;

  // The next pending connection, or an OK null pointer when none is waiting
  // (non-blocking accept). kUnavailable once the listener is closed.
  [[nodiscard]] virtual Result<std::unique_ptr<Connection>> Accept() = 0;

  // The resolved address peers should Connect() to (e.g. the actual port
  // when the caller bound port 0).
  virtual std::string address() const = 0;

  virtual void Close() = 0;
};

// One connection a readiness wait watches: always for input (or close), and
// for room in its send queue when the caller still holds bytes the
// connection refused.
struct WaitInterest {
  Connection* conn = nullptr;
  bool output_queued = false;
};

// The transport interface. Implementations are thread-safe; the endpoints
// they hand out are not.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual Result<std::unique_ptr<Listener>> Listen(
      const std::string& address) = 0;

  [[nodiscard]] virtual Result<std::unique_ptr<Connection>> Connect(
      const std::string& address) = 0;

  // Blocks until `listener` (may be null) has a pending connection, one of
  // `conns` is readable, closed, or writable where output is queued, or
  // `timeout_nanos` has passed — whichever comes first. Returns true once
  // it has waited (a wake-up promises nothing: the caller reads and finds
  // out); false when this transport cannot wait on these endpoints (it has
  // no wait, or one came from another transport), and the caller naps on
  // its own clock instead. No other thread may close the endpoints during
  // the wait.
  virtual bool WaitReady(const Listener* /*listener*/,
                         std::span<const WaitInterest> /*conns*/,
                         int64_t /*timeout_nanos*/) {
    return false;
  }
};

}  // namespace consentdb

#endif  // CONSENTDB_UTIL_TRANSPORT_H_
