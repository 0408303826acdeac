#include "consentdb/net/chaos_transport.h"

#include <utility>

#include "consentdb/util/check.h"
#include "consentdb/util/hash_mix.h"
#include "consentdb/util/thread_annotations.h"

namespace consentdb::net {
namespace {

// One queued delivery. Chunks become readable once the clock reaches
// ready_at; an unready chunk blocks everything queued after it, so stream
// order is preserved exactly as TCP would.
struct Chunk {
  std::string data;
  int64_t ready_at = 0;
};

// Hash streams for the per-operation draws (seed, stream, op_index).
constexpr uint64_t kFaultStream = 0;  // which fault, if any
constexpr uint64_t kParamStream = 1;  // fault parameter (tear point, byte)

}  // namespace

// A connected pair. pipe[d] carries bytes written by end d, read by end
// 1 - d. All fields are guarded by the owning transport's single mutex —
// one lock for the whole transport keeps the lock graph trivially acyclic.
struct ChaosDuplex {
  std::deque<Chunk> pipe[2];
  bool closed[2] = {false, false};  // end d called Close()
  bool dropped = false;             // a chaos fault severed the pair
};

struct ChaosListenerState {
  std::string address;
  bool closed = false;
  std::deque<std::unique_ptr<Connection>> pending;
};

struct ChaosTransport::State {
  explicit State(ChaosPlan p, Clock* c) : plan(p), clock(c) {}

  const ChaosPlan plan;
  Clock* const clock;

  mutable Mutex mu;
  uint64_t op_index GUARDED_BY(mu) = 0;
  ChaosStats stats GUARDED_BY(mu);
  std::map<std::string, std::shared_ptr<ChaosListenerState>> listeners
      GUARDED_BY(mu);
};

namespace {

// Kinds of per-operation fault, drawn by cumulative probability.
enum class Fault { kNone, kDrop, kTorn, kCorrupt, kDuplicate, kDelay };

Fault DrawWriteFault(const ChaosPlan& plan, double u) {
  double c = plan.drop_prob;
  if (u < c) return Fault::kDrop;
  c += plan.torn_write_prob;
  if (u < c) return Fault::kTorn;
  c += plan.corrupt_prob;
  if (u < c) return Fault::kCorrupt;
  c += plan.duplicate_prob;
  if (u < c) return Fault::kDuplicate;
  c += plan.delay_prob;
  if (u < c) return Fault::kDelay;
  return Fault::kNone;
}

class ChaosConnection : public Connection {
 public:
  ChaosConnection(std::shared_ptr<ChaosTransport::State> state,
                  std::shared_ptr<ChaosDuplex> duplex, int end)
      : state_(std::move(state)), duplex_(std::move(duplex)), end_(end) {}

  ~ChaosConnection() override { Close(); }

  Result<size_t> Write(std::string_view data) override;
  Result<std::string> Read() override;
  void Close() override;

 private:
  const std::shared_ptr<ChaosTransport::State> state_;
  const std::shared_ptr<ChaosDuplex> duplex_;
  const int end_;  // 0 = connector side, 1 = accepted side
};

Result<size_t> ChaosConnection::Write(std::string_view data) {
  ChaosTransport::State& s = *state_;
  MutexLock lock(s.mu);
  ChaosDuplex& d = *duplex_;
  if (d.closed[end_] || d.closed[1 - end_] || d.dropped) {
    return Status::Unavailable("connection closed");
  }
  ++s.stats.writes;
  const uint64_t op = s.op_index++;
  const double u = UnitUniformHash(s.plan.seed, kFaultStream, op);
  const double param = UnitUniformHash(s.plan.seed, kParamStream, op);
  const int64_t now = s.clock->NowNanos();
  std::deque<Chunk>& pipe = d.pipe[end_];
  switch (data.empty() ? Fault::kNone : DrawWriteFault(s.plan, u)) {
    case Fault::kDrop:
      ++s.stats.drops;
      d.dropped = true;
      return Status::Unavailable("connection dropped");
    case Fault::kTorn: {
      // The caller believes the whole chunk went out; the peer sees only a
      // prefix, then the connection dies. The frame CRC layer makes the
      // partial tail indistinguishable from silence.
      ++s.stats.torn_writes;
      const size_t prefix = static_cast<size_t>(param * data.size());
      if (prefix > 0) pipe.push_back({std::string(data.substr(0, prefix)), now});
      d.dropped = true;
      return data.size();
    }
    case Fault::kCorrupt: {
      ++s.stats.corruptions;
      std::string copy(data);
      copy[static_cast<size_t>(param * copy.size())] ^= 0x40;
      pipe.push_back({std::move(copy), now});
      return data.size();
    }
    case Fault::kDuplicate:
      ++s.stats.duplicates;
      pipe.push_back({std::string(data), now});
      pipe.push_back({std::string(data), now});
      return data.size();
    case Fault::kDelay:
      ++s.stats.delays;
      pipe.push_back({std::string(data), now + s.plan.delay_nanos});
      return data.size();
    case Fault::kNone:
      pipe.push_back({std::string(data), now});
      return data.size();
  }
  CONSENTDB_CHECK(false, "unreachable fault kind");
  return data.size();
}

Result<std::string> ChaosConnection::Read() {
  ChaosTransport::State& s = *state_;
  MutexLock lock(s.mu);
  ChaosDuplex& d = *duplex_;
  if (d.closed[end_]) return Status::Unavailable("connection closed");
  const int64_t now = s.clock->NowNanos();
  std::deque<Chunk>& pipe = d.pipe[1 - end_];
  std::string out;
  while (!pipe.empty() && pipe.front().ready_at <= now) {
    out.append(pipe.front().data);
    pipe.pop_front();
  }
  if (out.empty() && pipe.empty() && (d.dropped || d.closed[1 - end_])) {
    return Status::Unavailable("connection closed by peer");
  }
  return out;
}

void ChaosConnection::Close() {
  MutexLock lock(state_->mu);
  duplex_->closed[end_] = true;
}

class ChaosListener : public Listener {
 public:
  ChaosListener(std::shared_ptr<ChaosTransport::State> state,
                std::shared_ptr<ChaosListenerState> ls)
      : state_(std::move(state)), ls_(std::move(ls)) {}

  ~ChaosListener() override { Close(); }

  Result<std::unique_ptr<Connection>> Accept() override {
    MutexLock lock(state_->mu);
    if (ls_->closed) return Status::Unavailable("listener closed");
    if (ls_->pending.empty()) return std::unique_ptr<Connection>();
    std::unique_ptr<Connection> conn = std::move(ls_->pending.front());
    ls_->pending.pop_front();
    return conn;
  }

  std::string address() const override { return ls_->address; }

  void Close() override {
    // Unaccepted connections close themselves on destruction, which takes
    // the transport lock: destroy them only after releasing it.
    std::deque<std::unique_ptr<Connection>> unaccepted;
    MutexLock lock(state_->mu);
    ls_->closed = true;
    unaccepted.swap(ls_->pending);
    state_->listeners.erase(ls_->address);
  }

 private:
  const std::shared_ptr<ChaosTransport::State> state_;
  const std::shared_ptr<ChaosListenerState> ls_;
};

}  // namespace

ChaosTransport::ChaosTransport(ChaosPlan plan, Clock* clock)
    : state_(std::make_shared<State>(plan, clock)) {
  CONSENTDB_CHECK(clock != nullptr, "ChaosTransport needs a clock");
  CONSENTDB_CHECK(plan.connect_fail_prob + plan.drop_prob +
                          plan.torn_write_prob + plan.corrupt_prob +
                          plan.duplicate_prob + plan.delay_prob <=
                      1.0,
                  "chaos fault probabilities must sum to at most 1");
}

ChaosTransport::~ChaosTransport() = default;

Result<std::unique_ptr<Listener>> ChaosTransport::Listen(
    const std::string& address) {
  MutexLock lock(state_->mu);
  if (state_->listeners.count(address) > 0) {
    return Status::AlreadyExists("address already bound: " + address);
  }
  auto ls = std::make_shared<ChaosListenerState>();
  ls->address = address;
  state_->listeners[address] = ls;
  return std::unique_ptr<Listener>(
      std::make_unique<ChaosListener>(state_, std::move(ls)));
}

Result<std::unique_ptr<Connection>> ChaosTransport::Connect(
    const std::string& address) {
  MutexLock lock(state_->mu);
  ++state_->stats.connects;
  const uint64_t op = state_->op_index++;
  const double u = UnitUniformHash(state_->plan.seed, kFaultStream, op);
  if (u < state_->plan.connect_fail_prob) {
    ++state_->stats.connect_fails;
    return Status::Unavailable("connect failed (injected)");
  }
  auto it = state_->listeners.find(address);
  if (it == state_->listeners.end() || it->second->closed) {
    return Status::Unavailable("connection refused: " + address);
  }
  auto duplex = std::make_shared<ChaosDuplex>();
  it->second->pending.push_back(
      std::make_unique<ChaosConnection>(state_, duplex, 1));
  return std::unique_ptr<Connection>(
      std::make_unique<ChaosConnection>(state_, std::move(duplex), 0));
}

ChaosStats ChaosTransport::stats() const {
  MutexLock lock(state_->mu);
  return state_->stats;
}

}  // namespace consentdb::net
