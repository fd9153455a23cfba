// Epoll front end: the network plane's server (ROADMAP item 1).
//
// A readiness-loop TCP server in the memcached/redis mold: one nonblocking
// listener plus N event-loop threads, each owning a Poller (epoll on Linux,
// poll fallback) and a disjoint set of connections, so a loop never touches
// another loop's sockets and needs no per-connection locks. Accepted
// sockets are handed to loops round-robin through a small mailbox + wakeup
// pipe. All request handling is inline in the loop thread:
//
//   read() until EAGAIN -> RequestParser -> NetDispatcher::ExecuteBatch
//     (whole pipelined run, chunked at max_batch_commands) -> write(),
//     buffering what the socket won't take and poll-waiting for writable.
//
// Pipelining is where the throughput comes from: everything one read()
// returns is executed under a single request-lock acquisition and (with
// batch_persists) a single persist drain, so the per-request syscall and
// durability costs amortize across the pipeline depth. One slow request
// delays only its own connection's replies; other loops keep running until
// they hit the served system's request lock — which is exactly the
// contention the open-loop benchmark is built to expose.
//
// The server never owns the PM system: it serves whatever the dispatcher
// wraps, and a hard fault in the system surfaces as -FAULT replies (plus
// the dispatcher's recovery hook), never as a server crash.

#ifndef ARTHAS_NET_SERVER_H_
#define ARTHAS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/dispatcher.h"
#include "net/poller.h"
#include "net/protocol.h"
#include "obs/resource/resource_accountant.h"
#include "obs/timeseries.h"

namespace arthas {
namespace net {

struct NetServerOptions {
  // Loopback only: this is an experiment harness, not an exposed service.
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port after Start()
  int loop_threads = 2;
  PollerBackend backend = PollerBackend::kAuto;
  // A pipelined run longer than this executes as several batches, bounding
  // request-lock hold time (and crash blast radius) per acquisition.
  size_t max_batch_commands = 256;
  size_t max_line_bytes = 8192;
};

class NetServer {
 public:
  // The dispatcher (and everything behind it) must outlive the server.
  NetServer(NetDispatcher& dispatcher, NetServerOptions options = {});
  ~NetServer();  // Stop()s if still running

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens, and starts the loop threads. Fails without side effects
  // (no threads) on bind/poller errors.
  Status Start();
  // Idempotent; joins every loop thread and closes every socket.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // Bound port (useful with port = 0). Valid after a successful Start().
  uint16_t port() const { return port_; }

  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t connections_open() const {
    return connections_open_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    RequestParser parser;
    std::string outbuf;       // bytes the socket would not take yet
    size_t outbuf_sent = 0;   // prefix of outbuf already written
    // Pending bytes last folded into the loop's outbuf_bytes (the delta
    // scheme keeps the sum exact across partial writes and closes).
    size_t outbuf_accounted = 0;
    bool want_write = false;  // poller registered for writability
    bool closing = false;     // QUIT seen: close once outbuf drains

    explicit Connection(size_t max_line_bytes) : parser(max_line_bytes) {}
  };

  // One event-loop thread: poller + the connections it owns.
  struct Loop {
    std::unique_ptr<Poller> poller;
    std::thread thread;
    int wakeup_read_fd = -1;
    int wakeup_write_fd = -1;
    std::mutex mailbox_mutex;
    std::vector<int> mailbox;  // accepted fds awaiting adoption
    std::unordered_map<int, std::unique_ptr<Connection>> connections;
    // Backpressure counts: bytes replies are stuck in outbufs (read by the
    // `net.outbuf.bytes` capacity cell), and how many readiness events the
    // last poll wait returned (a loop's instantaneous queue depth, the
    // `net.loop.queue_depth` sampler probe).
    std::atomic<int64_t> outbuf_bytes{0};
    std::atomic<int64_t> queue_depth{0};
  };

  void RunLoop(Loop& loop, bool owns_listener);
  void AcceptReady(Loop& listener_loop);
  void AdoptMailbox(Loop& loop);
  // Returns false when the connection was torn down.
  bool HandleReadable(Loop& loop, Connection& conn);
  bool FlushOutbuf(Loop& loop, Connection& conn);
  void CloseConnection(Loop& loop, int fd);
  void Wake(Loop& loop);
  // Folds conn's pending-reply byte count into loop.outbuf_bytes.
  static void AccountOutbuf(Loop& loop, Connection& conn);

  NetDispatcher& dispatcher_;
  NetServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<size_t> next_loop_{0};  // round-robin accept target
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_open_{0};
  // Sum over loops_ of outbuf_bytes and queue_depth, published as the
  // `net.outbuf.bytes` capacity cell and the `net.loop.queue_depth` sampler
  // probe (registered at the end of Start(), dropped first in Stop() before
  // loops_ is torn down).
  obs::ResourceSource outbuf_source_;
  obs::ProbeId queue_probe_ = obs::kNoProbe;
};

}  // namespace net
}  // namespace arthas

#endif  // ARTHAS_NET_SERVER_H_
