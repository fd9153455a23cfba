// serve_read: the user-facing path, Memcached over the real socket plane.
//
// A NetServer with kLoopThreads loop threads serves a MemcachedMini (arthas
// substrate attached) preloaded with kKeys 64-byte items. One client
// thread runs a closed loop over kConns connections, each keeping kDepth
// requests in flight: 90% GET / 10% SET over zipfian keys. A SET writes the
// key's own derived value again, in place, so nothing is allocated and
// every GET reply can be checked against the key alone, whatever the order
// between connections. While a window is served, a KeepAwake spinner on
// every CPU keeps the virtual CPUs from halting when a loop thread waits
// for its next batch.
//
// The traced run measures the inner layers the server calls itself by
// replaying the requests it answered through their public entry points:
// NetDispatcher::ExecuteBatch (in batches of the size the server saw),
// PmSystemTarget::Handle, and CheckpointLog::OnPersist on the persist
// stream those requests cause.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/dispatcher.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using arthas::MemcachedMini;

constexpr size_t kKeys = 10000;
constexpr size_t kValueLen = 64;
constexpr double kZipfTheta = 0.99;
constexpr int kSetPercent = 10;
constexpr int kConns = 4;
constexpr size_t kDepth = 32;
constexpr int kLoopThreads = 2;
constexpr size_t kStreamOps = 1 << 18;  // cycled by every connection
// A window is served in kSegments segments, each on a freshly started
// server with fresh connections, so the scheduler places the loop threads
// anew for each segment rather than once for the whole window. The p99 of
// single 6 s segments of one run ranged over 0.24-0.42 ms, hence ten.
constexpr int kSegments = 10;
constexpr double kWarmupSeconds = 0.25;  // per segment
// Throughput and p99 are medians over intervals this long. A request is
// delayed by whatever stalls its loop thread or the client, including the
// host taking a vCPU away; at p99 of a 100 ms interval those delays made
// up most of the samples beyond it, so the p99 followed how busy the host
// was (IQR 0.35 of the median over ten runs). A 20 ms interval still holds
// over 100 samples beyond its p99 at the usual rate, and halved the spread.
constexpr int64_t kIntervalNs = 20'000'000;
constexpr int64_t kDrainTimeoutNs = 5'000'000'000;
constexpr size_t kMaxReplay = 300000;
constexpr int kSetups = 5;
// Peak RSS is read once the window has answered this many requests: the
// checkpoint log grows with every SET, so a figure read at the end of the
// window would measure how fast the machine ran rather than how much
// memory the work takes.
constexpr uint64_t kRssOps = 4000000;

MemcachedMini::Options SystemOptions() {
  MemcachedMini::Options options;
  options.pool_size = 16u << 20;
  options.hashtable_buckets = 16384;  // no expansion at kKeys items
  return options;
}

// YCSB's zipfian generator over [0, n).
class Zipfian {
 public:
  Zipfian(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; i++) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan_);
  }
  uint64_t Next(SplitMix& rng) const {
    const double u = rng.Uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto v = static_cast<uint64_t>(
        n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(v, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

// The seeded inputs: keys, their values, and the request stream rendered
// to wire lines once, up front.
struct Inputs {
  std::vector<std::string> keys;
  std::vector<std::string> values;
  struct Op {
    uint32_t key;
    bool set;
    uint32_t line_at;  // offset of the request line in `wire`
    uint32_t line_len;
  };
  std::vector<Op> ops;
  std::string wire;

  explicit Inputs(uint64_t seed) {
    for (size_t i = 0; i < kKeys; i++) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "k%05zu", i);
      keys.push_back(buf);
      values.push_back(DerivedValue(seed, i, 0, kValueLen));
    }
    // Scramble zipfian ranks so the hot keys spread over the table.
    SplitMix rng(seed);
    std::vector<uint32_t> perm(kKeys);
    for (size_t i = 0; i < kKeys; i++) perm[i] = static_cast<uint32_t>(i);
    for (size_t i = kKeys - 1; i > 0; i--) {
      std::swap(perm[i], perm[rng.Below(i + 1)]);
    }
    const Zipfian zipf(kKeys, kZipfTheta);
    for (size_t i = 0; i < kStreamOps; i++) {
      Op op;
      op.key = perm[zipf.Next(rng)];
      op.set = rng.Below(100) < static_cast<uint64_t>(kSetPercent);
      op.line_at = static_cast<uint32_t>(wire.size());
      wire += op.set ? "SET " : "GET ";
      wire += keys[op.key];
      if (op.set) {
        wire += ' ';
        wire += values[op.key];
      }
      wire += "\r\n";
      op.line_len = static_cast<uint32_t>(wire.size() - op.line_at);
      ops.push_back(op);
    }
  }

  std::string_view Line(size_t i) const {
    return std::string_view(wire).substr(ops[i].line_at, ops[i].line_len);
  }
  // Key + value bytes a request carries when it writes.
  uint64_t UserBytes(size_t i) const {
    return ops[i].set ? keys[ops[i].key].size() + kValueLen : 0;
  }
};

// A served store: system + substrate, dispatcher and server, preloaded.
struct Served {
  Store store;
  std::unique_ptr<arthas::net::NetDispatcher> dispatcher;
  std::unique_ptr<arthas::net::NetServer> server;

  Served() : store(SystemOptions()) {}
  ~Served() {
    if (server != nullptr) server->Stop();
  }

  // Replaces the server (and its loop threads) with a new one.
  bool StartServer() {
    server.reset();
    arthas::net::NetServerOptions options;
    options.loop_threads = kLoopThreads;
    server = std::make_unique<arthas::net::NetServer>(*dispatcher, options);
    return server->Start().ok();
  }
};

// Preloads every key through Handle(); returns the failures.
uint64_t Preload(Store& store, const Inputs& in) {
  uint64_t failures = 0;
  for (size_t i = 0; i < kKeys; i++) {
    arthas::Request r;
    r.op = arthas::Request::Op::kPut;
    r.key = in.keys[i];
    r.value = in.values[i];
    failures += store.mc->Handle(r).status.ok() ? 0 : 1;
  }
  return failures;
}

int Connect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Conn {
  int fd = -1;
  size_t next = 0;  // next stream index to send
  struct Inflight {
    uint32_t op;
    int64_t sent_ns;
  };
  Inflight ring[kDepth];
  size_t head = 0, count = 0;
  std::string out;
  std::string in;
  size_t in_at = 0;  // parsed prefix of `in`
};

// One RESP reply, parsed in place.
struct Reply {
  char kind = 0;  // '+', '-', ':', '$' (bulk) or 'n' (nil)
  std::string_view text;
};

// Parses one reply at the start of `buf`; returns the bytes it spans, or 0
// when it is not complete yet.
size_t ParseReply(std::string_view buf, Reply* reply) {
  const size_t eol = buf.find("\r\n");
  if (eol == std::string_view::npos) return 0;
  reply->kind = buf[0];
  reply->text = buf.substr(1, eol - 1);
  if (reply->kind != '$') return eol + 2;
  const long len = std::strtol(std::string(reply->text).c_str(), nullptr, 10);
  if (len < 0) {
    reply->kind = 'n';
    return eol + 2;
  }
  const size_t total = eol + 2 + static_cast<size_t>(len) + 2;
  if (buf.size() < total) return 0;
  reply->text = buf.substr(eol + 2, static_cast<size_t>(len));
  return total;
}

struct Window {
  explicit Window(double seconds)
      : latency(static_cast<size_t>(seconds * 1.5e6), kIntervalNs) {}

  uint64_t sent = 0;
  uint64_t answered = 0;        // replies received in the measured window
  uint64_t bad_replies = 0;     // replies that did not match the model
  uint64_t unanswered = 0;      // still in flight after the drain timeout
  uint64_t user_bytes = 0;      // carried by the SETs that were sent
  LatencyLog latency;
  std::vector<uint32_t> answered_ops;  // stream index per answered request
  // Deltas over the measured window; the process's count leaves out the
  // KeepAwake spinners.
  Usage client, process;
  int64_t client_busy_ns = 0;  // client time spent on replies and requests
  double peak_rss_mb = 0;      // after kRssOps replies, or at the end
};

// The closed-loop client. Runs on the calling thread: warms up, measures
// `seconds` into a window, then stops sending and drains what is in flight.
class Client {
 public:
  Client(const Inputs& in, uint16_t port) : in_(in) {
    for (int c = 0; c < kConns; c++) {
      Conn conn;
      conn.fd = Connect(port);
      conn.next = c * (kStreamOps / kConns);
      conns_.push_back(std::move(conn));
    }
  }
  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
  }
  bool ok() const {
    for (const Conn& c : conns_) {
      if (c.fd < 0) return false;
    }
    return true;
  }

  void Run(double seconds, const KeepAwake& awake, SpanLog* spans,
           Window& w) {
    const int ep = epoll_create1(0);
    for (size_t i = 0; i < conns_.size(); i++) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(i);
      epoll_ctl(ep, EPOLL_CTL_ADD, conns_[i].fd, &ev);
    }
    const int64_t begin = NowNs();
    const int64_t t_start = begin + static_cast<int64_t>(kWarmupSeconds * 1e9);
    const int64_t t_end = t_start + static_cast<int64_t>(seconds * 1e9);
    Usage client0, process0;
    uint64_t spinner_switches0 = 0;
    bool started = false, draining = false;
    int64_t drain_deadline = 0;
    for (Conn& c : conns_) {
      for (size_t d = 0; d < kDepth; d++) Send(c, begin, &w);
      Flush(c);
    }
    char buf[65536];
    epoll_event events[kConns];
    while (true) {
      int64_t now = NowNs();
      if (!started && now >= t_start) {
        started = true;
        client0 = ThreadUsage();
        process0 = ProcessUsage();
        spinner_switches0 = awake.ctx_switches();
        w.latency.Start(t_start);
      }
      if (!draining && now >= t_end) {
        draining = true;
        drain_deadline = now + kDrainTimeoutNs;
        w.client = Add(w.client, Delta(ThreadUsage(), client0));
        Usage process = Delta(ProcessUsage(), process0);
        process.ctx_switches -= awake.ctx_switches() - spinner_switches0;
        w.process = Add(w.process, process);
        w.latency.Finish(now);
      }
      if (draining && (InFlight() == 0 || now > drain_deadline)) break;
      // Busy-poll: a client that sleeps in epoll_wait adds its own wake-up
      // latency on a virtualized CPU to every reply, and that latency
      // varies with the host's load far more than the server does.
      const int n = epoll_wait(ep, events, kConns, 0);
      for (int e = 0; e < n; e++) {
        Conn& c = conns_[events[e].data.u32];
        const int64_t event_start = NowNs();
        const ssize_t got = read(c.fd, buf, sizeof(buf));
        if (got <= 0) {
          if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
          continue;  // closed: whatever is in flight stays unanswered
        }
        now = NowNs();
        c.in.append(buf, static_cast<size_t>(got));
        const bool in_window = started && !draining;
        Reply reply;
        while (c.count > 0) {
          const size_t used = ParseReply(
              std::string_view(c.in).substr(c.in_at), &reply);
          if (used == 0) break;
          c.in_at += used;
          const Conn::Inflight f = c.ring[c.head];
          c.head = (c.head + 1) % kDepth;
          c.count--;
          if (!Matches(f.op, reply)) w.bad_replies++;
          if (in_window) {
            if (++w.answered == kRssOps) w.peak_rss_mb = PeakRssMb();
            w.latency.Add(now, now - f.sent_ns);
            if (spans != nullptr) {
              spans->AddRoot("wire.request", f.op, f.sent_ns, now);
              w.answered_ops.push_back(f.op);
            }
          }
          if (!draining) Send(c, now, &w);
        }
        if (c.in_at == c.in.size()) {
          c.in.clear();
          c.in_at = 0;
        }
        Flush(c);
        if (in_window) w.client_busy_ns += NowNs() - event_start;
      }
    }
    close(ep);
    w.unanswered += InFlight();
  }

 private:
  static Usage Delta(const Usage& a, const Usage& b) {
    return {a.cpu_s - b.cpu_s, a.ctx_switches - b.ctx_switches};
  }
  static Usage Add(const Usage& a, const Usage& b) {
    return {a.cpu_s + b.cpu_s, a.ctx_switches + b.ctx_switches};
  }

  size_t InFlight() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.count;
    return n;
  }

  void Send(Conn& c, int64_t now, Window* w) {
    const size_t op = c.next;
    c.next = (c.next + 1) % kStreamOps;
    c.out.append(in_.Line(op));
    c.ring[(c.head + c.count) % kDepth] = {static_cast<uint32_t>(op), now};
    c.count++;
    w->sent++;
    w->user_bytes += in_.UserBytes(op);
  }

  // Writes the pending requests; the server drains its socket
  // continuously, so a short write only needs a retry.
  static void Flush(Conn& c) {
    size_t at = 0;
    while (at < c.out.size()) {
      const ssize_t n = send(c.fd, c.out.data() + at, c.out.size() - at,
                             MSG_NOSIGNAL);
      if (n < 0 && errno != EAGAIN && errno != EINTR) break;
      if (n > 0) at += static_cast<size_t>(n);
    }
    c.out.clear();
  }

  bool Matches(uint32_t op, const Reply& reply) const {
    const Inputs::Op& o = in_.ops[op];
    if (o.set) return reply.kind == '+' && reply.text == "OK";
    return reply.kind == '$' && reply.text == in_.values[o.key];
  }

  const Inputs& in_;
  std::vector<Conn> conns_;
};

// Brings one served store up: build, preload, start the server.
std::unique_ptr<Served> Setup(const Inputs& in, Result* result) {
  auto s = std::make_unique<Served>();
  if (!s->store.ok()) {
    result->Break("substrate attach failed");
    return s;
  }
  const uint64_t failures = Preload(s->store, in);
  result->Attempt(kKeys);
  if (failures > 0) result->Fail(failures, "preload SET failed");
  s->dispatcher = std::make_unique<arthas::net::NetDispatcher>(
      *s->store.mc, /*reactor=*/nullptr);
  if (!s->StartServer()) {
    result->Break("server failed to start");
  }
  return s;
}

// Serves one window of `seconds` in kSegments segments, with every CPU kept
// awake (see KeepAwake).
Window Serve(Served& served, const Inputs& in, double seconds, SpanLog* spans,
             Result* result) {
  Window w(seconds);
  const KeepAwake awake;
  for (int i = 0; i < kSegments; i++) {
    if (i > 0 && !served.StartServer()) {
      result->Break("server failed to restart");
      break;
    }
    Client client(in, served.server->port());
    if (!result->Check(client.ok(), "client could not connect")) break;
    client.Run(seconds / kSegments, awake, spans, w);
  }
  if (w.peak_rss_mb == 0) w.peak_rss_mb = PeakRssMb();
  return w;
}

void ReportWindow(const Window& w, Result* result) {
  result->Attempt(w.sent);
  if (w.bad_replies > 0) result->Fail(w.bad_replies, "wrong reply");
  if (w.unanswered > 0) result->Fail(w.unanswered, "request unanswered");
}

// Traced-run replays of the answered requests on fresh preloaded stores.
struct Replay {
  std::vector<uint32_t> batch_ns;   // per ExecuteBatch call
  std::vector<uint32_t> handle_ns;  // per Handle call
  double dispatch_ns_per_op = 0;
  double handle_ns_per_op = 0;
  double append_ns = 0;  // per CheckpointLog::OnPersist call
};

Replay RunReplays(const Inputs& in, const std::vector<uint32_t>& order,
                  size_t batch, SpanLog* spans, Result* result) {
  Replay rep;
  std::vector<arthas::net::NetCommand> commands;
  std::vector<arthas::Request> requests;
  for (const uint32_t op : order) {
    std::string_view line = in.Line(op);
    line.remove_suffix(2);  // the parser takes a line without its CRLF
    commands.push_back(arthas::net::ParseRequestLine(line));
    arthas::Request r;
    r.op = in.ops[op].set ? arthas::Request::Op::kPut
                          : arthas::Request::Op::kGet;
    r.key = in.keys[in.ops[op].key];
    if (in.ops[op].set) r.value = in.values[in.ops[op].key];
    requests.push_back(std::move(r));
  }

  {  // NetDispatcher::ExecuteBatch, in batches the size the server saw.
    Store store(SystemOptions());
    Preload(store, in);
    arthas::net::NetDispatcher dispatcher(*store.mc, nullptr);
    std::string out;
    std::vector<arthas::net::NetCommand> chunk;
    int64_t total = 0;
    for (size_t i = 0; i < commands.size(); i += batch) {
      chunk.assign(commands.begin() + i,
                   commands.begin() + std::min(commands.size(), i + batch));
      out.clear();
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(spans, "dispatch.execute_batch", i);
        dispatcher.ExecuteBatch(chunk, &out);
      }
      const int64_t ns = NowNs() - t0;
      total += ns;
      rep.batch_ns.push_back(static_cast<uint32_t>(ns));
      if (out.find("-ERR") != std::string::npos ||
          out.find("-FAULT") != std::string::npos) {
        result->Fail(1, "dispatcher replay returned an error");
      }
    }
    rep.dispatch_ns_per_op = static_cast<double>(total) / commands.size();
  }

  {  // PmSystemTarget::Handle, one request at a time.
    Store store(SystemOptions());
    Preload(store, in);
    int64_t total = 0;
    for (size_t i = 0; i < requests.size(); i++) {
      const int64_t t0 = NowNs();
      arthas::Response resp;
      {
        ScopedSpan span(spans, "system.handle", i);
        resp = store.mc->Handle(requests[i]);
      }
      const int64_t ns = NowNs() - t0;
      total += ns;
      rep.handle_ns.push_back(static_cast<uint32_t>(ns));
      if (!resp.status.ok()) result->Fail(1, "Handle replay failed");
    }
    rep.handle_ns_per_op = static_cast<double>(total) / requests.size();
  }

  {  // CheckpointLog::OnPersist on the persist stream the requests cause.
    PersistRecorder recorder;
    size_t preload_persists = 0;
    {
      Store store(SystemOptions());
      store.mc->pool().device().AddObserver(&recorder);
      Preload(store, in);
      preload_persists = recorder.size();
      for (const arthas::Request& r : requests) store.mc->Handle(r);
      store.mc->pool().device().RemoveObserver(&recorder);
    }
    rep.append_ns =
        recorder.ReplayAppendNs(SystemOptions(), preload_persists, spans);
  }
  return rep;
}

}  // namespace

void RunServeRead(const Args& args, Result* result) {
  const Inputs in(args.seed);

  // --- Setup, repeated; the last served store is the measured one. ---
  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (int i = 0; i < kSetups; i++) {
    served.reset();
    const int64_t t0 = NowNs();
    served = Setup(in, result);
    setup_s.push_back(NsToS(NowNs() - t0));
  }
  if (!result->correct()) return;

  const double seconds = args.window_seconds();
  const Window base = Serve(*served, in, seconds, nullptr, result);
  ReportWindow(base, result);

  if (!args.trace) {
    result->Metric("setup_s", Median(setup_s), "s");
    result->Metric("ops_per_s", base.latency.MedianIntervalRate(), "1/s");
    result->Metric("p50_us", NsToUs(base.latency.Quantile(0.50)), "us");
    result->Metric("p99_us", NsToUs(base.latency.MedianIntervalQuantile(0.99)),
                   "us");
    result->Metric("latency_samples",
                   static_cast<double>(base.latency.size()), "count");
    result->Metric("success_rate", result->SuccessRate(), "fraction");
    result->Metric("peak_rss_mb", base.peak_rss_mb, "MB");
    return;
  }

  // --- Traced window: spans per request, counters and registry around it.
  SpanLog spans;
  arthas::obs::MetricsRegistry::Global().ResetAll();
  const Counts before = served->store.Snapshot();
  const Window traced = Serve(*served, in, seconds, &spans, result);
  ReportWindow(traced, result);
  const Counts c = served->store.Snapshot() - before;
  const arthas::obs::RegistrySnapshot reg =
      arthas::obs::MetricsRegistry::Global().Snapshot();
  // A second untraced window, so the tracing overhead is measured against
  // windows on both sides and the store's growth in between cancels out.
  const Window after = Serve(*served, in, seconds, nullptr, result);
  ReportWindow(after, result);
  const arthas::CheckpointLog& log = served->store.log();
  const uint64_t user_bytes = base.user_bytes + traced.user_bytes +
                              after.user_bytes +
                              kKeys * (in.keys[0].size() + kValueLen);
  const double ckpt_per_user = static_cast<double>(
      log.arena_bytes() + log.index_bytes()) / user_bytes;
  const double retained = static_cast<double>(log.retained_versions());
  const double arena = static_cast<double>(log.arena_bytes());
  const double index = static_cast<double>(log.index_bytes());
  const double entries = static_cast<double>(log.entry_count());
  served.reset();  // stop the server: the replays below run alone

  const double cmds_per_batch = HistogramOf(reg, "net.batch.size").mean;
  const size_t batch =
      std::max<size_t>(1, static_cast<size_t>(std::lround(cmds_per_batch)));
  std::vector<uint32_t> order = traced.answered_ops;
  if (order.size() > kMaxReplay) order.resize(kMaxReplay);
  Replay rep = RunReplays(in, order, batch, &spans, result);

  const double ops = static_cast<double>(traced.answered);
  auto per_op = [&](uint64_t v) { return static_cast<double>(v) / ops; };
  const auto alloc = HistogramOf(reg, "pool.alloc.ns");
  // Self times per op (us). The wire's share of a request is the window's
  // wall time per answered request; the dispatcher, system, pool and
  // checkpoint shares come from the replays and the pool's own histogram.
  const double wire_us = NsToUs(traced.latency.wall_ns()) / ops;
  const double dispatch_us = NsToUs(rep.dispatch_ns_per_op);
  const double handle_us = NsToUs(rep.handle_ns_per_op);
  const double ckpt_us = NsToUs(rep.append_ns) * per_op(c.ckpt_records);
  const double pool_us = NsToUs(alloc.sum) / ops;
  const double net_self = wire_us - dispatch_us;
  const double dispatch_self = dispatch_us - handle_us;
  const double system_self = handle_us - ckpt_us - pool_us;
  const double self_sum = std::max(net_self, 0.0) +
                          std::max(dispatch_self, 0.0) +
                          std::max(system_self, 0.0) + ckpt_us + pool_us;

  result->Metric("net.self_us_per_op", net_self, "us");
  result->Metric("net.cmds_per_batch", cmds_per_batch, "count");
  result->Metric("net.ctx_switches_per_op",
                 per_op(traced.process.ctx_switches -
                        traced.client.ctx_switches),
                 "count");
  result->Metric("client.cpu_us_per_op", traced.client.cpu_s * 1e6 / ops,
                 "us");
  result->Metric("client.ctx_switches_per_op",
                 per_op(traced.client.ctx_switches), "count");
  result->Metric("client.busy_us_per_op", NsToUs(traced.client_busy_ns) / ops,
                 "us");
  result->Metric("dispatch.batch_us_p50",
                 NsToUs(Quantile(rep.batch_ns, 0.50)), "us");
  result->Metric("dispatch.batch_us_p99",
                 NsToUs(Quantile(rep.batch_ns, 0.99)), "us");
  result->Metric("dispatch.self_us_per_op", dispatch_self, "us");
  result->Metric("system.handle_us_p50", NsToUs(Quantile(rep.handle_ns, 0.50)),
                 "us");
  result->Metric("system.handle_us_p99", NsToUs(Quantile(rep.handle_ns, 0.99)),
                 "us");
  // Time the system would be busy serving the window's requests.
  result->Metric("system.busy_s", NsToS(rep.handle_ns_per_op * ops), "s");
  result->Metric("system.self_us_per_op", system_self, "us");
  result->Metric("substrate.sections_per_op", per_op(c.sections), "count");
  result->Metric("pool.alloc_us_p50", NsToUs(alloc.p50), "us");
  result->Metric("pool.alloc_us_p99", NsToUs(alloc.p99), "us");
  result->Metric("pool.alloc_share",
                 alloc.sum / std::max(rep.handle_ns_per_op * ops, 1.0),
                 "fraction");
  result->Metric("pool.allocs_per_op", per_op(c.allocs), "count");
  result->Metric("pool.frees_per_op", per_op(c.frees), "count");
  result->Metric("pool.self_us_per_op", pool_us, "us");
  result->Metric("pmem.persists_per_op", per_op(c.persists), "count");
  result->Metric("pmem.lines_per_op", per_op(c.lines), "count");
  result->Metric("pmem.drains_per_op", per_op(c.drains), "count");
  result->Metric("pmem.write_amp",
                 static_cast<double>(c.lines) * arthas::kCacheLineSize /
                     std::max<uint64_t>(traced.user_bytes, 1),
                 "ratio");
  result->Metric("checkpoint.append_ns", rep.append_ns, "ns");
  result->Metric("checkpoint.self_us_per_op", ckpt_us, "us");
  result->Metric("checkpoint.records_per_op", per_op(c.ckpt_records), "count");
  result->Metric("checkpoint.copy_bytes_per_op", per_op(c.ckpt_bytes),
                 "bytes");
  result->Metric("checkpoint.retained_versions", retained, "count");
  result->Metric("checkpoint.arena_bytes", arena, "bytes");
  result->Metric("checkpoint.index_bytes", index, "bytes");
  result->Metric("checkpoint.entries", entries, "count");
  result->Metric("checkpoint.bytes_per_user_byte", ckpt_per_user, "ratio");
  result->Metric("trace.records_per_op", per_op(c.trace_records), "count");
  result->Metric("closure.e2e_us_per_op", wire_us, "us");
  result->Metric("closure.self_sum_share", self_sum / wire_us, "fraction");
  result->Metric("trace.overhead_share",
                 1.0 - traced.latency.MedianIntervalRate() /
                           ((base.latency.MedianIntervalRate() +
                             after.latency.MedianIntervalRate()) / 2),
                 "fraction");
  if (!args.span_file.empty() && !spans.Write(args.span_file)) {
    result->Break("could not write " + args.span_file);
  }
}

}  // namespace perfbench
