#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename T>
double Quantile(std::vector<T>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return static_cast<double>(values[rank]);
}
template double Quantile(std::vector<double>&, double);
template double Quantile(std::vector<uint32_t>&, double);

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

arthas::obs::HistogramSnapshot HistogramOf(
    const arthas::obs::RegistrySnapshot& snapshot, const char* name) {
  auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? arthas::obs::HistogramSnapshot()
                                         : it->second;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {
Usage UsageOf(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.cpu_s = ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
            (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}
}  // namespace

Usage ThreadUsage() { return UsageOf(RUSAGE_THREAD); }
Usage ProcessUsage() { return UsageOf(RUSAGE_SELF); }

namespace {
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  asm volatile("" ::: "memory");
#endif
}

// One spinner, on `cpu`. It publishes its thread id (0 when it could not
// drop to SCHED_IDLE or stay on its CPU, and so does not spin) and counts
// itself ready.
void Spin(int cpu, int* tid, std::atomic<int>* ready,
          const std::atomic<bool>* stop) {
  sched_param param{};
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  const bool idle = sched_setscheduler(0, SCHED_IDLE, &param) == 0 &&
                    sched_setaffinity(0, sizeof(set), &set) == 0;
  *tid = idle ? static_cast<int>(syscall(SYS_gettid)) : 0;
  ready->fetch_add(1, std::memory_order_release);
  if (!idle) return;
  while (!stop->load(std::memory_order_relaxed)) CpuRelax();
}
}  // namespace

KeepAwake::KeepAwake() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  tids_.assign(cpus.size(), 0);
  std::atomic<int> ready{0};
  for (size_t i = 0; i < cpus.size(); i++) {
    threads_.emplace_back(Spin, cpus[i], &tids_[i], &ready, &stop_);
  }
  while (ready.load(std::memory_order_acquire) <
         static_cast<int>(threads_.size())) {
    std::this_thread::yield();
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

uint64_t KeepAwake::ctx_switches() const {
  uint64_t total = 0;
  for (const int tid : tids_) {
    if (tid == 0) continue;
    std::ifstream status("/proc/self/task/" + std::to_string(tid) +
                         "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
          line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        total += std::strtoull(line.c_str() + line.find(':') + 1, nullptr, 10);
      }
    }
  }
  return total;
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string DerivedValue(uint64_t salt, uint64_t a, uint64_t b, size_t len) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  SplitMix mix(salt ^ (a * 0x100000001b3ULL) ^ (b << 32) ^ b);
  std::string value(len, 'x');
  uint64_t bits = 0;
  for (size_t i = 0; i < len; i++) {
    if (i % 8 == 0) {
      bits = mix.Next();
    }
    value[i] = kAlphabet[(bits & 0xff) % 36];
    bits >>= 8;
  }
  return value;
}

void LatencyLog::Start(int64_t now_ns) {
  segment_start_ns_ = now_ns;
  interval_first_ = samples_.size();
  interval_end_ns_ = now_ns + interval_ns_;
}

void LatencyLog::CloseIntervals(int64_t now_ns) {
  while (now_ns >= interval_end_ns_) {
    intervals_.push_back({interval_first_, samples_.size()});
    interval_first_ = samples_.size();
    interval_end_ns_ += interval_ns_;
  }
}

void LatencyLog::Add(int64_t now_ns, int64_t latency_ns) {
  CloseIntervals(now_ns);
  samples_.push_back(static_cast<uint32_t>(
      std::clamp<int64_t>(latency_ns, 0, UINT32_MAX)));
}

void LatencyLog::Finish(int64_t now_ns) {
  CloseIntervals(now_ns);
  wall_ns_ += now_ns - segment_start_ns_;
}

double LatencyLog::Quantile(double q) const {
  std::vector<uint32_t> all = samples_;
  return perfbench::Quantile(all, q);
}

double LatencyLog::MedianIntervalRate() const {
  if (intervals_.empty()) {
    return samples_.size() / NsToS(wall_ns_);
  }
  std::vector<double> rates;
  for (const auto& [first, last] : intervals_) {
    rates.push_back((last - first) / NsToS(interval_ns_));
  }
  return Median(rates);
}

double LatencyLog::MedianIntervalQuantile(double q) const {
  if (intervals_.empty()) {
    return Quantile(q);
  }
  std::vector<double> quantiles;
  for (const auto& [first, last] : intervals_) {
    std::vector<uint32_t> slice(samples_.begin() + first,
                                samples_.begin() + last);
    quantiles.push_back(perfbench::Quantile(slice, q));
  }
  return Median(quantiles);
}

void SpanLog::Open(const char* name, uint64_t request) {
  const Span span{name, next_id_++,
                  stack_.empty() ? kNone : stack_.back().span.id, request,
                  NowNs(), 0};
  stack_.push_back(OpenSpan{span, 0});
}

void SpanLog::Close() {
  OpenSpan open = stack_.back();
  stack_.pop_back();
  open.span.end_ns = NowNs();
  const int64_t duration = open.span.end_ns - open.span.start_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  Finish(open.span, open.child_ns);
}

void SpanLog::AddRoot(const char* name, uint64_t request, int64_t start_ns,
                      int64_t end_ns) {
  Finish(Span{name, next_id_++, kNone, request, start_ns, end_ns}, 0);
}

SpanLog::Total SpanLog::TotalFor(const char* name) const {
  for (const auto& [n, total] : totals_) {
    if (n == name) {
      return total;
    }
  }
  return Total();
}

void SpanLog::Finish(const Span& span, int64_t child_ns) {
  auto it = std::find_if(totals_.begin(), totals_.end(),
                         [&](const auto& t) { return t.first == span.name; });
  if (it == totals_.end()) {
    totals_.push_back({span.name, Total()});
    it = totals_.end() - 1;
  }
  Total& total = it->second;
  total.count++;
  total.total_ns += span.end_ns - span.start_ns;
  total.self_ns += span.end_ns - span.start_ns - child_ns;
  if (kept_.size() < kMaxKept) {
    kept_.push_back(span);
  } else {
    dropped_++;
  }
}

bool SpanLog::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# spans kept=%zu dropped=%llu\n", kept_.size(),
               static_cast<unsigned long long>(dropped_));
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const Span& s : kept_) {
    std::fprintf(f, "%u\t%u\t%llu\t%s\t%lld\t%lld\n", s.id, s.parent,
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Break("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

double Result::SuccessRate() const {
  return 1.0 - static_cast<double>(failed_) /
                   std::max<uint64_t>(attempted_, 1);
}

bool Result::Check(bool ok, const std::string& what) {
  attempted_++;
  if (!ok) {
    Fail(1, what);
  }
  return ok;
}

void Result::Fail(uint64_t n, const std::string& what) {
  failed_ += n;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void Result::Break(const std::string& what) {
  broken_ = true;
  std::cerr << "perfbench: " << what << "\n";
}

std::string Result::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].second.first);
    out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].first
        << "\": {\"value\": " << buf << ", \"unit\": \""
        << metrics_[i].second.second << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
