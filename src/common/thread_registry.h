// Per-thread state with a merge-later read side: the one implementation of
// the idiom every observability plane and the checkpoint log's transaction
// staging use to keep writers from contending (paper Table 8: inlined,
// per-thread buffered events, merged afterwards).
//
// ThreadRegistry<State> owns one State per (instance, thread) and hands the
// calling thread its own. ThreadRing<Record> builds on it: a fixed-capacity
// per-thread ring that overwrites its oldest records, with one global
// sequence number totally ordering records across rings.
//
// States are owned by the registry, not by their thread, so a reader still
// sees a worker's records after the worker joins. Instance ids are
// process-unique and never reused, so a thread-local entry left behind by a
// destroyed instance can never alias a live one.

#ifndef ARTHAS_COMMON_THREAD_REGISTRY_H_
#define ARTHAS_COMMON_THREAD_REGISTRY_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace arthas {

// Sequential 1-based number of the calling thread. Every plane stamps this
// same number, so artifacts from different planes agree on which thread did
// what, and small ids keep them readable and stable across runs.
inline uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

namespace internal {
inline uint64_t NextRegistryId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace internal

template <typename State>
class ThreadRegistry {
 public:
  ThreadRegistry() : id_(internal::NextRegistryId()) {}

  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  // The calling thread's state, constructed as State(args...) on the
  // thread's first call for this instance (later calls ignore `args`). The
  // fast path is one thread-local compare and a pointer load: no lock, no
  // CAS, and no TLS wrapper call (the cache is constant-initialized POD).
  template <typename... Args>
  State* Local(const Args&... args) {
    if (tls_cache_.id == id_) [[likely]] {
      return tls_cache_.state;
    }
    return LocalSlow(args...);
  }

  // Runs fn(State&) on every registered state under the registry lock, so
  // `fn` must not call Local() on this instance.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::unique_ptr<State>& state : states_) {
      fn(*state);
    }
  }

  uint64_t id() const { return id_; }

 private:
  struct Cache {
    uint64_t id;
    State* state;
  };

  template <typename... Args>
  State* LocalSlow(const Args&... args) {
    // The cache holds one instance; this map holds every instance the
    // thread has used, so a thread alternating between two instances gets
    // its existing state back instead of registering a new one per switch.
    thread_local std::unordered_map<uint64_t, State*> all;
    auto it = all.find(id_);
    if (it == all.end()) {
      // Allocate the state before the map node: states are large (a ring,
      // a reserved buffer), and placing the small node first measurably
      // fragments the heap of workloads that churn instances.
      auto owned = std::make_unique<State>(args...);
      State* raw = owned.get();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        states_.push_back(std::move(owned));
      }
      it = all.emplace(id_, raw).first;
    }
    tls_cache_ = Cache{id_, it->second};
    return it->second;
  }

  static constinit inline thread_local Cache tls_cache_{0, nullptr};

  const uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<State>> states_;
};

// Per-thread wraparound rings of fixed-size records. `Record` must have a
// `seq` (uint64_t) and a `tid` field; Append stamps both. Writers are
// lock-free and CAS-free; Snapshot/dropped/FindNewest/Clear are
// quiesce-time reads (a record racing them may or may not be included).
template <typename Record>
class ThreadRing {
 public:
  // Per-thread capacity in records, rounded up to a power of two (>= 2).
  explicit ThreadRing(size_t capacity)
      : capacity_(std::bit_ceil(std::max<size_t>(capacity, 2))) {}

  // Appends to the calling thread's ring: `fill(Record&)` writes the
  // payload in place, then seq (the only cross-thread traffic: one relaxed
  // fetch_add) and tid are stamped. Returns the stored record; only the
  // calling thread may read it, and only until its ring wraps over it.
  template <typename Fill>
  const Record& Append(Fill&& fill) {
    Ring* ring = registry_.Local(capacity_);
    const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    Record& r = ring->records[head & (capacity_ - 1)];
    fill(r);
    r.seq = seq;
    r.tid = static_cast<decltype(r.tid)>(ring->tid);
    ring->head.store(head + 1, std::memory_order_release);
    return r;
  }

  // Every retained record, merged across rings in seq order.
  std::vector<Record> Snapshot() const {
    std::vector<Record> out;
    registry_.ForEach([&](const Ring& ring) {
      const uint64_t head = ring.head.load(std::memory_order_acquire);
      const uint64_t n = std::min<uint64_t>(head, capacity_);
      out.reserve(out.size() + n);
      // Oldest retained record first: wraparound overwrote anything before
      // head - capacity.
      for (uint64_t i = head - n; i < head; i++) {
        out.push_back(ring.records[i & (capacity_ - 1)]);
      }
    });
    std::sort(out.begin(), out.end(),
              [](const Record& a, const Record& b) { return a.seq < b.seq; });
    return out;
  }

  // Visits each ring newest record first (rings in registration order) and
  // copies the first record satisfying `pred` into *out.
  template <typename Pred>
  bool FindNewest(Pred&& pred, Record* out) const {
    bool found = false;
    registry_.ForEach([&](const Ring& ring) {
      const uint64_t head = ring.head.load(std::memory_order_acquire);
      const uint64_t n = std::min<uint64_t>(head, capacity_);
      for (uint64_t i = head; !found && i > head - n; i--) {
        const Record& r = ring.records[(i - 1) & (capacity_ - 1)];
        if (pred(r)) {
          *out = r;
          found = true;
        }
      }
    });
    return found;
  }

  // Records appended since construction/Clear, including overwritten ones.
  uint64_t total() const {
    return next_seq_.load(std::memory_order_relaxed) - 1;
  }

  // Records lost to wraparound (total - records retained).
  uint64_t dropped() const {
    uint64_t dropped = 0;
    registry_.ForEach([&](const Ring& ring) {
      const uint64_t head = ring.head.load(std::memory_order_acquire);
      if (head > capacity_) {
        dropped += head - capacity_;
      }
    });
    return dropped;
  }

  // Empties every ring and restarts seq at 1 (threads keep their rings).
  void Clear() {
    registry_.ForEach(
        [](Ring& ring) { ring.head.store(0, std::memory_order_relaxed); });
    next_seq_.store(1, std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }
  // The registry's process-unique instance id.
  uint64_t id() const { return registry_.id(); }

 private:
  struct Ring {
    explicit Ring(size_t capacity) : records(capacity) {}
    std::vector<Record> records;
    // Records ever written; slot = head % capacity. The release store after
    // each write pairs with the readers' acquire load.
    std::atomic<uint64_t> head{0};
    const uint32_t tid = ThreadOrdinal();  // built on the owning thread
  };

  const size_t capacity_;
  std::atomic<uint64_t> next_seq_{1};
  ThreadRegistry<Ring> registry_;
};

}  // namespace arthas

#endif  // ARTHAS_COMMON_THREAD_REGISTRY_H_
