// Place-local pooled wire-buffer storage for X10RT.
//
// Every active message used to heap-allocate a fresh std::vector<std::byte>
// on the send side and free it on the receive side — pure allocator churn on
// the control-plane hot path. The pool keeps cleared vectors that keep their
// capacity: after warm-up, frame encoding and envelope assembly run
// allocation-free. Buffers whose capacity outgrew `max_capacity` are dropped
// rather than retained so one jumbo payload cannot pin memory forever.
//
// The pool is sharded by place, like the scheduler and the inbox: a sender
// acquires from its own place's shard and a consumer releases into its own.
// Each shard sits on its own cache lines with its own lock, freelist and
// counters, so the acquire/release path never touches another place's
// state. The lock only serializes the place's own workers with its backend
// I/O thread. A local miss may refill from a peer shard in one batch (half
// of the peer's freelist), which keeps the hit ratio up under skewed traffic
// such as one place spawning at all the others; that rare path is the only
// one that locks a foreign shard, and it never holds two shard locks at once.
//
// Books, per shard and summed: hits + misses == acquires, and
// recycled + dropped == releases; per shard, retained == recycled +
// refill_in - refill_out - hits. Every counter but `dropped` is written
// only under its shard's lock; `dropped` takes an atomic add, so freeing
// empty or oversize storage takes no lock. Readers use relaxed loads, and
// the books are exact.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace x10rt {

class BufferPool {
 public:
  /// Capacity a missed acquire reserves up front, so a typical control or
  /// spawn frame is encoded without growth reallocations.
  static constexpr std::size_t kMissReserve = 256;

  /// One shard's books.
  struct Stats {
    std::uint64_t hits = 0;      ///< acquires served from retained storage
    std::uint64_t misses = 0;    ///< acquires that had to allocate
    std::uint64_t recycled = 0;  ///< releases retained in the freelist
    std::uint64_t dropped = 0;   ///< releases freed (empty, oversize, full)
    std::uint64_t refill_in = 0;   ///< buffers taken from peer shards
    std::uint64_t refill_out = 0;  ///< buffers peer shards took from this one
    std::size_t retained = 0;    ///< buffers in the freelist now
  };

  /// `places` shards, each retaining at most `max_retained` buffers of at
  /// most `max_capacity` bytes.
  explicit BufferPool(int places, std::size_t max_retained = 64,
                      std::size_t max_capacity = 1u << 16)
      : places_(std::max(places, 1)),
        max_retained_(max_retained),
        max_capacity_(max_capacity),
        shards_(new Shard[static_cast<std::size_t>(places_)]) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// An empty vector from `place`'s shard, with capacity retained from a
  /// previous release when the shard (or, failing that, a peer shard) has
  /// one — a hit — and freshly reserved otherwise — a miss.
  [[nodiscard]] std::vector<std::byte> acquire(int place) {
    Shard& s = shard(place);
    {
      std::scoped_lock lock(s.mu);
      if (!s.free.empty()) return s.pop_hit();
    }
    return refill(place);
  }

  /// Returns storage to `place`'s shard (cleared, capacity kept). Empty,
  /// oversize or surplus buffers are simply freed.
  void release(int place, std::vector<std::byte>&& v) {
    Shard& s = shard(place);
    if (retainable(v)) {
      v.clear();
      std::scoped_lock lock(s.mu);
      if (s.free.size() < max_retained_) {
        s.free.push_back(std::move(v));
        s.publish_size();
        bump(s.recycled);
        return;
      }
    }
    s.dropped.fetch_add(1, std::memory_order_relaxed);
  }

  /// Returns many buffers under one shard lock — the coalescing layer
  /// stashes per-record payload storage and recycles it in envelope-sized
  /// batches. Leaves `batch` empty.
  void release_batch(int place, std::vector<std::vector<std::byte>>&& batch) {
    Shard& s = shard(place);
    {
      std::scoped_lock lock(s.mu);
      std::uint64_t recycled = 0;
      for (auto& v : batch) {
        if (retainable(v) && s.free.size() < max_retained_) {
          v.clear();
          s.free.push_back(std::move(v));
          ++recycled;
        }
      }
      s.publish_size();
      bump(s.recycled, recycled);
      s.dropped.fetch_add(batch.size() - recycled, std::memory_order_relaxed);
    }
    batch.clear();
  }

  [[nodiscard]] int places() const { return places_; }
  [[nodiscard]] std::size_t max_retained() const { return max_retained_; }

  /// `place`'s books (relaxed reads: exact once traffic has stopped).
  [[nodiscard]] Stats stats(int place) const {
    const Shard& s = shard(place);
    Stats out;
    out.hits = s.hits.load(std::memory_order_relaxed);
    out.misses = s.misses.load(std::memory_order_relaxed);
    out.recycled = s.recycled.load(std::memory_order_relaxed);
    out.dropped = s.dropped.load(std::memory_order_relaxed);
    out.refill_in = s.refill_in.load(std::memory_order_relaxed);
    out.refill_out = s.refill_out.load(std::memory_order_relaxed);
    out.retained = s.size.load(std::memory_order_relaxed);
    return out;
  }

  /// Every shard's books summed.
  [[nodiscard]] Stats totals() const {
    Stats sum;
    for (int p = 0; p < places_; ++p) {
      const Stats s = stats(p);
      sum.hits += s.hits;
      sum.misses += s.misses;
      sum.recycled += s.recycled;
      sum.dropped += s.dropped;
      sum.refill_in += s.refill_in;
      sum.refill_out += s.refill_out;
      sum.retained += s.retained;
    }
    return sum;
  }

 private:
  static constexpr std::size_t kCacheLine = 64;

  struct alignas(kCacheLine) Shard {
    std::mutex mu;
    std::vector<std::vector<std::byte>> free;
    // free.size(), published for peers scanning for a refill victim
    // without taking this shard's lock.
    std::atomic<std::size_t> size{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> recycled{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> refill_in{0};
    std::atomic<std::uint64_t> refill_out{0};

    void publish_size() { size.store(free.size(), std::memory_order_relaxed); }
    // Caller holds `mu` and `free` is non-empty.
    std::vector<std::byte> pop_hit() {
      std::vector<std::byte> out = std::move(free.back());
      free.pop_back();
      publish_size();
      bump(hits);
      return out;
    }
  };

  /// Counter bump for a counter only ever written under its shard's lock: a
  /// relaxed load + store, no read-modify-write.
  static void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  [[nodiscard]] bool retainable(const std::vector<std::byte>& v) const {
    return v.capacity() != 0 && v.capacity() <= max_capacity_;
  }

  Shard& shard(int place) const {
    assert(place >= 0 && place < places_ && "BufferPool: place out of range");
    return shards_[static_cast<std::size_t>(place)];
  }

  /// The miss path: take half of the first peer shard that has storage,
  /// keep all but one in `place`'s shard and return that one (a hit);
  /// allocate when every shard is empty (a miss).
  std::vector<std::byte> refill(int place) {
    std::vector<std::vector<std::byte>> batch;
    for (int i = 1; i < places_ && batch.empty(); ++i) {
      const int victim = (place + i) % places_;
      Shard& v = shard(victim);
      if (v.size.load(std::memory_order_relaxed) == 0) continue;
      std::scoped_lock lock(v.mu);
      const std::size_t take = (v.free.size() + 1) / 2;
      for (std::size_t k = 0; k < take; ++k) {
        batch.push_back(std::move(v.free.back()));
        v.free.pop_back();
      }
      v.publish_size();
      bump(v.refill_out, take);
    }
    Shard& s = shard(place);
    std::scoped_lock lock(s.mu);
    if (batch.empty()) {
      // A release may have landed since the first look.
      if (!s.free.empty()) return s.pop_hit();
      bump(s.misses);
      std::vector<std::byte> fresh;
      fresh.reserve(std::min(kMissReserve, max_capacity_));
      return fresh;
    }
    // The local freelist was empty a moment ago, but releases may have raced
    // in: what would push it past the cap is freed here, and refill_in
    // counts only what arrived (so retained == recycled + refill_in -
    // refill_out - hits holds per shard).
    std::vector<std::byte> out = std::move(batch.back());
    batch.pop_back();
    std::uint64_t arrived = 1;
    for (auto& b : batch) {
      if (s.free.size() >= max_retained_) break;
      s.free.push_back(std::move(b));
      ++arrived;
    }
    s.publish_size();
    bump(s.refill_in, arrived);
    bump(s.hits);
    return out;
  }

  int places_;
  std::size_t max_retained_;
  std::size_t max_capacity_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace x10rt
