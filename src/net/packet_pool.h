// Free-listed Packet pool: where a frame lives while a component holds it.
//
// The event kernel stores callbacks inline with a hard 64-byte size cap
// (sim/event.h), so datapath closures cannot capture a 216-byte `Packet` by
// value. Instead, a component parks the frame in its pool and passes the
// stable `Packet*` around — through its queues and into its closures:
//
//   net::Packet* slot = pool_.acquire(std::move(p));
//   sim.schedule_in(delay, [this, slot] {
//     next_(std::move(*slot));   // consumer moves the payload out...
//     pool_.release(slot);       // ...then the slot is recycled
//   });
//
// An EgressPort moves each frame into a slot once, at enqueue, and the frame
// stays there through the queue, serialization and propagation legs until it
// is delivered (net/port.h).
//
// The arena grows in chunks (stable addresses across growth) and never
// shrinks: after warmup the pool's working set matches the component's peak
// held frame count and `acquire` / `release` are freelist push/pop — zero
// steady-state allocation, which bench_micro's allocation guard pins. Each
// chunk doubles the arena, so a queue that builds to N frames costs
// O(log N) allocations, as the by-value ring it replaced did.
//
// Under AddressSanitizer a released slot is poisoned until it is acquired
// again, so a use after release reports instead of reading a recycled frame.
//
// Pools are owned per component per simulation, so they are thread-confined
// exactly like the Simulator itself (the parallel runner gives each
// replication cell its own simulation).
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "net/packet.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define LGSIM_POISON_SLOT(p) ASAN_POISON_MEMORY_REGION((p), sizeof(Packet))
#define LGSIM_UNPOISON_SLOT(p) ASAN_UNPOISON_MEMORY_REGION((p), sizeof(Packet))
#else
#define LGSIM_POISON_SLOT(p) ((void)(p))
#define LGSIM_UNPOISON_SLOT(p) ((void)(p))
#endif

namespace lgsim::net {

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Move `p` into a recycled slot and return its stable address. The slot
  /// stays valid until release()d; addresses never move (chunked arena).
  Packet* acquire(Packet&& p) {
    Packet* slot = take();
    *slot = std::move(p);
    return slot;
  }
  /// Copy `p` into a slot (the one copy of a frame sent more than once).
  Packet* acquire(const Packet& p) {
    Packet* slot = take();
    *slot = p;
    return slot;
  }

  /// Return a slot to the freelist. The caller must have moved the payload
  /// out (or be done with it); the Packet object itself is reused as-is.
  void release(Packet* slot) {
    LGSIM_POISON_SLOT(slot);
    free_.push_back(slot);  // never allocates: reserved when the arena grew
  }

  /// Slots ever created (the peak held count after warmup).
  std::size_t capacity() const { return made_; }
  /// Slots currently checked out.
  std::size_t in_flight() const { return made_ - free_.size(); }

 private:
  static constexpr std::size_t kFirstChunk = 64;  // frames
  // Chunk k holds 64 * 2^(k-1) frames (k >= 1), so 40 chunks outgrow memory.
  static constexpr std::size_t kMaxChunks = 40;

  Packet* take() {
    if (!free_.empty()) {
      Packet* slot = free_.back();
      free_.pop_back();
      LGSIM_UNPOISON_SLOT(slot);
      return slot;
    }
    if (next_ == chunk_end_) grow();
    ++made_;
    return next_++;
  }

  /// Adds a chunk as large as the arena so far (the first is kFirstChunk).
  void grow() {
    const std::size_t n = made_ == 0 ? kFirstChunk : made_;
    if (n_chunks_ == kMaxChunks) throw std::bad_alloc();
    std::unique_ptr<Packet[]>& chunk = chunks_[n_chunks_++];
    chunk = std::make_unique<Packet[]>(n);
    free_.reserve(made_ + n);
    next_ = chunk.get();
    chunk_end_ = next_ + n;
  }

  std::array<std::unique_ptr<Packet[]>, kMaxChunks> chunks_;
  std::size_t n_chunks_ = 0;
  Packet* next_ = nullptr;       // next never-used slot of the newest chunk
  Packet* chunk_end_ = nullptr;
  std::size_t made_ = 0;         // slots handed out from the chunks so far
  std::vector<Packet*> free_;
};

}  // namespace lgsim::net

#undef LGSIM_POISON_SLOT
#undef LGSIM_UNPOISON_SLOT
