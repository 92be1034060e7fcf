// Growable ring buffers for the datapath.
//
// RingQueue is a FIFO. It replaces `std::deque` on the packet datapath
// (a port's queues hold `Packet*` pool slots): libstdc++'s deque allocates
// and frees ~512-byte node blocks as the head/tail cross block boundaries.
// The ring grows by doubling (amortized, warmup only) and never shrinks, so
// a steady-state push/pop cycle allocates nothing — the invariant
// bench_micro's allocation guard enforces for the port datapath. The event
// kernel's sorted run lane is a RingQueue too; it reads entries by index
// (`at`) and inserts a few places behind the head (`insert_at`).
//
// SeqRing is a map from a 64-bit sequence number to a value, for keys that
// live in a sliding window: LinkGuardian's Tx buffer, reorder buffer and
// hole sets, which the Tofino addresses by seqNo (§3, App. A). It replaces
// `std::map`, which allocates a node per key, with the same ordered
// semantics.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lgsim::util {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T&& v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }
  /// Copies `v` before the ring can grow, so `v` may be one of its entries.
  void push_back(const T& v) { push_back(T(v)); }

  T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }

  T& back() {
    assert(size_ > 0);
    return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
  }
  const T& back() const {
    assert(size_ > 0);
    return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  /// The i-th entry from the front.
  const T& at(std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  /// Inserts `v` so that it becomes the k-th entry from the front (k <= size).
  /// The first k entries shift one slot toward the front, so the cost is
  /// O(k), not O(size): cheap for an insert near the head.
  void insert_at(std::size_t k, T v) {
    assert(k <= size_);
    if (size_ == buf_.size()) grow();
    const std::size_t mask = buf_.size() - 1;
    head_ = (head_ - 1) & mask;
    for (std::size_t i = 0; i < k; ++i)
      buf_[(head_ + i) & mask] = std::move(buf_[(head_ + i + 1) & mask]);
    buf_[(head_ + k) & mask] = std::move(v);
    ++size_;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_ = std::move(next);
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 8;  // power of two

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Map from int64 sequence number to T over a window of keys. Slot
/// `v & (capacity - 1)` holds key v, tagged {present, key}; the present keys
/// all lie in [lo, hi) with hi - lo <= capacity, so no two present keys share
/// a slot. An insert that would stretch the window past the capacity doubles
/// it (rehashing the present keys); nothing ever shrinks it, so once the
/// window has reached its working span, insert/find/erase allocate nothing.
/// lo and hi - 1 are always present keys, so the ascending walk is
/// `for k in [lo, hi)`.
///
/// An erased value stays in its slot (moved-from, or as it was) until the
/// slot is reused; T should not own resources whose release time matters.
/// `claim` inserts in place: it hands back the new key's slot still holding
/// that earlier occupant, so the caller must assign every field.
template <typename T>
class SeqRing {
 public:
  SeqRing() = default;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// The lowest present key. Requires !empty().
  std::int64_t front_key() const {
    assert(size_ > 0);
    return lo_;
  }

  T* find(std::int64_t v) {
    if (slots_.empty()) return nullptr;
    Slot& s = slot(v);
    return s.present && s.key == v ? &s.value : nullptr;
  }
  bool contains(std::int64_t v) const {
    if (slots_.empty()) return false;
    const Slot& s = slot(v);
    return s.present && s.key == v;
  }

  /// Inserts `value` at key v unless v is already present — the
  /// `std::map::emplace` contract. Returns the value stored at v and whether
  /// this call inserted it.
  std::pair<T*, bool> emplace(std::int64_t v, T value) {
    if (T* found = find(v)) return {found, false};
    T& s = claim(v);
    s = std::move(value);
    return {&s, true};
  }

  /// Makes key v present and returns its slot to be filled in place. v must
  /// be absent. The slot keeps whatever value it last held (a recycled
  /// slot's previous occupant), so the caller assigns every field.
  T& claim(std::int64_t v) {
    assert(!contains(v));
    if (size_ == 0) {
      if (slots_.empty()) slots_.resize(kInitialCapacity);
      lo_ = v;
      hi_ = v + 1;
    } else if (v < lo_) {
      fit_span(static_cast<std::uint64_t>(hi_ - v));
      lo_ = v;
    } else if (v >= hi_) {
      fit_span(static_cast<std::uint64_t>(v - lo_) + 1);
      hi_ = v + 1;
    }
    Slot& s = slot(v);
    s.key = v;
    s.present = true;
    ++size_;
    return s.value;
  }

  /// Removes key v; returns whether it was present.
  bool erase(std::int64_t v) {
    if (find(v) == nullptr) return false;
    slot(v).present = false;
    if (--size_ == 0) return true;
    if (v == lo_) {
      while (!slot(++lo_).present) {}
    } else if (v == hi_ - 1) {
      while (!slot(--hi_ - 1).present) {}
    }
    return true;
  }

  /// Calls f(key, value&) for every present key in [first, last], in
  /// ascending key order. f must not insert into or erase from the ring.
  template <typename F>
  void for_each_in(std::int64_t first, std::int64_t last, F&& f) {
    if (size_ == 0) return;
    const std::int64_t end = last < hi_ - 1 ? last : hi_ - 1;
    for (std::int64_t k = first > lo_ ? first : lo_; k <= end; ++k) {
      Slot& s = slot(k);
      if (s.present) f(k, s.value);
    }
  }

  /// Every present key in ascending order (same contract as for_each_in).
  template <typename F>
  void for_each(F&& f) {
    if (size_ > 0) for_each_in(lo_, hi_ - 1, std::forward<F>(f));
  }

  /// Removes every key; the capacity is kept, so refilling allocates nothing.
  void clear() {
    if (size_ > 0)
      for (std::int64_t k = lo_; k < hi_; ++k) slot(k).present = false;
    size_ = 0;
  }

 private:
  struct Slot {
    std::int64_t key = 0;
    bool present = false;
    T value{};
  };

  Slot& slot(std::int64_t v) {
    return slots_[static_cast<std::uint64_t>(v) & (slots_.size() - 1)];
  }
  const Slot& slot(std::int64_t v) const {
    return slots_[static_cast<std::uint64_t>(v) & (slots_.size() - 1)];
  }

  /// Doubles the capacity until a window of `span` keys fits.
  void fit_span(std::uint64_t span) {
    if (span <= slots_.size()) return;
    std::size_t cap = slots_.size();
    while (cap < span) cap *= 2;
    std::vector<Slot> next(cap);
    for (std::int64_t k = lo_; k < hi_; ++k) {
      Slot& s = slot(k);
      if (s.present)
        next[static_cast<std::uint64_t>(k) & (cap - 1)] = std::move(s);
    }
    slots_ = std::move(next);
  }

  static constexpr std::size_t kInitialCapacity = 16;  // power of two

  std::vector<Slot> slots_;
  std::int64_t lo_ = 0;  // lowest present key (when size_ > 0)
  std::int64_t hi_ = 0;  // one past the highest present key (when size_ > 0)
  std::size_t size_ = 0;
};

}  // namespace lgsim::util
