// EventQueue: the shared pending-event core under both engines.
//
// Events (message deliveries and timer firings) live by value in contiguous
// slabs — no per-event heap allocation on the steady-state path (slabs grow
// amortized and are then reused). Ordering key is (at, pri, seq):
//   - `at`  — delivery time (sim time in the async engine, round number in
//             the sync engine);
//   - `pri` — same-timestamp delivery class, the engines' timing-policy
//             lever (the sync engine delivers rushing-adversary traffic
//             first and timers last within a round; the async engine uses a
//             single class);
//   - `seq` — push order, so delivery is FIFO among equal (at, pri).
//
// Two storage modes, chosen by the owning engine's timing model:
//   - kHeap    — an implicit 4-ary min-heap; for continuous timestamps
//                (async engine). O(log n) push/pop. The heap sifts compact
//                32-byte entries (HeapEntry), not Events: the (at, pri, seq)
//                key packed into two words compared as one 128-bit integer,
//                plus a timer's node and token carried inline. A message's
//                Envelope is parked in a pooled payload slab (LIFO free
//                list) and touched once on push and once on pop, so a sift
//                level reads one 128-byte sibling group and timers — the
//                recovery layer's retransmit timers are a large share of a
//                lossy run's queue — never touch the slab at all.
//   - kBuckets — a calendar ring of per-timestamp buckets with one lane per
//                priority class; for integral timestamps (sync rounds).
//                O(1) push, O(1)-per-event batched pop, nothing is ever
//                sifted — a round with a million pending messages drains at
//                memcpy speed. Ring slots (and their lane capacity) are
//                reused in place as time advances, so the steady state
//                performs no allocation at all.
//
// The engines are thin timing policies over this core: they decide each
// event's (at, pri) and consume the ordered stream via pop() or the batched
// pop_due() (sync: one call drains a whole round into a reusable scratch
// vector).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "net/envelope.h"
#include "support/types.h"

namespace fba::sim {

class EventQueue {
 public:
  enum class Mode {
    kHeap,     ///< continuous timestamps, 4-ary min-heap.
    kBuckets,  ///< integral timestamps, per-round calendar buckets.
  };

  /// Priority classes supported in bucket mode (lanes per bucket).
  static constexpr std::uint32_t kNumPriorities = 3;

  /// One event as consumers see it. Bucket mode stores Events as they are;
  /// heap mode stores a HeapEntry (plus a slab payload) and rebuilds the
  /// Event on pop.
  struct Event {
    SimTime at = 0;
    std::uint32_t pri = 0;
    /// Recovery-layer tag of a tracked delivery (net/recovery.h), split
    /// across the struct's two natural padding holes so adding it keeps
    /// sizeof(Event) unchanged (the deterministic memory account charges
    /// queue_peak * sizeof(Event)). 0/0 = untracked.
    std::uint32_t rec_slot1 = 0;
    std::uint64_t seq = 0;  ///< assigned by push; FIFO tie-break.
    bool is_timer = false;
    bool is_burst = false;  ///< env is a burst descriptor (push_burst).
    std::uint16_t rec_gen = 0;  ///< second half of the recovery tag.
    NodeId timer_node = 0;
    std::uint64_t timer_token = 0;
    Envelope env;  ///< valid when !is_timer.

    RecoveryTag rec() const { return RecoveryTag{rec_slot1, rec_gen}; }
  };

  explicit EventQueue(Mode mode = Mode::kHeap) : mode_(mode) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  void reserve(std::size_t n);

  /// Empties the queue and rewinds the clock to tick 0, keeping the heap
  /// slab / ring buckets and their lane capacity (trial-arena reuse).
  void clear();

  /// Earliest (at, pri, seq) pending event's timestamp. Queue must be
  /// non-empty.
  SimTime next_at() const;

  /// Queues a message delivery at (at, pri). `rec` is the recovery-layer
  /// tag of a tracked send (default: untracked).
  void push_message(SimTime at, std::uint32_t pri, const Envelope& env,
                    RecoveryTag rec = {});

  /// Queues a timer firing at (at, pri).
  void push_timer(SimTime at, std::uint32_t pri, NodeId node,
                  std::uint64_t token);

  /// Queues a burst descriptor: one event standing for a batch of same-kind
  /// deliveries the consumer re-expands at delivery time (the scale path's
  /// replacement for the Fw1 d^2 fan-out — n*d burst events instead of
  /// n*d^3 queued envelopes). `env` carries the template message; dst is
  /// ignored. Ordering is a single (at, pri, seq) slot, which matches the
  /// per-send path exactly because the expanded sends were consecutive
  /// seqs there too. Bucket mode only: bursts belong to the sync engine.
  void push_burst(SimTime at, std::uint32_t pri, const Envelope& env);

  /// Removes and returns the next event in (at, pri, seq) order.
  Event pop();

  /// Batched pop: drains every event with at <= until into `out` (cleared
  /// first) in delivery order. Returns the number of events moved. `out`
  /// keeps its capacity across calls, so a reused scratch vector makes the
  /// steady-state round loop allocation-free.
  std::size_t pop_due(SimTime until, std::vector<Event>& out);

  /// In-place drain: visits every event with at <= until in delivery order
  /// without copying the round into a scratch vector — the scale path's
  /// round loop, where a round can hold tens of millions of events. The
  /// visitor may push new events, but only at timestamps strictly beyond
  /// the tick being drained (the sync engine's round discipline; asserted
  /// in bucket mode). Visited events are invalidated after the call.
  template <typename Visitor>
  void drain_due(SimTime until, Visitor&& visit) {
    if (mode_ == Mode::kHeap) {
      while (size_ > 0 && heap_front_at() <= until) {
        Event ev = pop();
        visit(ev);
      }
      return;
    }
    while (!ring_.empty() && static_cast<SimTime>(base_tick_) <= until) {
      {
        Bucket& bucket = front_bucket();
        if (bucket.count == 0) {
          step_base();
          continue;
        }
        // Claim the tick's lanes by swapping them out: visitor pushes may
        // grow the ring and re-seat every bucket, so no reference into
        // ring_ survives the visit loop.
        size_ -= bucket.count;
        bucket.count = 0;
        for (std::uint32_t p = 0; p < kNumPriorities; ++p) {
          drain_scratch_[p].swap(bucket.lanes[p]);
        }
      }
      for (std::uint32_t p = 0; p < kNumPriorities; ++p) {
        for (Event& ev : drain_scratch_[p]) visit(ev);
      }
      // Re-fetch: grow_ring during the visits moves buckets (head_ resets
      // to 0), but the front bucket still maps to the tick just drained.
      Bucket& bucket = front_bucket();
      FBA_ASSERT(bucket.count == 0,
                 "drain_due visitor pushed into the tick being drained");
      for (std::uint32_t p = 0; p < kNumPriorities; ++p) {
        drain_scratch_[p].clear();
        drain_scratch_[p].swap(bucket.lanes[p]);  // hand capacity back
      }
      step_base();
    }
  }

  /// High-water mark of pending events since the last clear() — the event
  /// core's contribution to a trial's deterministic memory accounting.
  std::size_t peak_size() const { return peak_size_; }

  /// Heap mode: payload-slab slots handed out since the last clear() — the
  /// high-water of simultaneously queued messages (timers take no slot).
  /// 0 in bucket mode.
  std::size_t slab_slots() const { return slab_.size(); }

 private:
  /// One heap-mode entry. (key_hi, key_lo) is the (at, pri, seq) order as
  /// one unsigned 128-bit integer: key_hi is the bit pattern of the
  /// non-negative timestamp (IEEE-754 non-negative doubles order like their
  /// bit patterns), key_lo is pri << kSeqBits | seq. Timers carry their
  /// node and token here; messages carry their slab index and packed
  /// recovery tag.
  struct HeapEntry {
    std::uint64_t key_hi = 0;
    std::uint64_t key_lo = 0;
    std::uint64_t word = 0;  ///< timer token, or the packed recovery tag.
    std::uint32_t ref = 0;   ///< timer node, or the payload slab index.
    bool is_timer = false;
  };
  static_assert(sizeof(HeapEntry) == 32, "four siblings span 128 bytes");
  static constexpr unsigned kSeqBits = 62;

  static bool before(const HeapEntry& x, const HeapEntry& y) {
    using Key = unsigned __int128;
    return ((Key{x.key_hi} << 64) | x.key_lo) <
           ((Key{y.key_hi} << 64) | y.key_lo);
  }
  SimTime heap_front_at() const;
  /// A validated entry keyed (at, pri, next seq); the caller fills in the
  /// payload fields before heap_insert.
  HeapEntry heap_entry(SimTime at, std::uint32_t pri);
  void heap_insert(const HeapEntry& entry);
  /// Parks `env` in the payload slab; returns its slot index.
  std::uint32_t slab_put(const Envelope& env);
  void heap_sift_up(std::size_t i);
  /// Removes the root: a hole walks down along the smaller children to a
  /// leaf, then the former last entry sifts up from there — the last entry
  /// is usually among the latest events, so this skips the per-level
  /// "does it stop here?" compare of the textbook sift-down.
  void heap_remove_front();

  /// Bucket-mode push (heap mode builds HeapEntry instead).
  void push(Event&& ev);

  /// One integral timestamp's pending events, one lane per priority class.
  struct Bucket {
    std::array<std::vector<Event>, kNumPriorities> lanes;
    std::size_t count = 0;
  };
  Bucket& bucket_at(std::uint64_t tick);
  Bucket& front_bucket() { return ring_[head_]; }
  void step_base();  ///< recycle the base bucket in place, advance one tick.
  void grow_ring(std::size_t min_slots);

  Mode mode_;
  std::size_t size_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t next_seq_ = 0;

  // kHeap state: implicit 4-ary min-heap of compact entries, and the pooled
  // payload slab their messages point into.
  std::vector<HeapEntry> heap_;
  std::vector<Envelope> slab_;
  std::vector<std::uint32_t> slab_free_;  ///< reusable slab slots (LIFO).

  // kBuckets state: power-of-two ring of buckets covering ticks
  // [base_tick_, base_tick_ + ring_.size()); head_ indexes base_tick_'s slot.
  std::vector<Bucket> ring_;
  std::size_t head_ = 0;
  std::uint64_t base_tick_ = 0;
  /// drain_due's per-tick lane holder (capacity is handed back per tick).
  std::array<std::vector<Event>, kNumPriorities> drain_scratch_;
};

}  // namespace fba::sim
