// EventQueue: the shared pending-event core under both engines.
//
// Events (message deliveries and timer firings) live by value in pooled
// storage — no per-event heap allocation on the steady-state path (storage
// grows to the high-water of events in flight and is then reused).
// Ordering key is (at, pri, seq):
//   - `at`  — delivery time (sim time in the async engine, round number in
//             the sync engine);
//   - `pri` — same-timestamp delivery class, the engines' timing-policy
//             lever (the sync engine delivers rushing-adversary traffic
//             first and timers last within a round; the async engine uses a
//             single class);
//   - `seq` — push order, so delivery is FIFO among equal (at, pri).
//
// Two storage modes, chosen by the owning engine's timing model:
//   - kHeap    — an implicit 4-ary min-heap for messages plus eight FIFO
//                timer runs; for continuous timestamps (async engine),
//                consumed one event at a time via pop(). Both stores hold
//                compact 32-byte entries (HeapEntry), not Events: the
//                (at, pri, seq) key packed into two words compared as one
//                128-bit integer, plus a timer's node and token carried
//                inline. A message's Envelope is parked in a pooled payload
//                slab (LIFO free list) and touched once on push and once on
//                pop, so a sift level reads one 128-byte sibling group.
//                Timers — the recovery layer's retransmit timers, armed at
//                now + RTO, are a large share of a lossy run's queue —
//                arrive nearly in key order, so they skip the heap: a timer
//                is appended to the run whose last key is the largest key
//                below its own (else to an empty run), and only a timer no
//                run can take is sifted into the heap. Each run is sorted,
//                so pop() returns the smaller of the heap root and the
//                earliest run head: the order is exact for any input. A run
//                is a chain of fixed-size chunks drawn from the queue's
//                chunk pool and handed back as the run drains.
//   - kBuckets — a calendar ring of per-timestamp buckets with one lane per
//                priority class; for integral timestamps (sync rounds),
//                consumed a round at a time via drain_due(). Each lane is a
//                chain of fixed-size chunks of 72-byte LaneEntries (the
//                bucket, lane and position already give (at, pri, seq), so
//                nothing else is stored). Chunks come from the queue's chunk
//                pool and go back to it as soon as drain_due has visited
//                them: a push appends in place and never copies queued
//                events, nothing is ever sifted, and memory follows the
//                events in flight rather than each ring slot's high-water
//                mark.
//
// Both modes' chunk pools keep their chunks across clear(), so a warm queue
// performs no allocation at all.
//
// The engines are thin timing policies over this core: they decide each
// event's (at, pri) and consume the ordered stream.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "net/envelope.h"
#include "support/types.h"

namespace fba::sim {

class EventQueue {
 public:
  enum class Mode {
    kHeap,     ///< continuous timestamps, 4-ary min-heap plus timer runs.
    kBuckets,  ///< integral timestamps, per-round calendar buckets.
  };

  /// Priority classes supported (lanes per bucket in bucket mode).
  static constexpr std::uint32_t kNumPriorities = 3;

  /// LaneEntries per bucket-mode chunk (144 KiB of storage per chunk).
  static constexpr std::size_t kChunkEntries = 2048;

  /// Heap mode: FIFO timer runs beside the heap. A recovery run's timers
  /// fall into a few RTO backoff levels, one run each; more runs cost every
  /// timer push and run pop a longer scan.
  static constexpr std::size_t kTimerRuns = 8;

  /// Heap entries per timer-run chunk (16 KiB of storage per chunk).
  static constexpr std::size_t kRunChunkEntries = 512;

  /// One heap-mode event as pop() rebuilds it from a HeapEntry and its slab
  /// payload.
  struct Event {
    SimTime at = 0;
    std::uint32_t pri = 0;
    /// Recovery-layer tag of a tracked delivery (net/recovery.h), split
    /// across the struct's natural padding holes. 0/0 = untracked.
    std::uint32_t rec_slot1 = 0;
    std::uint64_t seq = 0;  ///< assigned by push; FIFO tie-break.
    bool is_timer = false;
    std::uint16_t rec_gen = 0;  ///< second half of the recovery tag.
    NodeId timer_node = 0;
    std::uint64_t timer_token = 0;
    Envelope env;  ///< valid when !is_timer.

    RecoveryTag rec() const { return RecoveryTag{rec_slot1, rec_gen}; }
  };

  /// One bucket-mode event, stored in place in its lane's chunk and handed
  /// to drain_due's visitor. Its (at, pri, seq) is implicit in the bucket,
  /// lane and position that hold it.
  struct LaneEntry {
    enum class Kind : std::uint8_t { kMessage, kTimer, kBurst };

    /// The delivery (kMessage) or burst template (kBurst). A timer keeps
    /// its node in env.dst and its token in env.msg.value; its other
    /// fields stay default.
    Envelope env;
    /// Recovery tag slot1 << 32 | gen << 16, plus the Kind in the low byte.
    std::uint64_t word = 0;

    Kind kind() const { return static_cast<Kind>(word & 0xff); }
    NodeId timer_node() const { return env.dst; }
    std::uint64_t timer_token() const { return env.msg.value; }
    RecoveryTag rec() const {
      return RecoveryTag{static_cast<std::uint32_t>(word >> 32),
                         static_cast<std::uint16_t>(word >> 16)};
    }
  };
  static_assert(sizeof(LaneEntry) <= 72, "an envelope plus one word");
  static_assert(std::is_trivially_copyable_v<LaneEntry> &&
                    std::is_trivially_destructible_v<LaneEntry>,
                "entries are built in raw chunk storage and never destroyed");

  explicit EventQueue(Mode mode = Mode::kHeap) : mode_(mode) {
    run_front_.fill(kNoKey);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  void reserve(std::size_t n);

  /// Empties the queue and rewinds the clock to tick 0, keeping the heap
  /// slab and every chunk (trial-arena reuse).
  void clear();

  /// Heap mode: the earliest pending event's timestamp. Queue must be
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

  /// Heap mode: removes and returns the next event in (at, pri, seq) order.
  Event pop();

  /// Bucket mode: visits every event with at <= until in delivery order,
  /// in place in its chunk — the sync engine's round loop. Each chunk goes
  /// back to the free list once visited. The visitor may push new events,
  /// but only at timestamps strictly beyond the tick being drained (the
  /// sync engine's round discipline; a push into the drained tick throws
  /// as a push into the past). Visited entries are invalid after the call.
  template <typename Visitor>
  void drain_due(SimTime until, Visitor&& visit) {
    FBA_ASSERT(mode_ == Mode::kBuckets, "drain_due needs the bucket queue");
    while (!ring_.empty() && static_cast<SimTime>(base_tick_) <= until) {
      // Detach the tick's lanes and step past it before visiting: the
      // chains stay put while visitor pushes regrow the ring, and base_tick_
      // already guards the drained tick against late pushes.
      Bucket& front = ring_[head_];
      const std::array<Lane, kNumPriorities> lanes = front.lanes;
      size_ -= front.count;
      front = Bucket{};
      head_ = (head_ + 1) & (ring_.size() - 1);
      ++base_tick_;
      for (const Lane& lane : lanes) {
        for (LaneChunk* chunk = lane.head; chunk != nullptr;) {
          const std::size_t used =
              chunk == lane.tail ? lane.fill : kChunkEntries;
          const LaneEntry* entries = chunk->entries();
          for (std::size_t i = 0; i < used; ++i) visit(entries[i]);
          LaneChunk* next = chunk->next;
          lane_chunks_.release(chunk);
          chunk = next;
        }
      }
    }
  }

  /// High-water mark of pending events since the last clear().
  std::size_t peak_size() const { return peak_size_; }

  /// Bytes the pending events occupied at their high-water mark since the
  /// last clear(), by the mode's storage layout (LaneEntries, or heap and
  /// run entries plus payload-slab slots) — the event core's share of a
  /// trial's deterministic memory account. Counts, never capacities.
  std::size_t peak_bytes() const;

  /// Heap mode: payload-slab slots handed out since the last clear() — the
  /// high-water of simultaneously queued messages (timers take no slot).
  /// 0 in bucket mode.
  std::size_t slab_slots() const { return slab_.size(); }

  /// Heap mode: timers pushed since the last clear() that no timer run
  /// could take, so they were sifted into the heap. 0 in bucket mode.
  std::size_t timer_fallbacks() const { return timer_fallbacks_; }

  /// Chunks allocated over the queue's lifetime — lane chunks in bucket
  /// mode, timer-run chunks in heap mode (clear() keeps them all).
  std::size_t chunks_allocated() const {
    return lane_chunks_.allocated() + run_chunks_.allocated();
  }

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
  static_assert(std::is_trivially_copyable_v<HeapEntry> &&
                    std::is_trivially_destructible_v<HeapEntry>,
                "run entries are built in raw chunk storage");
  static constexpr unsigned kSeqBits = 62;

  using Key = unsigned __int128;
  /// Above every real key (a timestamp's bit pattern is below 2^63): the
  /// front of an empty timer run.
  static constexpr Key kNoKey = ~Key{0};

  static Key key_of(const HeapEntry& x) {
    return (Key{x.key_hi} << 64) | x.key_lo;
  }
  static bool before(const HeapEntry& x, const HeapEntry& y) {
    return key_of(x) < key_of(y);
  }
  /// A validated entry keyed (at, pri, next seq); the caller fills in the
  /// payload fields before storing it.
  HeapEntry heap_entry(SimTime at, std::uint32_t pri);
  /// Counts one more pending event.
  void note_push() {
    if (++size_ > peak_size_) peak_size_ = size_;
  }
  void heap_insert(const HeapEntry& entry);
  /// Parks `env` in the payload slab; returns its slot index.
  std::uint32_t slab_put(const Envelope& env);
  void heap_sift_up(std::size_t i);
  /// Removes the root: a hole walks down along the smaller children to a
  /// leaf, then the former last entry sifts up from there — the last entry
  /// is usually among the latest events, so this skips the per-level
  /// "does it stop here?" compare of the textbook sift-down.
  void heap_remove_front();

  /// Fixed-size chunks of `kEntries` raw Entry slots, for either mode. A
  /// chunk's `next` links its owner's chain, or the free list while the
  /// chunk is unused. The storage starts out raw — each push constructs its
  /// entry in place — so a fresh chunk costs no initialization pass.
  template <typename Entry, std::size_t kEntries>
  class ChunkPool {
   public:
    struct Chunk {
      Chunk* next = nullptr;
      alignas(Entry) std::byte storage[kEntries * sizeof(Entry)];

      Entry* entries() {
        return std::launder(reinterpret_cast<Entry*>(storage));
      }
    };

    /// Pops the free list, allocating a chunk when it is empty.
    Chunk* acquire() {
      if (free_ == nullptr) {
        // Default-initialized: `next` is set, the entry storage stays raw.
        chunks_.push_back(std::unique_ptr<Chunk>(new Chunk));
        return chunks_.back().get();
      }
      Chunk* chunk = free_;
      free_ = chunk->next;
      chunk->next = nullptr;
      return chunk;
    }
    void release(Chunk* chunk) {
      chunk->next = free_;
      free_ = chunk;
    }
    /// Every chunk back on the free list, whichever chain held it.
    void release_all() {
      free_ = nullptr;
      for (const std::unique_ptr<Chunk>& chunk : chunks_) release(chunk.get());
    }
    std::size_t allocated() const { return chunks_.size(); }

   private:
    /// Owns every chunk ever allocated; chains and the free list borrow
    /// them.
    std::vector<std::unique_ptr<Chunk>> chunks_;
    Chunk* free_ = nullptr;  ///< intrusive LIFO free list.
  };
  using LaneChunk = ChunkPool<LaneEntry, kChunkEntries>::Chunk;
  using RunChunk = ChunkPool<HeapEntry, kRunChunkEntries>::Chunk;

  /// One timer run: a chunk chain whose keys ascend in push order. The
  /// head chunk's first `head_pos` entries are popped; every chunk but the
  /// tail is full, and the tail holds `fill` entries.
  struct Run {
    RunChunk* head = nullptr;
    RunChunk* tail = nullptr;
    std::size_t head_pos = 0;
    std::size_t fill = 0;
    Key last = 0;  ///< the newest entry's key.
  };
  /// Appends a timer to the run whose newest key is the largest below its
  /// own, else to an empty run; false when no run can take it.
  bool run_append(const HeapEntry& entry);
  /// Removes the earliest run head (runs_[min_run_]).
  HeapEntry run_pop_front();

  /// One priority class of one tick: a chunk chain in push order. Every
  /// chunk but the tail is full; the tail holds `fill` entries.
  struct Lane {
    LaneChunk* head = nullptr;
    LaneChunk* tail = nullptr;
    std::size_t fill = 0;
  };
  /// One integral timestamp's pending events, one lane per priority class.
  struct Bucket {
    std::array<Lane, kNumPriorities> lanes;
    std::size_t count = 0;
  };

  /// Storage for the next entry of (at, pri)'s lane, counted as pending;
  /// the caller constructs the entry there.
  void* lane_slot(SimTime at, std::uint32_t pri);
  Bucket& bucket_at(std::uint64_t tick);
  void grow_ring(std::size_t min_slots);

  Mode mode_;
  std::size_t size_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t next_seq_ = 0;

  // kHeap state: implicit 4-ary min-heap of compact entries, the pooled
  // payload slab their messages point into, and the timer runs.
  std::vector<HeapEntry> heap_;
  std::vector<Envelope> slab_;
  std::vector<std::uint32_t> slab_free_;  ///< reusable slab slots (LIFO).
  std::array<Run, kTimerRuns> runs_{};
  /// Each run's head key, kNoKey when empty: the array pop() and
  /// run_append scan.
  std::array<Key, kTimerRuns> run_front_;
  std::size_t min_run_ = 0;  ///< the run with the smallest front.
  std::size_t timer_fallbacks_ = 0;
  ChunkPool<HeapEntry, kRunChunkEntries> run_chunks_;

  // kBuckets state: power-of-two ring of buckets covering ticks
  // [base_tick_, base_tick_ + ring_.size()); head_ indexes base_tick_'s slot.
  std::vector<Bucket> ring_;
  std::size_t head_ = 0;
  std::uint64_t base_tick_ = 0;
  ChunkPool<LaneEntry, kChunkEntries> lane_chunks_;
};

}  // namespace fba::sim
