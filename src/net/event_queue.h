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
// Both modes are calendar queues (R. Brown, CACM 1988): a power-of-two ring
// of time slots, each a chain of fixed-size chunks from the queue's chunk
// pool. A push appends in place, and a chunk goes back to the pool once its
// slot has drained past it, so memory follows the events in flight. The
// pools keep their chunks across clear(): a warm queue allocates nothing.
//   - kCalendar (async engine, continuous time, pop()): time `at` falls in
//     slot floor(at * kSlotsPerUnit), monotone in `at`, so slots come due
//     in key order. A slot whose appends arrived in key order is walked in
//     place (on async-lossy-arq, 85% of slots and 93% of events); any other
//     is copied out and sorted once, by the full key, when it comes due. So
//     the order is exact for any input. Eight 64-bit occupancy words find
//     the next non-empty slot. Events past the fine ring's two time units
//     (backed-off timers, jitter) wait in a coarse ring of one chain per
//     time unit.
//   - kBuckets (sync engine, integral rounds, drain_due()): one bucket per
//     round, one lane per priority class, each lane a chain of LaneEntries
//     visited in place: nothing is copied or sorted.
//
// The engines are thin timing policies over this core: they decide each
// event's (at, pri) and consume the ordered stream.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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
    kCalendar,  ///< continuous timestamps: fine slots sorted on demand.
    kBuckets,   ///< integral timestamps: per-round buckets.
  };

  /// Priority classes supported (lanes per bucket in bucket mode).
  static constexpr std::uint32_t kNumPriorities = 3;

  /// LaneEntries per bucket-mode chunk (144 KiB of storage per chunk).
  static constexpr std::size_t kChunkEntries = 2048;

  /// Calendar mode: slots per time unit. A power of two, so at *
  /// kSlotsPerUnit is exact and its floor is monotone in `at`. 256 keeps a
  /// slot of uniformly delayed messages to a few hundred entries (one short
  /// sort) at async-lossy-arq's load, and a multiple of 64 keeps each time
  /// unit on whole bitmap words.
  static constexpr std::size_t kSlotsPerUnit = 256;

  /// Calendar-mode entries per chunk (4 KiB of storage). Every occupied
  /// slot holds at least one chunk, and the fine ring has 512 slots, so the
  /// chunk size bounds that slack (2 MiB at 128 entries).
  static constexpr std::size_t kSlotChunkEntries = 128;

  /// One calendar-mode event as pop() rebuilds it from an Entry and its
  /// slab payload.
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
  // The size enters the sync engine's memory account, and with it the
  // fig3-scale baseline's bytes per node.
  static_assert(sizeof(LaneEntry) <= 72, "an envelope plus one word");
  static_assert(std::is_trivially_copyable_v<LaneEntry> &&
                    std::is_trivially_destructible_v<LaneEntry>,
                "entries are built in raw chunk storage and never destroyed");

  explicit EventQueue(Mode mode = Mode::kCalendar);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Empties the queue and rewinds the clock to tick 0, keeping the slab,
  /// both rings and every chunk (trial-arena reuse).
  void clear();

  /// Calendar mode: the earliest pending event's timestamp, which pop()
  /// returns next. Queue must be non-empty.
  SimTime next_at() { return std::bit_cast<SimTime>(front_entry().key_hi); }

  /// Queues a message delivery at (at, pri). `rec` is the recovery-layer
  /// tag of a tracked send (default: untracked).
  void push_message(SimTime at, std::uint32_t pri, const Envelope& env,
                    RecoveryTag rec = {});
  /// Queues a timer firing at (at, pri).
  void push_timer(SimTime at, std::uint32_t pri, NodeId node,
                  std::uint64_t token);

  /// Queues a burst descriptor: one event standing for a batch of same-kind
  /// deliveries the consumer re-expands at delivery time (the scale path's
  /// n*d burst events instead of n*d^3 envelopes). `env` carries the
  /// template message; dst is ignored. Its one seq matches the per-send
  /// path's consecutive seqs. Bucket mode only (the sync engine's).
  void push_burst(SimTime at, std::uint32_t pri, const Envelope& env);

  /// Calendar mode: removes and returns the next event in (at, pri, seq)
  /// order — the earliest queued, even if pushed after a later one popped.
  Event pop();

  /// Bucket mode: visits every event with at <= until in delivery order,
  /// in place in its chunk — the sync engine's round loop. Each chunk goes
  /// back to the free list once visited. The visitor may push new events
  /// strictly beyond the tick being drained (a push into it throws as a
  /// push into the past). Visited entries are invalid after the call.
  template <typename Visitor>
  void drain_due(SimTime until, Visitor&& visit) {
    FBA_ASSERT(mode_ == Mode::kBuckets, "drain_due needs the bucket queue");
    while (!ring_.slots.empty() && static_cast<SimTime>(ring_.base) <= until) {
      // Detach the tick's lanes and step past it before visiting: the chains
      // stay put while visitor pushes regrow the ring.
      Bucket& front = ring_.slots[ring_.head];
      const std::array<LaneChain, kNumPriorities> lanes = front.lanes;
      size_ -= front.count;
      ring_.pop_front();
      for (const LaneChain& lane : lanes) lane_chunks_.consume(lane, 0, visit);
    }
  }

  /// High-water mark of pending events since the last clear().
  std::size_t peak_size() const { return peak_size_; }
  /// Bytes the pending events occupied at their high-water mark since the
  /// last clear() (LaneEntries, or calendar entries plus payload-slab
  /// slots): the event core's share of a trial's deterministic memory
  /// account. Counts, never capacities.
  std::size_t peak_bytes() const;

  /// Calendar mode: payload-slab slots handed out since the last clear(),
  /// the high-water of queued messages (timers take none).
  std::size_t slab_slots() const { return slab_.size(); }
  /// Chunks allocated over the queue's lifetime (clear() keeps them all).
  std::size_t chunks_allocated() const {
    return lane_chunks_.allocated() + slot_chunks_.allocated();
  }
  /// Chunks on the free list: all of them once the queue is empty.
  std::size_t chunks_free() const {
    return lane_chunks_.free_count() + slot_chunks_.free_count();
  }

 private:
  /// One calendar-mode entry. (key_hi, key_lo) is the (at, pri, seq) order
  /// as one unsigned 128-bit integer: key_hi is the bit pattern of the
  /// non-negative timestamp (IEEE-754 non-negative doubles order like their
  /// bit patterns), key_lo is pri << kSeqBits | seq. Timers carry their
  /// node and token here; messages carry their slab index and packed
  /// recovery tag. The envelope stays in the slab: with it inline (96-byte
  /// entries) every timer pays for one, and async-lossy-arq's peak RSS rose
  /// by 31%.
  struct Entry {
    std::uint64_t key_hi = 0;
    std::uint64_t key_lo = 0;
    std::uint64_t word = 0;  ///< timer token, or the packed recovery tag.
    std::uint32_t ref = 0;   ///< timer node, or the payload slab index.
    bool is_timer = false;
  };
  static_assert(sizeof(Entry) == 32, "two entries per cache line");
  static_assert(std::is_trivially_copyable_v<Entry> &&
                    std::is_trivially_destructible_v<Entry>,
                "entries are built in raw chunk storage");
  static constexpr unsigned kSeqBits = 62;

  using Key = unsigned __int128;
  static Key key_of(const Entry& x) {
    return (Key{x.key_hi} << 64) | x.key_lo;
  }
  /// Descending key order: the sorted remainder pops from its back.
  static bool later(const Entry& x, const Entry& y) {
    return key_of(x) > key_of(y);
  }
  /// The fine-slot tick of an entry: floor(at * kSlotsPerUnit).
  static std::uint64_t tick_of(const Entry& x) {
    return static_cast<std::uint64_t>(std::bit_cast<SimTime>(x.key_hi) *
                                      kSlotsPerUnit);
  }
  /// A validated entry keyed (at, pri, next seq), its payload left unset.
  Entry keyed(SimTime at, std::uint32_t pri);
  /// Parks `env` in the payload slab; returns its slot index.
  std::uint32_t slab_put(const Envelope& env);
  /// Counts one more pending event.
  void note_push() {
    if (++size_ > peak_size_) peak_size_ = size_;
  }

  /// Fixed-size chunks of `kEntries` raw Entry slots, for either mode. A
  /// chunk's `next` links its owner's chain, or the free list while the
  /// chunk is unused. The storage starts out raw — each push constructs its
  /// entry in place — so a fresh chunk costs no initialization pass.
  template <typename T, std::size_t kEntries>
  class ChunkPool {
   public:
    struct Chunk {
      Chunk* next = nullptr;
      alignas(T) std::byte storage[kEntries * sizeof(T)];

      T* entries() { return std::launder(reinterpret_cast<T*>(storage)); }
    };
    /// A chain of chunks in append order. Every chunk but the tail is full;
    /// the tail holds `fill` entries.
    struct Chain {
      Chunk* head = nullptr;
      Chunk* tail = nullptr;
      std::uint32_t fill = 0;

      const T& last() const { return tail->entries()[fill - 1]; }
    };

    /// Raw storage for one more entry at the end of `chain`.
    void* append(Chain& chain) {
      if (chain.fill == kEntries || chain.tail == nullptr) {
        Chunk* chunk = acquire();
        (chain.tail == nullptr ? chain.head : chain.tail->next) = chunk;
        chain.tail = chunk;
        chain.fill = 0;
      }
      return chain.tail->entries() + chain.fill++;
    }
    /// Visits `chain`'s entries in order, starting at position `from` of its
    /// head chunk, and hands each chunk back once visited. The visitor may
    /// append to other chains; the caller resets `chain`.
    template <typename Visit>
    void consume(const Chain& chain, std::size_t from, Visit&& visit) {
      for (Chunk* chunk = chain.head; chunk != nullptr; from = 0) {
        const std::size_t used = chunk == chain.tail ? chain.fill : kEntries;
        const T* entries = chunk->entries();
        for (std::size_t i = from; i < used; ++i) visit(entries[i]);
        Chunk* next = chunk->next;
        release(chunk);
        chunk = next;
      }
    }
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
    std::size_t free_count() const {  // a walk: kept off the hot path
      std::size_t n = 0;
      for (const Chunk* c = free_; c != nullptr; c = c->next) ++n;
      return n;
    }

   private:
    /// Owns every chunk ever allocated; chains and the free list borrow
    /// them.
    std::vector<std::unique_ptr<Chunk>> chunks_;
    Chunk* free_ = nullptr;  ///< intrusive LIFO free list.
  };
  using LaneChunks = ChunkPool<LaneEntry, kChunkEntries>;
  using LaneChain = LaneChunks::Chain;
  using SlotChunks = ChunkPool<Entry, kSlotChunkEntries>;
  using EntryChain = SlotChunks::Chain;

  /// A power-of-two ring of T over ticks [base, base + slots.size()), base's
  /// element at `head`. It grows to hold any later tick, re-seating its
  /// elements (chain pointers: the entries never move) by offset.
  template <typename T>
  struct Ring {
    std::vector<T> slots;
    std::size_t head = 0;
    std::uint64_t base = 0;

    T& at(std::uint64_t tick) {
      FBA_ASSERT(tick >= base, "event queue push into the past");
      const std::uint64_t offset = tick - base;
      if (offset >= slots.size()) grow(offset + 1);
      return slots[(head + offset) & (slots.size() - 1)];
    }
    /// Steps past the (non-empty ring's) base tick, emptying its element.
    void pop_front() {
      slots[head] = T{};
      head = (head + 1) & (slots.size() - 1);
      ++base;
    }
    void reset(std::uint64_t first) {
      std::fill(slots.begin(), slots.end(), T{});
      head = 0;
      base = first;
    }
    void grow(std::size_t min_slots) {
      std::size_t n = slots.empty() ? 8 : slots.size() * 2;
      while (n < min_slots) n *= 2;
      std::vector<T> bigger(n);
      for (std::size_t i = 0; i < slots.size(); ++i) {
        bigger[i] = slots[(head + i) & (slots.size() - 1)];
      }
      slots = std::move(bigger);
      head = 0;
    }
  };

  /// One priority class per lane of one round's bucket.
  struct Bucket {
    std::array<LaneChain, kNumPriorities> lanes;
    std::size_t count = 0;
  };
  /// Raw storage for the next entry of (at, pri)'s lane, counted as pending.
  void* lane_slot(SimTime at, std::uint32_t pri);

  /// One fine slot: its chain, and whether its appends came in key order.
  struct Slot {
    EntryChain chain;
    bool ordered = true;
  };
  /// How pop() reads the front slot (the slot at cal_tick_).
  enum class Front : std::uint8_t {
    kIdle,     ///< not opened: the next pop finds the next occupied slot.
    kInPlace,  ///< an ordered slot, walked in its chain from front_pos_.
    kSorted,   ///< the slot's remainder, in sorted_.
  };
  /// The fine ring: two time units' worth of slots, twice the async delay
  /// bound, so that messages skip the coarse ring.
  static constexpr std::size_t kFineSlots = 2 * kSlotsPerUnit;
  static constexpr std::size_t kFineMask = kFineSlots - 1;
  static constexpr std::uint64_t kFirstFarUnit = kFineSlots / kSlotsPerUnit;

  void push_entry(const Entry& entry);  ///< to its slot or coarse unit.
  void append_fine(std::uint64_t tick, const Entry& entry);
  /// A push into the open front slot: in place while it sorts last, else
  /// into the sorted remainder.
  void push_front(const Entry& entry);
  /// The ring index of the first occupied fine slot from `tick`'s on,
  /// wrapping around the ring; false when the fine ring is empty.
  bool find_occupied(std::uint64_t tick, std::size_t& index) const;
  void open_front();  ///< opens the next occupied slot as the front.
  /// Moves the front slot's entries from `from` on into the sorted scratch.
  void sort_front(std::size_t from);
  void spill_far();   ///< moves coarse units the window now covers.
  void free_slot(std::size_t index);  ///< its chunks already handed back.
  const Entry& front_entry();  ///< opens the front; pop()'s next entry.

  Mode mode_;
  std::size_t size_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t next_seq_ = 0;

  // kCalendar state: the fine ring covers ticks [cal_tick_, far_.base *
  // kSlotsPerUnit), at most kFineSlots of them; ring index = tick &
  // kFineMask. The coarse ring holds each later time unit's entries in
  // push order. Messages' envelopes wait in the payload slab.
  std::vector<Slot> fine_;
  std::array<std::uint64_t, kFineSlots / 64> occupied_{};
  std::uint64_t cal_tick_ = 0;  ///< the front slot; earlier pushes join it.
  Front front_ = Front::kIdle;
  std::size_t front_pos_ = 0;  ///< kInPlace: next entry in the head chunk.
  std::vector<Entry> sorted_;  ///< kSorted: the remainder, descending.
  Ring<EntryChain> far_;       ///< coarse units from far_.base on.
  std::size_t far_size_ = 0;   ///< entries in the coarse ring.
  std::vector<Envelope> slab_;
  std::vector<std::uint32_t> slab_free_;  ///< reusable slab slots (LIFO).
  SlotChunks slot_chunks_;

  // kBuckets state: one bucket per round from ring_.base on.
  Ring<Bucket> ring_;
  LaneChunks lane_chunks_;
};

}  // namespace fba::sim
