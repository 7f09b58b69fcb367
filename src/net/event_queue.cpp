#include "net/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "net/recovery.h"

namespace fba::sim {

namespace {
constexpr std::size_t kArity = 4;
constexpr std::size_t kInitialRingSlots = 8;
/// Heap entries below this index (32 KiB) lie on the top levels every pop
/// walks, so they stay cached; sift-down prefetches only beneath them.
constexpr std::size_t kPrefetchFrom = 1024;
}  // namespace

void EventQueue::reserve(std::size_t n) {
  if (mode_ == Mode::kHeap) {
    heap_.reserve(n);
    slab_.reserve(n);
  }
}

void EventQueue::clear() {
  size_ = 0;
  peak_size_ = 0;
  next_seq_ = 0;
  heap_.clear();
  slab_.clear();
  slab_free_.clear();
  // Every chunk goes back on the free list, whichever lane held it —
  // including any that a throwing visitor left detached mid-drain.
  std::fill(ring_.begin(), ring_.end(), Bucket{});
  free_chunks_ = nullptr;
  for (const std::unique_ptr<Chunk>& chunk : chunks_) {
    release_chunk(chunk.get());
  }
  head_ = 0;
  base_tick_ = 0;
}

std::size_t EventQueue::peak_bytes() const {
  if (mode_ == Mode::kBuckets) return peak_size_ * sizeof(LaneEntry);
  return peak_size_ * sizeof(HeapEntry) +
         slab_.size() * (sizeof(Envelope) + sizeof(std::uint32_t));
}

void EventQueue::grow_ring(std::size_t min_slots) {
  std::size_t slots = std::max<std::size_t>(ring_.size() * 2,
                                            kInitialRingSlots);
  while (slots < min_slots) slots *= 2;
  std::vector<Bucket> bigger(slots);
  // Re-seat existing buckets at their new positions (tick order preserved;
  // base_tick_ maps to slot 0 of the new ring). Buckets hold only chain
  // pointers: the entries themselves never move.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

EventQueue::Bucket& EventQueue::bucket_at(std::uint64_t tick) {
  FBA_ASSERT(tick >= base_tick_, "bucketed push into the past");
  const std::uint64_t offset = tick - base_tick_;
  if (offset >= ring_.size()) grow_ring(offset + 1);
  return ring_[(head_ + offset) & (ring_.size() - 1)];
}

EventQueue::Chunk* EventQueue::acquire_chunk() {
  if (free_chunks_ == nullptr) {
    // Default-initialized: `next` is set, the entry storage stays raw.
    chunks_.push_back(std::unique_ptr<Chunk>(new Chunk));
    return chunks_.back().get();
  }
  Chunk* chunk = free_chunks_;
  free_chunks_ = chunk->next;
  chunk->next = nullptr;
  return chunk;
}

void* EventQueue::lane_slot(SimTime at, std::uint32_t pri) {
  FBA_ASSERT(pri < kNumPriorities, "bucketed priority class out of range");
  const auto tick = static_cast<std::uint64_t>(at);
  FBA_ASSERT(static_cast<SimTime>(tick) == at,
             "bucketed timestamps must be integral");
  Bucket& bucket = bucket_at(tick);
  Lane& lane = bucket.lanes[pri];
  if (lane.fill == kChunkEntries || lane.tail == nullptr) {
    Chunk* chunk = acquire_chunk();
    if (lane.tail == nullptr) {
      lane.head = chunk;
    } else {
      lane.tail->next = chunk;
    }
    lane.tail = chunk;
    lane.fill = 0;
  }
  ++bucket.count;
  ++size_;
  if (size_ > peak_size_) peak_size_ = size_;
  return lane.tail->entries() + lane.fill++;
}

EventQueue::HeapEntry EventQueue::heap_entry(SimTime at, std::uint32_t pri) {
  // `!(at >= 0)` also rejects NaN; -0.0 passes but its sign bit would sort
  // it after every positive time, so it is folded into +0.0.
  FBA_ASSERT(at >= 0, "heap timestamps must be non-negative");
  FBA_ASSERT(pri < kNumPriorities, "heap priority class out of range");
  HeapEntry entry;
  entry.key_hi = std::bit_cast<std::uint64_t>(at == 0 ? SimTime{0} : at);
  entry.key_lo = (std::uint64_t{pri} << kSeqBits) | next_seq_++;
  return entry;
}

void EventQueue::heap_insert(const HeapEntry& entry) {
  ++size_;
  if (size_ > peak_size_) peak_size_ = size_;
  heap_.push_back(entry);
  heap_sift_up(heap_.size() - 1);
}

std::uint32_t EventQueue::slab_put(const Envelope& env) {
  if (!slab_free_.empty()) {
    const std::uint32_t slot = slab_free_.back();
    slab_free_.pop_back();
    slab_[slot] = env;
    return slot;
  }
  FBA_ASSERT(slab_.size() < 0xffffffffu, "payload slab index overflow");
  slab_.push_back(env);
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void EventQueue::push_message(SimTime at, std::uint32_t pri,
                              const Envelope& env, RecoveryTag rec) {
  if (mode_ == Mode::kHeap) {
    HeapEntry entry = heap_entry(at, pri);
    entry.word = RecoveryState::timer_token(rec);  // the tag's 48-bit form
    entry.ref = slab_put(env);
    heap_insert(entry);
    return;
  }
  ::new (lane_slot(at, pri)) LaneEntry{
      env, (std::uint64_t{rec.slot1} << 32) | (std::uint64_t{rec.gen} << 16) |
               static_cast<std::uint64_t>(LaneEntry::Kind::kMessage)};
}

void EventQueue::push_timer(SimTime at, std::uint32_t pri, NodeId node,
                            std::uint64_t token) {
  if (mode_ == Mode::kHeap) {
    HeapEntry entry = heap_entry(at, pri);
    entry.word = token;
    entry.ref = node;
    entry.is_timer = true;
    heap_insert(entry);
    return;
  }
  LaneEntry* slot = ::new (lane_slot(at, pri)) LaneEntry{
      Envelope{}, static_cast<std::uint64_t>(LaneEntry::Kind::kTimer)};
  slot->env.dst = node;
  slot->env.msg.value = token;
}

void EventQueue::push_burst(SimTime at, std::uint32_t pri,
                            const Envelope& env) {
  FBA_ASSERT(mode_ == Mode::kBuckets,
             "burst descriptors ride the sync engine's bucket queue");
  ::new (lane_slot(at, pri)) LaneEntry{
      env, static_cast<std::uint64_t>(LaneEntry::Kind::kBurst)};
}

SimTime EventQueue::heap_front_at() const {
  return std::bit_cast<SimTime>(heap_.front().key_hi);
}

SimTime EventQueue::next_at() const {
  FBA_ASSERT(mode_ == Mode::kHeap, "next_at() needs the heap queue");
  FBA_ASSERT(size_ > 0, "next_at() on an empty event queue");
  return heap_front_at();
}

EventQueue::Event EventQueue::pop() {
  FBA_ASSERT(mode_ == Mode::kHeap, "pop() needs the heap queue");
  FBA_ASSERT(size_ > 0, "pop() on an empty event queue");
  --size_;
  const HeapEntry& front = heap_.front();
  Event out;
  out.at = std::bit_cast<SimTime>(front.key_hi);
  out.pri = static_cast<std::uint32_t>(front.key_lo >> kSeqBits);
  out.seq = front.key_lo & ((std::uint64_t{1} << kSeqBits) - 1);
  if (front.is_timer) {
    out.is_timer = true;
    out.timer_node = front.ref;
    out.timer_token = front.word;
  } else {
    const RecoveryTag rec = RecoveryState::tag_of_token(front.word);
    out.rec_slot1 = rec.slot1;
    out.rec_gen = rec.gen;
    out.env = slab_[front.ref];
    slab_free_.push_back(front.ref);
  }
  heap_remove_front();
  return out;
}

void EventQueue::heap_sift_up(std::size_t i) {
  if (i == 0) return;
  std::size_t parent = (i - 1) / kArity;
  if (!before(heap_[i], heap_[parent])) return;  // common case: appended last
  const HeapEntry moving = heap_[i];
  while (true) {
    heap_[i] = heap_[parent];
    i = parent;
    if (i == 0) break;
    parent = (i - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
  }
  heap_[i] = moving;
}

void EventQueue::heap_remove_front() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t hole = 0;
  while (true) {
    const std::size_t first = kArity * hole + 1;
    if (first >= n) break;
    // Past the hot top levels every level is a cache miss: fetch all four
    // candidate grandchild groups — 16 entries, 512 bytes — while this
    // level's minimum is being picked. Two entries per cache line.
    const std::size_t grand = kArity * first + 1;
    if (grand >= kPrefetchFrom) {
      const std::size_t grand_end = std::min(grand + kArity * kArity, n);
      for (std::size_t g = grand; g < grand_end; g += 2) {
        __builtin_prefetch(&heap_[g]);
      }
      if (grand < grand_end) __builtin_prefetch(&heap_[grand_end - 1]);
    }
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  heap_sift_up(hole);
}

}  // namespace fba::sim
