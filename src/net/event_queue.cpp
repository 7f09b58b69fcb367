#include "net/event_queue.h"

#include "net/recovery.h"

namespace fba::sim {

EventQueue::EventQueue(Mode mode) : mode_(mode) {
  if (mode_ == Mode::kCalendar) {
    fine_.resize(kFineSlots);
    far_.grow(1);
  }
  clear();
}

void EventQueue::clear() {
  size_ = 0;
  peak_size_ = 0;
  next_seq_ = 0;
  // Every chunk goes back on the free list, whichever chain held it, even
  // a front slot left mid-drain or lanes a throwing visitor left detached.
  std::fill(fine_.begin(), fine_.end(), Slot{});
  occupied_.fill(0);
  cal_tick_ = 0;
  front_ = Front::kIdle;
  front_pos_ = 0;
  sorted_.clear();
  far_.reset(kFirstFarUnit);
  far_size_ = 0;
  slab_.clear();
  slab_free_.clear();
  slot_chunks_.release_all();
  ring_.reset(0);
  lane_chunks_.release_all();
}

std::size_t EventQueue::peak_bytes() const {
  if (mode_ == Mode::kBuckets) return peak_size_ * sizeof(LaneEntry);
  return peak_size_ * sizeof(Entry) +
         slab_.size() * (sizeof(Envelope) + sizeof(std::uint32_t));
}

void* EventQueue::lane_slot(SimTime at, std::uint32_t pri) {
  FBA_ASSERT(pri < kNumPriorities, "bucketed priority class out of range");
  const auto tick = static_cast<std::uint64_t>(at);
  FBA_ASSERT(static_cast<SimTime>(tick) == at,
             "bucketed timestamps must be integral");
  Bucket& bucket = ring_.at(tick);
  ++bucket.count;
  note_push();
  return lane_chunks_.append(bucket.lanes[pri]);
}

EventQueue::Entry EventQueue::keyed(SimTime at, std::uint32_t pri) {
  // `!(at >= 0)` also rejects NaN; -0.0 passes but its sign bit would sort
  // it after every positive time, so it is folded into +0.0.
  FBA_ASSERT(at >= 0, "calendar timestamps must be non-negative");
  FBA_ASSERT(at < 0x1p52, "calendar timestamp out of range");  // tick fits
  FBA_ASSERT(pri < kNumPriorities, "calendar priority class out of range");
  Entry entry;
  entry.key_hi = std::bit_cast<std::uint64_t>(at == 0 ? SimTime{0} : at);
  entry.key_lo = (std::uint64_t{pri} << kSeqBits) | next_seq_++;
  return entry;
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
  if (mode_ == Mode::kCalendar) {
    Entry entry = keyed(at, pri);
    entry.word = RecoveryState::timer_token(rec);  // the tag's 48-bit form
    entry.ref = slab_put(env);
    push_entry(entry);
    return;
  }
  ::new (lane_slot(at, pri)) LaneEntry{
      env, (std::uint64_t{rec.slot1} << 32) | (std::uint64_t{rec.gen} << 16) |
               static_cast<std::uint64_t>(LaneEntry::Kind::kMessage)};
}

void EventQueue::push_timer(SimTime at, std::uint32_t pri, NodeId node,
                            std::uint64_t token) {
  if (mode_ == Mode::kCalendar) {
    Entry entry = keyed(at, pri);
    entry.word = token;
    entry.ref = node;
    entry.is_timer = true;
    push_entry(entry);
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

void EventQueue::free_slot(std::size_t index) {
  fine_[index] = Slot{};
  occupied_[index / 64] &= ~(std::uint64_t{1} << (index % 64));
}

void EventQueue::push_entry(const Entry& entry) {
  note_push();
  // A push before the front slot joins it: its key sorts it ahead of every
  // later slot, and the front slot orders by key, so it pops next.
  const std::uint64_t tick = std::max(tick_of(entry), cal_tick_);
  if (tick >= far_.base * kSlotsPerUnit) {
    ::new (slot_chunks_.append(far_.at(tick / kSlotsPerUnit))) Entry(entry);
    ++far_size_;
  } else if (tick == cal_tick_ && front_ != Front::kIdle) {
    push_front(entry);
  } else {
    append_fine(tick, entry);
  }
}

void EventQueue::append_fine(std::uint64_t tick, const Entry& entry) {
  const std::size_t index = tick & kFineMask;
  Slot& slot = fine_[index];
  if (slot.chain.tail == nullptr) {
    occupied_[index / 64] |= std::uint64_t{1} << (index % 64);
  } else if (key_of(entry) < key_of(slot.chain.last())) {
    slot.ordered = false;
  }
  ::new (slot_chunks_.append(slot.chain)) Entry(entry);
}

void EventQueue::push_front(const Entry& entry) {
  if (front_ == Front::kInPlace) {
    EntryChain& chain = fine_[cal_tick_ & kFineMask].chain;
    if (key_of(entry) > key_of(chain.last())) {
      ::new (slot_chunks_.append(chain)) Entry(entry);
      return;
    }
    sort_front(front_pos_);  // the unread remainder
  }
  sorted_.insert(
      std::upper_bound(sorted_.begin(), sorted_.end(), entry, later), entry);
}

bool EventQueue::find_occupied(std::uint64_t tick, std::size_t& index) const {
  const std::size_t from = tick & kFineMask;
  std::size_t word = from / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from % 64));
  // The window ends on a unit (and word) boundary at most kFineSlots past
  // the start of `from`'s unit, so one pass completes the wrap.
  for (std::size_t probe = 0; probe < occupied_.size(); ++probe) {
    if (bits != 0) {
      index = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      return true;
    }
    word = (word + 1) % occupied_.size();
    bits = occupied_[word];
  }
  return false;
}

void EventQueue::spill_far() {
  // A unit moves only once it fits the window whole, so the fine ring never
  // holds two ticks that share a ring index.
  while ((far_.base + 1) * kSlotsPerUnit <= cal_tick_ + kFineSlots) {
    const EntryChain unit = far_.slots[far_.head];
    far_.pop_front();
    slot_chunks_.consume(unit, 0, [&](const Entry& e) {
      --far_size_;
      append_fine(tick_of(e), e);
    });
  }
}

void EventQueue::open_front() {
  std::size_t index = 0;
  if (!find_occupied(cal_tick_, index)) {
    // The fine ring is empty: jump the window to the next coarse unit.
    FBA_ASSERT(far_size_ > 0, "calendar lost track of its events");
    while (far_.slots[far_.head].head == nullptr) far_.pop_front();
    cal_tick_ = far_.base * kSlotsPerUnit;
    spill_far();
    const bool found = find_occupied(cal_tick_, index);
    FBA_ASSERT(found, "spilled unit not found");
  }
  cal_tick_ += (index - cal_tick_) & kFineMask;
  spill_far();  // every unit past the slot is later than all of it
  front_pos_ = 0;
  if (fine_[index].ordered) {
    front_ = Front::kInPlace;
  } else {
    sort_front(0);
  }
}

void EventQueue::sort_front(std::size_t from) {
  const std::size_t index = cal_tick_ & kFineMask;
  sorted_.clear();
  slot_chunks_.consume(fine_[index].chain, from,
                       [&](const Entry& e) { sorted_.push_back(e); });
  free_slot(index);
  // Keys are unique by seq, so this is a total order; pop() takes the back.
  std::sort(sorted_.begin(), sorted_.end(), later);
  front_ = Front::kSorted;
}

const EventQueue::Entry& EventQueue::front_entry() {
  FBA_ASSERT(mode_ == Mode::kCalendar, "pop needs the calendar queue");
  FBA_ASSERT(size_ > 0, "pop from an empty event queue");
  if (front_ == Front::kIdle) open_front();
  if (front_ == Front::kSorted) return sorted_.back();
  return fine_[cal_tick_ & kFineMask].chain.head->entries()[front_pos_];
}

EventQueue::Event EventQueue::pop() {
  const Entry front = front_entry();
  --size_;
  if (front_ == Front::kSorted) {
    sorted_.pop_back();
    if (sorted_.empty()) front_ = Front::kIdle;
  } else {
    const std::size_t index = cal_tick_ & kFineMask;
    EntryChain& chain = fine_[index].chain;
    if (++front_pos_ ==
        (chain.head == chain.tail ? chain.fill : kSlotChunkEntries)) {
      // The head chunk is spent: hand it back; the slot may now be empty.
      SlotChunks::Chunk* next = chain.head->next;
      slot_chunks_.release(chain.head);
      chain.head = next;
      front_pos_ = 0;
      if (next == nullptr) {
        free_slot(index);
        front_ = Front::kIdle;
      }
    }
  }
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
  return out;
}

}  // namespace fba::sim
