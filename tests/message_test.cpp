// Tests for the flat message layer: the per-kind bit-size table (golden
// sizes matching the retired virtual bit_size() implementations), the
// kind-checked accessor, kind names, and EventQueue ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/event_queue.h"
#include "net/message.h"
#include "net/network.h"
#include "support/bitstring.h"
#include "support/random.h"

namespace fba::sim {
namespace {

Wire golden_wire() {
  Wire w;
  w.node_id_bits = 10;
  w.label_bits = 20;
  w.slice_bits = 5;
  w.phase_bits = 3;
  w.value_bits = 7;
  w.fixed_string_bits = 40;
  return w;
}

Message msg_of(MessageKind kind) {
  Message m;
  m.kind = kind;
  return m;
}

TEST(MessageSizeTest, KindTableMatchesGoldenSizes) {
  // Expected values reproduce the old per-payload virtual bit_size()
  // formulas, evaluated at golden_wire(): string=40, label=20, id=10,
  // slice-index=5, phase-index=3, slice-value=7.
  const Wire w = golden_wire();
  const std::vector<std::pair<MessageKind, std::size_t>> golden = {
      {MessageKind::kPush, 40},             // string
      {MessageKind::kPoll, 40 + 20},        // string + label
      {MessageKind::kPull, 40 + 20},        // string + label
      {MessageKind::kFw1, 40 + 20 + 2 * 10},  // string + label + 2 ids
      {MessageKind::kFw2, 40 + 20 + 10},    // string + label + 1 id
      {MessageKind::kAnswer, 40},           // string
      {MessageKind::kContrib, 7 + 5},       // value + slice index
      {MessageKind::kPkValue, 7 + 5 + 3},   // value + slice + phase
      {MessageKind::kPkKing, 7 + 5 + 3},    // value + slice + phase
      {MessageKind::kFinalSlice, 7 + 5},    // value + slice index
      {MessageKind::kPkExchange, 64 + 8},   // fixed
      {MessageKind::kPkDecree, 64 + 8},     // fixed
      {MessageKind::kBcast, 40},            // string
      {MessageKind::kQuery, 0},             // header-only
      {MessageKind::kReply, 40},            // string
      {MessageKind::kSnowQuery, 16},        // fixed round tag
      {MessageKind::kSnowReply, 40 + 16},   // string + round tag
      {MessageKind::kPing, 16},             // fixed
      {MessageKind::kAck, 32},              // fixed recovery cookie
  };
  // The table above must cover every sendable kind exactly once.
  EXPECT_EQ(golden.size(), kNumMessageKinds - 1);  // all but kNone
  for (const auto& [kind, expected] : golden) {
    EXPECT_EQ(message_bit_size(msg_of(kind), w), expected)
        << kind_name(kind);
  }
}

TEST(MessageSizeTest, StringSizesComeFromTheTable) {
  StringTable table;
  Rng rng(7);
  const StringId id = table.intern(BitString::random(23, rng));
  Wire w;
  w.table = &table;
  Message m = msg_of(MessageKind::kPush);
  m.s = id;
  EXPECT_EQ(message_bit_size(m, w), 23u);
}

TEST(MessageSizeTest, HeaderChargesKindTagAndSenderId) {
  const Wire w = golden_wire();
  EXPECT_EQ(w.header_bits(), Wire::kKindTagBits + 10);
}

TEST(MessageAccessorTest, MismatchReturnsNull) {
  Message m = msg_of(MessageKind::kPoll);
  m.s = 3;
  EXPECT_EQ(m.as(MessageKind::kPush), nullptr);
  EXPECT_EQ(m.as(MessageKind::kAnswer), nullptr);
  const Message* poll = m.as(MessageKind::kPoll);
  ASSERT_NE(poll, nullptr);
  EXPECT_EQ(poll, &m);  // kind-checked view of the same value
  EXPECT_EQ(poll->s, 3u);
}

TEST(MessageKindTest, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
    const std::string name = kind_name(static_cast<MessageKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate kind name " << name;
  }
}

// ----- EventQueue ------------------------------------------------------------
// Both storage modes must produce the same (at, pri, seq) delivery order;
// every ordering test runs against the heap and the calendar buckets, each
// through its own consumer: pop() on the heap, drain_due() on the buckets.

/// What a consumer sees of one delivered event, in either mode.
struct Delivered {
  SimTime at = 0;
  bool is_timer = false;
  NodeId src = 0;  ///< message source, or the timer's node.
  std::uint64_t token = 0;
};

/// Consumes every event due at or before `until`, in delivery order.
std::vector<Delivered> take_due(EventQueue& q, EventQueue::Mode mode,
                                SimTime until) {
  std::vector<Delivered> out;
  if (mode == EventQueue::Mode::kHeap) {
    while (!q.empty() && q.next_at() <= until) {
      const EventQueue::Event ev = q.pop();
      out.push_back({ev.at, ev.is_timer,
                     ev.is_timer ? ev.timer_node : ev.env.src,
                     ev.timer_token});
    }
    return out;
  }
  // One tick per call, so each visit knows its timestamp; ticks drained by
  // an earlier call are already gone.
  for (SimTime tick = 0; tick <= until; ++tick) {
    q.drain_due(tick, [&](const EventQueue::LaneEntry& ev) {
      const bool timer = ev.kind() == EventQueue::LaneEntry::Kind::kTimer;
      out.push_back({tick, timer, timer ? ev.timer_node() : ev.env.src,
                     timer ? ev.timer_token() : 0});
    });
  }
  return out;
}

class EventQueueModes
    : public ::testing::TestWithParam<EventQueue::Mode> {};

INSTANTIATE_TEST_SUITE_P(Modes, EventQueueModes,
                         ::testing::Values(EventQueue::Mode::kHeap,
                                           EventQueue::Mode::kBuckets));

TEST_P(EventQueueModes, FifoAmongEqualTimestamps) {
  EventQueue q(GetParam());
  for (std::uint32_t i = 0; i < 16; ++i) {
    Envelope env;
    env.src = i;
    q.push_message(1.0, 0, env);
  }
  const std::vector<Delivered> due = take_due(q, GetParam(), 1.0);
  ASSERT_EQ(due.size(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(due[i].src, i);  // push order preserved at one timestamp
  }
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueModes, OrdersByTimeThenPriorityThenSeq) {
  EventQueue q(GetParam());
  Envelope env;
  env.src = 1;
  q.push_message(2.0, 0, env);       // later time loses to earlier time
  env.src = 2;
  q.push_message(1.0, 1, env);       // same time: higher pri class later
  env.src = 3;
  q.push_message(1.0, 0, env);
  q.push_timer(1.0, 2, 7, 42);       // timers after messages

  const std::vector<Delivered> due = take_due(q, GetParam(), 2.0);
  ASSERT_EQ(due.size(), 4u);
  EXPECT_EQ(due[0].src, 3u);         // (1.0, pri 0)
  EXPECT_EQ(due[1].src, 2u);         // (1.0, pri 1)
  EXPECT_TRUE(due[2].is_timer);      // (1.0, pri 2)
  EXPECT_EQ(due[2].at, 1.0);
  EXPECT_EQ(due[2].src, 7u);
  EXPECT_EQ(due[2].token, 42u);
  EXPECT_EQ(due[3].src, 1u);         // (2.0)
  EXPECT_EQ(due[3].at, 2.0);
}

TEST_P(EventQueueModes, DueBatchDrainsInDeliveryOrder) {
  EventQueue q(GetParam());
  Envelope env;
  env.src = 5;
  q.push_message(2.0, 1, env);  // not due yet
  env.src = 1;
  q.push_message(1.0, 1, env);
  q.push_timer(1.0, 2, 9, 1);
  env.src = 0;
  q.push_message(1.0, 0, env);  // corrupt-origin class: delivered first

  std::vector<Delivered> due = take_due(q, GetParam(), 1.0);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].src, 0u);
  EXPECT_EQ(due[1].src, 1u);
  EXPECT_TRUE(due[2].is_timer);
  EXPECT_EQ(q.size(), 1u);  // the 2.0 message stays queued

  // Order survives interleaved push/drain cycles.
  env.src = 6;
  q.push_message(2.0, 0, env);
  due = take_due(q, GetParam(), 2.0);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].src, 6u);
  EXPECT_EQ(due[1].src, 5u);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueModes, RandomizedOrderMatchesStableSort) {
  EventQueue q(GetParam());
  Rng rng(99);
  struct Key {
    double at;
    std::uint32_t pri;
    std::size_t idx;
  };
  std::vector<Key> keys;
  for (std::size_t i = 0; i < 500; ++i) {
    const double at = static_cast<double>(rng.node(8));
    const auto pri = static_cast<std::uint32_t>(rng.node(3));
    Envelope env;
    env.src = static_cast<NodeId>(i);
    q.push_message(at, pri, env);
    keys.push_back({at, pri, i});
  }
  std::stable_sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.pri < b.pri;
  });
  const std::vector<Delivered> due = take_due(q, GetParam(), 7.0);
  ASSERT_EQ(due.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(due[i].src, keys[i].idx);
    EXPECT_EQ(due[i].at, keys[i].at);
  }
}

// ----- bucket mode: pooled chunk lanes drained in place ---------------------

/// The reference model's record of one queued event.
struct QueuedEvent {
  bool is_timer = false;
  NodeId timer_node = 0;
  std::uint64_t payload = 0;  ///< timer token, or env.msg.value.
  RecoveryTag rec;
};

/// Lanes several chunks long, drained in place while the visitor pushes
/// messages 1-3 rounds ahead (the fault-delay shape) and timers, checked
/// event by event against a stable sort of the pushes on (at, pri) — so an
/// entry lost, repeated or misordered at a chunk boundary fails. Each
/// tick's first visit also fans out more than a chunk into one lane, so a
/// chunk handed back before its visit ends would be overwritten. Then the
/// same trace on the cleared queue must reuse the chunks it already has.
TEST(EventQueueBucketTest, LongLanesDrainInOrderWhileVisitorsPushAhead) {
  constexpr SimTime kLastPushTick = 6;
  EventQueue q(EventQueue::Mode::kBuckets);
  std::size_t chunks_after_cold_run = 0;
  for (int pass = 0; pass < 2; ++pass) {
    q.clear();
    Rng rng(20130722);
    std::map<std::tuple<SimTime, std::uint32_t, std::uint64_t>, QueuedEvent>
        model;
    std::uint64_t seq = 0;
    std::uint64_t next_payload = 0;
    auto push = [&](SimTime at, std::uint32_t pri) {
      QueuedEvent ev;
      ev.payload = ++next_payload;
      if (rng.below(4) == 0) {
        ev.is_timer = true;
        ev.timer_node = rng.below(4) == 0 ? kRecoveryTimerNode : rng.node(64);
        q.push_timer(at, pri, ev.timer_node, ev.payload);
      } else {
        Envelope env;
        env.msg.value = ev.payload;
        if (rng.below(2) == 0) {
          ev.rec = RecoveryTag{static_cast<std::uint32_t>(rng.next()),
                               static_cast<std::uint16_t>(rng.below(65536))};
        }
        q.push_message(at, pri, env, ev.rec);
      }
      model.emplace(std::make_tuple(at, pri, seq++), ev);
    };
    // Every (tick, pri) lane of the first three ticks starts over three
    // chunks long, so the boundaries are crossed many times.
    for (SimTime tick = 1; tick <= 3; ++tick) {
      for (std::size_t i = 0; i < 10 * EventQueue::kChunkEntries; ++i) {
        push(tick, static_cast<std::uint32_t>(rng.below(3)));
      }
    }
    std::size_t visited = 0;
    for (SimTime tick = 1; !q.empty(); ++tick) {
      bool first_visit = true;
      q.drain_due(tick, [&](const EventQueue::LaneEntry& ev) {
        if (::testing::Test::HasFatalFailure()) return;  // first mismatch only
        ASSERT_FALSE(model.empty());
        const auto it = model.begin();
        const QueuedEvent& expected = it->second;
        ASSERT_EQ(std::get<0>(it->first), tick) << "visit " << visited;
        const bool timer = ev.kind() == EventQueue::LaneEntry::Kind::kTimer;
        ASSERT_EQ(timer, expected.is_timer) << "visit " << visited;
        if (timer) {
          ASSERT_EQ(ev.timer_node(), expected.timer_node);
          ASSERT_EQ(ev.timer_token(), expected.payload) << "visit " << visited;
        } else {
          ASSERT_EQ(ev.env.msg.value, expected.payload) << "visit " << visited;
          ASSERT_EQ(ev.rec().slot1, expected.rec.slot1);
          ASSERT_EQ(ev.rec().gen, expected.rec.gen);
        }
        model.erase(it);
        ++visited;
        if (tick > kLastPushTick) return;
        if (first_visit) {
          first_visit = false;
          for (std::size_t k = 0; k <= EventQueue::kChunkEntries; ++k) {
            push(tick + 1, 1);
          }
        }
        for (std::uint64_t k = rng.below(3); k > 0; --k) {
          push(tick + 1 + static_cast<SimTime>(rng.below(3)),
               static_cast<std::uint32_t>(rng.below(3)));
        }
      });
      ASSERT_EQ(q.size(), model.size()) << "tick " << tick;
    }
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(visited, seq);
    EXPECT_GT(visited, 60 * EventQueue::kChunkEntries);
    // Memory follows the events in flight — the pending ones plus the rest
    // of the tick being visited, at most twice the peak — with one partly
    // filled chunk per live lane (ticks t..t+3) on top.
    EXPECT_LE(q.chunks_allocated(),
              2 * q.peak_size() / EventQueue::kChunkEntries +
                  4 * EventQueue::kNumPriorities);
    if (pass == 0) {
      chunks_after_cold_run = q.chunks_allocated();
    } else {
      EXPECT_EQ(q.chunks_allocated(), chunks_after_cold_run);  // warm reuse
    }
  }
}

/// A visitor may only push beyond the tick being drained: the drained tick
/// is already behind the ring's base, so a push into it throws.
TEST(EventQueueBucketTest, PushIntoTheDrainedTickThrows) {
  EventQueue q(EventQueue::Mode::kBuckets);
  Envelope env;
  q.push_message(1.0, 0, env);
  EXPECT_THROW(q.drain_due(1.0,
                           [&](const EventQueue::LaneEntry&) {
                             q.push_message(1.0, 1, env);
                           }),
               InvariantError);
  EXPECT_THROW(q.push_message(0.5, 0, env), InvariantError);  // non-integral
}

// ----- heap mode: compact entries over the payload slab ---------------------

/// Interleaved pushes and pops against an ordered map keyed (at, pri, seq):
/// every pop must return the model's first entry with its payload intact —
/// full 64-bit timer tokens, the sentinel timer node and recovery tags
/// included. Times sit on a coarse grid so most keys tie on `at` and the
/// pri/seq tie-breaks decide.
TEST(EventQueueHeapTest, InterleavedPushPopMatchesOrderedModel) {
  EventQueue q(EventQueue::Mode::kHeap);
  Rng rng(20130722);
  std::map<std::tuple<double, std::uint32_t, std::uint64_t>, QueuedEvent>
      model;
  std::uint64_t seq = 0;
  double now = 0;
  for (int step = 0; step < 20000; ++step) {
    if (model.empty() || rng.below(5) < 3) {
      const double at = now + 0.5 * static_cast<double>(rng.below(6));
      const auto pri = static_cast<std::uint32_t>(rng.below(3));
      QueuedEvent ev;
      ev.payload = rng.next();
      if (rng.below(2) == 0) {
        ev.is_timer = true;
        ev.timer_node = rng.below(4) == 0 ? kRecoveryTimerNode : rng.node(64);
        q.push_timer(at, pri, ev.timer_node, ev.payload);
      } else {
        Envelope env;
        env.msg.value = ev.payload;
        if (rng.below(2) == 0) {
          ev.rec = RecoveryTag{static_cast<std::uint32_t>(rng.next()),
                               static_cast<std::uint16_t>(rng.below(65536))};
        }
        q.push_message(at, pri, env, ev.rec);
      }
      model.emplace(std::make_tuple(at, pri, seq++), ev);
    } else {
      const auto it = model.begin();
      const auto& [at, pri, expected_seq] = it->first;
      const QueuedEvent& expected = it->second;
      const EventQueue::Event ev = q.pop();
      ASSERT_EQ(ev.at, at) << "step " << step;
      ASSERT_EQ(ev.pri, pri) << "step " << step;
      ASSERT_EQ(ev.seq, expected_seq) << "step " << step;
      ASSERT_EQ(ev.is_timer, expected.is_timer);
      if (ev.is_timer) {
        EXPECT_EQ(ev.timer_node, expected.timer_node);
        EXPECT_EQ(ev.timer_token, expected.payload);
      } else {
        EXPECT_EQ(ev.env.msg.value, expected.payload);
        EXPECT_EQ(ev.rec().slot1, expected.rec.slot1);
        EXPECT_EQ(ev.rec().gen, expected.rec.gen);
      }
      now = ev.at;
      model.erase(it);
    }
    ASSERT_EQ(q.size(), model.size());
  }
  EXPECT_GT(q.peak_size(), 1000u);  // deep enough to sift many levels
}

/// Timers ride inline in the heap entry; only messages take a payload-slab
/// slot, and a popped message's slot is reused by the next push, so the
/// slab tracks the high-water of queued messages rather than the number
/// ever sent.
TEST(EventQueueHeapTest, TimersTakeNoSlabSlotAndSlotsAreReused) {
  EventQueue q(EventQueue::Mode::kHeap);
  for (std::uint32_t i = 0; i < 100; ++i) {
    q.push_timer(10.0 + i, 0, i, i);
  }
  EXPECT_EQ(q.slab_slots(), 0u);
  Envelope env;
  for (std::uint64_t round = 0; round < 50; ++round) {
    for (std::uint64_t k = 0; k < 4; ++k) {
      env.msg.value = round * 4 + k;
      q.push_message(0.1 * static_cast<double>(round), 0, env);  // < timers
    }
    for (std::uint64_t k = 0; k < 4; ++k) {
      const EventQueue::Event ev = q.pop();
      ASSERT_FALSE(ev.is_timer);
      EXPECT_EQ(ev.env.msg.value, round * 4 + k);
    }
  }
  EXPECT_EQ(q.slab_slots(), 4u);
  EXPECT_EQ(q.size(), 100u);

  q.clear();  // rewinds the slab and the seq counter with the queue
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slab_slots(), 0u);
  q.push_message(1.0, 0, env);
  EXPECT_EQ(q.slab_slots(), 1u);
  EXPECT_EQ(q.pop().seq, 0u);
}

/// Heap keys compare timestamps by their bit patterns, which order like the
/// doubles only for non-negative values: -0.0 is folded into time zero, and
/// negative or NaN timestamps — like out-of-range priority classes and
/// burst descriptors, which belong to the sync engine — are rejected before
/// anything is queued.
TEST(EventQueueHeapTest, RejectsPushesOutsideTheKeyDomain) {
  EventQueue q(EventQueue::Mode::kHeap);
  Envelope env;
  env.src = 1;
  q.push_message(0.25, 0, env);
  env.src = 2;
  q.push_message(-0.0, 0, env);
  EXPECT_THROW(q.push_message(-1.0, 0, env), InvariantError);
  EXPECT_THROW(q.push_timer(std::nan(""), 0, 0, 0), InvariantError);
  EXPECT_THROW(q.push_message(1.0, EventQueue::kNumPriorities, env),
               InvariantError);
  EXPECT_THROW(q.push_burst(1.0, 0, env), InvariantError);  // sync-only
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.slab_slots(), 2u);  // rejected pushes took no slot
  const EventQueue::Event first = q.pop();
  EXPECT_EQ(first.env.src, 2u);
  EXPECT_EQ(first.at, 0.0);
  EXPECT_EQ(q.pop().env.src, 1u);
}

// ----- heap mode: timer runs beside the heap --------------------------------

/// InterleavedPushPopMatchesOrderedModel's reference model, wrapped for the
/// timer-run tests. Every push is at pri 0, so the model is keyed (at, seq).
/// Each push goes to the queue and the model alike, and pop() checks the
/// queue's next event against the model's first, payload included.
class HeapReference {
 public:
  explicit HeapReference(EventQueue& q) : q_(q) {}

  void timer(SimTime at) {
    QueuedEvent ev;
    ev.is_timer = true;
    ev.payload = ++payload_;
    ev.timer_node = payload_ % 4 == 0 ? kRecoveryTimerNode
                                      : static_cast<NodeId>(payload_ % 64);
    q_.push_timer(at, 0, ev.timer_node, ev.payload);
    model_.emplace(std::make_pair(at, seq_++), ev);
    ++timers_;
  }

  void message(SimTime at) {
    QueuedEvent ev;
    ev.payload = ++payload_;
    Envelope env;
    env.msg.value = ev.payload;
    q_.push_message(at, 0, env);
    model_.emplace(std::make_pair(at, seq_++), ev);
  }

  ::testing::AssertionResult pop() {
    if (model_.empty()) return ::testing::AssertionFailure() << "model empty";
    const auto it = model_.begin();
    const auto [at, seq] = it->first;
    const QueuedEvent& expected = it->second;
    const EventQueue::Event ev = q_.pop();
    const std::uint64_t payload =
        ev.is_timer ? ev.timer_token : ev.env.msg.value;
    if (ev.at != at || ev.seq != seq || ev.is_timer != expected.is_timer ||
        payload != expected.payload ||
        (ev.is_timer && ev.timer_node != expected.timer_node)) {
      return ::testing::AssertionFailure()
             << "popped " << (ev.is_timer ? "timer" : "message") << " (at "
             << ev.at << ", seq " << ev.seq << ") where the model has "
             << (expected.is_timer ? "timer" : "message") << " (at " << at
             << ", seq " << seq << ")";
    }
    now_ = at;
    model_.erase(it);
    if (q_.size() != model_.size()) {
      return ::testing::AssertionFailure()
             << "queue holds " << q_.size() << ", model " << model_.size();
    }
    return ::testing::AssertionSuccess();
  }

  /// Clears the queue mid-stream; the model restarts with it.
  void clear() {
    q_.clear();
    model_.clear();
    seq_ = 0;
    timers_ = 0;
    now_ = 0;
  }

  std::size_t size() const { return model_.size(); }
  std::size_t timers() const { return timers_; }  ///< pushed since clear().
  SimTime now() const { return now_; }  ///< the last popped timestamp.

 private:
  EventQueue& q_;
  std::map<std::pair<SimTime, std::uint64_t>, QueuedEvent> model_;
  std::uint64_t seq_ = 0;
  std::uint64_t payload_ = 0;
  std::size_t timers_ = 0;
  SimTime now_ = 0;
};

/// The recovery layer's shape: each tracked send queues its message at
/// now + U(0, 1] and its retransmit timer at now + RTO, where the RTO is one
/// of arq-fast's backoff levels over a base that drifts slowly up and down
/// with time. Every timer must take a run — none enters the heap — while
/// the order stays exact.
TEST(EventQueueHeapTest, RecoveryShapedTimersNeverEnterTheHeap) {
  constexpr SimTime kRto[] = {2.5, 3.75, 5.625, 8.0};
  EventQueue q(EventQueue::Mode::kHeap);
  HeapReference ref(q);
  Rng rng(20130722);
  for (int step = 0; step < 200000; ++step) {
    if (ref.size() == 0 || (ref.size() < 12000 && rng.below(2) == 0)) {
      const SimTime now = ref.now();
      const SimTime base = 0.1 * (1 + std::sin(now / 4));
      ref.message(now + rng.uniform_positive());
      ref.timer(now + base + kRto[rng.below(4)]);
    } else {
      ASSERT_TRUE(ref.pop()) << "step " << step;
    }
  }
  while (ref.size() > 0) ASSERT_TRUE(ref.pop());
  EXPECT_GT(ref.timers(), 50000u);
  EXPECT_GT(ref.now(), 30.0);  // a full period of the base's drift
  EXPECT_EQ(q.timer_fallbacks(), 0u);
  EXPECT_GT(q.peak_size(), 4 * EventQueue::kRunChunkEntries);
}

/// More interleaved timer streams than there are runs, each starting below
/// the last: a stream's first timer sorts before every run's tail, so the
/// first eight open a run each and the rest go to the heap, stream after
/// stream. Messages and pops interleave throughout; the order must stay
/// exact.
TEST(EventQueueHeapTest, DescendingStreamsBeyondTheRunCountFallBackExactly) {
  constexpr std::size_t kStreams = EventQueue::kTimerRuns + 5;
  constexpr std::size_t kRounds = 3000;
  EventQueue q(EventQueue::Mode::kHeap);
  HeapReference ref(q);
  Rng rng(7);
  for (std::size_t k = 0; k < kRounds; ++k) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      ref.timer(100.0 - static_cast<double>(s) + 0.01 * static_cast<double>(k));
    }
    ref.message(ref.now() + rng.uniform_positive());
    for (std::uint64_t pops = rng.below(16); pops > 0; --pops) {
      ASSERT_TRUE(ref.pop()) << "round " << k;
    }
  }
  while (ref.size() > 0) ASSERT_TRUE(ref.pop());
  EXPECT_EQ(q.timer_fallbacks(),
            (kStreams - EventQueue::kTimerRuns) * kRounds);
}

/// A run longer than four chunks drains while a second ascending stream,
/// interleaved with it in time, fills another run from the chunks the
/// first hands back; once both are empty, a third stream takes a run again
/// without allocating a chunk.
TEST(EventQueueHeapTest, DrainedRunReturnsItsChunksAndTakesANewStream) {
  constexpr std::size_t kLong = 4 * EventQueue::kRunChunkEntries +
                                EventQueue::kRunChunkEntries / 2;
  constexpr SimTime kStep = 1.0 / 1024;
  EventQueue q(EventQueue::Mode::kHeap);
  HeapReference ref(q);
  for (std::size_t i = 0; i < kLong; ++i) {
    ref.timer(10.0 + kStep * static_cast<double>(i));
  }
  EXPECT_EQ(q.chunks_allocated(), 5u);  // one run, 4.5 chunks
  // Each pop is followed by a timer just after it: the new stream sorts
  // below the first run's tail, so it opens a run of its own.
  for (std::size_t i = 0; i < kLong; ++i) {
    ASSERT_TRUE(ref.pop()) << "pop " << i;
    ref.timer(ref.now() + kStep / 2);
  }
  EXPECT_LT(q.chunks_allocated(), 2 * 5u);  // the second run reused chunks
  while (ref.size() > 0) ASSERT_TRUE(ref.pop());
  const std::size_t chunks = q.chunks_allocated();
  for (std::size_t i = 0; i < kLong; ++i) {
    ref.timer(20.0 + kStep * static_cast<double>(i));
  }
  EXPECT_EQ(q.chunks_allocated(), chunks);
  while (ref.size() > 0) ASSERT_TRUE(ref.pop());
  EXPECT_EQ(q.timer_fallbacks(), 0u);
}

/// Events tied on `at` go by seq whichever store holds them: run entries,
/// timers the runs turned away to the heap, and messages.
TEST(EventQueueHeapTest, TiesOnTimeGoBySeqAcrossRunsAndHeap) {
  EventQueue q(EventQueue::Mode::kHeap);
  HeapReference ref(q);
  ref.message(5.0);
  ref.timer(5.0);  // opens run 0
  ref.message(5.0);
  ref.timer(5.0);  // joins run 0
  ref.timer(12.0);  // joins run 0, whose tail is now past 5.0
  // Seven more runs, each tail past 5.0: 11, 10, ..., 6, then 5.5.
  for (SimTime at = 11.0; at >= 6.0; --at) ref.timer(at);
  ref.timer(5.5);
  EXPECT_EQ(q.timer_fallbacks(), 0u);
  ref.message(5.0);
  ref.timer(5.0);  // no run can take it: to the heap
  ref.message(5.0);
  ref.timer(5.0);
  EXPECT_EQ(q.timer_fallbacks(), 2u);
  EXPECT_EQ(q.next_at(), 5.0);
  while (ref.size() > 0) ASSERT_TRUE(ref.pop());
}

/// clear() mid-stream empties the runs and restarts seq, and refilling the
/// queue with the same stream allocates no new chunk.
TEST(EventQueueHeapTest, ClearMidStreamEmptiesRunsAndReusesChunks) {
  EventQueue q(EventQueue::Mode::kHeap);
  HeapReference ref(q);
  auto fill = [&] {
    Rng rng(99);
    for (int i = 0; i < 4000; ++i) {
      ref.message(ref.now() + rng.uniform_positive());
      ref.timer(ref.now() + 2.5 + 0.001 * static_cast<double>(i % 3));
      ref.timer(50.0 - 0.01 * static_cast<double>(i));  // some to the heap
      if (i % 2 == 0) {
        ASSERT_TRUE(ref.pop()) << "pop " << i;
      }
    }
  };
  fill();
  const std::size_t chunks = q.chunks_allocated();
  EXPECT_GT(chunks, 2u);
  EXPECT_GT(q.timer_fallbacks(), 0u);
  ref.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slab_slots(), 0u);
  EXPECT_EQ(q.timer_fallbacks(), 0u);
  // Only empty runs can take eight descending timers, one each; a ninth,
  // earlier still, goes to the heap.
  for (std::size_t k = 0; k < EventQueue::kTimerRuns; ++k) {
    ref.timer(100.0 - static_cast<double>(k));
  }
  EXPECT_EQ(q.timer_fallbacks(), 0u);
  ref.timer(1.0);
  EXPECT_EQ(q.timer_fallbacks(), 1u);
  const EventQueue::Event first = q.pop();  // seq restarted at 0
  EXPECT_EQ(first.at, 1.0);
  EXPECT_EQ(first.seq, EventQueue::kTimerRuns);
  ref.clear();
  fill();
  while (ref.size() > 0) ASSERT_TRUE(ref.pop());
  EXPECT_EQ(q.chunks_allocated(), chunks);
}

}  // namespace
}  // namespace fba::sim
