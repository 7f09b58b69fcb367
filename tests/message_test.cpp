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
// every ordering test runs against the calendar and the round buckets, each
// through its own consumer: pop() on the calendar, drain_due() on the
// buckets.

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
  if (mode == EventQueue::Mode::kCalendar) {
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
                         ::testing::Values(EventQueue::Mode::kCalendar,
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

// ----- calendar mode: compact entries over the payload slab -----------------

/// Interleaved pushes and pops against an ordered map keyed (at, pri, seq):
/// every pop must return the model's first entry with its payload intact —
/// full 64-bit timer tokens, the sentinel timer node and recovery tags
/// included. Times sit on a coarse grid so most keys tie on `at` and the
/// pri/seq tie-breaks decide, and a fifth of the pushes land in the slot
/// being drained.
TEST(EventQueueCalendarTest, InterleavedPushPopMatchesOrderedModel) {
  EventQueue q(EventQueue::Mode::kCalendar);
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
  EXPECT_GT(q.peak_size(), 1000u);  // slots many chunks long
}

/// Timers ride inline in the calendar entry; only messages take a
/// payload-slab slot, and a popped message's slot is reused by the next
/// push, so the slab tracks the high-water of queued messages rather than
/// the number ever sent.
TEST(EventQueueCalendarTest, TimersTakeNoSlabSlotAndSlotsAreReused) {
  EventQueue q(EventQueue::Mode::kCalendar);
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

/// Calendar keys compare timestamps by their bit patterns, which order like
/// the doubles only for non-negative values: -0.0 is folded into time zero,
/// and negative, NaN or astronomically late timestamps — like out-of-range
/// priority classes and burst descriptors, which belong to the sync engine —
/// are rejected before anything is queued.
TEST(EventQueueCalendarTest, RejectsPushesOutsideTheKeyDomain) {
  EventQueue q(EventQueue::Mode::kCalendar);
  Envelope env;
  env.src = 1;
  q.push_message(0.25, 0, env);
  env.src = 2;
  q.push_message(-0.0, 0, env);
  EXPECT_THROW(q.push_message(-1.0, 0, env), InvariantError);
  EXPECT_THROW(q.push_timer(std::nan(""), 0, 0, 0), InvariantError);
  EXPECT_THROW(q.push_timer(0x1p60, 0, 0, 0), InvariantError);
  EXPECT_THROW(q.push_message(1.0, EventQueue::kNumPriorities, env),
               InvariantError);
  EXPECT_THROW(q.push_burst(1.0, 0, env), InvariantError);  // sync-only
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.slab_slots(), 2u);  // rejected pushes took no slot
  const EventQueue::Event first = q.pop();
  EXPECT_EQ(first.env.src, 2u);
  EXPECT_EQ(first.at, 0.0);
  EXPECT_EQ(q.pop().env.src, 1u);
  q.push_message(0.25, 0, env);
  EXPECT_EQ(q.pop().seq, 2u);  // rejected pushes took no seq either
}

// ----- calendar mode: slots walked in place or sorted once -------------------

/// InterleavedPushPopMatchesOrderedModel's reference model, wrapped for the
/// slot tests. Every push is at pri 0, so the model is keyed (at, seq).
/// Each push goes to the queue and the model alike, and pop() checks the
/// queue's next event against the model's first, payload included.
class OrderReference {
 public:
  explicit OrderReference(EventQueue& q) : q_(q) {}

  void timer(SimTime at) {
    QueuedEvent ev;
    ev.is_timer = true;
    ev.payload = ++payload_;
    ev.timer_node = payload_ % 4 == 0 ? kRecoveryTimerNode
                                      : static_cast<NodeId>(payload_ % 64);
    q_.push_timer(at, 0, ev.timer_node, ev.payload);
    model_.emplace(std::make_pair(at, seq_++), ev);
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
    popped_.push_back(seq);
    model_.erase(it);
    if (q_.size() != model_.size()) {
      return ::testing::AssertionFailure()
             << "queue holds " << q_.size() << ", model " << model_.size();
    }
    return ::testing::AssertionSuccess();
  }

  /// Pops everything left, checking each event.
  ::testing::AssertionResult drain() {
    while (!model_.empty()) {
      ::testing::AssertionResult ok = pop();
      if (!ok) return ok;
    }
    return ::testing::AssertionSuccess();
  }

  /// Clears the queue mid-stream; the model restarts with it.
  void clear() {
    q_.clear();
    model_.clear();
    seq_ = 0;
    now_ = 0;
    popped_.clear();
  }

  std::size_t size() const { return model_.size(); }
  SimTime now() const { return now_; }  ///< the last popped timestamp.
  /// The seqs popped since clear(), in pop order.
  const std::vector<std::uint64_t>& popped() const { return popped_; }

 private:
  EventQueue& q_;
  std::map<std::pair<SimTime, std::uint64_t>, QueuedEvent> model_;
  std::uint64_t seq_ = 0;
  std::uint64_t payload_ = 0;
  SimTime now_ = 0;
  std::vector<std::uint64_t> popped_;
};

/// Every chunk is back on the free list: the queue is empty or cleared.
::testing::AssertionResult AllChunksFree(const EventQueue& q) {
  if (q.chunks_free() == q.chunks_allocated()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << q.chunks_free() << " of " << q.chunks_allocated()
         << " chunks free";
}

/// The recovery layer's shape: each tracked send queues its message at
/// now + U(0, 1] and its retransmit timer at now + RTO, where the RTO is one
/// of arq-fast's backoff levels over a base that drifts slowly up and down
/// with time — so timers pass through the coarse ring and into the fine one.
/// The order stays exact, and each slot's chunks go back as it drains.
TEST(EventQueueCalendarTest, RecoveryShapedStreamsPopInOrder) {
  constexpr SimTime kRto[] = {2.5, 3.75, 5.625, 8.0};
  EventQueue q(EventQueue::Mode::kCalendar);
  OrderReference ref(q);
  Rng rng(20130722);
  std::size_t timers = 0;
  for (int step = 0; step < 200000; ++step) {
    if (ref.size() == 0 || (ref.size() < 12000 && rng.below(2) == 0)) {
      const SimTime now = ref.now();
      const SimTime base = 0.1 * (1 + std::sin(now / 4));
      ref.message(now + rng.uniform_positive());
      ref.timer(now + base + kRto[rng.below(4)]);
      ++timers;
    } else {
      ASSERT_TRUE(ref.pop()) << "step " << step;
    }
  }
  ASSERT_TRUE(ref.drain());
  EXPECT_GT(timers, 50000u);
  EXPECT_GT(ref.now(), 30.0);  // a full period of the base's drift
  EXPECT_GT(q.peak_size(), 10000u);
  EXPECT_TRUE(AllChunksFree(q));
}

/// Thirteen interleaved timer streams, each starting below the last: every
/// slot they share is filled out of key order, so it must be sorted when it
/// comes due, and a stream's next timer often lands before events already
/// popped, so it must pop next, as from any priority queue. Messages and
/// pops interleave throughout; the order must stay exact.
TEST(EventQueueCalendarTest, DescendingStreamsPopInOrder) {
  constexpr std::size_t kStreams = 13;
  constexpr std::size_t kRounds = 3000;
  EventQueue q(EventQueue::Mode::kCalendar);
  OrderReference ref(q);
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
  ASSERT_TRUE(ref.drain());
  EXPECT_TRUE(AllChunksFree(q));
}

/// A stream eight chunks per slot long drains while a second ascending
/// stream, five slots behind it, fills its slots from the chunks the first
/// hands back; once both are empty, every chunk is free, and a third stream
/// of the same shape allocates none.
TEST(EventQueueCalendarTest, DrainedSlotsReturnTheirChunks) {
  constexpr std::size_t kPerSlot = 8 * EventQueue::kSlotChunkEntries;
  constexpr std::size_t kLong = 5 * kPerSlot;
  constexpr SimTime kSlot = 1.0 / EventQueue::kSlotsPerUnit;
  constexpr SimTime kStep = kSlot / kPerSlot;
  EventQueue q(EventQueue::Mode::kCalendar);
  OrderReference ref(q);
  for (std::size_t i = 0; i < kLong; ++i) {
    ref.timer(1.0 + kStep * static_cast<double>(i));
  }
  const std::size_t cold = q.chunks_allocated();
  EXPECT_EQ(cold, kLong / EventQueue::kSlotChunkEntries);
  for (std::size_t i = 0; i < kLong; ++i) {
    ASSERT_TRUE(ref.pop()) << "pop " << i;
    ref.timer(ref.now() + 5 * kSlot);
  }
  EXPECT_LE(q.chunks_allocated(), cold + 1);  // the second stream reused
  ASSERT_TRUE(ref.drain());
  EXPECT_TRUE(AllChunksFree(q));
  const std::size_t chunks = q.chunks_allocated();
  for (std::size_t i = 0; i < kLong; ++i) {
    ref.timer(ref.now() + 0.5 + kStep * static_cast<double>(i));
  }
  EXPECT_EQ(q.chunks_allocated(), chunks);
  ASSERT_TRUE(ref.drain());
  EXPECT_TRUE(AllChunksFree(q));
}

/// Events tied on `at` go by seq wherever they waited: in a coarse unit, in
/// a fine slot the unit spilled into, pushed straight into that slot once
/// the window reached it, or pushed into it while it drains.
TEST(EventQueueCalendarTest, TiesOnTimeGoBySeqAcrossTiers) {
  EventQueue q(EventQueue::Mode::kCalendar);
  OrderReference ref(q);
  ref.message(5.0);  // beyond the fine window: a coarse unit
  ref.timer(5.0);
  ref.timer(12.0);
  ref.message(5.0);
  ref.timer(4.5);
  EXPECT_EQ(q.next_at(), 4.5);  // read from the coarse ring
  ASSERT_TRUE(ref.pop());       // 4.5: the window takes in 5.0's unit
  ref.timer(5.0);               // straight into the spilled slot
  ref.message(5.0);
  EXPECT_EQ(q.next_at(), 5.0);
  ASSERT_TRUE(ref.pop());  // opens 5.0's slot, in place
  ref.timer(5.0);          // sorts last: appended in place
  ref.message(5.0);
  EXPECT_EQ(q.next_at(), 5.0);
  ASSERT_TRUE(ref.drain());
  EXPECT_TRUE(AllChunksFree(q));
}

/// Constant-delay streams (the overload strategy's 1.0 and 0.05 delays, a
/// same-RTO timer at 2.5) fill their slots in key order and are walked in
/// place; interleaved uniform delays land in the same slots out of order,
/// which must then be sorted. Both kinds, and their mix, pop exactly.
TEST(EventQueueCalendarTest, ConstantDelaysInterleavedWithUniformOnes) {
  EventQueue q(EventQueue::Mode::kCalendar);
  OrderReference ref(q);
  Rng rng(99);
  for (int step = 0; step < 60000; ++step) {
    if (ref.size() == 0 || (ref.size() < 4000 && rng.below(2) == 0)) {
      const SimTime now = ref.now();
      switch (rng.below(4)) {
        case 0:
          ref.message(now + 1.0);
          break;
        case 1:
          ref.message(now + 0.05);
          break;
        case 2:
          ref.timer(now + 2.5);
          break;
        default:
          // A phase of uniform delays every few time units.
          if (static_cast<int>(now) % 3 == 0) {
            ref.message(now + rng.uniform_positive());
          } else {
            ref.message(now + 1.0);
          }
      }
    } else {
      ASSERT_TRUE(ref.pop()) << "step " << step;
    }
  }
  ASSERT_TRUE(ref.drain());
  EXPECT_GT(ref.now(), 20.0);
  EXPECT_TRUE(AllChunksFree(q));
}

/// Pushes into the slot being drained. While that slot is walked in place,
/// a push that sorts after its last entry is appended there; one that sorts
/// before it sends the remainder to the sorted scratch, where it — and any
/// later push, early or late — goes in at its position.
TEST(EventQueueCalendarTest, LatePushesIntoTheDrainedSlot) {
  constexpr SimTime kTick = 1.0 / EventQueue::kSlotsPerUnit;
  constexpr SimTime kT = 3.0;  // a slot's first instant
  EventQueue q(EventQueue::Mode::kCalendar);
  OrderReference ref(q);
  for (int pass = 0; pass < 2; ++pass) {
    ref.clear();
    ref.timer(kT);
    ref.message(kT + 0.1 * kTick);
    ref.timer(kT + 0.2 * kTick);
    ref.message(kT + 0.3 * kTick);
    ASSERT_TRUE(ref.pop());              // opens the slot, in key order
    ref.timer(kT + 0.5 * kTick);         // after the last: in place
    ref.message(kT + 0.4 * kTick);       // before the last: to the scratch
    ref.timer(kT + 0.05 * kTick);        // into the scratch, at the front
    ref.message(kT + 0.9 * kTick);       // into the scratch, at the back
    ref.timer(kT + 0.3 * kTick);         // ties go by seq
    ref.message(kT + kTick);             // the next slot
    ASSERT_TRUE(ref.drain());
    EXPECT_TRUE(AllChunksFree(q));
  }
}

/// Timers at RTO 64 (arq-patient's cap) lie far beyond the fine ring and
/// the coarse ring's initial span: pushed while a slot drains, they grow the
/// coarse ring, and come back in order once the window reaches them.
TEST(EventQueueCalendarTest, FarTimersGrowTheRingWhileASlotDrains) {
  EventQueue q(EventQueue::Mode::kCalendar);
  OrderReference ref(q);
  Rng rng(20130722);
  for (int i = 0; i < 64; ++i) ref.message(0.5 + 0.001 * i);
  ASSERT_TRUE(ref.pop());  // 0.5's slot is open
  for (int step = 0; step < 20000; ++step) {
    if (ref.size() == 0 || rng.below(2) == 0) {
      const SimTime now = ref.now();
      ref.message(now + rng.uniform_positive());
      if (rng.below(8) == 0) ref.timer(now + 64.0 * rng.uniform_positive());
      if (rng.below(64) == 0) ref.timer(now + 64.0);
    } else {
      ASSERT_TRUE(ref.pop()) << "step " << step;
    }
  }
  ASSERT_TRUE(ref.drain());
  EXPECT_GT(ref.now(), 64.0);
  EXPECT_TRUE(AllChunksFree(q));
}

/// A queue of one or two events — a ping-pong, the async engine at n=2 —
/// walks the whole ring over and over, so finding the next occupied slot
/// must wrap from the bitmap's last word to its first.
TEST(EventQueueCalendarTest, SparseQueueSearchWrapsAroundTheRing) {
  EventQueue q(EventQueue::Mode::kCalendar);
  OrderReference ref(q);
  Rng rng(3);
  ref.message(0.7);
  for (int step = 0; step < 2000; ++step) {
    ASSERT_TRUE(ref.pop()) << "step " << step;
    ref.message(ref.now() + 0.3 + 0.6 * rng.uniform());
    if (step % 5 == 0) ref.timer(ref.now() + 1.0);
    if (ref.size() > 2) {
      ASSERT_TRUE(ref.pop());
    }
  }
  ASSERT_TRUE(ref.drain());
  EXPECT_GT(ref.now(), 500.0);
  EXPECT_TRUE(AllChunksFree(q));
}

/// clear() in the middle of a drain — with a slot open in place, another
/// sorted, coarse units pending — returns the queue to its cold state: the
/// same stream again gives the same seqs in the same order, on the chunks
/// it already has.
TEST(EventQueueCalendarTest, ClearMidDrainRestoresTheColdState) {
  EventQueue q(EventQueue::Mode::kCalendar);
  OrderReference ref(q);
  auto fill = [&](bool to_the_end) {
    Rng rng(99);
    for (int i = 0; i < 4000; ++i) {
      ref.message(ref.now() + rng.uniform_positive());
      ref.timer(ref.now() + 2.5 + 0.001 * static_cast<double>(i % 3));
      ref.timer(50.0 - 0.01 * static_cast<double>(i));  // out of order
      if (i % 2 == 0) {
        ASSERT_TRUE(ref.pop()) << "pop " << i;
      }
    }
    if (to_the_end) {
      ASSERT_TRUE(ref.drain());
    }
  };
  fill(true);
  const std::vector<std::uint64_t> reference = ref.popped();
  const std::size_t chunks = q.chunks_allocated();
  EXPECT_GT(chunks, 2u);
  EXPECT_TRUE(AllChunksFree(q));

  ref.clear();
  fill(false);  // stops mid-drain
  ASSERT_GT(ref.size(), 0u);
  ref.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slab_slots(), 0u);
  EXPECT_TRUE(AllChunksFree(q));
  ref.timer(100.0);
  ref.timer(1.0);
  const EventQueue::Event first = q.pop();  // seq restarted at 0
  EXPECT_EQ(first.at, 1.0);
  EXPECT_EQ(first.seq, 1u);

  ref.clear();
  fill(true);
  EXPECT_EQ(ref.popped(), reference);
  EXPECT_EQ(q.chunks_allocated(), chunks);
  EXPECT_TRUE(AllChunksFree(q));
}

}  // namespace
}  // namespace fba::sim
