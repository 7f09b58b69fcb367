// RelayState (aer/relay_state.h) against the containers it replaced.
//
// Before RelayState, each relay role lived in a std::unordered_map and the
// post-decision service sent in that map's iteration order; the golden
// corpora pin that order. These tests feed random arrival sequences — with
// repeated keys, and long enough for the reference maps to grow through
// libstdc++'s 13 / 29 / 59 / 127 / 257-bucket steps — into a RelayState
// and into reference maps built exactly the old way, then check that
// serve() visits the due entries of every role in the reference order.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "aer/relay_state.h"
#include "support/random.h"

namespace fba {
namespace {

using aer::RelayScratch;
using aer::RelayState;

constexpr std::uint32_t kQuorum = 8;  // a majority is 5 slots
constexpr StringId kCurrent = 1;      // the decided string; others are 0, 2

std::uint64_t pack(NodeId x, StringId s) {
  return (static_cast<std::uint64_t>(x) << 32) | s;
}

struct RefTally {
  PollLabel r = 0;
  std::uint32_t slots = 0;
  bool fired = false;
};
struct RefResponder {
  std::uint32_t slots = 0;
  bool polled = false;
  bool answered = false;
};

/// The three maps as the actors declared them, filled with the same calls.
struct Reference {
  std::unordered_map<std::uint64_t, PollLabel> pending;
  std::unordered_map<std::uint64_t, std::unordered_map<NodeId, RefTally>> fw1;
  std::unordered_map<std::uint64_t, RefResponder> responder;
};

using Forwarded = std::tuple<NodeId, StringId, PollLabel>;
using Fired = std::tuple<NodeId, StringId, NodeId, PollLabel>;
using Answered = std::tuple<NodeId, StringId>;

struct Served {
  std::vector<Forwarded> forwarded;
  std::vector<Fired> fired;
  std::vector<Answered> answered;
};

/// The old serve loops, verbatim apart from recording instead of sending.
Served serve_reference(Reference& ref) {
  Served out;
  for (const auto& [key, r] : ref.pending) {
    const StringId s = static_cast<StringId>(key & 0xffffffffu);
    if (s == kCurrent) out.forwarded.emplace_back(key >> 32, s, r);
  }
  ref.pending.clear();
  for (auto& [key, per_w] : ref.fw1) {
    const StringId s = static_cast<StringId>(key & 0xffffffffu);
    if (s != kCurrent) continue;
    for (auto& [w, tally] : per_w) {
      if (!tally.fired && tally.slots * 2 > kQuorum) {
        tally.fired = true;
        out.fired.emplace_back(key >> 32, s, w, tally.r);
      }
    }
  }
  for (auto& [key, st] : ref.responder) {
    const StringId s = static_cast<StringId>(key & 0xffffffffu);
    if (s != kCurrent) continue;
    if (!st.answered && st.polled && st.slots * 2 > kQuorum) {
      st.answered = true;
      out.answered.emplace_back(key >> 32, s);
    }
  }
  return out;
}

Served serve_relay(RelayState& relay, RelayScratch& scratch) {
  Served out;
  relay.serve(
      kCurrent, kQuorum, scratch,
      [&](NodeId x, StringId s, PollLabel r) {
        out.forwarded.emplace_back(x, s, r);
      },
      [&](NodeId x, StringId s, NodeId w, PollLabel r) {
        out.fired.emplace_back(x, s, w, r);
      },
      [&](NodeId x, StringId s) { out.answered.emplace_back(x, s); });
  return out;
}

/// Draws keys from small pools so that keys repeat: `pairs` (x, s) keys for
/// every role, and a few poll-list members w for Fw1.
struct Keys {
  std::vector<std::pair<NodeId, StringId>> xs_pool;
  std::vector<NodeId> w_pool;

  Keys(Rng& rng, std::size_t pairs) {
    for (std::size_t i = 0; i < pairs; ++i) {
      xs_pool.emplace_back(static_cast<NodeId>(rng.below(1u << 20)),
                           static_cast<StringId>(rng.below(3)));
    }
    const std::size_t ws = 1 + rng.below(12);
    for (std::size_t i = 0; i < ws; ++i) {
      w_pool.push_back(static_cast<NodeId>(rng.below(1u << 20)));
    }
  }
  std::pair<NodeId, StringId> xs(Rng& rng) const {
    return xs_pool[rng.below(xs_pool.size())];
  }
  NodeId w(Rng& rng) const { return w_pool[rng.below(w_pool.size())]; }
};

std::size_t bucket_of(std::size_t due) { return due < 2 ? due : 2; }

TEST(RelayStateTest, ServeOrderMatchesUnorderedMapReferences) {
  Rng rng(20130722);
  RelayScratch scratch;  // shared across cases, as across a trial's nodes
  RelayState relay;      // cleared between cases, as across arena trials
  // seen[role][b]: some case had 0, 1 or >= 2 (b = 2) due entries.
  std::array<std::array<bool, 3>, 3> seen{};
  std::size_t max_buckets = 0;

  // Up to 300 (x, s) keys per case, each drawn ~3 times per role, so a
  // role's map holds up to ~285 entries.
  std::vector<std::size_t> key_counts = {0, 1, 2, 3, 300};
  for (int i = 0; i < 300; ++i) key_counts.push_back(1 + rng.below(300));
  for (const std::size_t pairs : key_counts) {
    relay.clear();
    Reference ref;
    const Keys keys(rng, pairs);
    const std::size_t arrivals = 12 * pairs;
    // Per-case vote strength, so due counts range from none to most.
    const std::uint64_t max_vote = 1 + rng.below(4);
    for (std::size_t a = 0; a < arrivals; ++a) {
      const auto [x, s] = keys.xs(rng);
      const std::uint64_t xs = pack(x, s);
      const PollLabel r = rng.next();
      switch (rng.below(4)) {
        case 0: {  // a Pull for a string we do not (yet) believe in
          ref.pending.emplace(xs, r);
          relay.retain_pull(x, s, r);
          break;
        }
        case 1: {  // an Fw1 for (x, s) routed to w
          const NodeId w = keys.w(rng);
          const auto outer = ref.fw1.try_emplace(xs);
          const auto inner = outer.first->second.try_emplace(w);
          RefTally& want = inner.first->second;
          const bool created = relay.find_fw1(x, s, w) == nullptr;
          ASSERT_EQ(created, inner.second);
          RelayState::Fw1Tally& got = relay.fw1(x, s, w);
          ASSERT_EQ(relay.find_fw1(x, s, w), &got);
          if (created) want.r = got.r = r;
          const auto vote = static_cast<std::uint32_t>(rng.below(max_vote));
          want.slots += vote;
          got.slots += vote;
          if (rng.chance(0.1)) want.fired = got.fired = true;
          break;
        }
        default: {  // a Poll (case 2) or an Fw2 (case 3) for (x, s)
          const bool poll = rng.below(2) == 0;
          const auto emplaced = ref.responder.try_emplace(xs);
          RefResponder& want = emplaced.first->second;
          ASSERT_EQ(relay.find_responder(x, s) == nullptr, emplaced.second);
          RelayState::Responder& got = relay.responder(x, s);
          if (poll) {
            want.polled = got.polled = true;
          } else {
            const auto vote = static_cast<std::uint32_t>(rng.below(max_vote));
            want.slots += vote;
            got.slots += vote;
          }
          if (rng.chance(0.05)) want.answered = got.answered = true;
          break;
        }
      }
    }
    max_buckets = std::max({max_buckets, ref.pending.bucket_count(),
                            ref.fw1.bucket_count(),
                            ref.responder.bucket_count()});

    const Served want = serve_reference(ref);
    const Served got = serve_relay(relay, scratch);
    ASSERT_EQ(got.forwarded, want.forwarded) << arrivals << " arrivals";
    ASSERT_EQ(got.fired, want.fired) << arrivals << " arrivals";
    ASSERT_EQ(got.answered, want.answered) << arrivals << " arrivals";
    seen[0][bucket_of(want.forwarded.size())] = true;
    seen[1][bucket_of(want.fired.size())] = true;
    seen[2][bucket_of(want.answered.size())] = true;

    // Everything served is marked (or dropped): a second serve is silent.
    const Served again = serve_relay(relay, scratch);
    EXPECT_TRUE(again.forwarded.empty());
    EXPECT_TRUE(again.fired.empty());
    EXPECT_TRUE(again.answered.empty());
  }

  for (std::size_t role = 0; role < 3; ++role) {
    for (std::size_t b = 0; b < 3; ++b) {
      EXPECT_TRUE(seen[role][b]) << "role " << role << ", due bucket " << b;
    }
  }
  EXPECT_GT(max_buckets, 257u);  // the references grew past every step
}

TEST(RelayStateTest, CreditSetsEachPositionOnce) {
  std::uint64_t counted = 0;
  EXPECT_TRUE(aer::credit(counted, 0));
  EXPECT_FALSE(aer::credit(counted, 0));
  EXPECT_TRUE(aer::credit(counted, 63));  // d = 64 uses the top bit
  EXPECT_FALSE(aer::credit(counted, 63));
  EXPECT_TRUE(aer::credit(counted, 7));
  EXPECT_EQ(counted, (std::uint64_t{1} << 63) | (1u << 7) | 1u);
}

TEST(RelayStateTest, LookupsAndGuards) {
  RelayState relay;
  EXPECT_TRUE(relay.mark_forwarded(3, 1));
  EXPECT_FALSE(relay.mark_forwarded(3, 1));
  EXPECT_TRUE(relay.mark_forwarded(3, 2));

  EXPECT_EQ(relay.find_responder(3, 1), nullptr);  // forwarded is not polled
  relay.responder(3, 1).polled = true;
  EXPECT_EQ(&relay.responder(3, 1), relay.find_responder(3, 1));
  ASSERT_NE(relay.find_responder(3, 1), nullptr);
  EXPECT_TRUE(relay.find_responder(3, 1)->polled);

  // Chained Fw1 tallies: one per w, found again on every later copy;
  // find_fw1 creates nothing.
  EXPECT_EQ(relay.find_fw1(3, 1, 10), nullptr);
  relay.fw1(3, 1, 10).slots = 4;
  EXPECT_EQ(relay.find_fw1(3, 1, 11), nullptr);
  relay.fw1(3, 1, 11).slots = 6;
  ASSERT_NE(relay.find_fw1(3, 1, 10), nullptr);
  EXPECT_EQ(relay.find_fw1(3, 1, 10)->slots, 4u);
  EXPECT_EQ(relay.fw1(3, 1, 10).slots, 4u);
  EXPECT_EQ(relay.fw1(3, 1, 11).slots, 6u);
  EXPECT_EQ(relay.find_fw1(3, 2, 10), nullptr);  // other string, no chain
  EXPECT_EQ(relay.find_fw1(4, 1, 10), nullptr);  // other requester

  // The first retained label wins; serving drops the retained pulls, after
  // which the same (x, s) can be retained again.
  relay.retain_pull(4, kCurrent, 100);
  relay.retain_pull(4, kCurrent, 200);
  RelayScratch scratch;
  Served served = serve_relay(relay, scratch);
  ASSERT_EQ(served.forwarded.size(), 1u);
  EXPECT_EQ(served.forwarded[0], Forwarded(4, kCurrent, 100));
  relay.retain_pull(4, kCurrent, 300);
  served = serve_relay(relay, scratch);
  ASSERT_EQ(served.forwarded.size(), 1u);
  EXPECT_EQ(served.forwarded[0], Forwarded(4, kCurrent, 300));

  relay.clear();
  EXPECT_EQ(relay.find_responder(3, 1), nullptr);
  EXPECT_EQ(relay.find_fw1(3, 1, 10), nullptr);
  EXPECT_TRUE(relay.mark_forwarded(3, 1));
}

}  // namespace
}  // namespace fba
