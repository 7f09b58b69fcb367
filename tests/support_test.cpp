// Unit and property tests for the support layer: RNG, SipHash, keyed
// permutations, bit-strings, interning, metrics, table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "support/bitstring.h"
#include "support/flat_counter.h"
#include "support/flat_map.h"
#include "support/intern.h"
#include "support/metrics.h"
#include "support/permutation.h"
#include "support/pool.h"
#include "support/random.h"
#include "support/siphash.h"
#include "support/table.h"

namespace fba {
namespace {

// ----- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LE(same, 1);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, UniformIsInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform_positive();
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng base(99);
  Rng a = base.split(1);
  Rng b = base.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LE(same, 1);
  // Splitting with the same tag twice gives the same stream.
  Rng c = base.split(1);
  Rng d = base.split(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c.next(), d.next());
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndComplete) {
  Rng rng(5);
  for (std::size_t n : {10ull, 100ull, 1000ull}) {
    for (std::size_t k : {std::size_t(1), n / 2, n}) {
      auto sample = rng.sample_without_replacement(n, k);
      ASSERT_EQ(sample.size(), k);
      std::set<std::uint32_t> uniq(sample.begin(), sample.end());
      EXPECT_EQ(uniq.size(), k);
      for (auto v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(RngTest, SampleRejectsOversizedRequest) {
  Rng rng(5);
  EXPECT_THROW(rng.sample_without_replacement(4, 5), ConfigError);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(8);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ----- SipHash ----------------------------------------------------------------

TEST(SipHashTest, KnownTestVector) {
  // Reference vector from the SipHash paper: key 000102...0f,
  // input 000102...0e -> 0xa129ca6149be45e5.
  SipKey key{0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull};
  unsigned char input[15];
  for (int i = 0; i < 15; ++i) input[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(siphash24(key, input, sizeof(input)), 0xa129ca6149be45e5ull);
}

TEST(SipHashTest, DifferentInputsDiffer) {
  SipKey key{1, 2};
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    seen.insert(siphash_words(key, {i}));
  }
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(SipHashTest, WordHashMatchesLengthDistinction) {
  SipKey key{1, 2};
  // {1, 0} and {1} must hash differently (length tag).
  EXPECT_NE(siphash_words(key, {1, 0}), siphash_words(key, {1}));
}

TEST(SipHashTest, DerivedKeysDiffer) {
  SipKey master{123, 456};
  SipKey a = derive_key(master, 1);
  SipKey b = derive_key(master, 2);
  EXPECT_TRUE(a.k0 != b.k0 || a.k1 != b.k1);
  EXPECT_EQ(siphash_words(derive_key(master, 1), {7}),
            siphash_words(a, {7}));
}

// ----- FeistelPermutation ------------------------------------------------------

class PermutationParamTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PermutationParamTest, IsABijection) {
  const std::uint64_t n = GetParam();
  FeistelPermutation perm(n, SipKey{n, ~n});
  std::vector<bool> hit(n, false);
  for (std::uint64_t x = 0; x < n; ++x) {
    const std::uint64_t y = perm.forward(x);
    ASSERT_LT(y, n);
    EXPECT_FALSE(hit[y]) << "collision at " << x;
    hit[y] = true;
  }
}

TEST_P(PermutationParamTest, InverseRoundTrips) {
  const std::uint64_t n = GetParam();
  FeistelPermutation perm(n, SipKey{n * 31, n + 17});
  for (std::uint64_t x = 0; x < n; ++x) {
    EXPECT_EQ(perm.inverse(perm.forward(x)), x);
    EXPECT_EQ(perm.forward(perm.inverse(x)), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, PermutationParamTest,
                         ::testing::Values(1, 2, 3, 5, 7, 16, 17, 100, 255,
                                           256, 257, 1000, 1024, 4099));

TEST(PermutationTest, DifferentKeysGiveDifferentPermutations) {
  FeistelPermutation a(1000, SipKey{1, 1});
  FeistelPermutation b(1000, SipKey{2, 2});
  std::size_t same = 0;
  for (std::uint64_t x = 0; x < 1000; ++x) same += a.forward(x) == b.forward(x);
  EXPECT_LT(same, 20u);  // ~1 expected for random permutations
}

TEST(PermutationTest, ForwardLooksUniform) {
  // Images of a fixed point across many keys should cover the domain evenly.
  const std::uint64_t n = 64;
  std::vector<int> counts(n, 0);
  for (std::uint64_t k = 0; k < 6400; ++k) {
    FeistelPermutation perm(n, SipKey{k, k ^ 0xabcdef});
    ++counts[perm.forward(7)];
  }
  for (int c : counts) EXPECT_NEAR(c, 100, 60);
}

// ----- BitString ----------------------------------------------------------------

TEST(BitStringTest, RandomHasRequestedLength) {
  Rng rng(1);
  auto s = BitString::random(137, rng);
  EXPECT_EQ(s.size(), 137u);
}

TEST(BitStringTest, EqualityAndDigest) {
  Rng rng(2);
  auto a = BitString::random(64, rng);
  auto b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.digest(), b.digest());
  b.set_bit(5, !b.bit(5));
  EXPECT_NE(a, b);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(BitStringTest, DigestDistinguishesLengths) {
  BitString a(8), b(9);  // all-zero strings of different lengths
  EXPECT_NE(a.digest(), b.digest());
}

TEST(BitStringTest, AppendConcatenates) {
  BitString a(3), b(2);
  a.set_bit(0, true);
  b.set_bit(1, true);
  a.append(b);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(3));
  EXPECT_TRUE(a.bit(4));
}

TEST(BitStringTest, ToStringTruncates) {
  BitString s(100);
  const auto text = s.to_string(8);
  EXPECT_EQ(text, "0b00000000...");
}

TEST(GstringTest, RespectsAdversaryPrefix) {
  GstringSpec spec;
  spec.length_bits = 30;
  spec.random_fraction = 2.0 / 3;
  BitString adv(10);
  for (std::size_t i = 0; i < 10; ++i) adv.set_bit(i, true);
  Rng rng(3);
  auto g = make_gstring(spec, adv, rng);
  ASSERT_EQ(g.size(), 30u);
  // First (1 - 2/3) * 30 = 10 bits are the adversary's.
  for (std::size_t i = 0; i < 10; ++i) EXPECT_TRUE(g.bit(i));
}

TEST(GstringTest, RandomPartActuallyVaries) {
  GstringSpec spec;
  spec.length_bits = 64;
  Rng r1(1), r2(2);
  auto a = make_gstring(spec, BitString(), r1);
  auto b = make_gstring(spec, BitString(), r2);
  EXPECT_NE(a, b);
}

TEST(GstringTest, RejectsBadConfig) {
  Rng rng(1);
  GstringSpec spec;
  spec.length_bits = 0;
  EXPECT_THROW(make_gstring(spec, BitString(), rng), ConfigError);
  spec.length_bits = 8;
  spec.random_fraction = 1.5;
  EXPECT_THROW(make_gstring(spec, BitString(), rng), ConfigError);
}

// ----- StringTable ---------------------------------------------------------------

TEST(StringTableTest, InternDeduplicates) {
  StringTable table;
  Rng rng(4);
  auto s = BitString::random(40, rng);
  const StringId a = table.intern(s);
  const StringId b = table.intern(s);
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.get(a), s);
  EXPECT_EQ(table.bits(a), 40u);
  EXPECT_EQ(table.digest(a), s.digest());
}

TEST(StringTableTest, FindOnlySeesInterned) {
  StringTable table;
  Rng rng(5);
  auto s = BitString::random(16, rng);
  EXPECT_FALSE(table.find(s).has_value());
  const StringId id = table.intern(s);
  ASSERT_TRUE(table.find(s).has_value());
  EXPECT_EQ(*table.find(s), id);
}

TEST(StringTableTest, ManyDistinctStrings) {
  StringTable table;
  Rng rng(6);
  std::vector<StringId> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(table.intern(BitString::random(32, rng)));
  }
  std::set<StringId> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), table.size());
}

// ----- Metrics --------------------------------------------------------------------

TEST(MetricsTest, TracksTotalsAndPerNode) {
  TrafficMetrics m(4);
  m.on_message(0, 100, sim::MessageKind::kPush);
  m.on_message(0, 50, sim::MessageKind::kPush);
  m.on_message(3, 25, sim::MessageKind::kAnswer);
  EXPECT_EQ(m.total_messages(), 3u);
  EXPECT_EQ(m.total_bits(), 175u);
  EXPECT_EQ(m.sent_bits(0), 150u);
  EXPECT_EQ(m.sent_messages(3), 1u);
  EXPECT_DOUBLE_EQ(m.amortized_bits(), 175.0 / 4);
  EXPECT_EQ(m.messages_of(sim::MessageKind::kPush), 2u);
  EXPECT_EQ(m.bits_of(sim::MessageKind::kAnswer), 25u);
}

TEST(MetricsTest, LoadStatsImbalance) {
  TrafficMetrics m(4);
  m.on_message(0, 300, sim::MessageKind::kPing);
  m.on_message(1, 100, sim::MessageKind::kPing);
  const LoadStats s = m.sent_bits_stats();
  EXPECT_DOUBLE_EQ(s.max, 300);
  EXPECT_DOUBLE_EQ(s.mean, 100);
  EXPECT_DOUBLE_EQ(s.imbalance(), 3.0);
}

TEST(MetricsTest, SummarizeHandlesEmptyAndSingle) {
  EXPECT_DOUBLE_EQ(summarize({}).max, 0);
  const LoadStats s = summarize({5.0});
  EXPECT_DOUBLE_EQ(s.mean, 5);
  EXPECT_DOUBLE_EQ(s.min, 5);
  EXPECT_DOUBLE_EQ(s.p99, 5);
}

TEST(DecisionLogTest, FirstDecisionWins) {
  DecisionLog log(3);
  log.record(1, 7, 2.0);
  log.record(1, 9, 3.0);  // ignored: nodes decide once
  EXPECT_TRUE(log.has_decided(1));
  EXPECT_EQ(log.value(1), 7u);
  EXPECT_DOUBLE_EQ(log.time(1), 2.0);
}

TEST(DecisionLogTest, CountsAndCompletionTime) {
  DecisionLog log(4);
  log.record(0, 5, 1.0);
  log.record(2, 5, 4.0);
  log.record(3, 6, 2.0);
  const std::vector<NodeId> all{0, 1, 2, 3};
  EXPECT_EQ(log.count_decided(all), 3u);
  EXPECT_EQ(log.count_correct_decisions(all, 5), 2u);
  EXPECT_DOUBLE_EQ(log.completion_time(all), 4.0);
}

// ----- Table ----------------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(TableTest, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::num(3.0), "3");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t(12345)), "12345");
}

// ----- types helpers ---------------------------------------------------------------

TEST(TypesTest, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(TypesTest, NodeIdBits) {
  EXPECT_EQ(node_id_bits(2), 1u);
  EXPECT_EQ(node_id_bits(1024), 10u);
  EXPECT_EQ(node_id_bits(1), 1u);
}

// ----- flat tally containers (support/flat_counter.h) ------------------------
// Drop-in behavior for the std::map tallies they replaced in ae/ (phase-king
// exchange counts, final-slice votes): identical counts for any interleaving
// of inserts and lookups, identical ascending iteration order.

TEST(TallyCounterTest, MixedInsertAndLookupOrdersProduceIdenticalTallies) {
  Rng rng(11);
  for (int round = 0; round < 50; ++round) {
    support::TallyCounter counter;
    std::map<std::uint64_t, std::size_t> reference;
    for (int op = 0; op < 200; ++op) {
      const std::uint64_t value = rng.below(12);  // collisions guaranteed
      if (rng.chance(0.7)) {
        const std::size_t got = counter.increment(value);
        EXPECT_EQ(got, ++reference[value]);
      } else {
        const auto it = reference.find(value);
        EXPECT_EQ(counter.count(value), it == reference.end() ? 0 : it->second);
      }
    }
    // Iteration order and contents equal std::map's (ascending by value).
    ASSERT_EQ(counter.distinct(), reference.size());
    auto ref_it = reference.begin();
    for (const auto& [value, count] : counter.entries()) {
      EXPECT_EQ(value, ref_it->first);
      EXPECT_EQ(count, ref_it->second);
      ++ref_it;
    }
    // clear() keeps capacity but empties the tally.
    counter.clear();
    EXPECT_TRUE(counter.empty());
    EXPECT_EQ(counter.count(3), 0u);
    EXPECT_EQ(counter.increment(3), 1u);
  }
}

TEST(VoteSetTest, MatchesStdMapOfVoterListsInAnyOrder) {
  Rng rng(23);
  support::VoteSet votes;
  for (int round = 0; round < 20; ++round) {
    votes.clear();  // reuses entry storage across rounds
    std::map<std::uint64_t, std::vector<NodeId>> reference;
    for (int op = 0; op < 100; ++op) {
      const std::uint64_t value = rng.below(8);
      const NodeId voter = rng.node(16);
      auto& flat = votes.voters(value);
      auto& ref = reference[value];
      if (std::find(ref.begin(), ref.end(), voter) == ref.end()) {
        ref.push_back(voter);
        flat.push_back(voter);
      }
      EXPECT_EQ(flat, ref);
    }
    auto ref_it = reference.begin();
    ASSERT_EQ(votes.entries().size(), reference.size());
    for (const auto& entry : votes.entries()) {
      EXPECT_EQ(entry.value, ref_it->first);
      EXPECT_EQ(entry.voters, ref_it->second);
      ++ref_it;
    }
  }
}

// ----- open-addressed flat maps (support/flat_map.h) -------------------------

TEST(FlatMap64Test, MatchesUnorderedMapUnderRandomOps) {
  Rng rng(5);
  support::FlatMap64<std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t key = rng.below(512);
    if (rng.chance(0.5)) {
      bool created = false;
      std::uint32_t& v = map.get_or_create(key, created);
      EXPECT_EQ(created, reference.find(key) == reference.end());
      v += 1;
      reference[key] += 1;
    } else {
      const std::uint32_t* v = map.find(key);
      const auto it = reference.find(key);
      ASSERT_EQ(v != nullptr, it != reference.end());
      if (v != nullptr) {
        EXPECT_EQ(*v, it->second);
      }
    }
  }
  EXPECT_EQ(map.size(), reference.size());
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(1), nullptr);
}

TEST(FlatSet64Test, InsertReportsNovelty) {
  support::FlatSet64 set;
  EXPECT_TRUE(set.insert(7));
  EXPECT_FALSE(set.insert(7));
  EXPECT_TRUE(set.insert(8));
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(9));
  set.clear();
  EXPECT_FALSE(set.contains(7));
  EXPECT_TRUE(set.insert(7));
}

// ----- pool allocator (support/pool.h) ---------------------------------------

TEST(PoolTest, RecyclesBlocksBySizeClass) {
  support::Pool pool;
  void* a = pool.allocate(24);
  void* b = pool.allocate(24);
  EXPECT_NE(a, b);
  pool.deallocate(a, 24);
  void* c = pool.allocate(20);  // same 32-byte class: reuses a's block
  EXPECT_EQ(c, a);
  pool.deallocate(b, 24);
  pool.deallocate(c, 20);
  const std::size_t reserved = pool.reserved_bytes();
  for (int i = 0; i < 100; ++i) {
    void* p = pool.allocate(24);
    pool.deallocate(p, 24);
  }
  EXPECT_EQ(pool.reserved_bytes(), reserved);  // steady state: no growth
}

TEST(PoolTest, BacksUnorderedMapAcrossReconstruction) {
  support::Pool pool;
  using Alloc = support::PoolAllocator<std::pair<const std::uint64_t, int>>;
  using Map = std::unordered_map<std::uint64_t, int, std::hash<std::uint64_t>,
                                 std::equal_to<std::uint64_t>, Alloc>;
  Map map{Alloc(&pool)};
  for (std::uint64_t i = 0; i < 100; ++i) map[i] = static_cast<int>(i);
  EXPECT_EQ(map.size(), 100u);
  // Reconstruct fresh (the per-trial reset pattern): old nodes return to the
  // pool's free lists; refilling reuses them without growing the pool.
  map = Map(map.get_allocator());
  EXPECT_TRUE(map.empty());
  const std::size_t reserved = pool.reserved_bytes();
  for (std::uint64_t i = 0; i < 100; ++i) map[i] = static_cast<int>(i);
  EXPECT_EQ(map.at(42), 42);
  EXPECT_EQ(pool.reserved_bytes(), reserved);
}

}  // namespace
}  // namespace fba
