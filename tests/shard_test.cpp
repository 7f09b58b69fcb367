// Shard-merge property suite (exp/shard.h): any partition of a sweep's
// (point, trial) cells — round-robin slices or random hand-built ones —
// must merge and replay to results byte-identical to the serial run, and
// every malformed, overlapping, or incomplete shard set must fail with a
// clean ConfigError instead of a silent wrong merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "fba.h"

namespace fba {
namespace {

// ShardIo is a process-global switchboard; make sure no test leaves it
// latched in record/replay for the rest of this binary.
class ShardIoGuard {
 public:
  ~ShardIoGuard() { exp::ShardIo::instance().reset(); }
};

exp::Sweep reference_sweep(std::uint64_t seed) {
  aer::AerConfig base;
  base.n = 64;
  base.seed = seed;
  exp::Grid grid;
  grid.models = {aer::Model::kSyncRushing, aer::Model::kAsync};
  grid.strategies = {"none", "wrong"};
  exp::Sweep sweep(base, grid, /*trials=*/3);
  sweep.set_threads(1);
  return sweep;
}

exp::ShardMeta test_meta(std::uint64_t seed, std::size_t index,
                         std::size_t count) {
  exp::ShardMeta meta;
  meta.tool = "shard_test";
  meta.figure = "test-sweep";
  meta.scale = "default";
  meta.base_seed = seed;
  meta.trials = 3;
  meta.shard_index = index;
  meta.shard_count = count;
  return meta;
}

std::vector<std::uint64_t> fingerprints(
    const std::vector<exp::PointResult>& results) {
  std::vector<std::uint64_t> fps;
  fps.reserve(results.size());
  for (const exp::PointResult& r : results) {
    fps.push_back(r.aggregate.fingerprint());
  }
  return fps;
}

// Runs the reference sweep under record mode for slice `index` of `count`
// and returns the recorded document (after a JSON round-trip, so the wire
// format itself is part of every merge test).
exp::ShardDoc record_slice(std::uint64_t seed, std::size_t index,
                           std::size_t count) {
  exp::ShardIo::instance().start_record(test_meta(seed, index, count));
  reference_sweep(seed).run();
  const std::string json = exp::ShardIo::instance().doc().to_json();
  exp::ShardIo::instance().reset();
  return exp::ShardDoc::from_json(json);
}

// Replays a merged document through a fresh sweep and returns its
// per-point fingerprints.
std::vector<std::uint64_t> replay(std::uint64_t seed,
                                  const exp::ShardDoc& merged) {
  exp::ShardIo::instance().start_replay(merged);
  const auto results = reference_sweep(seed).run();
  exp::ShardIo::instance().reset();
  return fingerprints(results);
}

TEST(ShardTest, OutcomeJsonRoundTripsEveryBit) {
  const auto results = reference_sweep(20130722).run();
  ASSERT_FALSE(results.empty());
  for (const exp::PointResult& r : results) {
    for (const exp::TrialOutcome& outcome : r.outcomes) {
      const exp::TrialOutcome back = exp::outcome_from_json(
          json::Value::parse(exp::outcome_to_json(outcome).dump()));
      EXPECT_EQ(exp::outcome_fingerprint(back),
                exp::outcome_fingerprint(outcome))
          << r.point.label();
      EXPECT_EQ(back.seed, outcome.seed);
      EXPECT_EQ(back.decision_times.size(), outcome.decision_times.size());
    }
  }
}

// A TrialOutcome with a distinct non-zero value in every field, so a field
// the codec drops shows as a zero. Doubles get a fractional part.
exp::TrialOutcome every_field_outcome() {
  exp::TrialOutcome o;
  o.seed = 9000000000000000001ull;
  double next = 1;
  exp::for_each_outcome_metric(o, [&](std::string_view, auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      v = true;
    } else if constexpr (std::is_same_v<T, double>) {
      v = next++ + 0.5;
    } else {
      v = static_cast<T>(next++);
    }
  });
  for (double& x : o.bits_by_kind) x = next++ + 0.5;
  for (double& x : o.msgs_by_kind) x = next++ + 0.5;
  for (double& x : o.drops_by_cause) x = next++ + 0.5;
  o.decision_times = {next + 0.5, next + 1.5};
  return o;
}

// Every number of `o` but the seed, in table order, then the arrays.
std::vector<double> outcome_values(const exp::TrialOutcome& o) {
  std::vector<double> out;
  exp::for_each_outcome_metric(o, [&](std::string_view, const auto& v) {
    out.push_back(static_cast<double>(v));
  });
  out.insert(out.end(), o.bits_by_kind.begin(), o.bits_by_kind.end());
  out.insert(out.end(), o.msgs_by_kind.begin(), o.msgs_by_kind.end());
  out.insert(out.end(), o.drops_by_cause.begin(), o.drops_by_cause.end());
  out.insert(out.end(), o.decision_times.begin(), o.decision_times.end());
  return out;
}

TEST(ShardTest, EveryOutcomeFieldRoundTrips) {
  ShardIoGuard guard;
  const exp::TrialOutcome o = every_field_outcome();
  const std::vector<double> values = outcome_values(o);
  for (const double v : values) EXPECT_NE(v, 0.0);

  const auto check = [&](const exp::TrialOutcome& back, const char* path) {
    EXPECT_EQ(back.seed, o.seed) << path;
    EXPECT_EQ(outcome_values(back), values) << path;
    EXPECT_EQ(exp::outcome_fingerprint(back), exp::outcome_fingerprint(o))
        << path;
  };
  check(exp::outcome_from_json(
            json::Value::parse(exp::outcome_to_json(o).dump())),
        "outcome");

  exp::ShardPayload payload;
  payload.cells.push_back(exp::ShardCell{0, 0, o});
  check(exp::ShardPayload::from_json(payload.to_json()).cells.at(0).outcome,
        "payload");

  exp::ShardDoc doc;
  doc.meta = test_meta(20130722, 0, 1);
  doc.sweeps.push_back(exp::ShardSweep{1, 1, 7, {exp::ShardCell{0, 0, o}}});
  check(exp::ShardDoc::from_json(doc.to_json()).sweeps.at(0).cells.at(0)
            .outcome,
        "document");
}

// outcome_fingerprint keeps its pinned field order by hand (shard.cpp); it
// must still see a change to any one field.
TEST(ShardTest, OutcomeFingerprintCoversEveryField) {
  const exp::TrialOutcome base = every_field_outcome();
  const std::uint64_t fp = exp::outcome_fingerprint(base);
  const std::size_t fields = outcome_values(base).size();
  for (std::size_t i = 0; i < fields; ++i) {
    exp::TrialOutcome changed = base;
    std::size_t at = 0;
    const auto bump = [&](auto& v) {
      if (at++ != i) return;
      using T = std::decay_t<decltype(v)>;
      if constexpr (std::is_same_v<T, bool>) {
        v = !v;
      } else {
        v += 1;
      }
    };
    exp::for_each_outcome_metric(changed,
                                 [&](std::string_view, auto& v) { bump(v); });
    for (double& x : changed.bits_by_kind) bump(x);
    for (double& x : changed.msgs_by_kind) bump(x);
    for (double& x : changed.drops_by_cause) bump(x);
    for (double& x : changed.decision_times) bump(x);
    EXPECT_NE(exp::outcome_fingerprint(changed), fp) << "field " << i;
  }
  exp::TrialOutcome reseeded = base;
  ++reseeded.seed;
  EXPECT_NE(exp::outcome_fingerprint(reseeded), fp);
}

TEST(ShardTest, PayloadRejectsTruncationAndGarbage) {
  exp::ShardPayload payload;
  exp::ShardCell cell;
  cell.point = 1;
  cell.trial = 2;
  cell.outcome.seed = 99;
  cell.outcome.completion_time = 4.5;
  payload.cells.push_back(cell);
  const std::string json = payload.to_json();

  const exp::ShardPayload back = exp::ShardPayload::from_json(json);
  ASSERT_EQ(back.cells.size(), 1u);
  EXPECT_EQ(back.cells[0].point, 1u);
  EXPECT_EQ(exp::outcome_fingerprint(back.cells[0].outcome),
            exp::outcome_fingerprint(cell.outcome));

  EXPECT_THROW(exp::ShardPayload::from_json("{"), ConfigError);
  EXPECT_THROW(exp::ShardPayload::from_json("null"), ConfigError);
  EXPECT_THROW(
      exp::ShardPayload::from_json(json.substr(0, json.size() / 2)),
      ConfigError);
}

TEST(ShardTest, RoundRobinSlicesMergeAndReplayToSerialResults) {
  ShardIoGuard guard;
  const std::uint64_t seed = 20130722;
  const auto reference = fingerprints(reference_sweep(seed).run());

  for (std::size_t count : {1u, 3u}) {
    std::vector<exp::ShardDoc> slices;
    for (std::size_t i = 0; i < count; ++i) {
      slices.push_back(record_slice(seed, i, count));
    }
    const exp::ShardDoc merged = exp::merge_shards(slices);
    EXPECT_EQ(merged.total_cells(), reference_sweep(seed).total_trials());
    EXPECT_EQ(replay(seed, merged), reference);
  }
}

TEST(ShardTest, RandomPartitionsMergeAndReplayToSerialResults) {
  // Property: ANY partition of the full cell set merges back, not just the
  // round-robin one the recorder deals. Hand-split a full recording into
  // 1..8 shards at random, across several base seeds.
  ShardIoGuard guard;
  std::mt19937 rng(1234);  // fixed seed: the test itself stays reproducible
  for (const std::uint64_t seed : {11ull, 20130722ull, 9000000000000000001ull}) {
    const auto reference = fingerprints(reference_sweep(seed).run());
    const exp::ShardDoc full = record_slice(seed, 0, 1);

    const std::size_t count = 1 + rng() % 8;
    std::vector<exp::ShardDoc> shards(count);
    for (std::size_t i = 0; i < count; ++i) {
      shards[i].meta = test_meta(seed, i, count);
      shards[i].sweeps.resize(full.sweeps.size());
      for (std::size_t s = 0; s < full.sweeps.size(); ++s) {
        shards[i].sweeps[s].points = full.sweeps[s].points;
        shards[i].sweeps[s].trials = full.sweeps[s].trials;
        shards[i].sweeps[s].grid_fingerprint =
            full.sweeps[s].grid_fingerprint;
      }
    }
    for (std::size_t s = 0; s < full.sweeps.size(); ++s) {
      for (const exp::ShardCell& cell : full.sweeps[s].cells) {
        shards[rng() % count].sweeps[s].cells.push_back(cell);
      }
    }
    // Round-trip each hand-built shard through JSON before merging.
    std::vector<exp::ShardDoc> parsed;
    for (const exp::ShardDoc& shard : shards) {
      parsed.push_back(exp::ShardDoc::from_json(shard.to_json()));
    }
    const exp::ShardDoc merged = exp::merge_shards(parsed);
    EXPECT_EQ(replay(seed, merged), reference) << "seed " << seed;
  }
}

TEST(ShardTest, MergeRejectsOverlapGapAndMetaMismatch) {
  ShardIoGuard guard;
  const std::uint64_t seed = 20130722;
  std::vector<exp::ShardDoc> slices = {record_slice(seed, 0, 2),
                                       record_slice(seed, 1, 2)};

  // Duplicate coverage: the same slice twice overlaps on every cell.
  EXPECT_THROW(exp::merge_shards({slices[0], slices[0]}), ConfigError);

  // Gap: one slice of two leaves cells uncovered.
  EXPECT_THROW(exp::merge_shards({slices[0]}), ConfigError);

  // Meta mismatch: slices recorded under different figure inputs refuse
  // to merge even when their cells happen to line up.
  {
    std::vector<exp::ShardDoc> mixed = slices;
    mixed[1].meta.base_seed = seed + 1;
    EXPECT_THROW(exp::merge_shards(mixed), ConfigError);
  }
  {
    std::vector<exp::ShardDoc> mixed = slices;
    mixed[1].meta.figure = "other-figure";
    EXPECT_THROW(exp::merge_shards(mixed), ConfigError);
  }

  // Shape mismatch: a shard claiming a different grid shape is rejected
  // before any cell bookkeeping.
  {
    std::vector<exp::ShardDoc> mixed = slices;
    mixed[1].sweeps[0].grid_fingerprint ^= 1;
    EXPECT_THROW(exp::merge_shards(mixed), ConfigError);
  }

  // Empty input.
  EXPECT_THROW(exp::merge_shards({}), ConfigError);
}

TEST(ShardTest, ParserRejectsMalformedAndTamperedDocuments) {
  ShardIoGuard guard;
  EXPECT_THROW(exp::ShardDoc::from_json("not json"), ConfigError);
  EXPECT_THROW(exp::ShardDoc::from_json("{}"), ConfigError);
  EXPECT_THROW(exp::ShardDoc::from_json("{\"schema\":\"fba.report\"}"),
               ConfigError);

  const exp::ShardDoc doc = record_slice(20130722, 0, 1);
  std::string json = doc.to_json();

  // Any schema version but v2, past or future.
  for (const char* version : {"1", "999"}) {
    std::string bumped = json;
    const std::string key = "\"schema_version\": 2";
    const std::size_t at = bumped.find(key);
    ASSERT_NE(at, std::string::npos);
    bumped.replace(at, key.size(),
                   std::string("\"schema_version\": ") + version);
    EXPECT_THROW(exp::ShardDoc::from_json(bumped), ConfigError) << version;
  }

  // Tampering with the recorded cells breaks the fingerprint check on
  // parse. Flip one hex digit of the committed fingerprint — equivalent
  // to altering any outcome bit without re-signing.
  {
    std::string tampered = json;
    const std::size_t at = tampered.find("\"fingerprint\": \"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t digit = at + std::string("\"fingerprint\": \"").size();
    tampered[digit] = tampered[digit] == '0' ? '1' : '0';
    EXPECT_THROW(exp::ShardDoc::from_json(tampered), ConfigError);
  }

  // The file loader names the unreadable path in its diagnostic.
  try {
    exp::ShardDoc::from_json_file("/nonexistent/shard.json");
    FAIL() << "expected ConfigError for a missing shard file";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/shard.json"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardTest, RecordedSlicesAreBalancedAndDisjoint) {
  ShardIoGuard guard;
  const std::uint64_t seed = 7;
  const std::size_t count = 3;
  std::vector<exp::ShardDoc> slices;
  std::size_t total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    slices.push_back(record_slice(seed, i, count));
    total += slices.back().total_cells();
    EXPECT_EQ(slices.back().meta.shard_index, i);
    EXPECT_EQ(slices.back().meta.shard_count, count);
  }
  const std::size_t expected = reference_sweep(seed).total_trials();
  EXPECT_EQ(total, expected);
  // Round-robin dealing keeps slices within one cell of each other.
  for (const exp::ShardDoc& slice : slices) {
    EXPECT_GE(slice.total_cells(), expected / count);
    EXPECT_LE(slice.total_cells(), expected / count + 1);
  }
}

}  // namespace
}  // namespace fba
