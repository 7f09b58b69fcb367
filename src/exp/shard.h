// Sweep shards: the serialized (point, trial) -> TrialOutcome cells behind
// both fan-out paths.
//
//   - In-process fan-out (exp/procpool.h): a forked worker streams each
//     finished task back as a shard payload — cells + a fingerprint — and
//     the parent folds the cells into the slot matrix exactly where a
//     thread-mode worker would have written them.
//   - Cross-machine fan-out (fba_repro --shard=i/N / --merge): a whole
//     figure run writes an fba.shard JSON document holding its slice of
//     every sweep's cells; merge validates coverage (every cell exactly
//     once, no duplicates) and replays the cells through the unchanged
//     figure driver, producing report files byte-identical to a serial run.
//
// Determinism contract: a TrialOutcome serializes through the canonical
// JSON number form (support/json.h — shortest round-trip doubles), so
// parse(dump(outcome)) reproduces every bit, and the fixed-order reduction
// over merged cells equals the serial reduction. Every cell list carries a
// fingerprint (a keyed fold of outcome_fingerprint in cell order) that is
// recomputed on parse — a tampered or truncated shard fails with a
// ConfigError, never a silent wrong merge.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/aggregate.h"
#include "exp/grid.h"
#include "support/json.h"

namespace fba::exp {

/// Bumped whenever the shard JSON layout changes (independent of the
/// fba.report schema — shards are an exchange format between runs of the
/// same build, not a long-lived artifact). Readers accept this version
/// only. v2 added the meta recovery preset, the outcome recovery_*
/// counters, and the ack traffic kind.
inline constexpr std::uint64_t kShardSchemaVersion = 2;

/// Order-sensitive hash of every TrialOutcome field (decision_times
/// included). Two outcomes are bit-identical iff their fingerprints match;
/// the per-shard fingerprint folds these in cell order.
std::uint64_t outcome_fingerprint(const TrialOutcome& outcome);

/// Exact JSON round-trip of one outcome: parse(dump(o)) == o to the bit.
/// Out-of-double-range integers (the seed) ride as decimal strings.
json::Value outcome_to_json(const TrialOutcome& outcome);
TrialOutcome outcome_from_json(const json::Value& v);

/// One executed cell of a sweep's (point, trial) matrix. `point` is the
/// grid-expansion index (== GridPoint::index), `trial` the trial index the
/// seed derivation keyed on.
struct ShardCell {
  std::size_t point = 0;
  std::size_t trial = 0;
  TrialOutcome outcome;
};

/// Keyed fold of outcome_fingerprint over `cells` in order — the integrity
/// check both the pipe protocol and the shard files carry.
std::uint64_t cells_fingerprint(const std::vector<ShardCell>& cells);

/// The wire payload a procpool worker returns for one task: its cells, the
/// task's wall-time split, and the fingerprint over the cells.
struct ShardPayload {
  std::vector<ShardCell> cells;
  double setup_seconds = 0;
  double run_seconds = 0;
  std::uint64_t timed_trials = 0;

  std::string to_json() const;
  /// Throws ConfigError on malformed JSON or a fingerprint mismatch.
  static ShardPayload from_json(std::string_view text);
};

/// The shape of one sweep inside a sharded figure run, plus this shard's
/// slice of its cells. grid_fingerprint hashes (base seed, trials, every
/// point label), so shards recorded from diverging configurations refuse
/// to merge.
struct ShardSweep {
  std::size_t points = 0;
  std::size_t trials = 0;
  std::uint64_t grid_fingerprint = 0;
  std::vector<ShardCell> cells;
};

/// Shape hash of an expanded sweep (see ShardSweep::grid_fingerprint).
std::uint64_t sweep_grid_fingerprint(std::uint64_t base_seed,
                                     std::size_t trials,
                                     const std::vector<GridPoint>& points);

/// Everything a merge must agree on before cells can be combined. The
/// figure-level inputs (seed, trials, scale, attack/fault flags) pin the
/// grid shapes; shard_index/shard_count record which slice this document
/// holds (provenance — merge accepts any partition, not just the
/// round-robin one).
struct ShardMeta {
  std::string tool;
  std::string figure;
  std::string scale;
  std::string attack = "none";
  std::string fault = "none";
  std::string recovery = "off";
  std::uint64_t base_seed = 0;
  std::size_t trials = 0;
  std::size_t shard_index = 0;  ///< 0-based slice id (provenance only).
  std::size_t shard_count = 1;
};

/// One fba.shard document: the meta plus this shard's cells for every
/// sweep the figure ran, in sweep execution order.
struct ShardDoc {
  ShardMeta meta;
  std::vector<ShardSweep> sweeps;

  std::size_t total_cells() const;
  std::string to_json() const;
  void write(const std::string& path) const;
  /// Throws ConfigError on malformed input, an unsupported schema version
  /// or a cells fingerprint mismatch.
  static ShardDoc from_json(std::string_view text);
  static ShardDoc from_json_file(const std::string& path);
};

/// Merges shard documents into one full-coverage document: metas must
/// agree (figure, seed, trials, scale, attack, fault), every sweep's shape
/// must match, and the union of cells must cover every (point, trial)
/// exactly once. Throws ConfigError naming the offending sweep/cell on
/// duplicates, gaps, or mismatched shapes.
ShardDoc merge_shards(const std::vector<ShardDoc>& shards);

/// Process-global record/replay switchboard consulted by Sweep::run().
/// Off by default (zero overhead on the normal path); fba_repro flips it:
///
///   --shard=i/N  -> start_record: each sweep runs only the cells the
///                   round-robin rule assigns to slice i and records them.
///   --merge ...  -> start_replay(merge_shards(...)): each sweep fills its
///                   slot matrix from the merged cells instead of running
///                   trials, then reduces exactly as a live run would.
///
/// Sweeps register in execution order (begin_sweep), which is
/// deterministic for a fixed figure + flags — the same order the shards
/// were recorded in.
class ShardIo {
 public:
  enum class Mode { kOff, kRecord, kReplay };

  static ShardIo& instance();

  Mode mode() const { return mode_; }

  void start_record(ShardMeta meta);
  void start_replay(ShardDoc merged);
  void reset();

  /// Registers the next sweep (record: appends a ShardSweep and returns
  /// its index; replay: validates the shape against the recorded sweep and
  /// returns its index — throws ConfigError on a mismatch or when the
  /// figure runs more sweeps than the shards recorded).
  std::size_t begin_sweep(std::uint64_t base_seed, std::size_t trials,
                          const std::vector<GridPoint>& points);

  /// Record mode: does slice `shard_index` own this cell? Cells are dealt
  /// round-robin over the figure-wide running cell offset, so slices stay
  /// balanced across sweeps of unequal size.
  bool owns_cell(std::size_t sweep, std::size_t point, std::size_t trial,
                 std::size_t trials) const;
  /// Record mode: adds an executed cell to sweep `sweep`.
  void record_cell(std::size_t sweep, std::size_t point, std::size_t trial,
                   const TrialOutcome& outcome);

  /// Replay mode: the merged cells of sweep `sweep` (full coverage,
  /// validated at merge time).
  const std::vector<ShardCell>& replay_cells(std::size_t sweep) const;

  const ShardDoc& doc() const { return doc_; }

 private:
  Mode mode_ = Mode::kOff;
  ShardDoc doc_;
  /// Figure-wide cell offset of each registered sweep (record mode).
  std::vector<std::size_t> sweep_offsets_;
  std::size_t next_offset_ = 0;
};

}  // namespace fba::exp
