#include "exp/shard.h"

#include <cstring>

#include "support/siphash.h"
#include "support/types.h"

namespace fba::exp {

namespace {

void hash_u64(std::uint64_t& h, std::uint64_t v) {
  h = siphash_words(SipKey{h, 0x73686172642d3935ull}, {v});
}

void hash_double(std::uint64_t& h, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  hash_u64(h, bits);
}

json::Value doubles_array(const double* values, std::size_t count) {
  json::Value out = json::Value::array();
  for (std::size_t i = 0; i < count; ++i) out.push_back(values[i]);
  return out;
}

void doubles_from_array(const json::Value& v, double* values,
                        std::size_t count) {
  const auto& arr = v.as_array();
  FBA_REQUIRE(arr.size() == count, "shard: outcome array length mismatch");
  for (std::size_t i = 0; i < count; ++i) values[i] = arr[i].as_double();
}

json::Value cell_to_json(const ShardCell& cell) {
  json::Value out = json::Value::object();
  out.set("point", std::uint64_t{cell.point});
  out.set("trial", std::uint64_t{cell.trial});
  out.set("outcome", outcome_to_json(cell.outcome));
  return out;
}

ShardCell cell_from_json(const json::Value& v) {
  ShardCell cell;
  cell.point = static_cast<std::size_t>(v.at("point").as_uint64());
  cell.trial = static_cast<std::size_t>(v.at("trial").as_uint64());
  cell.outcome = outcome_from_json(v.at("outcome"));
  return cell;
}

json::Value cells_to_json(const std::vector<ShardCell>& cells) {
  json::Value out = json::Value::array();
  for (const ShardCell& cell : cells) out.push_back(cell_to_json(cell));
  return out;
}

std::vector<ShardCell> cells_from_json(const json::Value& v) {
  std::vector<ShardCell> cells;
  cells.reserve(v.as_array().size());
  for (const json::Value& cell : v.as_array()) {
    cells.push_back(cell_from_json(cell));
  }
  return cells;
}

void check_cells_fingerprint(const json::Value& holder,
                             const std::vector<ShardCell>& cells,
                             const char* what) {
  const std::string stored = holder.at("fingerprint").as_string();
  const std::string recomputed = json::hex_u64(cells_fingerprint(cells));
  FBA_REQUIRE(stored == recomputed,
              std::string("shard: ") + what + " fingerprint mismatch (stored " +
                  stored + ", recomputed " + recomputed +
                  ") — payload corrupted or hand-edited");
}

}  // namespace

std::uint64_t outcome_fingerprint(const TrialOutcome& o) {
  // Pinned order: the run digests aer_adversary_test pins hash through
  // it. The metric table follows the report's columns, which order these
  // fields differently, so the list is spelled out here; shard_test checks
  // that it covers every outcome field.
  std::uint64_t h = 0x666261207368640aull;
  hash_u64(h, o.seed);
  for (const std::size_t v :
       {o.correct, o.decided, o.wrong_decisions, o.knowledgeable,
        o.max_candidate_list, o.missing_gstring, o.max_deferred}) {
    hash_u64(h, v);
  }
  hash_u64(h, o.agreement ? 1 : 0);
  hash_u64(h, o.engine_completed ? 1 : 0);
  for (const double v :
       {o.completion_time, o.mean_decision_time, o.engine_time,
        o.total_messages, o.amortized_bits, o.max_sent_bits,
        o.mean_sent_bits, o.imbalance, o.fault_dropped_msgs,
        o.fault_dropped_bits, o.fault_delayed_msgs, o.ae_rounds,
        o.reduction_time, o.ae_bits, o.reduction_bits, o.push_bits_per_node,
        o.push_msgs_per_node, o.candidate_lists_per_node,
        o.mem_bytes_per_node, o.runtime_corruptions, o.first_corruption_time,
        o.last_corruption_time, o.recovery_retransmit_msgs,
        o.recovery_retransmit_bits, o.recovery_acked_msgs,
        o.recovery_dead_msgs, o.recovery_dup_msgs}) {
    hash_double(h, v);
  }
  for (double v : o.bits_by_kind) hash_double(h, v);
  for (double v : o.msgs_by_kind) hash_double(h, v);
  for (double v : o.drops_by_cause) hash_double(h, v);
  hash_u64(h, o.decision_times.size());
  for (double v : o.decision_times) hash_double(h, v);
  return h;
}

json::Value outcome_to_json(const TrialOutcome& o) {
  json::Value out = json::Value::object();
  out.set("seed", std::to_string(o.seed));  // full 64 bits, as in reports
  for_each_outcome_metric(o, [&](std::string_view name, const auto& v) {
    out.set(std::string(name), v);
  });
  out.set("bits_by_kind",
          doubles_array(o.bits_by_kind.data(), o.bits_by_kind.size()));
  out.set("msgs_by_kind",
          doubles_array(o.msgs_by_kind.data(), o.msgs_by_kind.size()));
  out.set("drops_by_cause",
          doubles_array(o.drops_by_cause.data(), o.drops_by_cause.size()));
  out.set("decision_times",
          doubles_array(o.decision_times.data(), o.decision_times.size()));
  return out;
}

TrialOutcome outcome_from_json(const json::Value& v) {
  TrialOutcome o;
  o.seed = json::parse_u64(v.at("seed").as_string(), 10);
  for_each_outcome_metric(o, [&](std::string_view name, auto& field) {
    json::read_into(v.at(name), field);
  });
  doubles_from_array(v.at("bits_by_kind"), o.bits_by_kind.data(),
                     o.bits_by_kind.size());
  doubles_from_array(v.at("msgs_by_kind"), o.msgs_by_kind.data(),
                     o.msgs_by_kind.size());
  doubles_from_array(v.at("drops_by_cause"), o.drops_by_cause.data(),
                     o.drops_by_cause.size());
  const auto& times = v.at("decision_times").as_array();
  o.decision_times.reserve(times.size());
  for (const json::Value& t : times) {
    o.decision_times.push_back(t.as_double());
  }
  return o;
}

std::uint64_t cells_fingerprint(const std::vector<ShardCell>& cells) {
  std::uint64_t h = 0x63656c6c730a0a0aull;
  for (const ShardCell& cell : cells) {
    hash_u64(h, cell.point);
    hash_u64(h, cell.trial);
    hash_u64(h, outcome_fingerprint(cell.outcome));
  }
  return h;
}

std::string ShardPayload::to_json() const {
  json::Value out = json::Value::object();
  out.set("cells", cells_to_json(cells));
  json::Value timing = json::Value::object();
  timing.set("setup_seconds", setup_seconds);
  timing.set("run_seconds", run_seconds);
  timing.set("trials", std::uint64_t{timed_trials});
  out.set("timing", std::move(timing));
  out.set("fingerprint", json::hex_u64(cells_fingerprint(cells)));
  return out.dump();
}

ShardPayload ShardPayload::from_json(std::string_view text) {
  const json::Value root = json::Value::parse(text);
  ShardPayload payload;
  payload.cells = cells_from_json(root.at("cells"));
  const json::Value& timing = root.at("timing");
  payload.setup_seconds = timing.at("setup_seconds").as_double();
  payload.run_seconds = timing.at("run_seconds").as_double();
  payload.timed_trials = timing.at("trials").as_uint64();
  check_cells_fingerprint(root, payload.cells, "payload");
  return payload;
}

std::uint64_t sweep_grid_fingerprint(std::uint64_t base_seed,
                                     std::size_t trials,
                                     const std::vector<GridPoint>& points) {
  std::uint64_t h = 0x677269642d667000ull;
  hash_u64(h, base_seed);
  hash_u64(h, trials);
  hash_u64(h, points.size());
  for (const GridPoint& p : points) {
    const std::string label = p.label();
    h = siphash24(SipKey{h, 0x6c6162656c000000ull}, label.data(),
                  label.size());
  }
  return h;
}

std::size_t ShardDoc::total_cells() const {
  std::size_t n = 0;
  for (const ShardSweep& s : sweeps) n += s.cells.size();
  return n;
}

std::string ShardDoc::to_json() const {
  json::Value root = json::Value::object();
  root.set("schema", "fba.shard");
  root.set("schema_version", std::uint64_t{kShardSchemaVersion});

  json::Value m = json::Value::object();
  m.set("tool", meta.tool);
  m.set("figure", meta.figure);
  m.set("scale", meta.scale);
  m.set("attack", meta.attack);
  m.set("fault", meta.fault);
  m.set("recovery", meta.recovery);
  m.set("base_seed", std::to_string(meta.base_seed));
  m.set("trials", std::uint64_t{meta.trials});
  m.set("shard_index", std::uint64_t{meta.shard_index});
  m.set("shard_count", std::uint64_t{meta.shard_count});
  root.set("meta", std::move(m));

  json::Value sweeps_json = json::Value::array();
  for (const ShardSweep& s : sweeps) {
    json::Value sv = json::Value::object();
    sv.set("points", std::uint64_t{s.points});
    sv.set("trials", std::uint64_t{s.trials});
    sv.set("grid_fingerprint", json::hex_u64(s.grid_fingerprint));
    sv.set("cells", cells_to_json(s.cells));
    sv.set("fingerprint", json::hex_u64(cells_fingerprint(s.cells)));
    sweeps_json.push_back(std::move(sv));
  }
  root.set("sweeps", std::move(sweeps_json));
  return root.dump() + "\n";
}

void ShardDoc::write(const std::string& path) const {
  json::write_file(path, to_json());
}

ShardDoc ShardDoc::from_json(std::string_view text) {
  const json::Value root = json::Value::parse(text);
  FBA_REQUIRE(root.at("schema").as_string() == "fba.shard",
              "shard: not an fba.shard document");
  const std::uint64_t version = root.at("schema_version").as_uint64();
  FBA_REQUIRE(version == kShardSchemaVersion,
              "shard: schema version " + std::to_string(version) +
                  " unsupported (this build reads v" +
                  std::to_string(kShardSchemaVersion) + " only)");

  ShardDoc doc;
  const json::Value& m = root.at("meta");
  doc.meta.tool = m.at("tool").as_string();
  doc.meta.figure = m.at("figure").as_string();
  doc.meta.scale = m.at("scale").as_string();
  doc.meta.attack = m.at("attack").as_string();
  doc.meta.fault = m.at("fault").as_string();
  doc.meta.recovery = m.at("recovery").as_string();
  doc.meta.base_seed = json::parse_u64(m.at("base_seed").as_string(), 10);
  doc.meta.trials = static_cast<std::size_t>(m.at("trials").as_uint64());
  doc.meta.shard_index =
      static_cast<std::size_t>(m.at("shard_index").as_uint64());
  doc.meta.shard_count =
      static_cast<std::size_t>(m.at("shard_count").as_uint64());

  for (const json::Value& sv : root.at("sweeps").as_array()) {
    ShardSweep sweep;
    sweep.points = static_cast<std::size_t>(sv.at("points").as_uint64());
    sweep.trials = static_cast<std::size_t>(sv.at("trials").as_uint64());
    sweep.grid_fingerprint =
        json::parse_u64(sv.at("grid_fingerprint").as_string(), 16);
    sweep.cells = cells_from_json(sv.at("cells"));
    check_cells_fingerprint(sv, sweep.cells, "sweep");
    doc.sweeps.push_back(std::move(sweep));
  }
  return doc;
}

ShardDoc ShardDoc::from_json_file(const std::string& path) {
  const std::string text = json::read_file(path);
  try {
    return from_json(text);
  } catch (const ConfigError& e) {
    throw ConfigError(path + ": " + e.what());
  }
}

ShardDoc merge_shards(const std::vector<ShardDoc>& shards) {
  FBA_REQUIRE(!shards.empty(), "shard merge: no shard documents given");
  const ShardMeta& first = shards.front().meta;
  for (std::size_t i = 1; i < shards.size(); ++i) {
    const ShardMeta& m = shards[i].meta;
    FBA_REQUIRE(
        m.figure == first.figure && m.base_seed == first.base_seed &&
            m.trials == first.trials && m.scale == first.scale &&
            m.attack == first.attack && m.fault == first.fault &&
            m.recovery == first.recovery,
        "shard merge: shard " + std::to_string(i) +
            " was recorded from a different run (figure/seed/trials/scale/"
            "attack/fault/recovery must all match shard 0)");
    FBA_REQUIRE(shards[i].sweeps.size() == shards.front().sweeps.size(),
                "shard merge: shard " + std::to_string(i) + " holds " +
                    std::to_string(shards[i].sweeps.size()) +
                    " sweeps, shard 0 holds " +
                    std::to_string(shards.front().sweeps.size()));
  }

  ShardDoc merged;
  merged.meta = first;
  merged.meta.shard_index = 0;
  merged.meta.shard_count = 1;

  for (std::size_t s = 0; s < shards.front().sweeps.size(); ++s) {
    const ShardSweep& shape = shards.front().sweeps[s];
    ShardSweep out;
    out.points = shape.points;
    out.trials = shape.trials;
    out.grid_fingerprint = shape.grid_fingerprint;
    out.cells.resize(shape.points * shape.trials);
    std::vector<bool> seen(shape.points * shape.trials, false);

    for (std::size_t i = 0; i < shards.size(); ++i) {
      const ShardSweep& in = shards[i].sweeps[s];
      FBA_REQUIRE(in.points == shape.points && in.trials == shape.trials &&
                      in.grid_fingerprint == shape.grid_fingerprint,
                  "shard merge: sweep " + std::to_string(s) + " of shard " +
                      std::to_string(i) +
                      " has a different shape or grid fingerprint than"
                      " shard 0 — shards came from diverging configurations");
      for (const ShardCell& cell : in.cells) {
        FBA_REQUIRE(cell.point < shape.points && cell.trial < shape.trials,
                    "shard merge: sweep " + std::to_string(s) +
                        " cell (point " + std::to_string(cell.point) +
                        ", trial " + std::to_string(cell.trial) +
                        ") is outside the sweep's matrix");
        const std::size_t slot = cell.point * shape.trials + cell.trial;
        FBA_REQUIRE(!seen[slot],
                    "shard merge: duplicate cell (sweep " + std::to_string(s) +
                        ", point " + std::to_string(cell.point) + ", trial " +
                        std::to_string(cell.trial) +
                        ") — the shards overlap instead of partitioning");
        seen[slot] = true;
        out.cells[slot] = cell;
      }
    }
    for (std::size_t slot = 0; slot < seen.size(); ++slot) {
      FBA_REQUIRE(seen[slot],
                  "shard merge: missing cell (sweep " + std::to_string(s) +
                      ", point " + std::to_string(slot / shape.trials) +
                      ", trial " + std::to_string(slot % shape.trials) +
                      ") — a shard of the partition was not given");
    }
    merged.sweeps.push_back(std::move(out));
  }
  return merged;
}

ShardIo& ShardIo::instance() {
  static ShardIo io;
  return io;
}

void ShardIo::start_record(ShardMeta meta) {
  FBA_REQUIRE(meta.shard_count >= 1 && meta.shard_index < meta.shard_count,
              "shard record: index must be in [0, shard_count)");
  reset();
  mode_ = Mode::kRecord;
  doc_.meta = std::move(meta);
}

void ShardIo::start_replay(ShardDoc merged) {
  reset();
  mode_ = Mode::kReplay;
  doc_ = std::move(merged);
}

void ShardIo::reset() {
  mode_ = Mode::kOff;
  doc_ = ShardDoc{};
  sweep_offsets_.clear();
  next_offset_ = 0;
}

std::size_t ShardIo::begin_sweep(std::uint64_t base_seed, std::size_t trials,
                                 const std::vector<GridPoint>& points) {
  const std::uint64_t grid_fp =
      sweep_grid_fingerprint(base_seed, trials, points);
  const std::size_t index = sweep_offsets_.size();
  if (mode_ == Mode::kRecord) {
    ShardSweep sweep;
    sweep.points = points.size();
    sweep.trials = trials;
    sweep.grid_fingerprint = grid_fp;
    doc_.sweeps.push_back(std::move(sweep));
  } else if (mode_ == Mode::kReplay) {
    FBA_REQUIRE(index < doc_.sweeps.size(),
                "shard replay: the figure ran more sweeps than the shards"
                " recorded — merged shards came from a different figure or"
                " build");
    const ShardSweep& recorded = doc_.sweeps[index];
    FBA_REQUIRE(
        recorded.points == points.size() && recorded.trials == trials &&
            recorded.grid_fingerprint == grid_fp,
        "shard replay: sweep " + std::to_string(index) +
            " shape/grid fingerprint differs from the recorded one — the"
            " shards came from different flags, seed or build");
  }
  sweep_offsets_.push_back(next_offset_);
  next_offset_ += points.size() * trials;
  return index;
}

bool ShardIo::owns_cell(std::size_t sweep, std::size_t point,
                        std::size_t trial, std::size_t trials) const {
  if (mode_ != Mode::kRecord) return true;
  const std::size_t offset =
      sweep_offsets_[sweep] + point * trials + trial;
  return offset % doc_.meta.shard_count == doc_.meta.shard_index;
}

void ShardIo::record_cell(std::size_t sweep, std::size_t point,
                          std::size_t trial, const TrialOutcome& outcome) {
  FBA_ASSERT(mode_ == Mode::kRecord && sweep < doc_.sweeps.size(),
             "record_cell outside record mode");
  doc_.sweeps[sweep].cells.push_back(ShardCell{point, trial, outcome});
}

const std::vector<ShardCell>& ShardIo::replay_cells(std::size_t sweep) const {
  FBA_ASSERT(mode_ == Mode::kReplay && sweep < doc_.sweeps.size(),
             "replay_cells outside replay mode");
  return doc_.sweeps[sweep].cells;
}

}  // namespace fba::exp
