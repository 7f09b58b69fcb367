#include "workloads.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "aer/runner.h"
#include "aer/soa.h"
#include "ba/ba.h"
#include "exp/arena.h"
#include "exp/report.h"
#include "exp/scenario.h"
#include "exp/service.h"
#include "exp/shard.h"
#include "exp/stats.h"
#include "exp/sweep.h"
#include "support/siphash.h"
#include "trace.h"

namespace fba::bench {

namespace {

// ---- workload sizes ---------------------------------------------------------
// A pass is the fixed trial set a seed generates. Each takes a few seconds,
// so a run repeats it several times and each trial's best time settles.

/// ba-fig1b: {AER, sqrt-sample, flood} x n in {128, 256}, as fba_repro fig1b.
constexpr std::size_t kBaTrialsPerCell = 5;
const std::vector<std::size_t> kBaSizes = {128, 256};
constexpr double kBaCorruptFraction = 0.05;
/// Fewest correct nodes, as a share, that must decide for a trial to pass
/// the output check (wrong decisions always fail it). Sync BA at these
/// sizes always reaches agreement.
constexpr double kBaMinDecided = 1.0;

/// service-n64: warm serial instances, as exp::run_service at workers = 1.
constexpr std::size_t kServiceN = 64;
constexpr std::uint64_t kServiceInstances = 200;
/// At n = 64 an instance sometimes leaves one or two nodes undecided.
constexpr double kServiceMinDecided = 0.9;

/// async-lossy-arq: the only workload on the heap-mode queue, the fault and
/// recovery layers and an active adversary strategy.
constexpr std::size_t kAsyncN = 128;
constexpr std::size_t kAsyncTrials = 20;
/// Recovery buys back almost all liveness lost to 5% loss.
constexpr double kAsyncMinDecided = 0.9;

/// scale-5e3: the structure-of-arrays runner at fig3-scale's pinned d = 8.
constexpr std::size_t kScaleN = 5000;
constexpr std::size_t kScaleD = 8;
constexpr std::size_t kScaleTrials = 4;
/// At d = 8 a few stragglers per mille never decide (the known fig3-scale
/// tail).
constexpr double kScaleMinDecided = 0.98;

/// Set-up warms each workload with trials of this seed, whatever --seed
/// is, so setup_s always measures the same work.
constexpr std::uint64_t kWarmupSeed = 20130722;

/// Probe repetitions; the median is reported.
constexpr int kProbeReps = 5;
/// Rows built per sampler-probe repetition.
constexpr std::size_t kProbeRows = 2048;

volatile NodeId g_probe_sink = 0;

std::uint64_t fold_fp(std::uint64_t h, std::uint64_t fp) {
  return siphash_words(SipKey{h, 0x66626142656e6368ull}, {fp});  // "fbaBench"
}

/// Collects a pass's per-trial results and its deterministic end-to-end
/// metrics.
class PassTally {
 public:
  explicit PassTally(double min_decided) : min_decided_(min_decided) {}

  void add(double ms, const exp::TrialOutcome& out, double decision_rounds) {
    r_.trial_ms.push_back(ms);
    r_.trial_fps.push_back(exp::outcome_fingerprint(out));
    const bool live = static_cast<double>(out.decided) >=
                      min_decided_ * static_cast<double>(out.correct);
    if (out.wrong_decisions > 0 || !live) ++r_.bad_trials;
    bits_ += out.amortized_bits;
    decision_ += decision_rounds;
    decided_ += out.decided - out.wrong_decisions;
    correct_ += out.correct;
  }

  PassResult finish(std::uint64_t result_fp) {
    const double trials = static_cast<double>(r_.trial_ms.size());
    r_.result_fp = result_fp;
    r_.amortized_bits = bits_ / trials;
    r_.decision_rounds = decision_ / trials;
    r_.decided_frac =
        static_cast<double>(decided_) / static_cast<double>(correct_);
    return std::move(r_);
  }

 private:
  double min_decided_;
  PassResult r_;
  double bits_ = 0;
  double decision_ = 0;
  std::uint64_t decided_ = 0;
  std::uint64_t correct_ = 0;
};

// ---- per-layer recording ----------------------------------------------------

void add_span_layers(LayerPass& layers, const SpanTotals& spans,
                     double engine_ms) {
  for (std::size_t h = 0; h < kOther; ++h) {
    layers.add(std::string("aer.handler_ms.") + kHandlerNames[h],
               spans.handler_ms[h]);
    layers.add(std::string("aer.handler_calls.") + kHandlerNames[h],
               static_cast<double>(spans.handler_calls[h]));
  }
  layers.add("net.engine_run_ms", engine_ms);
  layers.add("net.loop_self_ms", engine_ms - spans.handler_total_ms() -
                                     spans.strategy_outside_ms);
  layers.add("net.deliveries", static_cast<double>(spans.deliveries));
  layers.add("adversary.strategy_ms", spans.strategy_ms);
  layers.add("adversary.observe_calls",
             static_cast<double>(spans.observe_calls));
  layers.add("adversary.deliver_calls",
             static_cast<double>(spans.deliver_calls));
}

/// Send-path counters every runner harvests into the outcome.
void add_traffic_layers(LayerPass& layers, const exp::TrialOutcome& out,
                        std::size_t n) {
  const double bits = out.amortized_bits * static_cast<double>(n);
  const double ack_bits =
      out.bits_by_kind[sim::kind_index(sim::MessageKind::kAck)];
  layers.add("net.msgs_sent", out.total_messages);
  layers.add("net.bits_sent", bits);
  layers.add("net.fault_dropped", out.fault_dropped_msgs);
  layers.add("net.recovery_retransmits", out.recovery_retransmit_msgs);
  layers.add("net.recovery_acks", out.recovery_acked_msgs);
  layers.add("net.recovery_dups", out.recovery_dup_msgs);
  layers.add("net.recovery_dead", out.recovery_dead_msgs);
  layers.add("net.wire_efficiency",
             bits > 0 ? (bits - out.recovery_retransmit_bits - ack_bits) / bits
                      : 1.0);
}

void add_table_layers(LayerPass& layers, const aer::AerShared& shared) {
  layers.add("sampler.rows_push",
             static_cast<double>(shared.tables.push.rows_built()));
  layers.add("sampler.rows_pull",
             static_cast<double>(shared.tables.pull.rows_built()));
  layers.add("sampler.rows_poll",
             static_cast<double>(shared.tables.poll.rows_built()));
}

/// One report series point plus the name of the series it belongs to.
struct SeriesPoint {
  std::string series;
  exp::ReportPoint point;
};

/// The results a traced pass leaves for the report and shard probes.
struct ProbeInputs {
  std::vector<SeriesPoint> points;
  std::vector<exp::ShardCell> cells;
};

void probe_report_io(LayerPass& layers, const std::string& figure,
                     const ProbeInputs& in) {
  exp::ReportMeta meta;
  meta.tool = "fba_bench";
  meta.figure = figure;
  exp::Report report(meta);
  for (const SeriesPoint& p : in.points) report.add_point(p.series, p.point);

  exp::ShardPayload payload;
  payload.cells = in.cells;
  const double cells = static_cast<double>(in.cells.size());

  std::vector<double> write_ms, parse_ms, encode_us, decode_us;
  std::string report_text, shard_text;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const auto t0 = Clock::now();
    report_text = report.to_json();
    const auto t1 = Clock::now();
    const exp::Report parsed = exp::Report::from_json(report_text);
    const auto t2 = Clock::now();
    shard_text = payload.to_json();
    const auto t3 = Clock::now();
    const exp::ShardPayload decoded = exp::ShardPayload::from_json(shard_text);
    const auto t4 = Clock::now();
    FBA_ASSERT(parsed.total_points() == in.points.size() &&
                   decoded.cells.size() == in.cells.size(),
               "report/shard round trip lost points");
    write_ms.push_back(ms_since(t0, t1));
    parse_ms.push_back(ms_since(t1, t2));
    encode_us.push_back(1e3 * ms_since(t2, t3) / cells);
    decode_us.push_back(1e3 * ms_since(t3, t4) / cells);
  }
  layers.set("exp.report_json_ms", exp::summarize_sample(write_ms).p50);
  layers.set("exp.report_parse_ms", exp::summarize_sample(parse_ms).p50);
  layers.set("exp.report_bytes", static_cast<double>(report_text.size()));
  layers.set("exp.shard_encode_us_per_cell",
             exp::summarize_sample(encode_us).p50);
  layers.set("exp.shard_decode_us_per_cell",
             exp::summarize_sample(decode_us).p50);
  layers.set("exp.shard_bytes_per_cell",
             static_cast<double>(shard_text.size()) / cells);
}

/// Times row builds on a fresh SharedTables bound to `cfg`'s samplers: the
/// first touch of a (string, node) row builds it, the second only looks it
/// up.
void probe_sampler(LayerPass& layers, const aer::AerConfig& cfg) {
  const aer::AerWorld world = aer::build_aer_world(cfg);
  const aer::AerShared& shared = *world.shared;
  const StringId s = shared.gstring;
  const sampler::StringKey key = shared.key_of(s);
  const std::size_t rows = std::min(cfg.n, kProbeRows);
  std::vector<double> cold_ns, warm_ns;
  NodeId sink = 0;  // keeps the lookups observable
  for (int rep = 0; rep < kProbeReps; ++rep) {
    sampler::SharedTables tables;
    tables.reset(shared.samplers, cfg.n);
    const auto t0 = Clock::now();
    for (NodeId x = 0; x < rows; ++x) {
      sink ^= tables.pull.row(s, key, x).slots[0];
    }
    const auto t1 = Clock::now();
    for (NodeId x = 0; x < rows; ++x) {
      sink ^= tables.pull.row(s, key, x).slots[0];
    }
    const auto t2 = Clock::now();
    cold_ns.push_back(1e6 * ms_since(t0, t1) / static_cast<double>(rows));
    warm_ns.push_back(1e6 * ms_since(t1, t2) / static_cast<double>(rows));
  }
  g_probe_sink = sink;
  layers.set("sampler.cold_row_ns", exp::summarize_sample(cold_ns).p50);
  layers.set("sampler.warm_row_ns", exp::summarize_sample(warm_ns).p50);
}

/// Runs AER on a built world exactly as aer::run_aer_world_arena does (step
/// for step: the golden fingerprints pin the order), with each pooled
/// AerNode behind a TimedActor and the strategy behind a TimedStrategy.
/// Engines and nodes are reused across trials like the arena path's, so a
/// traced trial does the untraced trial's work plus the spans.
class TracedAerRunner {
 public:
  TracedAerRunner() = default;
  // The engines hold pointers to the shims, and the shims to spans_.
  TracedAerRunner(const TracedAerRunner&) = delete;
  TracedAerRunner& operator=(const TracedAerRunner&) = delete;

  aer::AerReport run(aer::AerWorld& world,
                     const aer::StrategyFactory& make_strategy) {
    spans_ = SpanTotals{};
    const aer::AerConfig& config = world.shared->config;
    world.decisions.reset(config.n);

    aer::AerReport report;
    report.n = config.n;
    report.t = world.view.corrupt.size();
    report.d = config.resolved_d();
    report.model = config.model;

    std::unique_ptr<adv::Strategy> strategy;
    if (make_strategy) {
      if (auto inner = make_strategy(world.view)) {
        strategy = std::make_unique<TimedStrategy>(std::move(inner), &spans_);
      }
    }

    std::size_t decided = 0;
    std::size_t target = world.correct.size();
    auto on_decide = [&world, &decided](NodeId node, StringId value,
                                        double time) {
      if (!world.decisions.has_decided(node)) ++decided;
      world.decisions.record(node, value, time);
    };
    auto done = [&] { return decided >= target; };
    auto on_corrupt = [&world, &target](NodeId node, double) {
      if (aer::note_runtime_corruption(world, node)) --target;
    };
    auto wire = [&](auto& engine) {
      engine.set_wire(&world.shared->wire());
      engine.set_fault_plan(&config.fault_plan);
      engine.set_recovery_plan(&config.recovery_plan);
      engine.set_corrupt(world.view.corrupt);
      wire_actors(engine, world);
      engine.set_strategy(strategy.get());
      engine.set_decision_callback(on_decide);
      engine.set_corruption_budget(config.adaptive_budget);
      engine.set_corruption_callback(on_corrupt);
    };
    auto harvest = [&](auto& engine, double time, bool completed) {
      report.engine_time = time;
      report.engine_completed = completed;
      report.runtime_corruptions = engine.corruptions_spent();
      report.first_corruption_time = engine.first_corruption_time();
      report.last_corruption_time = engine.last_corruption_time();
      aer::fill_outcome_and_traffic(report, world, engine.metrics());
      queue_peak_ = engine.queue_peak();
    };

    if (config.model == aer::Model::kAsync) {
      sim::AsyncConfig ec;
      ec.n = config.n;
      ec.seed = config.seed;
      ec.max_time = config.max_time;
      if (arena_.async.has_value()) arena_.async->reset(ec);
      else arena_.async.emplace(ec);
      wire(*arena_.async);
      const auto result = arena_.async->run(done);
      harvest(*arena_.async, result.time, result.completed);
    } else {
      sim::SyncConfig ec;
      ec.n = config.n;
      ec.seed = config.seed;
      ec.rushing_adversary = config.model == aer::Model::kSyncRushing;
      ec.max_rounds = config.max_rounds;
      if (arena_.sync.has_value()) arena_.sync->reset(ec);
      else arena_.sync.emplace(ec);
      wire(*arena_.sync);
      const auto result = arena_.sync->run(done);
      harvest(*arena_.sync, static_cast<double>(result.rounds),
              result.completed);
    }
    fill_aer_specific(report, world);
    return report;
  }

  const SpanTotals& spans() const { return spans_; }
  /// The last run's pending-event high-water mark.
  std::size_t queue_peak() const { return queue_peak_; }

 private:
  /// RunArena::wire_actors, registering the pooled node's shim instead.
  template <typename Engine>
  void wire_actors(Engine& engine, const aer::AerWorld& world) {
    const std::size_t n = world.shared->config.n;
    arena_.active.assign(n, nullptr);
    std::size_t used = 0;
    for (NodeId id = 0; id < n; ++id) {
      if (engine.is_corrupt(id)) continue;
      const StringId initial = world.view.initial[id];
      if (used == arena_.node_pool.size()) {
        arena_.node_pool.push_back(
            std::make_unique<aer::AerNode>(world.shared.get(), id, initial));
        shims_.push_back(std::make_unique<TimedActor>(
            arena_.node_pool.back().get(), &spans_));
      } else {
        arena_.node_pool[used]->reset(world.shared.get(), id, initial);
      }
      arena_.active[id] = arena_.node_pool[used].get();
      engine.set_actor(id, static_cast<sim::Actor*>(shims_[used].get()));
      ++used;
    }
  }

  /// The AER-specific report sections, from the nodes' public getters.
  void fill_aer_specific(aer::AerReport& report, const aer::AerWorld& world) {
    const StringId gstring = world.shared->gstring;
    for (NodeId id : world.correct) {
      const aer::AerNode* node = arena_.active[id];
      if (node == nullptr) continue;
      report.sum_candidate_lists += node->candidate_list().size();
      report.max_candidate_list =
          std::max(report.max_candidate_list, node->candidate_list().size());
      if (!node->has_candidate(gstring)) ++report.nodes_missing_gstring;
      report.max_deferred_answers =
          std::max(report.max_deferred_answers, node->deferred_peak());
    }
  }

  aer::RunArena arena_;
  /// shims_[k] fronts arena_.node_pool[k].
  std::vector<std::unique_ptr<TimedActor>> shims_;
  SpanTotals spans_;
  std::size_t queue_peak_ = 0;
};

// ---- ba-fig1b ---------------------------------------------------------------

class BaFig1b final : public Workload {
 public:
  explicit BaFig1b(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    sweeps_.clear();
    const aer::AerConfig base = base_config();
    for (const ba::Reduction reduction : kReductions) {
      exp::Grid grid;
      grid.ns = kBaSizes;
      auto sweep =
          std::make_unique<exp::Sweep>(base, grid, kBaTrialsPerCell);
      sweep->set_threads(1).set_trial(
          [this, reduction](const aer::AerConfig& cfg, const exp::GridPoint&) {
            return trial(reduction, cfg);
          });
      sweeps_.push_back(std::move(sweep));
      // Warm-up: a trial of this reduction at the smaller n.
      const exp::GridPoint first = exp::expand_grid(base, grid).front();
      aer::AerConfig cfg = first.apply(base);
      cfg.seed = exp::trial_seed(kWarmupSeed, first.index, 0);
      ba::run_ba(ba_config(cfg), reduction);
    }
  }

  PassResult run_pass() override { return pass(nullptr); }
  PassResult run_traced_pass(LayerPass& layers) override {
    return pass(&layers);
  }

  void probe(LayerPass& layers) override {
    probe_report_io(layers, "fig1b", probe_);
    aer::AerConfig cfg;
    cfg.n = kBaSizes.back();
    cfg.seed = exp::trial_seed(seed_, kBaSizes.size() - 1, 0);
    cfg.corrupt_fraction = kBaCorruptFraction;
    probe_sampler(layers, cfg);
  }

 private:
  static constexpr ba::Reduction kReductions[] = {
      ba::Reduction::kAer, ba::Reduction::kSqrtSample, ba::Reduction::kFlood};

  /// The sweep base, as fba_repro's fig1b records it.
  aer::AerConfig base_config() const {
    aer::AerConfig base;
    base.seed = seed_;
    base.corrupt_fraction = kBaCorruptFraction;
    return base;
  }

  static ba::BaConfig ba_config(const aer::AerConfig& cfg) {
    ba::BaConfig run;
    run.n = cfg.n;
    run.seed = cfg.seed;
    run.corrupt_fraction = cfg.corrupt_fraction;
    return run;
  }

  static const char* layer_name(ba::Reduction reduction) {
    switch (reduction) {
      case ba::Reduction::kAer: return "ba.trial_ms.aer";
      case ba::Reduction::kSqrtSample: return "baseline.trial_ms.sqrt";
      case ba::Reduction::kFlood: return "baseline.trial_ms.flood";
    }
    return "";
  }

  /// The Sweep trial. Traced, a reduction-strategy factory that installs no
  /// strategy marks the instant the AE phase and the reduction's world
  /// build are done (run_world_protocol calls it before the engine starts).
  exp::TrialOutcome trial(ba::Reduction reduction, const aer::AerConfig& cfg) {
    const ba::BaConfig run = ba_config(cfg);
    if (layers_ == nullptr) {
      const auto t0 = Clock::now();
      exp::TrialOutcome out = exp::outcome_of(ba::run_ba(run, reduction));
      trial_ms_->push_back(ms_since(t0, Clock::now()));
      return out;
    }
    Clock::time_point reduction_start{};
    const aer::StrategyFactory mark =
        [&reduction_start](const aer::AerWorldView&)
        -> std::unique_ptr<adv::Strategy> {
      reduction_start = Clock::now();
      return nullptr;
    };
    const auto t0 = Clock::now();
    const ba::BaReport report = ba::run_ba(run, reduction, {}, mark);
    const auto t1 = Clock::now();
    exp::TrialOutcome out = exp::outcome_of(report);
    const auto t2 = Clock::now();
    trial_ms_->push_back(ms_since(t0, t2));
    LayerPass& layers = *layers_;
    layers.add("ae.phase_ms", ms_since(t0, reduction_start));
    layers.add(layer_name(reduction), ms_since(reduction_start, t1));
    layers.add("aer.harvest_us", 1e3 * ms_since(t1, t2));
    layers.add("ae.rounds", static_cast<double>(report.ae.rounds));
    layers.add("ae.bits", report.ae.amortized_bits);
    layers.add("net.rounds", out.engine_time);
    add_traffic_layers(layers, out, cfg.n);
    layers.covered_ms += ms_since(t0, t2);
    return out;
  }

  PassResult pass(LayerPass* layers) {
    layers_ = layers;
    PassTally tally(kBaMinDecided);
    std::vector<double> trial_ms;
    trial_ms_ = &trial_ms;
    std::uint64_t fp = 0;
    if (layers != nullptr) probe_ = {};
    const auto pass_start = Clock::now();
    for (std::size_t i = 0; i < sweeps_.size(); ++i) {
      const std::vector<exp::PointResult> results = sweeps_[i]->run();
      std::size_t trial = trial_ms.size() - results.size() * kBaTrialsPerCell;
      for (const exp::PointResult& r : results) {
        fp = fold_fp(fp, r.aggregate.fingerprint());
        for (const exp::TrialOutcome& out : r.outcomes) {
          tally.add(trial_ms[trial++], out,
                      out.ae_rounds + out.mean_decision_time);
        }
        if (layers != nullptr) record_point(*layers, kReductions[i], r);
      }
    }
    if (layers != nullptr) {
      layers->wall_ms += ms_since(pass_start, Clock::now());
    }
    layers_ = nullptr;
    trial_ms_ = nullptr;
    return tally.finish(fp);
  }

  void record_point(LayerPass& layers, ba::Reduction reduction,
                    const exp::PointResult& r) {
    const auto t0 = Clock::now();
    const exp::Aggregate aggregate = exp::aggregate_outcomes(r.outcomes);
    layers.add("exp.aggregate_ms", ms_since(t0, Clock::now()));
    FBA_ASSERT(aggregate.fingerprint() == r.aggregate.fingerprint(),
               "re-aggregation changed a fingerprint");
    probe_.points.push_back(
        {std::string("BA/") + ba::reduction_name(reduction),
         exp::ReportPoint{r.point,
                          exp::point_provenance(base_config(), r.point),
                          r.aggregate}});
    for (std::size_t t = 0; t < r.outcomes.size(); ++t) {
      probe_.cells.push_back({r.point.index, t, r.outcomes[t]});
    }
  }

  std::uint64_t seed_;
  std::vector<std::unique_ptr<exp::Sweep>> sweeps_;
  std::vector<double>* trial_ms_ = nullptr;
  LayerPass* layers_ = nullptr;
  ProbeInputs probe_;
};

// ---- service-n64 ------------------------------------------------------------

class ServiceN64 final : public Workload {
 public:
  explicit ServiceN64(std::uint64_t seed) {
    config_.base.n = kServiceN;
    config_.base.model = aer::Model::kSyncRushing;
    config_.attack = "none";
    config_.base_seed = seed;
    config_.instances = kServiceInstances;
    config_.workers = 1;
    config_.warm = true;
  }

  void setup() override {
    plan_ = std::make_unique<exp::ServicePlan>(config_);
    arena_ = std::make_unique<exp::TrialArena>();
    strategy_ = exp::attack_factory(config_.attack);
    runner_ = std::make_unique<TracedAerRunner>();
    // Warm-up: one instance fills the arena's pools and tables.
    exp::ServiceConfig warmup = config_;
    warmup.base_seed = kWarmupSeed;
    exp::ServicePlan(warmup).run_instance(0, cfg_, *arena_, out_);
  }

  /// exp::run_service's serial path (workers = 1), instance by instance.
  PassResult run_pass() override {
    PassTally tally(kServiceMinDecided);
    exp::ServiceStats stats;
    for (std::uint64_t i = 0; i < config_.instances; ++i) {
      const auto t0 = Clock::now();
      plan_->run_instance(i, cfg_, *arena_, out_);
      stats.fold(out_);
      const double ms = ms_since(t0, Clock::now());
      tally.add(ms, out_, out_.mean_decision_time);
    }
    return tally.finish(stats.fingerprint());
  }

  /// The same instances through ServicePlan::configure ->
  /// build_aer_world_into -> the traced AER run -> outcome_into ->
  /// ServiceStats::fold, each call a span.
  PassResult run_traced_pass(LayerPass& layers) override {
    PassTally tally(kServiceMinDecided);
    exp::ServiceStats stats;
    probe_ = {};
    const auto pass_start = Clock::now();
    for (std::uint64_t i = 0; i < config_.instances; ++i) {
      const auto t0 = Clock::now();
      plan_->configure(cfg_, i);
      const auto t1 = Clock::now();
      aer::build_aer_world_into(arena_->world, cfg_);
      const auto t2 = Clock::now();
      const aer::AerReport report = runner_->run(arena_->world, strategy_);
      const auto t3 = Clock::now();
      exp::outcome_into(report, arena_->world, out_);
      out_.seed = cfg_.seed;
      const auto t4 = Clock::now();
      stats.fold(out_);
      const auto t5 = Clock::now();
      const double ms = ms_since(t0, t5);
      tally.add(ms, out_, out_.mean_decision_time);

      layers.add("exp.service_configure_us", 1e3 * ms_since(t0, t1));
      layers.add("aer.world_build_ms", ms_since(t1, t2));
      add_span_layers(layers, runner_->spans(), ms_since(t2, t3));
      layers.add("net.queue_peak", static_cast<double>(runner_->queue_peak()));
      layers.add("aer.harvest_us", 1e3 * ms_since(t3, t4));
      layers.add("exp.service_fold_us", 1e3 * ms_since(t4, t5));
      layers.add("net.rounds", out_.engine_time);
      add_traffic_layers(layers, out_, kServiceN);
      add_table_layers(layers, *arena_->world.shared);
      layers.covered_ms += ms;
      probe_.cells.push_back({0, static_cast<std::size_t>(i), out_});
    }
    const auto t0 = Clock::now();
    const exp::Aggregate aggregate = stats.to_aggregate();
    layers.add("exp.aggregate_ms", ms_since(t0, Clock::now()));
    layers.wall_ms += ms_since(pass_start, Clock::now());

    exp::GridPoint point;
    point.n = kServiceN;
    point.model = config_.base.model;
    point.corrupt_fraction = config_.base.corrupt_fraction;
    probe_.points.push_back(
        {"service",
         exp::ReportPoint{point, exp::point_provenance(config_.base, point),
                          aggregate}});
    return tally.finish(stats.fingerprint());
  }

  void probe(LayerPass& layers) override {
    probe_report_io(layers, "service", probe_);
    aer::AerConfig cfg = config_.base;
    cfg.seed = exp::instance_seed(config_.base_seed, 0);
    probe_sampler(layers, cfg);
  }

 private:
  exp::ServiceConfig config_;
  std::unique_ptr<exp::ServicePlan> plan_;
  std::unique_ptr<exp::TrialArena> arena_;
  aer::StrategyFactory strategy_;
  aer::AerConfig cfg_;
  exp::TrialOutcome out_;
  std::unique_ptr<TracedAerRunner> runner_;
  ProbeInputs probe_;
};

// ---- async-lossy-arq --------------------------------------------------------

class AsyncLossyArq final : public Workload {
 public:
  explicit AsyncLossyArq(std::uint64_t seed) {
    base_.seed = seed;
    base_.n = kAsyncN;
    base_.model = aer::Model::kAsync;
    grid_.ns = {kAsyncN};
    grid_.models = {aer::Model::kAsync};
    grid_.strategies = {"overload"};
    grid_.faults = {"lossy-5pct"};
    grid_.recoveries = {"arq-fast"};
  }

  void setup() override {
    sweep_ = std::make_unique<exp::Sweep>(base_, grid_, kAsyncTrials);
    sweep_->set_threads(1).set_arena_trial(
        [this](const aer::AerConfig& cfg, const exp::GridPoint& point,
               exp::TrialArena& arena, exp::TrialOutcome& out) {
          // Sweep's default trial, timed.
          const auto t0 = Clock::now();
          exp::run_aer_trial(cfg, point, arena, out);
          trial_ms_->push_back(ms_since(t0, Clock::now()));
        });
    point_ = exp::expand_grid(base_, grid_).front();
    world_ = aer::AerWorld();
    runner_ = std::make_unique<TracedAerRunner>();
    // Warm-up: a one-trial sweep.
    aer::AerConfig warmup = base_;
    warmup.seed = kWarmupSeed;
    exp::Sweep(warmup, grid_, 1).set_threads(1).run();
  }

  PassResult run_pass() override {
    std::vector<double> trial_ms;
    trial_ms_ = &trial_ms;
    const std::vector<exp::PointResult> results = sweep_->run();
    trial_ms_ = nullptr;

    PassTally tally(kAsyncMinDecided);
    const exp::PointResult& r = results.front();
    for (std::size_t t = 0; t < r.outcomes.size(); ++t) {
      tally.add(trial_ms[t], r.outcomes[t],
                  r.outcomes[t].mean_decision_time);
    }
    return tally.finish(fold_fp(0, r.aggregate.fingerprint()));
  }

  /// The same trials as exp::run_aer_trial, with the world build, the
  /// protocol run and the harvest as separate spans.
  PassResult run_traced_pass(LayerPass& layers) override {
    PassTally tally(kAsyncMinDecided);
    std::vector<exp::TrialOutcome> outcomes(kAsyncTrials);
    const auto pass_start = Clock::now();
    for (std::size_t t = 0; t < kAsyncTrials; ++t) {
      const auto start = Clock::now();
      aer::AerConfig cfg = point_.apply(base_);
      cfg.seed = exp::trial_seed(base_.seed, point_.index, t);
      cfg.fault_plan = exp::fault_plan_factory(point_.fault);
      cfg.recovery_plan = exp::recovery_plan_factory(point_.recovery);
      const aer::StrategyFactory strategy =
          exp::attack_factory(point_.strategy);
      const auto t0 = Clock::now();
      aer::build_aer_world_into(world_, cfg);
      const auto t1 = Clock::now();
      const aer::AerReport report = runner_->run(world_, strategy);
      const auto t2 = Clock::now();
      exp::TrialOutcome& out = outcomes[t];
      exp::outcome_into(report, world_, out);
      out.seed = cfg.seed;
      const auto t3 = Clock::now();
      const double ms = ms_since(start, t3);
      tally.add(ms, out, out.mean_decision_time);

      layers.add("aer.world_build_ms", ms_since(t0, t1));
      add_span_layers(layers, runner_->spans(), ms_since(t1, t2));
      layers.add("net.queue_peak", static_cast<double>(runner_->queue_peak()));
      layers.add("aer.harvest_us", 1e3 * ms_since(t2, t3));
      add_traffic_layers(layers, out, kAsyncN);
      add_table_layers(layers, *world_.shared);
      layers.covered_ms += ms_since(t0, t3);
    }
    const auto t0 = Clock::now();
    const exp::Aggregate aggregate = exp::aggregate_outcomes(outcomes);
    layers.add("exp.aggregate_ms", ms_since(t0, Clock::now()));
    layers.wall_ms += ms_since(pass_start, Clock::now());

    probe_ = {};
    probe_.points.push_back(
        {"AER/async", exp::ReportPoint{point_,
                                       exp::point_provenance(base_, point_),
                                       aggregate}});
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
      probe_.cells.push_back({point_.index, t, outcomes[t]});
    }
    return tally.finish(fold_fp(0, aggregate.fingerprint()));
  }

  void probe(LayerPass& layers) override {
    probe_report_io(layers, "async-lossy-arq", probe_);
    aer::AerConfig cfg = point_.apply(base_);
    cfg.seed = exp::trial_seed(base_.seed, point_.index, 0);
    probe_sampler(layers, cfg);
  }

 private:
  aer::AerConfig base_;
  exp::Grid grid_;
  exp::GridPoint point_;
  std::unique_ptr<exp::Sweep> sweep_;
  std::vector<double>* trial_ms_ = nullptr;
  aer::AerWorld world_;
  std::unique_ptr<TracedAerRunner> runner_;
  ProbeInputs probe_;
};

// ---- scale-5e3 --------------------------------------------------------------

class Scale final : public Workload {
 public:
  explicit Scale(std::uint64_t seed) {
    base_.seed = seed;
    base_.model = aer::Model::kSyncRushing;
    base_.d_override = kScaleD;
    exp::Grid grid;
    grid.ns = {kScaleN};
    grid.models = {aer::Model::kSyncRushing};
    point_ = exp::expand_grid(base_, grid).front();
  }

  void setup() override {
    arena_ = std::make_unique<exp::ScaleArena>();
    // Warm-up: one trial sizes the arena's SoA state.
    aer::AerConfig warmup = config(0);
    warmup.seed = exp::trial_seed(kWarmupSeed, point_.index, 0);
    exp::TrialOutcome out;
    exp::run_aer_scale_trial(warmup, point_, *arena_, out);
  }

  PassResult run_pass() override {
    PassTally tally(kScaleMinDecided);
    std::vector<exp::TrialOutcome> outcomes(kScaleTrials);
    for (std::size_t t = 0; t < kScaleTrials; ++t) {
      const aer::AerConfig cfg = config(t);
      const auto t0 = Clock::now();
      exp::run_aer_scale_trial(cfg, point_, *arena_, outcomes[t]);
      const double ms = ms_since(t0, Clock::now());
      tally.add(ms, outcomes[t], outcomes[t].mean_decision_time);
    }
    return tally.finish(
        fold_fp(0, exp::aggregate_outcomes(outcomes).fingerprint()));
  }

  /// exp::run_aer_scale_trial's steps as spans, with every simulated round
  /// timed through the runner's round-progress hook.
  PassResult run_traced_pass(LayerPass& layers) override {
    PassTally tally(kScaleMinDecided);
    std::vector<exp::TrialOutcome> outcomes(kScaleTrials);
    std::vector<Clock::time_point> round_ends;
    aer::SoaRunOptions opts;
    opts.round_progress = [&round_ends](Round, std::size_t) {
      round_ends.push_back(Clock::now());
    };
    const auto pass_start = Clock::now();
    for (std::size_t t = 0; t < kScaleTrials; ++t) {
      const aer::AerConfig cfg = config(t);
      round_ends.clear();
      const auto t0 = Clock::now();
      aer::build_aer_world_into(arena_->world, cfg);
      const auto t1 = Clock::now();
      const aer::AerReport report =
          aer::run_aer_world_soa(arena_->world, arena_->run, opts,
                                 exp::attack_factory(point_.strategy));
      const auto t2 = Clock::now();
      exp::TrialOutcome& out = outcomes[t];
      exp::outcome_into(report, arena_->world, out);
      out.seed = cfg.seed;
      const auto t3 = Clock::now();
      const double ms = ms_since(t0, t3);
      tally.add(ms, out, out.mean_decision_time);

      std::vector<double> round_ms;
      Clock::time_point prev = t1;
      for (const Clock::time_point& end : round_ends) {
        round_ms.push_back(ms_since(prev, end));
        prev = end;
      }
      layers.add("aer.world_build_ms", ms_since(t0, t1));
      // The SoA actor's handlers are internal: the whole run is loop time.
      add_span_layers(layers, SpanTotals{}, ms_since(t1, t2));
      layers.add("net.queue_peak",
                 static_cast<double>(arena_->run.sync->queue_peak()));
      layers.add("aer.harvest_us", 1e3 * ms_since(t2, t3));
      layers.add("aer.mem_bytes_per_node", out.mem_bytes_per_node);
      layers.add("net.rounds", static_cast<double>(round_ms.size()));
      layers.add("net.round_ms_p50",
                 round_ms.empty() ? 0 : exp::summarize_sample(round_ms).p50);
      layers.add("net.round_ms_max",
                 round_ms.empty()
                     ? 0
                     : *std::max_element(round_ms.begin(), round_ms.end()));
      add_traffic_layers(layers, out, kScaleN);
      add_table_layers(layers, *arena_->world.shared);
      layers.covered_ms += ms;
    }
    const auto t0 = Clock::now();
    const exp::Aggregate aggregate = exp::aggregate_outcomes(outcomes);
    layers.add("exp.aggregate_ms", ms_since(t0, Clock::now()));
    layers.wall_ms += ms_since(pass_start, Clock::now());

    probe_ = {};
    probe_.points.push_back(
        {"AER/soa", exp::ReportPoint{point_,
                                     exp::point_provenance(base_, point_),
                                     aggregate}});
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
      probe_.cells.push_back({point_.index, t, outcomes[t]});
    }
    return tally.finish(fold_fp(0, aggregate.fingerprint()));
  }

  void probe(LayerPass& layers) override {
    probe_report_io(layers, "scale", probe_);
    probe_sampler(layers, config(0));
  }

 private:
  aer::AerConfig config(std::size_t trial) const {
    aer::AerConfig cfg = point_.apply(base_);
    cfg.seed = exp::trial_seed(base_.seed, point_.index, trial);
    return cfg;
  }

  aer::AerConfig base_;
  exp::GridPoint point_;
  std::unique_ptr<exp::ScaleArena> arena_;
  ProbeInputs probe_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "ba-fig1b") return std::make_unique<BaFig1b>(seed);
  if (name == "service-n64") return std::make_unique<ServiceN64>(seed);
  if (name == "async-lossy-arq") return std::make_unique<AsyncLossyArq>(seed);
  if (name == "scale-5e3") return std::make_unique<Scale>(seed);
  return nullptr;
}

}  // namespace fba::bench
