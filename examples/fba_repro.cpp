// fba_repro: the figure-reproduction pipeline — run a named figure's sweep
// end to end and emit machine-readable results plus a rendered curve.
//
//   fba_repro --figure=fig1b --large --trials=100 --out=results/
//   fba_repro --figure=fig1b --quick --trials=20 --out=results/
//             --baseline=baselines/BENCH_fig1b.json  (one command line)
//   fba_repro --validate=results/BENCH_fig1b.json
//
// Figures (docs/paper-map.md maps each back to the paper):
//   fig1a        — almost-everywhere-to-everywhere comparison: amortized
//                  bits/node vs n for AER (three timing models),
//                  SQRT-SAMPLE and FLOOD-ALL.
//   fig1b        — Byzantine Agreement comparison: end-to-end time vs n for
//                  BA = AE tournament + {AER, SQRT-SAMPLE, FLOOD-ALL}.
//   fig2         — the push/pull message-flow structure: per-kind traffic
//                  of one n=64 configuration across trials.
//   fig3         — sampler expansion (Lemma 2): min border ratio
//                  |dL|/(d|L|) vs n for uniform and greedy-adversarial
//                  label sets (must stay above 2/3).
//   fig3-scale   — million-node scale mode: AER completion rounds and the
//                  deterministic bytes/node account vs n (10^3..10^6, the
//                  structure-of-arrays runner; docs/perf.md "scale mode").
//                  --quick stops at n=10^5 — the CI smoke configuration.
//   fault-matrix — beyond-the-model degradation: decided fraction per
//                  fault preset for both engines at n=128 (composable with
//                  --attack).
//   adaptive     — resilience boundary vs an adaptive adversary: agreement
//                  rate as the runtime corruption budget grows, for every
//                  adaptive-* attack under both engines (composable with
//                  --fault; --attack pins a single strategy).
//
// Every figure writes BENCH_<figure>.{json,csv,md,gp} under --out (JSON/CSV
// per docs/output-schema.md; .md embeds an ASCII rendering, .gp is a
// self-contained gnuplot script). --baseline=FILE runs Report::diff against
// a previously committed JSON and exits 1 on regressions beyond CI bounds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bench/bench_util.h"
#include "fba.h"

namespace {

using namespace fba;
using benchutil::Scale;

struct Options {
  std::string figure;
  std::string out = "results";
  std::string baseline;
  std::string validate;
  std::string attack = "none";
  std::string fault = "none";
  std::string recovery = "off";
  std::uint64_t seed = 20130722;  // PODC'13, July 22
  bool seed_set = false;          // --seed was passed explicitly
  std::size_t trials = 0;         // 0 = per-scale default
  std::size_t threads = exp::default_threads();
  std::size_t procs = 1;  ///< --procs=N: forked sweep workers (1 = off).
  std::string shard;      ///< --shard=i/N: record slice i of N and exit.
  bool merge = false;     ///< --merge file...: replay merged shard files.
  std::vector<std::string> merge_files;
  Scale scale = Scale::kDefault;
  bool timing = false;  ///< --timing: print the setup-vs-run split on exit.
};

constexpr const char* kUsageExtra =
    "  --figure=NAME      fig1a | fig1b | fig2 | fig3 | fig3-scale |\n"
    "                     fault-matrix | recovery-matrix | adaptive | service\n"
    "  --out=DIR          output directory (default results/); writes\n"
    "                     BENCH_<figure>.{json,csv,md,gp}\n"
    "  --baseline=FILE    diff this run against a committed fba.report JSON;\n"
    "                     exit 1 on regressions beyond CI bounds\n"
    "  --validate=FILE    parse FILE against the report schema (fingerprint\n"
    "                     revalidation included) and exit; no sweep runs\n"
    "  --seed=N           base seed (default 20130722)\n"
    "  --shard=I/N        run only slice I of N of the figure's (point,\n"
    "                     trial) cells and write BENCH_<figure>.shardIofN\n"
    "                     .json instead of the report (manual fan-out\n"
    "                     across machines; docs/perf.md)\n"
    "  --merge FILE...    merge independently recorded shard files, verify\n"
    "                     full coverage + fingerprints, and emit the exact\n"
    "                     report a serial run of the same flags would\n"
    "  --attack applies to fault-matrix, recovery-matrix, adaptive and\n"
    "  fig3-scale; --fault applies one preset to the fig1a/fig1b/fig2/\n"
    "  fig3-scale/adaptive sweeps; --recovery applies one preset to those\n"
    "  plus fault-matrix (fig3 is sampler-only and ignores all three;\n"
    "  service and recovery-matrix pin their own plan axes).\n";

/// The flag vocabulary, shared with every bench through
/// benchutil::parse_common_flags — a typoed --baseline must not silently
/// skip the regression gate.
benchutil::CommonSpec repro_spec() {
  benchutil::CommonSpec spec;
  spec.binary = "fba_repro";
  spec.description =
      "figure-reproduction pipeline (JSON/CSV/gnuplot/markdown per figure)";
  spec.extra_usage = kUsageExtra;
  spec.extra_flags = {"--figure=", "--out=", "--baseline=", "--validate=",
                      "--seed=", "--shard="};
  spec.sections = {.attacks = true, .faults = true, .recoveries = true,
                   .json = false};  // reports go via --out
  spec.accept_timing = true;
  return spec;
}

std::size_t default_trials(Scale scale) {
  switch (scale) {
    case Scale::kQuick: return 5;
    case Scale::kDefault: return 30;
    case Scale::kLarge: return 100;  // the ROADMAP's >=100 trials/point bar
  }
  return 30;
}

exp::Sweep::Progress progress(const char* label) {
  return exp::stderr_progress(label);
}

/// The workers a figure's trial loops actually start, for the closing line:
/// the largest pool any of its loops ran on.
struct Pool {
  std::size_t workers = 1;
  bool procs = false;

  void note(std::size_t started, bool forked) {
    workers = std::max(workers, started);
    procs = procs || forked;
  }
};

/// Runs one of a figure's sweeps on the --threads/--procs pool and notes
/// that pool. Neither pool starts more workers than the sweep has trials.
std::vector<exp::PointResult> run_sweep(exp::Sweep& sweep, const Options& opt,
                                        const char* label, Pool& pool) {
  sweep.set_threads(opt.threads).set_procs(opt.procs);
  sweep.set_progress(progress(label));
  const bool forked = opt.procs > 1;
  pool.note(std::min(forked ? opt.procs : opt.threads, sweep.total_trials()),
            forked);
  return sweep.run();
}

/// Report skeleton shared by all figures: bench_util's meta filling plus
/// the figure's headline-curve axes.
exp::Report figure_report(const Options& opt, const char* figure,
                          const char* title, const char* x_axis,
                          const char* y_metric, const char* y_label,
                          std::size_t trials) {
  exp::Report report = benchutil::make_report("fba_repro", figure, title,
                                              opt.seed, trials, opt.scale);
  report.meta().x_axis = x_axis;
  report.meta().y_metric = y_metric;
  report.meta().y_label = y_label;
  return report;
}

/// Splits one multi-model sweep into per-model series named
/// "<prefix><model>".
void add_by_model(exp::Report& report, const std::string& prefix,
                  const aer::AerConfig& base,
                  const std::vector<exp::PointResult>& results) {
  benchutil::add_split_series(report, base, results,
                              [&prefix](const exp::GridPoint& p) {
                                return prefix + aer::model_name(p.model);
                              });
}

// ---- fig1a: a-e to everywhere comparison ------------------------------------

exp::Report run_fig1a(const Options& opt, std::size_t trials, Pool& pool) {
  exp::Report report = figure_report(
      opt, "fig1a", "Figure 1(a): almost-everywhere to everywhere comparison",
      "n", "amortized_bits.mean", "amortized bits per node", trials);

  aer::AerConfig base;
  base.seed = opt.seed;
  const std::vector<std::size_t> sizes = benchutil::protocol_sizes(opt.scale);

  exp::Grid aer_grid;
  aer_grid.ns = sizes;
  aer_grid.models = {aer::Model::kSyncNonRushing, aer::Model::kSyncRushing,
                     aer::Model::kAsync};
  if (opt.fault != "none") aer_grid.faults = {opt.fault};
  if (opt.recovery != "off") aer_grid.recoveries = {opt.recovery};
  exp::Sweep aer_sweep(base, aer_grid, trials);
  add_by_model(report, "AER/", base,
               run_sweep(aer_sweep, opt, "fig1a AER", pool));

  exp::Grid base_grid;
  base_grid.ns = sizes;
  base_grid.models = {aer::Model::kSyncRushing};
  if (opt.fault != "none") base_grid.faults = {opt.fault};
  if (opt.recovery != "off") base_grid.recoveries = {opt.recovery};
  exp::Sweep sqrt_sweep(base, base_grid, trials);
  sqrt_sweep.set_trial(exp::run_sqrtsample_trial);
  report.add_points("SQRT-SAMPLE", base,
                    run_sweep(sqrt_sweep, opt, "fig1a sqrt-sample", pool));

  exp::Sweep flood_sweep(base, base_grid, trials);
  flood_sweep.set_trial(exp::run_flood_trial);
  report.add_points("FLOOD-ALL", base,
                    run_sweep(flood_sweep, opt, "fig1a flood", pool));
  return report;
}

// ---- fig1b: BA comparison ---------------------------------------------------

exp::Report run_fig1b(const Options& opt, std::size_t trials, Pool& pool) {
  exp::Report report = figure_report(
      opt, "fig1b", "Figure 1(b): Byzantine Agreement comparison", "n",
      "completion_time.mean", "end-to-end time (AE rounds + reduction)",
      trials);

  aer::AerConfig base;
  base.seed = opt.seed;
  // BA's corruption operating point (BaConfig's default) — recorded on the
  // sweep base so the report's axes/provenance match what the trials run.
  base.corrupt_fraction = 0.05;
  exp::Grid grid;
  grid.ns = benchutil::protocol_sizes(opt.scale);
  if (opt.fault != "none") grid.faults = {opt.fault};
  if (opt.recovery != "off") grid.recoveries = {opt.recovery};

  for (const ba::Reduction reduction :
       {ba::Reduction::kAer, ba::Reduction::kSqrtSample,
        ba::Reduction::kFlood}) {
    exp::Sweep sweep(base, grid, trials);
    sweep.set_trial(
        [reduction](const aer::AerConfig& cfg, const exp::GridPoint& point) {
          ba::BaConfig run;
          run.n = cfg.n;
          run.seed = cfg.seed;
          run.corrupt_fraction = cfg.corrupt_fraction;
          if (!point.fault.empty()) {
            run.fault_plan = exp::fault_plan_factory(point.fault);
          }
          if (!point.recovery.empty()) {
            run.recovery_plan = exp::recovery_plan_factory(point.recovery);
          }
          return exp::outcome_of(ba::run_ba(run, reduction));
        });
    report.add_points(
        std::string("BA/") + ba::reduction_name(reduction), base,
        run_sweep(sweep, opt, ba::reduction_name(reduction), pool));
  }
  return report;
}

// ---- fig2: push/pull message flow -------------------------------------------

exp::Report run_fig2(const Options& opt, std::size_t trials, Pool& pool) {
  exp::Report report = figure_report(
      opt, "fig2", "Figure 2: push and pull message flow (per-kind traffic)",
      "kind", "amortized_bits.mean", "amortized bits per node", trials);

  aer::AerConfig cfg;
  cfg.n = 64;
  // Default seed 13 pins the figure's configuration, so its reports stay
  // fingerprint-comparable across runs; an explicit --seed overrides it.
  // Either way meta.base_seed records the seed actually run.
  cfg.seed = opt.seed_set ? opt.seed : 13;
  cfg.model = aer::Model::kSyncRushing;
  cfg.d_override = 11;
  report.meta().base_seed = cfg.seed;
  // The fault/recovery presets ride the grid axes (not cfg plans) so the
  // report's point axes record them.
  exp::Grid grid;
  if (opt.fault != "none") grid.faults = {opt.fault};
  if (opt.recovery != "off") grid.recoveries = {opt.recovery};

  exp::Sweep sweep(cfg, grid, trials);
  report.add_points("AER n=64", cfg, run_sweep(sweep, opt, "fig2", pool));
  return report;
}

// ---- fig3: sampler expansion ------------------------------------------------

/// One (n, set-type) Monte-Carlo point of the Figure 3 sweep. The border
/// ratio rides in the completion_time stat slot (docs/output-schema.md,
/// "figure metrics"). The sampler is a const keyed hash, so trials share it
/// and fan out; each trial derives its own Rng stream.
exp::ReportPoint run_fig3_point(std::size_t n, bool adversarial,
                                std::size_t grid_point,
                                std::uint64_t seed_root, std::size_t trials,
                                std::size_t threads) {
  const auto params = sampler::SamplerParams::defaults(n, 1);
  const sampler::PollSampler sampler(params, 0x4a20706f6c6c0000ull);
  const std::uint64_t base_seed = seed_root + n;
  const auto log2n =
      static_cast<std::size_t>(std::ceil(std::log2(double(n))));
  const std::size_t set_size = std::max<std::size_t>(4, n / log2n);

  std::vector<exp::TrialOutcome> outcomes(trials);
  exp::run_indexed(trials, threads, [&](std::size_t trial) {
    exp::TrialOutcome& o = outcomes[trial];
    o.seed = exp::trial_seed(base_seed, grid_point, trial);
    Rng rng(o.seed);
    const sampler::BorderReport r =
        adversarial
            ? sampler::greedy_adversarial_border(sampler, set_size, 8, rng)
            : sampler::random_border(sampler, set_size, rng);
    o.completion_time = r.ratio;
    o.agreement = r.ratio > 2.0 / 3.0;
    o.engine_completed = true;
    o.correct = n;
    o.decided = n;
  });
  exp::ReportPoint out;
  out.point.index = grid_point - 1;
  out.point.n = n;
  out.point.strategy = adversarial ? "greedy-adversarial" : "uniform";
  out.provenance.d = params.d;
  out.provenance.node_id_bits = node_id_bits(n);
  out.aggregate = exp::aggregate_outcomes(outcomes);
  return out;
}

exp::Report run_fig3(const Options& opt, std::size_t trials, Pool& pool) {
  exp::Report report = figure_report(
      opt, "fig3", "Figure 3 / Lemma 2: sampler border expansion", "n",
      "completion_time.min", "min border ratio |dL| / (d |L|)", trials);

  std::size_t grid_point = 0;
  for (const std::size_t n : benchutil::light_sizes(opt.scale)) {
    for (const bool adversarial : {false, true}) {
      exp::ReportPoint point = run_fig3_point(n, adversarial, ++grid_point,
                                              opt.seed, trials, opt.threads);
      pool.note(std::min(opt.threads, trials), false);
      const std::string series = point.point.strategy;
      report.add_point(series, std::move(point));
    }
  }
  return report;
}

// ---- fig3-scale: million-node scale mode ------------------------------------

/// Per-point trial cap: a scale trial is seconds at n=10^4 but minutes (and
/// tens of GB) at n=10^6, so the largest points run fewer trials than the
/// --trials request.
std::size_t scale_trials(std::size_t trials, std::size_t n) {
  if (n >= 1000000) return 1;
  if (n >= 100000) return std::min<std::size_t>(trials, 3);
  return trials;
}

/// In-trial round progress for the minutes-long scale points: with one
/// trial per point, per-trial sweep progress is too coarse, so the SoA
/// runner reports (round just finished, events still pending) after every
/// simulated round. Gated and throttled exactly like exp::stderr_progress.
exp::ScaleTrialOptions::RoundProgress scale_round_progress(
    const std::string& label) {
  const bool tty = isatty(fileno(stderr)) != 0;
  const char* env = std::getenv("FBA_PROGRESS");
  if (!tty && (env == nullptr || std::strcmp(env, "1") != 0)) return {};

  struct State {
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    double last_print = 0;
  };
  auto state = std::make_shared<State>();
  return [state, label, tty](Round round, std::size_t pending) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      state->start)
            .count();
    if (elapsed - state->last_print < 1.0) return;
    state->last_print = elapsed;
    std::fprintf(stderr, "%s%s: round %u, %zu events pending, %.0fs%s",
                 tty ? "\r" : "", label.c_str(), round, pending, elapsed,
                 tty ? "" : "\n");
    std::fflush(stderr);
  };
}

exp::Report run_fig3_scale(const Options& opt, std::size_t trials,
                           Pool& pool) {
  exp::Report report = figure_report(
      opt, "fig3-scale",
      "Scale mode: AER completion rounds and bytes/node up to n = 10^6", "n",
      "completion_time.mean", "completion time (rounds)", trials);

  aer::AerConfig base;
  base.seed = opt.seed;
  base.model = aer::Model::kSyncRushing;
  // Pin d at the n=256 floor instead of the 1.5*log2(n) default: the curve
  // isolates how state and traffic grow with n at fixed quorum degree (and
  // keeps the n=10^6 point's d^2 fan-outs tractable). Recorded in every
  // point's resolved provenance.
  base.d_override = 8;

  // Decades of n; --quick stops at 10^5 (the CI smoke), the full run adds
  // the million-node point.
  std::vector<std::size_t> sizes = {1000, 10000, 100000};
  if (opt.scale != Scale::kQuick) sizes.push_back(1000000);

  exp::Grid grid;
  grid.ns = sizes;
  grid.models = {aer::Model::kSyncRushing};
  if (opt.attack != "none") grid.strategies = {opt.attack};
  if (opt.fault != "none") grid.faults = {opt.fault};
  if (opt.recovery != "off") grid.recoveries = {opt.recovery};

  const std::vector<exp::GridPoint> points = exp::expand_grid(base, grid);
  std::size_t total = 0;
  for (const exp::GridPoint& p : points) total += scale_trials(trials, p.n);

  // Serial manual loop instead of exp::Sweep: the per-point trial caps are
  // non-uniform, and one ScaleArena (reused across all trials) bounds the
  // figure's memory to the largest point. Seeds derive exactly as Sweep's
  // (trial_seed over point.index/trial), so results match any runner that
  // executes the same (point, trial) set.
  exp::ScaleArena arena;
  pool.note(1, false);
  const exp::Sweep::Progress trial_progress = progress("fig3-scale");
  std::size_t completed = 0;
  for (const exp::GridPoint& point : points) {
    const std::size_t point_trials = scale_trials(trials, point.n);
    std::vector<exp::TrialOutcome> outcomes(point_trials);
    exp::ScaleTrialOptions trial_opts;
    trial_opts.round_progress =
        scale_round_progress("fig3-scale " + point.label());
    for (std::size_t t = 0; t < point_trials; ++t) {
      aer::AerConfig cfg = point.apply(base);
      cfg.seed = exp::trial_seed(opt.seed, point.index, t);
      exp::run_aer_scale_trial(cfg, point, arena, outcomes[t], trial_opts);
      outcomes[t].seed = cfg.seed;
      if (trial_progress) trial_progress(++completed, total);
    }
    report.add_point(
        "AER/soa", exp::ReportPoint{point, exp::point_provenance(base, point),
                                    exp::aggregate_outcomes(outcomes)});
  }

  exp::SweepTiming timing;
  timing.setup_seconds = arena.timing.setup_seconds;
  timing.run_seconds = arena.timing.run_seconds;
  timing.trials = arena.timing.trials;
  timing.available = true;
  exp::accumulate_process_timing(timing);
  return report;
}

// ---- fault-matrix: degradation beyond the paper's model ---------------------

exp::Report run_fault_matrix(const Options& opt, std::size_t trials,
                             Pool& pool) {
  exp::Report report = figure_report(
      opt, "fault-matrix",
      "Fault degradation matrix: liveness under loss / partitions / churn",
      "fault", "decided_fraction", "decided fraction of correct nodes",
      trials);

  aer::AerConfig base;
  base.n = 128;
  base.seed = opt.seed;
  base.max_rounds = 60;
  base.max_time = 60.0;

  exp::Grid grid;
  grid.models = {aer::Model::kSyncRushing, aer::Model::kAsync};
  grid.strategies = {opt.attack};
  grid.faults = exp::known_faults();
  if (opt.recovery != "off") grid.recoveries = {opt.recovery};
  exp::Sweep sweep(base, grid, trials);
  add_by_model(report, "AER/", base,
               run_sweep(sweep, opt, "fault-matrix", pool));
  return report;
}

// ---- recovery-matrix: buying the channel assumption back --------------------

exp::Report run_recovery_matrix(const Options& opt, std::size_t trials,
                                Pool& pool) {
  exp::Report report = figure_report(
      opt, "recovery-matrix",
      "Recovery matrix: agreement and retransmit bit-cost of ack/retransmit"
      " under loss",
      "fault", "agreement_rate", "agreement rate", trials);

  aer::AerConfig base;
  base.n = opt.scale == Scale::kQuick ? 64 : 128;
  base.seed = opt.seed;
  base.max_rounds = 60;
  base.max_time = 60.0;

  // Loss severity x recovery preset under both engines: the off column is
  // the degradation beyond the paper's model (fault-matrix's loss rows),
  // the arq-* columns show agreement restored plus the measured price —
  // recovery_retransmit_bits — of buying the reliable-channel assumption
  // back at each loss rate.
  exp::Grid grid;
  grid.models = {aer::Model::kSyncRushing, aer::Model::kAsync};
  grid.strategies = {opt.attack};
  grid.faults = {"none", "lossy-1pct", "lossy-5pct", "lossy-20pct"};
  grid.recoveries = {"off", "arq-fast", "arq-patient", "arq-capped"};
  exp::Sweep sweep(base, grid, trials);
  benchutil::add_split_series(
      report, base, run_sweep(sweep, opt, "recovery-matrix", pool),
      [](const exp::GridPoint& p) {
        return p.recovery + "/" + aer::model_name(p.model);
      });
  return report;
}

// ---- adaptive: resilience boundary under runtime corruptions ----------------

exp::Report run_adaptive(const Options& opt, std::size_t trials,
                         Pool& pool) {
  exp::Report report = figure_report(
      opt, "adaptive",
      "Adaptive adversary: agreement vs runtime corruption budget", "budget",
      "agreement_rate", "agreement rate", trials);

  aer::AerConfig base;
  base.n = opt.scale == Scale::kQuick ? 64 : 128;
  base.seed = opt.seed;
  base.max_rounds = 60;
  base.max_time = 60.0;
  // First flip only after round/time 2: the tap needs a little traffic
  // before the degree/quorum/king scores distinguish anybody.
  base.adaptive_from = 2.0;

  // Budget 0 anchors each curve at the static baseline; the rest doubles
  // through the liveness knee (around budget 8 at n=64) to the full
  // collapse past the paper's t < (1/3 - eps) n resilience boundary.
  exp::Grid grid;
  grid.models = {aer::Model::kSyncRushing, aer::Model::kAsync};
  grid.strategies =
      opt.attack == "none"
          ? std::vector<std::string>{"adaptive-degree", "adaptive-quorum",
                                     "adaptive-king", "adaptive-random"}
          : std::vector<std::string>{opt.attack};
  if (opt.fault != "none") grid.faults = {opt.fault};
  if (opt.recovery != "off") grid.recoveries = {opt.recovery};
  grid.budgets = {0, 2, 4, 8, 16};

  exp::Sweep sweep(base, grid, trials);
  benchutil::add_split_series(
      report, base, run_sweep(sweep, opt, "adaptive", pool),
      [](const exp::GridPoint& p) {
        return p.strategy + "/" + aer::model_name(p.model);
      });
  return report;
}

// ---- service: heavy-traffic streaming mode ----------------------------------

exp::Report run_service_figure(const Options& opt, std::size_t trials,
                               Pool& pool) {
  exp::Report report = figure_report(
      opt, "service",
      "Service mode: streaming repeated consensus under persistent"
      " adversaries",
      "index", "decision_time.p99", "p99 decision latency", trials);

  // The plan matrix is pinned (not --attack/--fault driven): a steady
  // honest stream, the two grudge rosters, and the slow-burn churn ramp —
  // the persistent-adversary shapes a one-shot sweep cannot express. One
  // stream per plan; deterministic stats only (counts + latency/traffic
  // histograms), so the committed baseline diffs bit-identically at any
  // worker count. The stream length scales with --trials so --quick stays
  // CI-cheap.
  struct Plan {
    const char* attack;
    const char* fault;
  };
  constexpr Plan kPlans[] = {{"none", ""},
                             {"grudge-wrong", ""},
                             {"grudge-stuff", ""},
                             {"none", "slow-burn-churn"}};
  const auto instances = static_cast<std::uint64_t>(trials) * 8;

  exp::SweepTiming timing;
  std::size_t index = 0;
  for (const Plan& plan : kPlans) {
    exp::ServiceConfig config;
    config.base.n = opt.scale == Scale::kQuick ? 64 : 128;
    config.base.model = aer::Model::kSyncRushing;
    config.base_seed = opt.seed;
    config.attack = plan.attack;
    config.fault = plan.fault;
    config.instances = instances;
    config.workers = opt.threads;
    pool.note(opt.threads, false);
    const exp::ServiceResult r = exp::run_service(config);
    report.add_point("service",
                     benchutil::service_report_point(index++, config, r));
    timing.setup_seconds += r.timing.setup_seconds;
    timing.run_seconds += r.timing.run_seconds;
    timing.trials += r.timing.trials;
  }
  timing.available = true;
  exp::accumulate_process_timing(timing);
  return report;
}

// ---- driver -----------------------------------------------------------------

/// The figures --shard/--merge can split: exactly those whose trials run
/// through exp::Sweep (fig3 drives exp::run_indexed directly; fig3-scale
/// and service loop by hand with non-uniform trial counts).
bool shardable_figure(const std::string& figure) {
  return figure == "fig1a" || figure == "fig1b" || figure == "fig2" ||
         figure == "fault-matrix" || figure == "recovery-matrix" ||
         figure == "adaptive";
}

Scale scale_from_name(const std::string& name) {
  if (name == "quick") return Scale::kQuick;
  if (name == "large") return Scale::kLarge;
  return Scale::kDefault;
}

/// "T trials/point" as the report's points hold them; "A-B trials/point"
/// when the figure caps some points (fig3-scale runs fewer trials at its
/// largest sizes).
std::string trials_per_point(const exp::Report& report) {
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool first = true;
  for (const exp::ReportSeries& series : report.series()) {
    for (const exp::ReportPoint& point : series.points) {
      const std::size_t t = point.aggregate.trials;
      lo = first ? t : std::min(lo, t);
      hi = std::max(hi, t);
      first = false;
    }
  }
  return (lo == hi ? std::to_string(hi)
                   : std::to_string(lo) + "-" + std::to_string(hi)) +
         " trials/point";
}

/// fig2 pins seed 13 unless --seed was given (see run_fig2); the shard
/// meta must record the seed the figure actually runs so --merge replays
/// the exact configuration.
std::uint64_t effective_seed(const Options& opt) {
  if (opt.figure == "fig2" && !opt.seed_set) return 13;
  return opt.seed;
}

Options parse(int argc, char** argv) {
  Options opt;

  // --merge consumes every following non-flag argument as a shard file;
  // pull those out before the shared flag validation (which rejects
  // anything it does not know).
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--merge") == 0) {
      opt.merge = true;
      continue;
    }
    if (opt.merge && std::strncmp(argv[i], "--", 2) != 0) {
      opt.merge_files.push_back(argv[i]);
      continue;
    }
    args.push_back(argv[i]);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  // parse_common_flags handles --help (exit 0) and unknown flags (usage +
  // exit 2); only the fba_repro-specific values are read out here.
  const benchutil::CommonOptions common =
      benchutil::parse_common_flags(argc, argv, repro_spec());

  opt.scale = common.scale;
  opt.attack = common.attack;
  opt.fault = common.fault;
  opt.recovery = common.recovery;
  opt.timing = common.timing;
  opt.trials = common.trials_override;
  opt.threads = common.threads;
  opt.procs = common.procs;
  opt.figure = benchutil::string_flag(argc, argv, "--figure", "");
  opt.out = benchutil::string_flag(argc, argv, "--out", "results");
  opt.baseline = benchutil::string_flag(argc, argv, "--baseline", "");
  opt.validate = benchutil::string_flag(argc, argv, "--validate", "");
  opt.shard = benchutil::string_flag(argc, argv, "--shard", "");
  const std::string seed = benchutil::string_flag(argc, argv, "--seed", "");
  if (!seed.empty()) {
    char* end = nullptr;
    opt.seed = std::strtoull(seed.c_str(), &end, 10);
    if (end == seed.c_str() || *end != '\0') {
      std::fprintf(stderr, "malformed --seed=%s (expected a decimal integer)\n",
                   seed.c_str());
      std::exit(2);
    }
    opt.seed_set = true;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);

  try {
    if (!opt.validate.empty()) {
      const exp::Report r = exp::Report::from_json_file(opt.validate);
      std::printf("%s: valid fba.report (schema v%llu), figure %s, %zu"
                  " series, %zu points, fingerprints verified\n",
                  opt.validate.c_str(),
                  static_cast<unsigned long long>(exp::kReportSchemaVersion),
                  r.meta().figure.c_str(), r.series().size(),
                  r.total_points());
      return 0;
    }

    std::size_t shard_index = 0;
    std::size_t shard_count = 1;
    if (!opt.shard.empty() && opt.merge) {
      std::fprintf(stderr,
                   "fba_repro: --shard and --merge are mutually exclusive\n");
      return 2;
    }
    if (!opt.shard.empty()) {
      if (std::sscanf(opt.shard.c_str(), "%zu/%zu", &shard_index,
                      &shard_count) != 2 ||
          shard_count < 1 || shard_index >= shard_count) {
        std::fprintf(stderr,
                     "fba_repro: malformed --shard=%s (expected I/N with"
                     " 0 <= I < N)\n",
                     opt.shard.c_str());
        return 2;
      }
      if (!shardable_figure(opt.figure)) {
        std::fprintf(stderr,
                     "fba_repro: --shard/--merge support only the"
                     " Sweep-driven figures (fig1a, fig1b, fig2,"
                     " fault-matrix, recovery-matrix, adaptive), not"
                     " \"%s\"\n",
                     opt.figure.c_str());
        return 2;
      }
    }
    if (opt.merge) {
      if (opt.merge_files.empty()) {
        std::fprintf(stderr,
                     "fba_repro: --merge needs at least one shard file\n");
        return 2;
      }
      std::vector<exp::ShardDoc> docs;
      docs.reserve(opt.merge_files.size());
      for (const std::string& file : opt.merge_files) {
        docs.push_back(exp::ShardDoc::from_json_file(file));
      }
      exp::ShardDoc merged = exp::merge_shards(docs);
      if (!shardable_figure(merged.meta.figure)) {
        std::fprintf(stderr,
                     "fba_repro: shard files name figure \"%s\", which is"
                     " not a sharded figure\n",
                     merged.meta.figure.c_str());
        return 2;
      }
      // Replay under exactly the recorded configuration: the meta, not the
      // command line, decides figure/seed/trials/scale/attack/fault.
      opt.figure = merged.meta.figure;
      opt.seed = merged.meta.base_seed;
      opt.seed_set = true;
      opt.trials = merged.meta.trials;
      opt.scale = scale_from_name(merged.meta.scale);
      opt.attack = merged.meta.attack;
      opt.fault = merged.meta.fault;
      opt.recovery = merged.meta.recovery;
      opt.procs = 1;  // cells come from the shards, nothing runs
      std::fprintf(stderr,
                   "fba_repro: replaying %zu cells from %zu shard file(s)"
                   " (figure %s)\n",
                   merged.total_cells(), opt.merge_files.size(),
                   opt.figure.c_str());
      exp::ShardIo::instance().start_replay(std::move(merged));
    }

    // Validate scenario names before any sweep runs.
    exp::attack_factory(opt.attack);
    exp::fault_plan_factory(opt.fault);
    exp::recovery_plan_factory(opt.recovery);

    const std::size_t trials =
        opt.trials > 0 ? opt.trials : default_trials(opt.scale);
    benchutil::Stopwatch watch;

    if (!opt.shard.empty()) {
      exp::ShardMeta meta;
      meta.tool = "fba_repro";
      meta.figure = opt.figure;
      meta.scale = benchutil::scale_name(opt.scale);
      meta.attack = opt.attack;
      meta.fault = opt.fault;
      meta.recovery = opt.recovery;
      meta.base_seed = effective_seed(opt);
      meta.trials = trials;
      meta.shard_index = shard_index;
      meta.shard_count = shard_count;
      exp::ShardIo::instance().start_record(meta);
    }

    exp::Report report;
    Pool pool;
    if (opt.figure == "fig1a") {
      report = run_fig1a(opt, trials, pool);
    } else if (opt.figure == "fig1b") {
      report = run_fig1b(opt, trials, pool);
    } else if (opt.figure == "fig2") {
      report = run_fig2(opt, trials, pool);
    } else if (opt.figure == "fig3") {
      report = run_fig3(opt, trials, pool);
    } else if (opt.figure == "fig3-scale") {
      report = run_fig3_scale(opt, trials, pool);
    } else if (opt.figure == "fault-matrix") {
      report = run_fault_matrix(opt, trials, pool);
    } else if (opt.figure == "recovery-matrix") {
      report = run_recovery_matrix(opt, trials, pool);
    } else if (opt.figure == "adaptive") {
      report = run_adaptive(opt, trials, pool);
    } else if (opt.figure == "service") {
      report = run_service_figure(opt, trials, pool);
    } else {
      std::fprintf(stderr,
                   "%s --figure=%s: unknown figure (known: fig1a, fig1b,"
                   " fig2, fig3, fig3-scale, fault-matrix, recovery-matrix,"
                   " adaptive, service; --help for details)\n",
                   argv[0], opt.figure.c_str());
      return 2;
    }

    const bool interrupted = exp::interrupt_requested();

    if (exp::ShardIo::instance().mode() == exp::ShardIo::Mode::kRecord) {
      if (interrupted) {
        std::fprintf(stderr, "fba_repro: interrupted — shard incomplete,"
                             " nothing written\n");
        return 130;
      }
      std::error_code ec;
      std::filesystem::create_directories(opt.out, ec);
      const std::string path = opt.out + "/BENCH_" + opt.figure + ".shard" +
                               std::to_string(shard_index) + "of" +
                               std::to_string(shard_count) + ".json";
      exp::ShardIo::instance().doc().write(path);
      std::printf("wrote %s (%zu of the figure's cells)\n", path.c_str(),
                  exp::ShardIo::instance().doc().total_cells());
      std::printf("[%s shard %zu/%zu done in %.1fs]\n", opt.figure.c_str(),
                  shard_index, shard_count, watch.seconds());
      return 0;
    }

    if (interrupted) {
      // SIGINT drained the process pool: the report holds every point that
      // fully completed — still a valid, fingerprinted fba.report — but
      // the baseline gate would compare apples to a partial crate.
      std::fprintf(stderr,
                   "fba_repro: interrupted — writing the %zu point(s) that"
                   " completed; skipping the baseline gate\n",
                   report.total_points());
      if (report.total_points() > 0) {
        std::fputs(report.to_markdown().c_str(), stdout);
        for (const std::string& path : report.write_all(opt.out)) {
          std::printf("wrote %s\n", path.c_str());
        }
      }
      return 130;
    }

    // The rendered curve + per-series tables, then the artifact files.
    std::fputs(report.to_markdown().c_str(), stdout);
    for (const std::string& path : report.write_all(opt.out)) {
      std::printf("wrote %s\n", path.c_str());
    }
    const std::string ran_on =
        opt.merge ? "replayed from " + std::to_string(opt.merge_files.size()) +
                        " shard file(s)"
                  : "on " + std::to_string(pool.workers) +
                        (pool.procs ? " process(es)" : " thread(s)");
    std::printf("[%s done in %.1fs: %s x %zu points %s]\n",
                opt.figure.c_str(), watch.seconds(),
                trials_per_point(report).c_str(), report.total_points(),
                ran_on.c_str());

    if (opt.timing) {
      // One-line setup-vs-run split accumulated across this figure's
      // sweeps: how much wall time went into world/sampler setup (what the
      // shared tables + trial arenas amortize) vs engine execution.
      const std::string line = exp::format_timing(exp::process_timing());
      if (line.empty()) {
        std::fprintf(stderr, "[timing] unavailable: this figure runs no"
                             " arena-trial sweeps\n");
      } else {
        std::fprintf(stderr, "[timing] %s\n", line.c_str());
      }
      // OS-side cross-check on the MemBudget accounting (diagnostic only —
      // RSS is environment-dependent, never serialized into reports). An
      // explicit n/a beats silently omitting the line: the reader can tell
      // "not measured on this platform" from "forgot to look".
      const std::uint64_t rss = support::peak_rss_bytes();
      if (rss > 0) {
        std::fprintf(stderr, "[timing] peak RSS %.1f MiB\n",
                     static_cast<double>(rss) / (1024.0 * 1024.0));
      } else {
        std::fprintf(stderr,
                     "[timing] peak RSS n/a (not measurable on this"
                     " platform)\n");
      }
    }

    if (!opt.baseline.empty()) {
      const exp::Report baseline =
          exp::Report::from_json_file(opt.baseline);
      const exp::DiffResult diff = report.diff(baseline);
      std::printf("\n--- diff vs %s ---\n%s", opt.baseline.c_str(),
                  diff.summary().c_str());
      if (!diff.ok()) return 1;
    }
    return 0;
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
