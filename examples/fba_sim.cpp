// fba_sim: command-line driver for the whole library — run any protocol
// under any timing model and adversary, from one binary.
//
//   fba_sim --protocol=aer --n=512 --model=async --attack=stuff
//   fba_sim --protocol=aer --n=512 --model=async --fault=lossy-5pct
//   fba_sim --protocol=aer --n=512 --trials=100 --threads=8
//   fba_sim --protocol=ba --n=1024 --reduction=aer
//   fba_sim --protocol=flood|sqrt --n=256 --corrupt=0.1
//   fba_sim --protocol=ae --n=512 --attack=equivocate
//
// Flags (all optional): --n, --seed, --corrupt (fraction), --know
// (knowledgeable fraction), --d (quorum size), --budget (answer budget),
// --adaptive-budget (runtime corruptions the adversary may spend mid-run),
// --adaptive-from (round/time of the earliest runtime corruption),
// --model=sync|sync-nr|async, --attack=<exp::known_attacks()>,
// --fault=<exp::known_faults()> (loss / partition / churn presets,
// composable with any attack), --reduction=aer|sqrt|flood. With
// --trials=N > 1 the run becomes a multi-trial exp::Sweep
// (deterministically seeded from --seed, fanned across --threads worker
// threads) and prints the aggregate instead of a single report.
// --json=FILE writes the run as an fba.report document (exp/report.h,
// docs/output-schema.md); --help prints the generated usage block
// (exp::scenario_usage()).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "exp/progress.h"
#include "fba.h"

namespace {

using namespace fba;

/// Live trials-completed / ETA line on stderr for multi-trial sweeps
/// (enabled on a TTY or with FBA_PROGRESS=1).
exp::Sweep::Progress sweep_progress() { return exp::stderr_progress("trials"); }

struct Options {
  std::string protocol = "aer";
  std::size_t n = 256;
  std::uint64_t seed = 1;
  double corrupt = 0.08;
  double know = 0.95;
  std::size_t d = 0;
  std::size_t budget = 0;
  std::size_t adaptive_budget = 0;
  double adaptive_from = 1.0;
  std::string model = "sync";
  std::string attack = "none";
  std::string fault = "none";
  std::string recovery = "off";
  std::string reduction = "aer";
  std::string json;  ///< --json=FILE: write an fba.report document.
  std::size_t trials = 1;
  std::size_t threads = exp::default_threads();
  std::size_t procs = 1;  ///< --procs=N: forked sweep workers (1 = off).
  bool timing = false;  ///< --timing: print the setup-vs-run split on exit.
};

/// Prints the one-line setup-vs-run wall-time split on scope exit (the
/// sweeps accumulate it into exp::process_timing()); makes the sampler
/// precompute / trial-arena win visible without a profiler.
struct TimingPrinter {
  bool enabled = false;
  ~TimingPrinter() {
    if (!enabled) return;
    const std::string line = exp::format_timing(exp::process_timing());
    if (line.empty()) {
      std::fprintf(stderr, "[timing] unavailable: no arena-trial sweep ran\n");
    } else {
      std::fprintf(stderr, "[timing] %s\n", line.c_str());
    }
    // OS-side cross-check on the MemBudget accounting: the process peak RSS
    // (diagnostic only — RSS is environment-dependent, never serialized).
    // An explicit n/a beats silently omitting the line: the reader can tell
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
};

/// The flag vocabulary, shared with every bench through
/// benchutil::parse_common_flags (--help and unknown-flag errors print the
/// same generated usage block).
benchutil::CommonSpec sim_spec() {
  benchutil::CommonSpec spec;
  spec.binary = "fba_sim";
  spec.description =
      "run any protocol under any timing model and adversary";
  spec.extra_usage =
      "  --protocol=NAME    aer | ba | ae | flood | sqrt (default aer)\n"
      "  --n=N              network size (default 256)\n"
      "  --seed=N           base seed (default 1)\n"
      "  --corrupt=F        corrupt fraction t/n (default 0.08)\n"
      "  --know=F           knowledgeable fraction of correct nodes"
      " (default 0.95)\n"
      "  --d=N              quorum/poll-list size override\n"
      "  --budget=N         Algorithm 3 answer-budget override\n"
      "  --adaptive-budget=N  runtime corruptions an adaptive-* attack may\n"
      "                     spend mid-run (default 0 = the paper's static"
      " model)\n"
      "  --adaptive-from=F  earliest round (sync) / time (async) of a runtime\n"
      "                     corruption (default 1)\n"
      "  --model=NAME       sync | sync-nr | async (default sync)\n"
      "  --reduction=NAME   aer | sqrt | flood (BA composition only)\n"
      "  --attack=equivocate  AE-tournament-only attack (--protocol=ae;\n"
      "                     the registry below drives the other protocols)\n";
  spec.extra_flags = {"--protocol=", "--n=",     "--seed=",
                      "--corrupt=",  "--know=",  "--d=",
                      "--budget=",   "--model=", "--reduction=",
                      "--adaptive-budget=", "--adaptive-from="};
  spec.sections = {.attacks = true, .faults = true, .recoveries = true};
  spec.accept_timing = true;
  spec.accept_scale = false;  // runs are sized with --n/--trials directly.
  return spec;
}

/// Defensive numeric flag parsing: a bare std::stod would escape as an
/// uncaught std::invalid_argument on e.g. --corrupt=abc (and silently
/// accept trailing junk like --corrupt=0.1x); reject both with the usage
/// convention every other malformed flag follows — one line, exit 2.
double double_flag(int argc, char** argv, const char* flag, double fallback) {
  const std::string text = benchutil::string_flag(argc, argv, flag, "");
  if (text.empty()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    std::fprintf(stderr, "malformed %s=%s (expected a number)\n", flag,
                 text.c_str());
    std::exit(2);
  }
  return value;
}

Options parse(int argc, char** argv) {
  // parse_common_flags owns --help, the shared flags and unknown-flag
  // rejection; the fba_sim-specific values are read out afterwards.
  const benchutil::CommonOptions common =
      benchutil::parse_common_flags(argc, argv, sim_spec());

  Options opt;
  opt.attack = common.attack;
  opt.fault = common.fault;
  opt.recovery = common.recovery;
  opt.json = common.json;
  opt.timing = common.timing;
  if (common.trials_override > 0) opt.trials = common.trials_override;
  opt.threads = common.threads;
  opt.procs = common.procs;

  using benchutil::flag_value;
  using benchutil::string_flag;
  opt.protocol = string_flag(argc, argv, "--protocol", opt.protocol.c_str());
  opt.n = flag_value(argc, argv, "--n", opt.n);
  opt.seed = flag_value(argc, argv, "--seed", opt.seed);
  opt.model = string_flag(argc, argv, "--model", opt.model.c_str());
  opt.reduction = string_flag(argc, argv, "--reduction", opt.reduction.c_str());
  opt.d = flag_value(argc, argv, "--d", opt.d);
  opt.budget = flag_value(argc, argv, "--budget", opt.budget);
  opt.adaptive_budget =
      flag_value(argc, argv, "--adaptive-budget", opt.adaptive_budget);
  opt.adaptive_from =
      double_flag(argc, argv, "--adaptive-from", opt.adaptive_from);
  opt.corrupt = double_flag(argc, argv, "--corrupt", opt.corrupt);
  opt.know = double_flag(argc, argv, "--know", opt.know);
  return opt;
}

aer::Model parse_model(const std::string& name) {
  if (name == "sync") return aer::Model::kSyncRushing;
  if (name == "sync-nr") return aer::Model::kSyncNonRushing;
  if (name == "async") return aer::Model::kAsync;
  std::fprintf(stderr, "unknown model: %s\n", name.c_str());
  std::exit(2);
}

aer::StrategyFactory make_attack(const std::string& name) {
  try {
    return exp::attack_factory(name);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

sim::FaultPlan make_fault(const std::string& name) {
  try {
    return exp::fault_plan_factory(name);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

sim::RecoveryPlan make_recovery(const std::string& name) {
  try {
    return exp::recovery_plan_factory(name);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

void print_report(const char* label, const aer::AerReport& r) {
  std::printf("%s: n=%zu t=%zu d=%zu\n", label, r.n, r.t, r.d);
  std::printf("  outcome : %zu/%zu decided, %zu on the common string -> %s\n",
              r.decided_count, r.correct_count, r.decided_gstring,
              r.agreement ? "AGREEMENT" : "no agreement");
  std::printf("  time    : completion %.2f, mean decision %.2f\n",
              r.completion_time, r.mean_decision_time);
  std::printf("  traffic : %llu msgs, %.0f bits/node (max %.0f,"
              " imbalance %.2f)\n",
              static_cast<unsigned long long>(r.total_messages),
              r.amortized_bits, r.sent_bits.max, r.sent_bits.imbalance());
  for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
    if (r.msgs_by_kind[k] == 0) continue;
    std::printf("  %-8s: %llu msgs, %llu bits\n",
                sim::kind_name(static_cast<sim::MessageKind>(k)),
                static_cast<unsigned long long>(r.msgs_by_kind[k]),
                static_cast<unsigned long long>(r.bits_by_kind[k]));
  }
  if (r.fault_dropped_msgs > 0 || r.fault_delayed_msgs > 0) {
    std::printf("  faults  : %llu msgs dropped (",
                static_cast<unsigned long long>(r.fault_dropped_msgs));
    for (std::size_t c = 0; c < sim::kNumFaultCauses; ++c) {
      std::printf("%s%s %llu", c > 0 ? ", " : "",
                  sim::fault_cause_name(static_cast<sim::FaultCause>(c)),
                  static_cast<unsigned long long>(r.fault_drops_by_cause[c]));
    }
    std::printf("), %llu delayed\n",
                static_cast<unsigned long long>(r.fault_delayed_msgs));
  }
  if (r.recovery_retransmit_msgs > 0 || r.recovery_acked_msgs > 0) {
    std::printf("  recovery: %llu retransmits (%llu bits), %llu acked,"
                " %llu dead, %llu duplicates\n",
                static_cast<unsigned long long>(r.recovery_retransmit_msgs),
                static_cast<unsigned long long>(r.recovery_retransmit_bits),
                static_cast<unsigned long long>(r.recovery_acked_msgs),
                static_cast<unsigned long long>(r.recovery_dead_msgs),
                static_cast<unsigned long long>(r.recovery_dup_msgs));
  }
}

void print_aggregate(const std::string& label, const exp::Aggregate& a,
                     std::size_t threads) {
  std::printf("%s: %zu trials on %zu thread(s)\n", label.c_str(), a.trials,
              threads);
  std::printf("  agreement    : rate %.3f (%zu/%zu), %llu wrong decisions,"
              " %llu stalled nodes\n",
              a.agreement_rate(), a.agreements, a.trials,
              static_cast<unsigned long long>(a.wrong_decisions),
              static_cast<unsigned long long>(a.stalled_nodes));
  std::printf("  completion   : mean %.2f +- %.2f (95%% CI), p50 %.2f,"
              " p99 %.2f, max %.2f\n",
              a.completion_time.mean, a.completion_time.ci95,
              a.completion_time.p50, a.completion_time.p99,
              a.completion_time.max);
  if (a.decision_time.count > 0) {
    std::printf("  decision time: pooled per-node p50 %.2f, p99 %.2f over"
                " %zu decisions\n",
                a.decision_time.p50, a.decision_time.p99,
                a.decision_time.count);
  }
  std::printf("  traffic      : mean %.0f bits/node (p99 %.0f), mean %.0f"
              " msgs, imbalance %.2f\n",
              a.amortized_bits.mean, a.amortized_bits.p99,
              a.total_messages.mean, a.imbalance.mean);
  if (a.fault_dropped_msgs.mean > 0 || a.fault_delayed_msgs > 0) {
    std::printf("  faults       : mean %.1f msgs dropped/trial (churn %.1f,"
                " partition %.1f, loss %.1f), %.1f delayed\n",
                a.fault_dropped_msgs.mean,
                a.drops_by_cause[sim::fault_cause_index(
                    sim::FaultCause::kChurn)],
                a.drops_by_cause[sim::fault_cause_index(
                    sim::FaultCause::kPartition)],
                a.drops_by_cause[sim::fault_cause_index(
                    sim::FaultCause::kLoss)],
                a.fault_delayed_msgs);
  }
  if (a.recovery_retransmit_msgs.mean > 0 || a.recovery_acked_msgs > 0) {
    std::printf("  recovery     : mean %.1f retransmits/trial (%.0f bits),"
                " %.1f acked, %.1f dead, %.1f duplicates\n",
                a.recovery_retransmit_msgs.mean,
                a.recovery_retransmit_bits.mean, a.recovery_acked_msgs,
                a.recovery_dead_msgs, a.recovery_dup_msgs);
  }
  std::printf("  fingerprint  : %016llx\n",
              static_cast<unsigned long long>(a.fingerprint()));
}

/// --json=FILE: the run's aggregate as a one-point fba.report document
/// (exp/report.h) — the same schema the benches and fba_repro write.
void write_json_report(const Options& opt, const std::string& series,
                       const exp::GridPoint& point, const exp::Aggregate& agg,
                       const aer::AerConfig& base) {
  if (opt.json.empty()) return;
  exp::ReportMeta meta;
  meta.tool = "fba_sim";
  meta.figure = "sim-" + opt.protocol;
  meta.title = "fba_sim " + series;
  meta.base_seed = opt.seed;
  meta.trials = opt.trials;
  meta.x_axis = "index";
  meta.y_metric = "completion_time.mean";
  meta.y_label = "completion time";
  exp::Report report{std::move(meta)};
  report.add_point(series,
                   exp::ReportPoint{point, exp::point_provenance(base, point),
                                    agg});
  try {
    report.write_json(opt.json);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  std::fprintf(stderr, "wrote %s\n", opt.json.c_str());
}

/// The AerConfig base both BA report paths derive provenance from — one
/// place, so the recorded d/t/model cannot diverge between the single-run
/// and multi-trial branches.
aer::AerConfig ba_report_base(const Options& opt, aer::Model reduction_model) {
  aer::AerConfig base;
  base.n = opt.n;
  base.seed = opt.seed;
  base.corrupt_fraction = opt.corrupt;
  base.d_override = opt.d;
  base.model = reduction_model;
  return base;
}

/// The single-run (--trials=1) grid point for report labeling.
exp::GridPoint single_point(const Options& opt, aer::Model model) {
  exp::GridPoint p;
  p.n = opt.n;
  p.model = model;
  p.corrupt_fraction = opt.corrupt;
  p.strategy = opt.attack;
  p.fault = opt.fault;
  p.recovery = opt.recovery;
  return p;
}

int run_sim(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  TimingPrinter timing_printer{opt.timing};

  if (opt.protocol == "ae") {
    if (!opt.json.empty()) {
      std::fprintf(stderr,
                   "--json is not supported for the AE tournament (its report"
                   " shape differs); it applies to aer/ba/flood/sqrt\n");
      return 2;
    }
    if (opt.fault != "none") {
      std::fprintf(stderr,
                   "--fault applies to the AER/baseline/BA-reduction engines;"
                   " the AE tournament keeps reliable channels\n");
      return 2;
    }
    if (opt.recovery != "off") {
      std::fprintf(stderr,
                   "--recovery applies to the AER/baseline/BA-reduction"
                   " engines; the AE tournament keeps reliable channels\n");
      return 2;
    }
    ae::AeConfig cfg;
    cfg.n = opt.n;
    cfg.seed = opt.seed;
    cfg.corrupt_fraction = opt.corrupt;
    const auto result =
        ae::run_ae(cfg, opt.attack == "equivocate" || opt.attack == "combo"
                            ? ae::ae_equivocate_strategy()
                            : ae::AeStrategyFactory{});
    const auto& r = result.report;
    std::printf("AE tournament: n=%zu t=%zu committees=%zu x %zu\n", r.n, r.t,
                r.root_size, r.committee_size);
    std::printf("  %u rounds, %.0f bits/node, knowledgeable %zu/%zu"
                " (precondition %s)\n",
                r.rounds, r.amortized_bits, r.knowledgeable_count,
                r.correct_count, r.precondition_met ? "met" : "NOT met");
    return r.precondition_met ? 0 : 1;
  }

  if (opt.protocol == "ba") {
    ba::BaConfig cfg;
    cfg.n = opt.n;
    cfg.seed = opt.seed;
    cfg.corrupt_fraction = opt.corrupt;
    cfg.reduction_model = parse_model(opt.model);
    cfg.d_override = opt.d;
    cfg.fault_plan = make_fault(opt.fault);
    cfg.recovery_plan = make_recovery(opt.recovery);
    ba::Reduction reduction = ba::Reduction::kAer;
    if (opt.reduction == "sqrt") reduction = ba::Reduction::kSqrtSample;
    if (opt.reduction == "flood") reduction = ba::Reduction::kFlood;
    make_attack(opt.attack);  // validate the name before any sweep runs
    if (opt.trials > 1) {
      const aer::AerConfig base = ba_report_base(opt, cfg.reduction_model);
      exp::Grid grid;
      grid.strategies = {opt.attack};
      grid.faults = {opt.fault};  // BaConfig carries the resolved plans;
      grid.recoveries = {opt.recovery};  // the axes are labels here.
      exp::Sweep sweep(base, grid, opt.trials);
      sweep.set_threads(opt.threads).set_procs(opt.procs);
      sweep.set_progress(sweep_progress());
      sweep.set_trial([&cfg, reduction](const aer::AerConfig& trial_cfg,
                                        const exp::GridPoint& point) {
        ba::BaConfig run = cfg;
        run.seed = trial_cfg.seed;
        return exp::outcome_of(ba::run_ba(run, reduction, {},
                                          exp::attack_factory(point.strategy)));
      });
      const std::vector<exp::PointResult> results = sweep.run();
      if (sweep.proc_stats().interrupted) {
        std::fprintf(stderr,
                     "fba_sim: interrupted — sweep incomplete, no result\n");
        return 130;
      }
      const exp::PointResult result = results.front();
      print_aggregate(std::string("BA/") + ba::reduction_name(reduction) +
                          " " + result.point.label(),
                      result.aggregate, opt.threads);
      write_json_report(opt, std::string("BA/") + ba::reduction_name(reduction),
                        result.point, result.aggregate, base);
      return result.aggregate.agreements == result.aggregate.trials ? 0 : 1;
    }
    const ba::BaReport r =
        ba::run_ba(cfg, reduction, {}, make_attack(opt.attack));
    std::printf("BA (%s reduction): total time %.1f, %.0f bits/node -> %s\n",
                ba::reduction_name(reduction), r.total_time, r.amortized_bits,
                r.agreement ? "AGREEMENT" : "no agreement");
    print_report("  reduction phase", r.reduction);
    if (!opt.json.empty()) {
      exp::TrialOutcome o = exp::outcome_of(r);
      o.seed = opt.seed;
      write_json_report(opt, std::string("BA/") + ba::reduction_name(reduction),
                        single_point(opt, cfg.reduction_model),
                        exp::aggregate_outcomes({o}),
                        ba_report_base(opt, cfg.reduction_model));
    }
    return r.agreement ? 0 : 1;
  }

  // AE->E protocols on a synthetic precondition world.
  aer::AerConfig cfg;
  cfg.n = opt.n;
  cfg.seed = opt.seed;
  cfg.model = parse_model(opt.model);
  cfg.corrupt_fraction = opt.corrupt;
  cfg.knowledgeable_fraction = opt.know;
  cfg.d_override = opt.d;
  cfg.answer_budget = opt.budget;
  cfg.adaptive_budget = opt.adaptive_budget;
  cfg.adaptive_from = opt.adaptive_from;
  cfg.fault_plan = make_fault(opt.fault);
  cfg.recovery_plan = make_recovery(opt.recovery);

  exp::Sweep::Trial trial;
  if (opt.protocol == "aer") {
    // Left null: Sweep's default trial is the arena-reusing AER runner.
  } else if (opt.protocol == "flood") {
    trial = exp::run_flood_trial;
  } else if (opt.protocol == "sqrt") {
    trial = exp::run_sqrtsample_trial;
  } else {
    std::fprintf(stderr, "unknown protocol: %s\n", opt.protocol.c_str());
    return 2;
  }
  make_attack(opt.attack);  // validate the name before running

  if (opt.trials > 1) {
    exp::Grid grid;
    grid.strategies = {opt.attack};
    grid.faults = {opt.fault};
    grid.recoveries = {opt.recovery};
    exp::Sweep sweep(cfg, grid, opt.trials);
    sweep.set_threads(opt.threads).set_procs(opt.procs);
    if (trial) sweep.set_trial(std::move(trial));
    sweep.set_progress(sweep_progress());
    const std::vector<exp::PointResult> results = sweep.run();
    if (sweep.proc_stats().interrupted) {
      std::fprintf(stderr,
                   "fba_sim: interrupted — sweep incomplete, no result\n");
      return 130;
    }
    const exp::PointResult result = results.front();
    print_aggregate(opt.protocol + " " + result.point.label(),
                    result.aggregate, opt.threads);
    write_json_report(opt, opt.protocol, result.point, result.aggregate, cfg);
    return result.aggregate.agreements == result.aggregate.trials ? 0 : 1;
  }

  aer::AerReport report;
  if (opt.protocol == "aer") {
    report = aer::run_aer(cfg, make_attack(opt.attack));
  } else if (opt.protocol == "flood") {
    report = baseline::run_flood(cfg, make_attack(opt.attack));
  } else if (opt.protocol == "sqrt") {
    report = baseline::run_sqrtsample(cfg, make_attack(opt.attack));
  }
  print_report(opt.protocol.c_str(), report);
  if (!opt.json.empty()) {
    exp::TrialOutcome o = exp::outcome_of(report);
    o.seed = opt.seed;
    write_json_report(opt, opt.protocol, single_point(opt, cfg.model),
                      exp::aggregate_outcomes({o}), cfg);
  }
  return report.agreement ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_sim(argc, argv);
  } catch (const fba::ConfigError& e) {
    // Covers mid-run failures too — e.g. the process pool giving up after
    // its retry budget (a clean partial-result error, not a crash).
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
