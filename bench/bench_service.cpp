// Heavy-traffic service mode: repeated consensus as a stream of instances
// (exp::Service), measured the way a deployed agreement service would be —
// sustained instances/sec and tail decision latency, not per-run totals.
//
// First table: the warm/cold A/B at the same (n, d). The cold lap rebuilds
// every instance's world from nothing (TrialArena::clear between
// instances); the warm lap re-keys the arenas in place, so steady-state
// cost approaches pure protocol execution (the zero-allocation contract
// BM_WarmInstanceAllocations enforces). Both laps produce bit-identical
// ServiceStats — the bench checks the fingerprints and reports the
// throughput ratio, the headline number of docs/perf.md's service section.
//
// Second table: persistent adversaries across the stream — grudge-* pins
// one corrupt roster for every instance, slow-burn-churn ramps its churn
// fraction instance to instance — versus the memoryless baseline.
//
// Decision latencies are simulated protocol time (deterministic, in the
// fingerprint); instances/sec and wall-ms quantiles are wall-clock load
// (reported, never fingerprinted).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fba.h"

namespace {

using namespace fba;

void add_service_row(Table& table, const char* mode,
                     const exp::ServiceConfig& config,
                     const exp::ServiceResult& r) {
  const exp::ServiceStats& s = r.stats;
  table.add_row({mode, config.attack,
                 config.fault.empty() ? "none" : config.fault,
                 Table::num(s.instances),
                 Table::num(r.load.instances_per_sec, 1),
                 Table::num(s.agreement_rate(), 2), Table::num(s.wrong_decisions),
                 Table::num(s.decision_latency.quantile(0.50), 2),
                 Table::num(s.decision_latency.quantile(0.99), 2),
                 Table::num(s.decision_latency.quantile(0.999), 2)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fba::benchutil;
  const CommonOptions opt = parse_common_flags(
      argc, argv,
      CommonSpec{
          .binary = "bench_service",
          .description =
              "heavy-traffic service mode: streaming repeated consensus with"
              " warm-instance reuse (instances/sec, p99 decision latency)",
          .extra_usage =
              "  --trials=<k>       instances per service lap (the stream"
              " length)\n"
              "  --n=<nodes>        network size (default 64 quick / 128)\n"
              "  --d=<size>         poll-list size override (default: the"
              " config's resolved d)\n"
              "  --attack=<name>    adversary for the warm/cold A/B laps\n"
              "  --fault=<preset>   fault preset for the warm/cold A/B laps\n",
          .extra_flags = {"--n=", "--d="},
          .sections = {.attacks = true, .faults = true}});
  const std::size_t instances = opt.trials(24, 64, 256);
  print_banner("service mode: streaming repeated consensus",
               "warm-instance reuse vs per-instance rebuild, persistent"
               " adversaries, sustained instances/sec and decision-latency"
               " tails");

  exp::ServiceConfig base_config;
  base_config.base.n = flag_value(argc, argv, "--n",
                                  opt.scale == Scale::kQuick ? 64 : 128);
  base_config.base.d_override = flag_value(argc, argv, "--d", 0);
  base_config.base.model = aer::Model::kSyncRushing;
  base_config.base.seed = 20130722;
  base_config.attack = opt.attack;
  base_config.fault = opt.fault == "none" ? "" : opt.fault;
  base_config.instances = instances;
  // run_service starts no more workers than a lap has instances.
  base_config.workers = std::min<std::size_t>(opt.threads, instances);

  exp::Report report =
      make_report("bench_service", "service",
                  "Service mode: warm-instance streaming vs cold rebuild",
                  base_config.base_seed, instances, opt.scale);
  report.meta().x_axis = "index";
  report.meta().y_metric = "decision_time.p99";
  report.meta().y_label = "p99 decision latency";

  std::printf("warm/cold A/B: n=%zu d=%zu, %llu instances, %zu worker(s)\n\n",
              base_config.base.n, base_config.base.resolved_d(),
              static_cast<unsigned long long>(instances), base_config.workers);
  Table table({"mode", "attack", "fault", "inst", "inst/s", "agree", "wrong",
               "dec p50", "dec p99", "dec p999"});
  Stopwatch watch;

  exp::ServiceConfig cold = base_config;
  cold.warm = false;
  const exp::ServiceResult cold_result = exp::run_service(cold);
  add_service_row(table, "cold", cold, cold_result);
  report.add_point("service/cold", service_report_point(0, cold, cold_result));

  exp::ServiceConfig warm = base_config;
  warm.warm = true;
  const exp::ServiceResult warm_result = exp::run_service(warm);
  add_service_row(table, "warm", warm, warm_result);
  report.add_point("service/warm", service_report_point(0, warm, warm_result));
  table.print(std::cout);

  if (warm_result.stats.fingerprint() != cold_result.stats.fingerprint()) {
    std::fprintf(stderr,
                 "FAIL: warm and cold laps disagree (fingerprints %016llx vs"
                 " %016llx) — arena reuse changed the results\n",
                 static_cast<unsigned long long>(
                     warm_result.stats.fingerprint()),
                 static_cast<unsigned long long>(
                     cold_result.stats.fingerprint()));
    return 1;
  }
  const double speedup =
      cold_result.load.instances_per_sec > 0
          ? warm_result.load.instances_per_sec /
                cold_result.load.instances_per_sec
          : 0;
  std::printf(
      "\nwarm-instance speedup: %.2fx sustained instances/sec (%.1f vs %.1f),"
      " results bit-identical (fingerprint %016llx)\n",
      speedup, warm_result.load.instances_per_sec,
      cold_result.load.instances_per_sec,
      static_cast<unsigned long long>(warm_result.stats.fingerprint()));
  // The amortized component: a cold instance pays world + engine + actor
  // reconstruction (allocation and page churn — it lands inside the run,
  // not in build_aer_world_into, whose re-key is microseconds); a warm
  // instance pays only the protocol. Median wall latencies isolate it.
  const double cold_ms = cold_result.load.instance_wall_ms.quantile(0.50);
  const double warm_ms = warm_result.load.instance_wall_ms.quantile(0.50);
  std::printf(
      "per-instance rebuild overhead eliminated: %.2f ms (cold %.2f ms ->"
      " warm %.2f ms, %.0f%% of a cold instance); warm world re-key:"
      " %.1f us/instance\n",
      cold_ms - warm_ms, cold_ms, warm_ms,
      cold_ms > 0 ? 100.0 * (cold_ms - warm_ms) / cold_ms : 0,
      warm_result.timing.trials > 0
          ? 1e6 * warm_result.timing.setup_seconds /
                static_cast<double>(warm_result.timing.trials)
          : 0);

  // Persistent adversaries: the service threat model — state that carries
  // across instance boundaries. Same stream length and seed as the A/B.
  std::printf("\npersistent adversaries (n=%zu, %llu instances):\n",
              base_config.base.n,
              static_cast<unsigned long long>(instances));
  Table adversary({"mode", "attack", "fault", "inst", "inst/s", "agree",
                   "wrong", "dec p50", "dec p99", "dec p999"});
  struct AdversaryCase {
    const char* attack;
    const char* fault;
  };
  const std::vector<AdversaryCase> cases = {
      {"none", ""},
      {"grudge-wrong", ""},
      {"grudge-stuff", ""},
      {"none", "slow-burn-churn"},
  };
  std::size_t index = 0;
  for (const AdversaryCase& c : cases) {
    exp::ServiceConfig config = base_config;
    config.attack = c.attack;
    config.fault = c.fault;
    config.warm = true;
    const exp::ServiceResult r = exp::run_service(config);
    add_service_row(adversary, "warm", config, r);
    report.add_point("service/adversary", service_report_point(index++, config, r));
  }
  adversary.print(std::cout);
  std::printf(
      "\ngrudge-* pins one corrupt roster for the whole stream; slow-burn-"
      "churn ramps its churn fraction across instances. Safety (wrong = 0)"
      " must hold throughout.\n");
  std::printf("[service done in %.1fs on %zu thread(s)]\n", watch.seconds(),
              base_config.workers);
  write_json_if_requested(report, opt.json);
  return 0;
}
