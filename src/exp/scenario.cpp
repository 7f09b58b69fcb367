#include "exp/scenario.h"

#include <chrono>
#include <cstdio>

#include "adversary/adaptive.h"
#include "adversary/strategies.h"
#include "baseline/flood.h"
#include "baseline/sqrtsample.h"
#include "exp/arena.h"

namespace fba::exp {

namespace {

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::string format_registry(const std::vector<ScenarioEntry>& entries) {
  std::string out;
  char line[160];
  for (const ScenarioEntry& e : entries) {
    std::snprintf(line, sizeof(line), "      %-15s %s\n", e.name,
                  e.description);
    out += line;
  }
  return out;
}

}  // namespace

const std::vector<ScenarioEntry>& attack_registry() {
  static const std::vector<ScenarioEntry> kAttacks = {
      {"none", "honest run (no adversary strategy)"},
      {"silent", "crash faults: corrupt nodes send nothing"},
      {"junk", "coordinated junk-string diffusion (Lemma 4)"},
      {"junk-light", "junk with bench_push_phase's smaller search budget"},
      {"flood", "blind push flooding (Section 3.1.1)"},
      {"stuff", "poll stuffing / overload chain (Lemma 6)"},
      {"overload",
       "tight-budget poll stuffing + targeted delays under async (Lemmas 6/8)"},
      {"wrong", "wrong-answer safety attack (Lemma 7)"},
      {"skew", "load-skew quorum seizure against node 0 (Figure 1a)"},
      {"skew-heavy", "skew with a doubled string-search budget"},
      {"combo", "junk + wrong + stuff composed"},
      {"grudge-silent",
       "silent from ONE corrupt roster held across service instances"},
      {"grudge-wrong",
       "wrong-answer grudge: a fixed roster attacks every instance"},
      {"grudge-stuff",
       "poll-stuffing grudge: a fixed roster attacks every instance"},
      {"adaptive-degree",
       "adaptive: corrupt the busiest sender mid-run (needs --adaptive-budget)"},
      {"adaptive-quorum",
       "adaptive: corrupt the node closest to answer quorum mid-run"},
      {"adaptive-king",
       "adaptive: corrupt the most polled/pulled (coordinator) node mid-run"},
      {"adaptive-random",
       "adaptive: corrupt uniform random correct nodes mid-run (ablation)"},
  };
  return kAttacks;
}

const std::vector<ScenarioEntry>& fault_registry() {
  static const std::vector<ScenarioEntry> kFaults = {
      {"none", "reliable channels (the paper's model)"},
      {"lossy-1pct", "1% i.i.d. per-message loss on every link"},
      {"lossy-5pct", "5% i.i.d. loss"},
      {"lossy-20pct", "20% i.i.d. loss, near the liveness breaking point"},
      {"jitter", "25% of messages delayed 2 extra rounds / time units"},
      {"flaky", "2% loss + 10% jitter of 1, the \"bad datacenter\" mix"},
      {"split-heal", "even partition active over [2, 6), then heals"},
      {"split-minority", "20% of nodes cut off over [1, 5)"},
      {"churn-10pct", "10% of nodes dark over [1, 5), then back"},
      {"churn-heavy", "25% of nodes dark over [1, 8)"},
      {"slow-burn-churn",
       "churn ramping 5%->25% across a service stream (10% standalone)"},
  };
  return kFaults;
}

const std::vector<ScenarioEntry>& recovery_registry() {
  static const std::vector<ScenarioEntry> kRecoveries = {
      {"off", "no recovery: faulty links stay faulty (the fault layer raw)"},
      {"arq-fast",
       "ack/retransmit from the engine RTO floor, 1.5x backoff capped at 8,"
       " 12 retries"},
      {"arq-patient",
       "ack/retransmit from RTO 6, 2x backoff capped at 64, 16 retries"},
      {"arq-capped",
       "ack/retransmit with a tight 2-retry budget, then the send is"
       " declared dead"},
  };
  return kRecoveries;
}

std::string scenario_usage(const UsageSections& sections) {
  std::string out;
  if (sections.attacks || sections.faults) {
    out += "scenario vocabulary (shared by fba_sim, the benches, fba_repro"
           " and the exp::Grid axes):\n";
  }
  if (sections.attacks) {
    out += "  --attack=<name>    adversary strategy:\n";
    out += format_registry(attack_registry());
  }
  if (sections.faults) {
    out += "  --fault=<preset>   channel-fault preset, composable with any"
           " attack:\n";
    out += format_registry(fault_registry());
  }
  if (sections.recoveries) {
    out += "  --recovery=<preset> reliable-channel recovery sublayer"
           " (ack/retransmit under\n"
           "                     the fault layer; net/recovery.h):\n";
    out += format_registry(recovery_registry());
  }
  if (sections.sweep) {
    out += "common sweep flags:\n"
           "  --trials=N         trials per grid point (multi-trial sweep"
           " when N > 1)\n"
           "  --threads=N        exp::Sweep worker threads; results are"
           " bit-identical\n"
           "                     at any thread count (--threads=1 = serial"
           " reference)\n"
           "  --procs=N          fork N worker processes instead of threads;"
           " results stay\n"
           "                     byte-identical (crashed/hung workers are"
           " re-dealt)\n";
  }
  if (sections.json) {
    out += "report output (docs/output-schema.md):\n"
           "  --json=FILE        write the run's aggregates as a versioned"
           " fba.report\n"
           "                     JSON document (schema v5)\n";
  }
  return out;
}

std::string scenario_usage() {
  return scenario_usage(
      UsageSections{.attacks = true, .faults = true, .recoveries = true,
                    .sweep = true, .json = true});
}

bool is_grudge_attack(const std::string& name) {
  return name.rfind("grudge-", 0) == 0;
}

std::string attack_base(const std::string& name) {
  if (!is_grudge_attack(name)) return name;
  const std::string base = name.substr(7);
  // Only the registered grudge variants are valid; reject e.g.
  // "grudge-bogus" through the same unknown-attack path as any other typo.
  for (const ScenarioEntry& e : attack_registry()) {
    if (name == e.name) return base;
  }
  return name;
}

aer::StrategyFactory attack_factory(const std::string& name) {
  if (name.empty() || name == "none") return {};
  if (is_grudge_attack(name) && attack_base(name) != name) {
    // The grudge part (one corrupt roster pinned across instances) lives in
    // exp::Service; standalone runs degrade to the base strategy with the
    // usual per-trial roster.
    return attack_factory(attack_base(name));
  }
  if (name == "silent") {
    return [](const aer::AerWorldView&) {
      return std::make_unique<adv::SilentStrategy>();
    };
  }
  if (name == "junk") {
    return [](const aer::AerWorldView& view) {
      return std::make_unique<adv::JunkPushStrategy>(view, 3, 32);
    };
  }
  if (name == "junk-light") {
    return [](const aer::AerWorldView& view) {
      return std::make_unique<adv::JunkPushStrategy>(view, 3, 16);
    };
  }
  if (name == "flood") {
    return [](const aer::AerWorldView& view) {
      return std::make_unique<adv::PushFloodStrategy>(view, 64);
    };
  }
  if (name == "stuff") {
    return [](const aer::AerWorldView& view) {
      return std::make_unique<adv::PollStuffStrategy>(view);
    };
  }
  if (name == "overload") {
    return [](const aer::AerWorldView& view) {
      auto combo = std::make_unique<adv::ComboStrategy>();
      combo->add(std::make_unique<adv::PollStuffStrategy>(view, 24, 512));
      if (view.shared->config.model == aer::Model::kAsync) {
        combo->set_delay_policy(
            std::make_unique<adv::TargetedDelayStrategy>(view));
      }
      return combo;
    };
  }
  if (name == "wrong") {
    return [](const aer::AerWorldView& view) {
      return std::make_unique<adv::WrongAnswerStrategy>(view, 16);
    };
  }
  if (name == "skew") {
    return [](const aer::AerWorldView& view) {
      return std::make_unique<adv::LoadSkewStrategy>(view, 0, 1024);
    };
  }
  if (name == "skew-heavy") {
    return [](const aer::AerWorldView& view) {
      return std::make_unique<adv::LoadSkewStrategy>(view, 0, 2048);
    };
  }
  if (name == "combo") {
    return [](const aer::AerWorldView& view) {
      auto combo = std::make_unique<adv::ComboStrategy>();
      combo->add(std::make_unique<adv::JunkPushStrategy>(view, 2, 16));
      combo->add(std::make_unique<adv::WrongAnswerStrategy>(view, 8));
      combo->add(std::make_unique<adv::PollStuffStrategy>(view));
      return combo;
    };
  }
  // Adaptive family (adversary/adaptive.h): spends the runtime corruption
  // budget (AerConfig::adaptive_budget; 0 degrades to a no-op adversary).
  if (name == "adaptive-degree") {
    return [](const aer::AerWorldView& view) {
      return std::make_unique<adv::AdaptiveDegreeStrategy>(view);
    };
  }
  if (name == "adaptive-quorum") {
    return [](const aer::AerWorldView& view) {
      return std::make_unique<adv::AdaptiveQuorumStrategy>(view);
    };
  }
  if (name == "adaptive-king") {
    return [](const aer::AerWorldView& view) {
      return std::make_unique<adv::AdaptiveKingStrategy>(view);
    };
  }
  if (name == "adaptive-random") {
    return [](const aer::AerWorldView& view) {
      return std::make_unique<adv::AdaptiveRandomStrategy>(view);
    };
  }
  throw ConfigError("unknown attack strategy: " + name + " (known attacks: " +
                    join(known_attacks()) +
                    "; fault presets go on the fault axis: " +
                    join(known_faults()) + ")");
}

std::vector<std::string> known_attacks() {
  std::vector<std::string> names;
  names.reserve(attack_registry().size());
  for (const ScenarioEntry& e : attack_registry()) names.push_back(e.name);
  return names;
}

sim::FaultPlan fault_plan_factory(const std::string& name) {
  sim::FaultPlan plan;
  if (name.empty() || name == "none") return plan;
  if (name == "lossy-1pct") {
    plan.loss = 0.01;
    return plan;
  }
  if (name == "lossy-5pct") {
    plan.loss = 0.05;
    return plan;
  }
  if (name == "lossy-20pct") {
    plan.loss = 0.20;
    return plan;
  }
  if (name == "jitter") {
    plan.jitter_prob = 0.25;
    plan.jitter = 2.0;
    return plan;
  }
  if (name == "flaky") {
    plan.loss = 0.02;
    plan.jitter_prob = 0.10;
    plan.jitter = 1.0;
    return plan;
  }
  if (name == "split-heal") {
    plan.partitions.push_back({.start = 2, .heal = 6, .cut_fraction = 0.5});
    return plan;
  }
  if (name == "split-minority") {
    plan.partitions.push_back({.start = 1, .heal = 5, .cut_fraction = 0.2});
    return plan;
  }
  if (name == "churn-10pct") {
    plan.churns.push_back({.down = 1, .up = 5, .fraction = 0.10});
    return plan;
  }
  if (name == "churn-heavy") {
    plan.churns.push_back({.down = 1, .up = 8, .fraction = 0.25});
    return plan;
  }
  if (name == "slow-burn-churn") {
    // Standalone fixed point of the ramp; exp::Service re-derives the
    // per-instance fraction (service_fault_plan in exp/service.cpp).
    plan.churns.push_back({.down = 1, .up = 6, .fraction = 0.10});
    return plan;
  }
  throw ConfigError("unknown fault preset: " + name +
                    " (known presets: " + join(known_faults()) + ")");
}

std::vector<std::string> known_faults() {
  std::vector<std::string> names;
  names.reserve(fault_registry().size());
  for (const ScenarioEntry& e : fault_registry()) names.push_back(e.name);
  return names;
}

sim::RecoveryPlan recovery_plan_factory(const std::string& name) {
  sim::RecoveryPlan plan;
  if (name.empty() || name == "off") return plan;
  plan.enabled = true;
  if (name == "arq-fast") {
    plan.rto_initial = 0;  // the engine's delay-model floor
    plan.backoff = 1.5;
    plan.rto_cap = 8.0;
    plan.max_retries = 12;
    return plan;
  }
  if (name == "arq-patient") {
    plan.rto_initial = 6.0;
    plan.backoff = 2.0;
    plan.rto_cap = 64.0;
    plan.max_retries = 16;
    return plan;
  }
  if (name == "arq-capped") {
    plan.rto_initial = 0;
    plan.backoff = 2.0;
    plan.rto_cap = 8.0;
    plan.max_retries = 2;
    return plan;
  }
  throw ConfigError("unknown recovery preset: " + name +
                    " (known presets: " + join(known_recoveries()) + ")");
}

std::vector<std::string> known_recoveries() {
  std::vector<std::string> names;
  names.reserve(recovery_registry().size());
  for (const ScenarioEntry& e : recovery_registry()) names.push_back(e.name);
  return names;
}

namespace {

template <typename RunWorld>
TrialOutcome world_trial(const aer::AerConfig& config, const GridPoint& point,
                         RunWorld&& run_world) {
  aer::AerWorld world = aer::build_aer_world(config);
  const aer::AerReport report =
      run_world(world, attack_factory(point.strategy));
  TrialOutcome o = outcome_of(report, world);
  o.seed = config.seed;
  return o;
}

}  // namespace

TrialOutcome run_aer_trial(const aer::AerConfig& config,
                           const GridPoint& point) {
  return world_trial(config, point,
                     [](aer::AerWorld& world, const aer::StrategyFactory& f) {
                       return aer::run_aer_world(world, f);
                     });
}

void run_aer_trial(const aer::AerConfig& config, const GridPoint& point,
                   TrialArena& arena, TrialOutcome& out) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  aer::build_aer_world_into(arena.world, config);
  const auto t1 = clock::now();
  const aer::AerReport report = aer::run_aer_world_arena(
      arena.world, arena.run, attack_factory(point.strategy));
  outcome_into(report, arena.world, out);
  out.seed = config.seed;
  const auto t2 = clock::now();
  arena.timing.setup_seconds += std::chrono::duration<double>(t1 - t0).count();
  arena.timing.run_seconds += std::chrono::duration<double>(t2 - t1).count();
  ++arena.timing.trials;
}

void run_aer_scale_trial(const aer::AerConfig& config, const GridPoint& point,
                         ScaleArena& arena, TrialOutcome& out,
                         const aer::SoaRunOptions& options) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  aer::build_aer_world_into(arena.world, config);
  const auto t1 = clock::now();
  const aer::AerReport report = aer::run_aer_world_soa(
      arena.world, arena.run, options, attack_factory(point.strategy));
  outcome_into(report, arena.world, out);
  out.seed = config.seed;
  const auto t2 = clock::now();
  arena.timing.setup_seconds += std::chrono::duration<double>(t1 - t0).count();
  arena.timing.run_seconds += std::chrono::duration<double>(t2 - t1).count();
  ++arena.timing.trials;
}

TrialOutcome run_flood_trial(const aer::AerConfig& config,
                             const GridPoint& point) {
  return world_trial(config, point,
                     [](aer::AerWorld& world, const aer::StrategyFactory& f) {
                       return baseline::run_flood_world(world, f);
                     });
}

TrialOutcome run_sqrtsample_trial(const aer::AerConfig& config,
                                  const GridPoint& point) {
  return world_trial(config, point,
                     [](aer::AerWorld& world, const aer::StrategyFactory& f) {
                       return baseline::run_sqrtsample_world(world, f);
                     });
}

}  // namespace fba::exp
