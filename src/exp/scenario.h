// Named scenarios: the adversary-strategy registry and the per-protocol
// trial runners the Sweep fans out.
//
// Attack names are the single vocabulary shared by benches, fba_sim and the
// Grid's strategy axis, so "the poll-stuffing run at n=512" means the same
// configuration everywhere.
#pragma once

#include <string>
#include <vector>

#include "aer/protocol.h"
#include "aer/soa.h"
#include "exp/aggregate.h"
#include "exp/grid.h"

namespace fba::exp {

/// One entry of the scenario vocabulary: a name plus the one-line
/// description --help blocks print. The registries below are the single
/// source of truth behind known_attacks() / known_faults(),
/// attack_factory() / fault_plan_factory() error messages, and
/// scenario_usage().
struct ScenarioEntry {
  const char* name;
  const char* description;
};

/// Every attack strategy attack_factory() accepts, with descriptions.
const std::vector<ScenarioEntry>& attack_registry();
/// Every fault preset fault_plan_factory() accepts, with descriptions.
const std::vector<ScenarioEntry>& fault_registry();
/// Every recovery preset recovery_plan_factory() accepts, with descriptions.
const std::vector<ScenarioEntry>& recovery_registry();

/// Which sections of the generated usage block a binary's --help prints.
/// Only advertise flags the binary actually parses: attacks/faults are off
/// by default because most benches pin their own adversary/fault axes.
struct UsageSections {
  bool attacks = false;     ///< the binary accepts --attack=<name>.
  bool faults = false;      ///< the binary accepts --fault=<preset>.
  bool recoveries = false;  ///< the binary accepts --recovery=<preset>.
  bool sweep = true;        ///< --trials / --threads.
  bool json = true;         ///< the --json=FILE report flag.
};

/// The generated usage block shared by fba_sim, the benches and fba_repro:
/// the attack and fault vocabularies with descriptions plus the common
/// sweep/report flags, restricted to the sections the caller supports.
std::string scenario_usage(const UsageSections& sections);
/// All sections — what fba_sim (which parses everything) prints.
std::string scenario_usage();

/// Resolves an attack name to a strategy factory (names and descriptions:
/// attack_registry()). Throws ConfigError on an unknown name; the message
/// lists every known attack (and the fault presets, the usual confusion).
aer::StrategyFactory attack_factory(const std::string& name);

/// Names accepted by attack_factory, for --help strings.
std::vector<std::string> known_attacks();

/// True when `name` has the grudge- prefix of the persistent attacks: under
/// exp::Service one corrupt roster (drawn once from the service seed) is
/// pinned across every instance; standalone runs degrade to the base
/// strategy with the usual per-trial roster.
bool is_grudge_attack(const std::string& name);
/// "grudge-wrong" -> "wrong" for the registered grudge variants; returns
/// `name` unchanged otherwise (including unknown grudge-* typos, which then
/// fail attack_factory's unknown-attack path).
std::string attack_base(const std::string& name);

/// Resolves a fault-preset name to a sim::FaultPlan (net/fault.h) — the
/// second half of the scenario vocabulary, composable with every attack
/// (names and descriptions: fault_registry(); "" is accepted as "none").
/// Throws ConfigError on an unknown name, listing the known presets.
sim::FaultPlan fault_plan_factory(const std::string& name);

/// Names accepted by fault_plan_factory, for --help strings.
std::vector<std::string> known_faults();

/// Resolves a recovery-preset name to a sim::RecoveryPlan (net/recovery.h)
/// — the third leg of the scenario vocabulary, composable with every attack
/// and fault preset (names and descriptions: recovery_registry(); "" is
/// accepted as "off"). Throws ConfigError on an unknown name, listing the
/// known presets.
sim::RecoveryPlan recovery_plan_factory(const std::string& name);

/// Names accepted by recovery_plan_factory, for --help strings.
std::vector<std::string> known_recoveries();

class TrialArena;
class ScaleArena;

/// One full AER trial: builds a world for `config` (the point's
/// GridPoint::apply output, presets resolved; the caller sets the seed),
/// runs it under the point's attack through aer::run_aer_world, and
/// harvests the outcome (including per-node decision times).
TrialOutcome run_aer_trial(const aer::AerConfig& config,
                           const GridPoint& point);

/// Arena variant, Sweep's default trial: same trial, same results, but the
/// world, engines and actors come from `arena` (exp/arena.h; the run goes
/// through aer::run_aer_world_arena) and the outcome is written into `out`
/// (capacity reuse) — zero heap allocations once the arena is warm. Also
/// accumulates the setup-vs-run wall-time split into arena.timing.
void run_aer_trial(const aer::AerConfig& config, const GridPoint& point,
                   TrialArena& arena, TrialOutcome& out);

/// Scale-mode variant: same world construction and RNG draws as
/// run_aer_trial, executed through the structure-of-arrays runner
/// (aer::run_aer_world_soa, with `options`' burst gate and round progress)
/// — bit-identical protocol metrics and Aggregate fingerprints, plus a
/// filled TrialOutcome::mem_bytes_per_node. The intended path for
/// n >= 10^5 (docs/perf.md "scale mode").
void run_aer_scale_trial(const aer::AerConfig& config, const GridPoint& point,
                         ScaleArena& arena, TrialOutcome& out,
                         const aer::SoaRunOptions& options = {});

/// Baseline AE->E reductions on the same world construction.
TrialOutcome run_flood_trial(const aer::AerConfig& config,
                             const GridPoint& point);
TrialOutcome run_sqrtsample_trial(const aer::AerConfig& config,
                                  const GridPoint& point);

}  // namespace fba::exp
