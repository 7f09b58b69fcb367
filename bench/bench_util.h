// Shared bench scaffolding: sweep-size selection, trial/thread flags,
// wall-clock timing, `--help` and the `--json` report writer.
//
// Every bench binary regenerates one table or figure of the paper and
// prints the corresponding rows. `--quick` shrinks sweeps for smoke runs;
// `--large` extends them to the biggest sizes that still fit a laptop-class
// machine. Trial replication and fan-out run through exp::Sweep:
// `--trials=N` overrides the per-scale default, `--threads=N` overrides the
// hardware default (`--threads=1` gives the serial reference run for
// speedup measurements), `--procs=N` switches to forked worker processes
// (byte-identical results — exp/procpool.h). `--json=FILE` additionally
// writes the sweep
// aggregates as an fba.report JSON document (exp/report.h,
// docs/output-schema.md) — the same schema fba_repro's figure files use.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exp/progress.h"
#include "exp/report.h"
#include "exp/scenario.h"
#include "exp/service.h"
#include "exp/sweep.h"

namespace fba::benchutil {

enum class Scale { kQuick, kDefault, kLarge };

/// The program name for one-line errors: argv[0] without its directory.
inline const char* binary_name(char** argv) {
  const char* slash = std::strrchr(argv[0], '/');
  return slash != nullptr ? slash + 1 : argv[0];
}

/// The value of the `--name=value` argument, or nullptr when absent. A flag
/// given twice gets a one-line error and exit 2 instead of silently running
/// with one of the two values.
inline const char* find_flag(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  const char* value = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      if (value != nullptr) {
        std::fprintf(stderr, "%s: repeated flag %s\n", binary_name(argv), name);
        std::exit(2);
      }
      value = argv[i] + len + 1;
    }
  }
  return value;
}

/// Parses `--name=value` into a string; returns `fallback` when absent.
inline std::string string_flag(int argc, char** argv, const char* name,
                               const char* fallback) {
  const char* value = find_flag(argc, argv, name);
  return value != nullptr ? value : fallback;
}

/// Strict unsigned integer: at least one character, every one a digit, and
/// no overflow. Leaves `out` untouched on failure.
inline bool parse_count(const char* text, std::size_t& out) {
  if (*text == '\0') return false;
  std::size_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const auto digit = static_cast<std::size_t>(*p - '0');
    if (v > (SIZE_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  out = v;
  return true;
}

/// Parses `--name=value` into a size_t; returns `fallback` when absent.
/// Strict like positive_flag, except that zero is legal (it means "auto"
/// for flags such as --d=): a negative, partly numeric, empty or
/// overflowing value gets a one-line error and exit 2 instead of wrapping
/// or silently truncating.
inline std::size_t flag_value(int argc, char** argv, const char* name,
                              std::size_t fallback) {
  const char* value = find_flag(argc, argv, name);
  if (value == nullptr) return fallback;
  std::size_t parsed = 0;
  if (!parse_count(value, parsed)) {
    std::fprintf(stderr,
                 "%s: invalid %s=%s (expected a non-negative integer)\n",
                 binary_name(argv), name, value);
    std::exit(2);
  }
  return parsed;
}

/// Strict `--recovery=<preset>` validation shared by fba_sim, fba_repro and
/// the benches (the same treatment --corrupt=/--know= got): an unknown or
/// malformed name gets recovery_plan_factory's one-line ConfigError —
/// which lists every known preset — and exit 2, instead of silently
/// running without recovery. Returns the resolved plan.
inline sim::RecoveryPlan check_recovery(const char* binary,
                                        const std::string& name) {
  try {
    return exp::recovery_plan_factory(name);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s: %s\n", binary, e.what());
    std::exit(2);
  }
}

/// Strict positive-integer flag value: every character a digit, no
/// overflow and the number > 0. Zero, negatives, and garbage get a
/// one-line error and exit 2 — the same contract --corrupt=/--know= follow
/// in fba_sim (previously --trials=abc silently became the scale default
/// and --threads=0 silently became 1).
inline std::size_t positive_flag(const char* binary, const char* name,
                                 const char* value) {
  std::size_t v = 0;
  if (!parse_count(value, v) || v == 0) {
    std::fprintf(stderr, "%s: invalid %s=%s (expected a positive integer)\n",
                 binary, name, value);
    std::exit(2);
  }
  return v;
}

/// Network sizes for full-protocol sweeps (pull phase included).
inline std::vector<std::size_t> protocol_sizes(Scale scale) {
  switch (scale) {
    case Scale::kQuick:
      return {128, 256};
    case Scale::kDefault:
      return {128, 256, 512, 1024, 2048};
    case Scale::kLarge:
      return {128, 256, 512, 1024, 2048, 4096};
  }
  return {};
}

/// Sizes for push-only / sampler sweeps (much cheaper per run).
inline std::vector<std::size_t> light_sizes(Scale scale) {
  switch (scale) {
    case Scale::kQuick:
      return {256, 1024};
    case Scale::kDefault:
      return {256, 1024, 4096, 8192};
    case Scale::kLarge:
      return {256, 1024, 4096, 8192, 16384};
  }
  return {};
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void print_banner(const char* artifact, const char* description) {
  std::printf("=== %s ===\n%s\n\n", artifact, description);
}

/// Everything parse_common_flags needs to validate a command line and
/// print the one generated usage block — --help and unknown-flag errors
/// share it, so the error path always shows the flags that *would* have
/// worked.
struct CommonSpec {
  const char* binary = "";
  const char* description = "";
  /// Preformatted usage lines for binary-specific flags (nullptr for
  /// none); list each such flag in extra_flags too or it is rejected.
  const char* extra_usage = nullptr;
  /// Binary-specific value flags to accept, each spelled with its '='
  /// (prefix match, e.g. "--n="). parse_common_flags only accepts them —
  /// the binary still reads their values with string_flag/flag_value.
  std::vector<const char*> extra_flags{};
  /// Shared-vocabulary sections this binary supports. Doubles as the
  /// accept-list: --attack / --fault / --trials / --threads / --json are
  /// unknown-flag errors when their section is off.
  exp::UsageSections sections{};
  /// The binary supports --timing (the setup-vs-run wall split printer).
  bool accept_timing = false;
  /// The binary supports --quick/--large sweep scaling (benches do;
  /// fba_sim, which sizes runs with --n/--trials directly, does not).
  bool accept_scale = true;
};

/// The flag set every bench and example shares (--quick/--large, --trials,
/// --threads, --attack, --fault, --json, --timing), parsed and validated in
/// one place by parse_common_flags.
struct CommonOptions {
  Scale scale = Scale::kDefault;
  std::size_t trials_override = 0;  ///< --trials=N; 0 = use scale default.
  std::size_t threads = 1;
  std::size_t procs = 1;  ///< --procs=N: forked sweep workers (1 = off).
  std::string attack = "none";
  std::string fault = "none";
  std::string recovery = "off";  ///< --recovery=<preset> (validated).
  std::string json;     ///< --json=FILE target; empty = not requested.
  bool timing = false;  ///< --timing: print the wall split on exit.

  /// Trials per point: the --trials override if given, else the fallback
  /// for the parsed scale. Benches with non-standard defaults pass their
  /// own numbers (e.g. fig2's flat 25).
  std::size_t trials(std::size_t quick_fallback = 3,
                     std::size_t default_fallback = 10,
                     std::size_t large_fallback = 30) const {
    if (trials_override > 0) return trials_override;
    if (scale == Scale::kQuick) return quick_fallback;
    if (scale == Scale::kLarge) return large_fallback;
    return default_fallback;
  }
};

inline void print_common_usage(const CommonSpec& spec, std::FILE* out) {
  std::fprintf(out, "%s — %s\n\nusage: %s %s[flags]\n", spec.binary,
               spec.description, spec.binary,
               spec.accept_scale ? "[--quick|--large] " : "");
  if (spec.accept_scale) {
    std::fprintf(out,
                 "  --quick / --large  shrink / extend the sweep sizes\n");
  }
  if (spec.accept_timing) {
    std::fprintf(out,
                 "  --timing           print the setup-vs-run wall-time"
                 " split (and peak RSS) on exit\n");
  }
  if (spec.extra_usage != nullptr) std::fprintf(out, "%s", spec.extra_usage);
  std::fprintf(out, "%s", exp::scenario_usage(spec.sections).c_str());
}

/// Parses (and validates) the shared flag set. --help/-h prints the usage
/// block and exits 0; an unknown flag prints it to stderr and exits 2 —
/// previously benches silently ignored typos like --trails=50 and ran the
/// default sweep instead. Binary-specific flags pass through via
/// spec.extra_flags.
inline CommonOptions parse_common_flags(int argc, char** argv,
                                        const CommonSpec& spec) {
  CommonOptions opt;
  opt.threads = exp::default_threads();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value_of = [&](const char* name) -> const char* {
      const std::size_t len = std::strlen(name);
      if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
        return find_flag(argc, argv, name);  // refuses a repeat
      }
      return nullptr;
    };
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_common_usage(spec, stdout);
      std::exit(0);
    }
    if (spec.accept_scale && std::strcmp(arg, "--quick") == 0) {
      opt.scale = Scale::kQuick;
      continue;
    }
    if (spec.accept_scale && std::strcmp(arg, "--large") == 0) {
      opt.scale = Scale::kLarge;
      continue;
    }
    if (spec.accept_timing && std::strcmp(arg, "--timing") == 0) {
      opt.timing = true;
      continue;
    }
    const char* value = nullptr;
    if (spec.sections.sweep && (value = value_of("--trials")) != nullptr) {
      opt.trials_override = positive_flag(spec.binary, "--trials", value);
      continue;
    }
    if (spec.sections.sweep && (value = value_of("--threads")) != nullptr) {
      opt.threads = positive_flag(spec.binary, "--threads", value);
      continue;
    }
    if (spec.sections.sweep && (value = value_of("--procs")) != nullptr) {
      opt.procs = positive_flag(spec.binary, "--procs", value);
      continue;
    }
    if (spec.sections.attacks && (value = value_of("--attack")) != nullptr) {
      opt.attack = value;
      continue;
    }
    if (spec.sections.faults && (value = value_of("--fault")) != nullptr) {
      opt.fault = value;
      continue;
    }
    if (spec.sections.recoveries &&
        (value = value_of("--recovery")) != nullptr) {
      // Validated here, not at first use: a typo like --recovery=arq-fsat
      // must fail before the sweep runs without recovery for an hour.
      check_recovery(spec.binary, value);
      opt.recovery = value;
      continue;
    }
    if (spec.sections.json && (value = value_of("--json")) != nullptr) {
      opt.json = value;
      continue;
    }
    const auto names_arg = [arg](const char* extra) {
      return std::strncmp(arg, extra, std::strlen(extra)) == 0;
    };
    if (std::any_of(spec.extra_flags.begin(), spec.extra_flags.end(),
                    names_arg)) {
      continue;
    }
    std::fprintf(stderr, "%s: unknown flag \"%s\"\n\n", spec.binary, arg);
    print_common_usage(spec, stderr);
    std::exit(2);
  }
  return opt;
}

/// Writes `report` to the file named by `--json=FILE` (if given). Every
/// bench funnels its sweep results through this one writer so bench output
/// and fba_repro figure output share the fba.report schema
/// (docs/output-schema.md). An unwritable path exits 1 with a clean error
/// instead of an uncaught throw — the table already went to stdout, only
/// the artifact is lost.
inline void write_json_if_requested(const exp::Report& report,
                                    const std::string& path) {
  if (path.empty()) return;
  try {
    report.write_json(path);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote %s (%zu series, %zu points)\n", path.c_str(),
               report.series().size(), report.total_points());
}

inline const char* scale_name(Scale scale) {
  switch (scale) {
    case Scale::kQuick: return "quick";
    case Scale::kDefault: return "default";
    case Scale::kLarge: return "large";
  }
  return "?";
}

/// Report skeleton with the meta every bench fills the same way.
inline exp::Report make_report(const char* tool, const char* figure,
                               const char* title, std::uint64_t base_seed,
                               std::size_t trials, Scale scale) {
  exp::ReportMeta meta;
  meta.tool = tool;
  meta.figure = figure;
  meta.title = title;
  meta.base_seed = base_seed;
  meta.trials = trials;
  meta.scale = scale_name(scale);
  return exp::Report(std::move(meta));
}

/// Splits one sweep's results into report series named by `name_of(point)`
/// (e.g. per model, per strategy); point order within a series follows the
/// expansion order.
template <typename NameFn>
inline void add_split_series(exp::Report& report, const aer::AerConfig& base,
                             const std::vector<exp::PointResult>& results,
                             NameFn&& name_of) {
  for (const exp::PointResult& r : results) {
    report.add_point(name_of(r.point),
                     exp::ReportPoint{r.point,
                                      exp::point_provenance(base, r.point),
                                      r.aggregate});
  }
}

/// Bridges one service run into the report machinery (bench_service and
/// fba_repro --figure=service): deterministic stats through
/// ServiceStats::to_aggregate (fingerprinted, diffable), wall-clock load
/// into the informational schema-v3 `load` block (never fingerprinted or
/// diffed — docs/output-schema.md).
inline exp::ReportPoint service_report_point(std::size_t index,
                                             const exp::ServiceConfig& config,
                                             const exp::ServiceResult& r) {
  exp::ReportPoint rp;
  rp.point.index = index;
  rp.point.n = config.base.n;
  rp.point.model = config.base.model;
  rp.point.strategy = config.attack;
  rp.point.fault = config.fault.empty() ? "none" : config.fault;
  rp.provenance = exp::point_provenance(config.base, rp.point);
  rp.aggregate = r.stats.to_aggregate();
  rp.has_load = true;
  rp.load.wall_seconds = r.load.wall_seconds;
  rp.load.instances_per_sec = r.load.instances_per_sec;
  rp.load.wall_ms_p50 = r.load.instance_wall_ms.quantile(0.50);
  rp.load.wall_ms_p99 = r.load.instance_wall_ms.quantile(0.99);
  rp.load.wall_ms_p999 = r.load.instance_wall_ms.quantile(0.999);
  return rp;
}

}  // namespace fba::benchutil
