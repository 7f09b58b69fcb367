// Harness: assembles a full AER run — samplers, gstring, corruption,
// knowledgeable assignment, engine, adversary — executes it, and reports the
// paper's metrics (decision outcome, time, amortized and per-node bits).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "adversary/adversary.h"
#include "aer/config.h"
#include "aer/node.h"
#include "support/metrics.h"

namespace fba::aer {

/// Everything the adversary may know at setup time (full information):
/// public samplers, the string table, everyone's initial candidate, the
/// corrupt roster and the value under agreement.
struct AerWorldView {
  AerShared* shared = nullptr;
  StringId gstring = kNoString;
  std::vector<StringId> initial;    ///< per-node initial candidate.
  std::vector<bool> knowledgeable;  ///< correct and initially holding gstring.
  std::vector<NodeId> corrupt;
};

/// Builds the adversary brain once the world is known.
using StrategyFactory =
    std::function<std::unique_ptr<adv::Strategy>(const AerWorldView&)>;

/// Overrides the corrupt-set choice (still non-adaptive: runs before any
/// protocol activity). Receives the shared setup so attacks can seize
/// specific quorums.
using CorruptPicker = std::function<std::vector<NodeId>(
    std::size_t n, std::size_t t, Rng& rng, AerShared& shared)>;

/// A fully assembled run environment. Exposed so that the BA composition
/// (ba/) and the baseline AE->E protocols (baseline/) can execute against
/// the *same* world — same corrupt set, same initial candidates, same wire
/// format — for apples-to-apples comparisons.
struct AerWorld {
  std::unique_ptr<AerShared> shared;
  AerWorldView view;
  std::vector<NodeId> correct;
  /// Nodes flipped *during* the run by an adaptive strategy (corrupt_now),
  /// in corruption order. Empty under the paper's non-adaptive model.
  /// Undecided victims are removed from `correct` at corruption time; a
  /// victim that had already decided stays (its decision stands).
  std::vector<NodeId> runtime_corrupt;
  DecisionLog decisions;

  /// Build-time scratch buffers, kept so that rebuilding this world for the
  /// next trial (build_aer_world_into) reuses their capacity.
  struct Scratch {
    BitString gstring;
    BitString adversary_bits;
    BitString candidate;
    std::vector<NodeId> shuffled;
    std::vector<bool> is_corrupt;
  };
  Scratch scratch;
};

/// Builds samplers, gstring, the corrupt set and the knowledgeable
/// assignment per `config`.
AerWorld build_aer_world(const AerConfig& config,
                         const CorruptPicker& pick_corrupt = {});

/// In-place variant: rebuilds `world` for a fresh trial with identical
/// semantics (same RNG draws, same results), reusing the world's storage —
/// shared setup, string table, sampler tables, vectors. The trial-arena
/// path; a warm world rebuild performs no heap allocation under the default
/// corruption picker.
void build_aer_world_into(AerWorld& world, const AerConfig& config,
                          const CorruptPicker& pick_corrupt = {});

/// Fixed-roster variant (the exp::Service grudge path): rebuilds with the
/// given corrupt set instead of drawing one. The corrupt-set RNG split is
/// still taken, so pinning a roster changes nothing else about the build's
/// randomness (gstring, knowledgeable assignment). The roster is copied into
/// view.corrupt with capacity reuse — no allocation once the world is warm,
/// so a service can hold a grudge across thousands of instances for free.
void build_aer_world_into(AerWorld& world, const AerConfig& config,
                          const std::vector<NodeId>& fixed_corrupt);

struct AerReport {
  std::size_t n = 0;
  std::size_t t = 0;
  std::size_t d = 0;
  Model model = Model::kSyncRushing;

  // Outcome.
  std::size_t correct_count = 0;
  std::size_t knowledgeable_count = 0;
  std::size_t decided_count = 0;        ///< correct nodes that decided.
  std::size_t decided_gstring = 0;      ///< ... on gstring.
  bool everyone_decided = false;
  bool agreement = false;  ///< every correct node decided on gstring.

  // Time (rounds in sync models, normalized time in async).
  double completion_time = 0;  ///< latest decision among correct nodes.
  double mean_decision_time = 0;
  double engine_time = 0;
  bool engine_completed = false;

  // Communication.
  std::uint64_t total_messages = 0;
  std::uint64_t total_bits = 0;
  double amortized_bits = 0;  ///< total bits / n (the paper's measure).
  LoadStats sent_bits;        ///< per-node sent-bits distribution.
  /// Per-kind traffic, indexed by sim::kind_index().
  KindCounters bits_by_kind{};
  KindCounters msgs_by_kind{};
  /// Fault-layer activity (zero under the reliable-channel default).
  std::uint64_t fault_dropped_msgs = 0;
  std::uint64_t fault_dropped_bits = 0;
  std::uint64_t fault_delayed_msgs = 0;
  FaultCounters fault_drops_by_cause{};
  /// Recovery-sublayer activity (zero with the layer off). Retransmit bits
  /// are included in total_bits too — this isolates the layer's overhead,
  /// the measured cost of restoring the reliable-channel assumption.
  std::uint64_t recovery_retransmit_msgs = 0;
  std::uint64_t recovery_retransmit_bits = 0;
  std::uint64_t recovery_acked_msgs = 0;
  std::uint64_t recovery_dead_msgs = 0;
  std::uint64_t recovery_dup_msgs = 0;
  std::uint64_t msgs_of(sim::MessageKind k) const {
    return msgs_by_kind[sim::kind_index(k)];
  }
  std::uint64_t bits_of(sim::MessageKind k) const {
    return bits_by_kind[sim::kind_index(k)];
  }

  // Push phase (Lemmas 3-5).
  std::uint64_t sum_candidate_lists = 0;  ///< sum over correct x of |L_x|.
  std::size_t max_candidate_list = 0;
  std::size_t nodes_missing_gstring = 0;  ///< correct x with gstring not in L_x.
  double push_bits_per_node = 0;

  // Responder pressure (Lemma 6 attack surface).
  std::size_t max_deferred_answers = 0;

  // Adaptive-adversary corruption timeline (zero under the paper's
  // non-adaptive model). `t` above stays the *initial* corruption count;
  // runtime flips are accounted here.
  std::size_t runtime_corruptions = 0;
  double first_corruption_time = 0;
  double last_corruption_time = 0;

  // Memory (filled by the SoA scale runner only; 0 on the pointer path).
  // A deterministic logical account of the trial's working set — actor
  // state, event-core high-water mark, sampler tables, metrics — NOT a
  // measured RSS (support/mem.h documents the accounting contract).
  std::uint64_t mem_bytes = 0;
  double mem_bytes_per_node = 0;
};

AerReport run_aer(const AerConfig& config,
                  const StrategyFactory& make_strategy = {},
                  const CorruptPicker& pick_corrupt = {});

/// Runs AER on a prebuilt (possibly externally mutated) world; used by the
/// BA composition where the AE phase dictates initial candidates.
AerReport run_aer_world(AerWorld& world, const StrategyFactory& make_strategy = {});

/// Harness bookkeeping for one runtime corruption (the engines'
/// CorruptionCallback): appends the victim to world.runtime_corrupt; if it
/// had not yet decided it leaves world.correct (it can never decide, so the
/// all-decided stop must not wait for it) and the call returns true — the
/// caller shrinks its decision target by one. A victim that already decided
/// stays in world.correct: its decision stands. Shared by the pointer-path
/// and SoA runners so both account corruption identically.
bool note_runtime_corruption(AerWorld& world, NodeId node);

/// Fills the outcome (decisions vs gstring) and traffic sections of a
/// report from a finished run. Shared with the baseline AE->E protocols so
/// all Figure 1 rows are computed identically.
void fill_outcome_and_traffic(AerReport& report, const AerWorld& world,
                              const TrafficMetrics& metrics);

}  // namespace fba::aer
