// Structure-of-arrays AER state: the million-node scale path.
//
// AerNode keeps each participant's protocol state in its own object — per
// node, five flat hash tables (one inside its RelayState) and a handful of
// vectors. At n = 10^5..10^6 nodes per trial, those per-object fixed costs
// (container headers, minimum table capacities) dominate memory and thrash
// the cache: the hot path walks a million scattered objects.
//
// SoaAerState holds the SAME protocol state for all nodes at once, one
// dense array (or shared open-addressed table) per field:
//
//   - scalar per-node fields (initial / current / decided candidate,
//     decision flag, candidate-list length, deferred-answer peak) are flat
//     arrays indexed by NodeId;
//   - the per-string tallies (push tallies, my-pulls, answer counts, L_x
//     membership) live in ONE shared FlatMap64 each, keyed by the packed
//     (node, string) pair — a single table sized to the run instead of n
//     minimum-capacity tables;
//   - each tally credits its senders in a 64-bit mask, as AerNode's do
//     (aer::credit);
//   - the relay roles stay per node: one RelayState each (aer/relay_state.h),
//     the same store AerNode uses, so both actors serve retained requests
//     through the one RelayState::serve and its pinned send order.
//
// One SoaAerState object is also the single sim::Actor registered for every
// correct node (handlers key off ctx.self()), and the sim::BurstSource that
// re-expands Fw1 burst descriptors on the scale path (see
// EventQueue::push_burst): instead of queueing the d^2 copies of each
// forwarded request, forward_pull charges their traffic at send time and
// queues one descriptor; the engine calls expand() at delivery time, which
// enumerates the same (w, h) pairs in the same order.
//
// Handler-for-handler, message-for-message, RNG-draw-for-RNG-draw, the SoA
// path replicates aer/node.cpp exactly; tests/scale_test.cpp pins
// fingerprint equality of whole Aggregates against the pointer path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "aer/protocol.h"
#include "aer/relay_state.h"
#include "net/async_engine.h"
#include "net/sync_engine.h"
#include "support/flat_map.h"
#include "support/mem.h"

namespace fba::aer {

class SoaAerState final : public sim::Actor, public sim::BurstSource {
 public:
  SoaAerState() = default;

  /// Re-initializes for a fresh trial and registers this object as the
  /// actor of every correct node of `engine` (whose corrupt set must
  /// already be installed). Dense storage is reused across trials.
  void reset(const AerShared* shared, const std::vector<StringId>& initial,
             sim::EngineBase& engine);

  /// Enables Fw1 burst descriptors. Only legal on the synchronous engines
  /// with no adversary strategy and no fault plan installed (the burst path
  /// bypasses the per-send observe/fault taps, which must therefore be
  /// no-ops). `engine` must outlive the run and have this object installed
  /// as its burst source.
  void enable_bursts(sim::SyncEngine* engine) { burst_engine_ = engine; }

  // ----- sim::Actor (one object serves every correct node) -----------------
  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Envelope& env) override;

  // ----- sim::BurstSource ---------------------------------------------------
  void expand(const sim::Envelope& burst, sim::SyncEngine& engine) override;

  // ----- post-run introspection (mirrors AerNode's) -------------------------
  bool has_decided(NodeId id) const { return has_decided_[id] != 0; }
  StringId decided_value(NodeId id) const { return decided_[id]; }
  std::size_t candidate_list_size(NodeId id) const {
    return candidate_count_[id];
  }
  bool has_candidate(NodeId id, StringId s) const {
    return in_list_.contains(pack_ns(id, s));
  }
  std::size_t deferred_peak(NodeId id) const { return deferred_peak_[id]; }
  std::size_t answers_sent(NodeId id, StringId s) const {
    const std::uint32_t* count = answer_counts_.find(pack_ns(id, s));
    return count == nullptr ? 0 : *count;
  }

  /// Charges this state's memory to `mem` (support/mem.h rules: logical
  /// sizes and capacity-as-a-function-of-count only, so warm reuse reports
  /// the same bytes as a cold run).
  void charge_mem(support::MemBudget& mem) const;

 private:
  // -- handlers: faithful ports of AerNode's, with `self` explicit ----------
  void handle_push(sim::Context& ctx, NodeId self, NodeId from,
                   const sim::Message& m);
  void handle_poll(sim::Context& ctx, NodeId self, NodeId from,
                   const sim::Message& m);
  void handle_pull(sim::Context& ctx, NodeId self, NodeId from,
                   const sim::Message& m);
  void handle_fw1(sim::Context& ctx, NodeId self, NodeId from,
                  const sim::Message& m);
  void handle_fw2(sim::Context& ctx, NodeId self, NodeId from,
                  const sim::Message& m);
  void handle_answer(sim::Context& ctx, NodeId self, NodeId from,
                     const sim::Message& m);

  void accept_candidate(sim::Context& ctx, NodeId self, StringId s);
  void start_pull(sim::Context& ctx, NodeId self, StringId s);
  void emit_answer(sim::Context& ctx, NodeId self, NodeId x, StringId s);
  void decide(sim::Context& ctx, NodeId self, StringId s);
  bool over_budget(NodeId self, StringId s) const;
  void forward_pull(sim::Context& ctx, NodeId self, NodeId x, StringId s,
                    PollLabel r);

  static std::uint64_t pack_ns(NodeId node, StringId s) {
    return (static_cast<std::uint64_t>(node) << 32) | s;
  }

  const AerShared* shared_ = nullptr;
  std::size_t n_ = 0;
  sim::SyncEngine* burst_engine_ = nullptr;  ///< non-null => bursts on.

  // -- dense per-node scalars -----------------------------------------------
  std::vector<StringId> initial_;
  std::vector<StringId> current_;
  std::vector<StringId> decided_;
  std::vector<std::uint8_t> has_decided_;
  std::vector<std::uint32_t> candidate_count_;  ///< |L_x| (list not stored).
  std::vector<std::uint32_t> deferred_peak_;

  // -- shared lookup-only tables, keyed by packed (node, string) ------------
  struct PushTally {
    std::uint64_t counted = 0;
    std::uint32_t slots = 0;
  };
  support::FlatMap64<PushTally> push_tallies_;
  support::FlatSet64 in_list_;

  struct MyPull {
    PollLabel r = 0;
    std::uint64_t answered = 0;
    std::uint32_t slots = 0;
  };
  support::FlatMap64<MyPull> my_pulls_;
  mutable support::FlatMap64<std::uint32_t> answer_counts_;

  // -- per-node containers whose behavior depends on per-node history -------
  std::vector<RelayState> relay_;
  std::vector<std::vector<std::pair<NodeId, StringId>>> deferred_;

  std::vector<NodeId> targets_scratch_;
};

/// Reusable engines + state for back-to-back SoA trials (mirrors RunArena).
struct SoaArena {
  std::optional<sim::SyncEngine> sync;
  std::optional<sim::AsyncEngine> async;
  SoaAerState state;
};

struct SoaRunOptions {
  /// Queue Fw1 fan-outs as burst descriptors. Applied only when eligible:
  /// synchronous model, no adversary strategy, no fault plan (the burst
  /// path skips the per-send observe/fault taps). Ineligible runs silently
  /// fall back to per-send queueing — results are identical either way.
  bool bursts = true;
  /// Invoked after every executed sync round with (round, events pending) —
  /// in-trial progress for runs where one trial takes minutes.
  std::function<void(Round, std::size_t)> round_progress;
};

/// Runs AER on a prebuilt world through the SoA state, on the engines of
/// `arena`, by way of run_on_engines (aer/runner.h): the one SoA state is
/// every correct node's actor, and on the sync engines `opts` adds the burst
/// gate and the round progress. Produces the same AerReport as
/// run_aer_world / run_aer_world_arena — bit-identical metrics and
/// decisions — plus the memory section (mem_bytes, mem_bytes_per_node),
/// which only this runner fills.
AerReport run_aer_world_soa(AerWorld& world, SoaArena& arena,
                            const SoaRunOptions& opts = {},
                            const StrategyFactory& make_strategy = {});

}  // namespace fba::aer
