// Synchronous round-based engine: a thin timing policy over EventQueue.
//
// Timing model (Section 2.1): a message sent during round r is delivered
// during round r+1. Each round:
//   1. deliver the previous round's messages to their targets;
//   2. (non-rushing) the adversary acts for this round, blind to correct
//      traffic of the same round;
//   3. correct nodes take their round step (on_round), queueing sends;
//   4. (rushing) the adversary acts now, having observed step 3's sends.
// Everything queued in steps 2-4 forms the next round's deliveries.
//
// The round structure maps onto the shared EventQueue as priority classes
// within a round timestamp: against a rushing adversary, corrupt-origin
// messages delivered first (a rushing adversary wins same-round delivery
// races — it controls when in the round its messages leave), then correct
// traffic in send order, then due timers in schedule order.
#pragma once

#include <functional>
#include <vector>

#include "net/event_queue.h"
#include "net/network.h"

namespace fba::sim {

struct SyncConfig {
  std::size_t n = 0;
  std::uint64_t seed = 1;
  bool rushing_adversary = true;
  Round max_rounds = 10000;
  /// Round-scheduled protocols (the AE tournament's phase king) progress on
  /// the round clock even through silent rounds (e.g. a corrupt king says
  /// nothing): quiescence only stops the run after this many rounds.
  Round min_rounds = 0;
};

struct SyncResult {
  Round rounds = 0;       ///< rounds executed before stopping.
  bool completed = false; ///< the done-predicate fired.
  bool quiescent = false; ///< stopped because no messages were in flight.
};

class SyncEngine;

/// Re-expands burst descriptors (EventQueue::push_burst) at delivery time.
/// The producer that queued the burst knows how to enumerate its individual
/// deliveries in the exact order the per-send path would have queued them;
/// it hands each one to SyncEngine::deliver_expanded.
class BurstSource {
 public:
  virtual ~BurstSource() = default;
  virtual void expand(const Envelope& burst, SyncEngine& engine) = 0;
};

class SyncEngine : public EngineBase {
 public:
  explicit SyncEngine(const SyncConfig& config);

  /// Re-initializes for a fresh run with construction semantics, keeping
  /// the event ring / chunk pool / metrics storage (trial-arena reuse).
  void reset(const SyncConfig& config);

  double now() const override {
    return static_cast<double>(current_round_);
  }
  Round current_round() const { return current_round_; }
  /// Pending-event high-water mark since the last reset.
  std::size_t queue_peak() const { return queue_.peak_size(); }
  /// Bytes those pending events occupied at the mark (memory accounting).
  std::size_t queue_peak_bytes() const { return queue_.peak_bytes(); }

  /// Runs rounds until `done` returns true, the network goes quiescent, or
  /// max_rounds elapse. `done` is evaluated at the end of every round.
  SyncResult run(const std::function<bool()>& done);

  /// Timers fire at round current + ceil(delay), before on_round.
  void queue_timer(NodeId node, double delay, std::uint64_t token) override;

  /// Installs the expander for burst descriptors (non-owning; reset()
  /// clears it). Required before any queue_burst call.
  void set_burst_source(BurstSource* source) { burst_source_ = source; }

  /// Queues one burst descriptor for next-round delivery, with the same
  /// horizon cull as queue_envelope. The caller charges metrics for the
  /// expanded sends itself (send-time charging, like EngineBase::send_from);
  /// this only schedules the descriptor. env.src picks the priority lane.
  void queue_burst(const Envelope& env);

  /// Delivery entry point for BurstSource::expand: routes one expanded
  /// envelope through the normal delivery path (corrupt-destination tap or
  /// actor on_message).
  void deliver_expanded(const Envelope& env) { deliver(env); }

  /// Per-round progress hook (round just executed, events still pending) —
  /// lets long single-point scale trials report in-trial progress instead
  /// of going silent for minutes. Cleared by reset().
  using RoundProgress = std::function<void(Round, std::size_t)>;
  void set_round_progress(RoundProgress cb) { round_progress_ = std::move(cb); }

 private:
  void queue_envelope(const Envelope& env, RecoveryTag rec) override;
  /// Recovery retransmit timers ride the timer lane at round
  /// current + max(1, ceil(delay)) under the sentinel kRecoveryTimerNode.
  void queue_recovery_timer(double delay, std::uint64_t token) override;
  /// Data sent round r delivers in r+1; its ack delivers in r+2, in the
  /// message lane — one round before a 2-round timer fires in the timer
  /// lane of r+2. Anything below 2 could beat a loss-free ack.
  double recovery_rto_floor() const override { return 2.0; }

  SyncConfig config_;
  Round current_round_ = 0;
  EventQueue queue_;
  /// Sends/timers culled because they could only fire after max_rounds.
  /// They are fully charged (metrics, adversary tap) but never queued;
  /// nonzero culls suppress the quiescence stop so round counts match an
  /// engine that kept them.
  std::uint64_t beyond_horizon_ = 0;
  BurstSource* burst_source_ = nullptr;  ///< non-owning.
  RoundProgress round_progress_;
};

}  // namespace fba::sim
