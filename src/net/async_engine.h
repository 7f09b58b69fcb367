// Asynchronous event-driven engine: a thin timing policy over EventQueue.
//
// Timing model: the adversary assigns every message a delay in (0, 1] —
// delays are normalized so the maximum is one time unit, the standard
// measure under which asynchronous time complexity is reported. Delivery is
// reliable: every message is eventually delivered (the delay bound enforces
// it). The adversary is inherently rushing here: it observes each send
// before choosing its delay and can have corrupt nodes react immediately.
//
// All pending events (deliveries and timers) share one priority class:
// processing order is (time, push order), FIFO among equal timestamps.
#pragma once

#include <functional>

#include "net/event_queue.h"
#include "net/network.h"

namespace fba::sim {

struct AsyncConfig {
  std::size_t n = 0;
  std::uint64_t seed = 1;
  SimTime max_time = 10000.0;
  /// Messages processed between done-predicate evaluations.
  std::size_t done_check_stride = 64;
};

struct AsyncResult {
  SimTime time = 0;       ///< sim time when the run stopped.
  bool completed = false; ///< the done-predicate fired.
  bool quiescent = false; ///< event queue drained.
  std::uint64_t deliveries = 0;   ///< message deliveries only.
  std::uint64_t timer_fires = 0;  ///< timer callbacks, counted separately.
};

class AsyncEngine : public EngineBase {
 public:
  explicit AsyncEngine(const AsyncConfig& config);

  /// Re-initializes for a fresh run with construction semantics, keeping
  /// the event slab / metrics storage (trial-arena reuse).
  void reset(const AsyncConfig& config);

  double now() const override { return current_time_; }
  /// Pending-event high-water mark since the last reset.
  std::size_t queue_peak() const { return queue_.peak_size(); }
  /// Bytes those pending events occupied at the mark (memory accounting).
  std::size_t queue_peak_bytes() const { return queue_.peak_bytes(); }

  AsyncResult run(const std::function<bool()>& done);

  /// Timers fire at now + delay; not subject to adversary scheduling.
  void queue_timer(NodeId node, double delay, std::uint64_t token) override;

 private:
  void queue_envelope(const Envelope& env, RecoveryTag rec) override;
  void queue_recovery_timer(double delay, std::uint64_t token) override;
  /// Delays are clamped to (0, 1], so a loss-free round trip takes at most
  /// 2.0 time units; the extra half-unit margin keeps a floor-RTO timer
  /// strictly after any same-instant ack tie.
  double recovery_rto_floor() const override { return 2.5; }

  AsyncConfig config_;
  SimTime current_time_ = 0;
  EventQueue queue_;
  /// Events culled because they would fire after max_time: charged (and the
  /// adversary's delay draw consumed) but never queued. Nonzero culls keep
  /// the run from reporting quiescence it would not otherwise reach.
  std::uint64_t beyond_horizon_ = 0;
};

}  // namespace fba::sim
