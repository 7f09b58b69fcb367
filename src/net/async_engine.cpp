#include "net/async_engine.h"

#include <algorithm>

#include "adversary/adversary.h"

namespace fba::sim {

AsyncEngine::AsyncEngine(const AsyncConfig& config)
    : EngineBase(config.n, config.seed),
      config_(config),
      queue_(EventQueue::Mode::kCalendar) {}

void AsyncEngine::reset(const AsyncConfig& config) {
  reset_base(config.n, config.seed);
  config_ = config;
  current_time_ = 0;
  queue_.clear();
  beyond_horizon_ = 0;
}

void AsyncEngine::queue_envelope(const Envelope& env, RecoveryTag rec) {
  SimTime delay;
  if (strategy_ != nullptr) {
    adv::AdvContext actx(*this);
    delay = strategy_->choose_delay(actx, env);
    // Reliability: the adversary cannot hold a message past the bound, nor
    // deliver into the past.
    delay = std::clamp(delay, 1e-9, 1.0);
  } else {
    // Same reliability clamp as the adversary path: the null strategy must
    // honor the normalized-delay model too (uniform_positive() is already in
    // (0, 1], but the clamp keeps both paths identical if that ever drifts).
    delay = std::clamp(strategy_rng_.uniform_positive(), 1e-9, 1.0);
  }
  // Fault-layer jitter stacks on top of the adversary's delay and may
  // exceed the normalized 1.0 bound — faulty links break the reliability
  // assumption by design.
  const SimTime at = current_time_ + delay + env.fault_delay;
  if (at > config_.max_time) {  // horizon culling: could never be processed
    ++beyond_horizon_;
    return;
  }
  queue_.push_message(at, 0, env, rec);
}

void AsyncEngine::queue_recovery_timer(double delay, std::uint64_t token) {
  const SimTime at = current_time_ + delay;
  if (at > config_.max_time) {
    ++beyond_horizon_;
    return;
  }
  queue_.push_timer(at, 0, kRecoveryTimerNode, token);
}

void AsyncEngine::queue_timer(NodeId node, double delay, std::uint64_t token) {
  FBA_REQUIRE(delay > 0, "timer delay must be positive");
  const SimTime at = current_time_ + delay;
  if (at > config_.max_time) {
    ++beyond_horizon_;
    return;
  }
  queue_.push_timer(at, 0, node, token);
}

AsyncResult AsyncEngine::run(const std::function<bool()>& done) {
  AsyncResult result;

  strategy_setup();
  for (NodeId id = 0; id < n_; ++id) start_actor(id);

  std::size_t since_check = 0;
  while (!queue_.empty()) {
    if (++since_check >= config_.done_check_stride) {
      since_check = 0;
      if (done()) {
        result.completed = true;
        break;
      }
    }
    const EventQueue::Event next = queue_.pop();
    // Every queue_* path culls events past the horizon before pushing.
    FBA_ASSERT(next.at <= config_.max_time, "queued event past max_time");
    current_time_ = next.at;
    const std::uint64_t decisions_before = decisions_reported();
    if (next.is_timer) {
      ++result.timer_fires;
      if (next.timer_node == kRecoveryTimerNode) {
        on_recovery_timeout(next.timer_token);
      } else {
        fire_timer(next.timer_node, next.timer_token);
      }
    } else {
      ++result.deliveries;
      deliver(next.env, next.rec());
    }
    // A delivery that fired a decision callback may have been the last one
    // needed: re-check immediately instead of processing up to
    // done_check_stride - 1 further events, which would overstate the
    // reported completion time.
    if (decisions_reported() != decisions_before && done()) {
      result.completed = true;
      break;
    }
  }

  if (queue_.empty() && beyond_horizon_ == 0) result.quiescent = true;
  if (!result.completed && done()) result.completed = true;
  result.time = current_time_;
  return result;
}

}  // namespace fba::sim
