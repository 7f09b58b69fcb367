// Outside-in layer spans for the traced pass: forwarding shims around the
// library's public extension points (sim::Actor, adv::Strategy) that time
// each call and count it. The shims only forward — no RNG draw, send or
// decision of their own — so a traced trial reproduces the untraced result
// bit for bit, which fba_bench checks on every run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>

#include "adversary/adversary.h"
#include "aer/node.h"
#include "net/node.h"

namespace fba::bench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Actor callbacks the traced pass attributes time to. kOther catches kinds
/// the AER actor never receives, so the loop self-time stays exact.
enum Handler : std::size_t {
  kStart,
  kPush,
  kPoll,
  kPull,
  kFw1,
  kFw2,
  kAnswer,
  kRound,
  kTimer,
  kOther,
  kNumHandlers,
};

/// Suffixes of aer.handler_ms.* / aer.handler_calls.*, indexed by Handler
/// (kOther is folded into the loop totals but not printed).
inline constexpr const char* kHandlerNames[kOther] = {
    "start", "push", "poll", "pull", "fw1", "fw2", "answer", "round", "timer"};

/// One trial's span totals. Strategy callbacks can run inside an actor
/// handler (send_from feeds the full-information tap), so strategy time
/// is split by whether a handler was open: the loop's self time is the
/// engine run minus handler time minus strategy time outside handlers.
struct SpanTotals {
  std::array<double, kNumHandlers> handler_ms{};
  std::array<std::uint64_t, kNumHandlers> handler_calls{};
  double strategy_ms = 0;
  double strategy_outside_ms = 0;
  std::uint64_t observe_calls = 0;
  std::uint64_t deliver_calls = 0;
  std::uint64_t deliveries = 0;
  bool in_handler = false;

  double handler_total_ms() const {
    double sum = 0;
    for (double v : handler_ms) sum += v;
    return sum;
  }
};

/// Forwards every Actor callback to a pooled AerNode and charges the call
/// to its handler slot in `spans`.
class TimedActor final : public sim::Actor {
 public:
  TimedActor(aer::AerNode* node, SpanTotals* spans)
      : node_(node), spans_(spans) {}
  // Engines hold the shim's address.
  TimedActor(const TimedActor&) = delete;
  TimedActor& operator=(const TimedActor&) = delete;

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Envelope& env) override;
  void on_round(sim::Context& ctx, Round round) override;
  void on_timer(sim::Context& ctx, std::uint64_t token) override;

 private:
  template <typename Call>
  void timed(Handler h, Call&& call);

  aer::AerNode* node_;
  SpanTotals* spans_;
};

/// Forwards every Strategy callback to the workload's real strategy.
class TimedStrategy final : public adv::Strategy {
 public:
  TimedStrategy(std::unique_ptr<adv::Strategy> inner, SpanTotals* spans)
      : inner_(std::move(inner)), spans_(spans) {}
  // Engines hold the shim's address.
  TimedStrategy(const TimedStrategy&) = delete;
  TimedStrategy& operator=(const TimedStrategy&) = delete;

  void on_setup(adv::AdvContext& ctx) override;
  void on_round(adv::AdvContext& ctx, Round round, bool rushing) override;
  void on_observe(adv::AdvContext& ctx, const sim::Envelope& env) override;
  void on_deliver_to_corrupt(adv::AdvContext& ctx,
                             const sim::Envelope& env) override;
  SimTime choose_delay(adv::AdvContext& ctx, const sim::Envelope& env) override;

 private:
  template <typename Call>
  auto timed(Call&& call);

  std::unique_ptr<adv::Strategy> inner_;
  SpanTotals* spans_;
};

}  // namespace fba::bench
