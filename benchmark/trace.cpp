#include "trace.h"

#include <type_traits>
#include <utility>

namespace fba::bench {

namespace {

Handler handler_of(sim::MessageKind kind) {
  switch (kind) {
    case sim::MessageKind::kPush: return kPush;
    case sim::MessageKind::kPoll: return kPoll;
    case sim::MessageKind::kPull: return kPull;
    case sim::MessageKind::kFw1: return kFw1;
    case sim::MessageKind::kFw2: return kFw2;
    case sim::MessageKind::kAnswer: return kAnswer;
    default: return kOther;
  }
}

}  // namespace

template <typename Call>
void TimedActor::timed(Handler h, Call&& call) {
  spans_->in_handler = true;
  const auto t0 = Clock::now();
  call();
  spans_->handler_ms[h] += ms_since(t0, Clock::now());
  ++spans_->handler_calls[h];
  spans_->in_handler = false;
}

void TimedActor::on_start(sim::Context& ctx) {
  timed(kStart, [&] { node_->on_start(ctx); });
}

void TimedActor::on_message(sim::Context& ctx, const sim::Envelope& env) {
  ++spans_->deliveries;
  timed(handler_of(env.msg.kind), [&] { node_->on_message(ctx, env); });
}

void TimedActor::on_round(sim::Context& ctx, Round round) {
  timed(kRound, [&] { static_cast<sim::Actor*>(node_)->on_round(ctx, round); });
}

void TimedActor::on_timer(sim::Context& ctx, std::uint64_t token) {
  timed(kTimer, [&] { static_cast<sim::Actor*>(node_)->on_timer(ctx, token); });
}

template <typename Call>
auto TimedStrategy::timed(Call&& call) {
  const bool nested = spans_->in_handler;
  const auto t0 = Clock::now();
  auto finish = [&] {
    const double ms = ms_since(t0, Clock::now());
    spans_->strategy_ms += ms;
    if (!nested) spans_->strategy_outside_ms += ms;
  };
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    finish();
  } else {
    auto result = call();
    finish();
    return result;
  }
}

void TimedStrategy::on_setup(adv::AdvContext& ctx) {
  timed([&] { inner_->on_setup(ctx); });
}

void TimedStrategy::on_round(adv::AdvContext& ctx, Round round, bool rushing) {
  timed([&] { inner_->on_round(ctx, round, rushing); });
}

void TimedStrategy::on_observe(adv::AdvContext& ctx, const sim::Envelope& env) {
  ++spans_->observe_calls;
  timed([&] { inner_->on_observe(ctx, env); });
}

void TimedStrategy::on_deliver_to_corrupt(adv::AdvContext& ctx,
                                          const sim::Envelope& env) {
  ++spans_->deliver_calls;
  ++spans_->deliveries;
  timed([&] { inner_->on_deliver_to_corrupt(ctx, env); });
}

SimTime TimedStrategy::choose_delay(adv::AdvContext& ctx,
                                   const sim::Envelope& env) {
  return timed([&] { return inner_->choose_delay(ctx, env); });
}

}  // namespace fba::bench
