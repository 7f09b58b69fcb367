// Engine timers: sync timers fire at ceil rounds, async ones at exact times.
#include <gtest/gtest.h>

#include "net/async_engine.h"
#include "net/sync_engine.h"

namespace fba {
namespace {

// ----- engine timers ---------------------------------------------------------------

sim::Wire timer_wire() {
  sim::Wire w;
  w.node_id_bits = 8;
  w.fixed_string_bits = 8;
  return w;
}

class TimerActor final : public sim::Actor {
 public:
  void on_start(sim::Context& ctx) override {
    ctx.schedule_timer(1.0, 7);
    ctx.schedule_timer(2.5, 8);
  }
  void on_message(sim::Context&, const sim::Envelope&) override {}
  void on_timer(sim::Context& ctx, std::uint64_t token) override {
    fired.emplace_back(token, ctx.now());
  }
  std::vector<std::pair<std::uint64_t, double>> fired;
};

TEST(TimerTest, SyncTimersFireAtCeilRounds) {
  sim::SyncConfig cfg;
  cfg.n = 2;
  sim::SyncEngine engine(cfg);
  const sim::Wire wire = timer_wire();
  engine.set_wire(&wire);
  auto* actor = new TimerActor();
  engine.set_actor(0, std::unique_ptr<sim::Actor>(actor));
  engine.set_actor(1, std::make_unique<TimerActor>());
  engine.run([] { return false; });
  ASSERT_EQ(actor->fired.size(), 2u);
  EXPECT_EQ(actor->fired[0].first, 7u);
  EXPECT_DOUBLE_EQ(actor->fired[0].second, 1.0);
  EXPECT_EQ(actor->fired[1].first, 8u);
  EXPECT_DOUBLE_EQ(actor->fired[1].second, 3.0);  // ceil(2.5)
}

TEST(TimerTest, AsyncTimersFireAtExactTime) {
  sim::AsyncConfig cfg;
  cfg.n = 2;
  sim::AsyncEngine engine(cfg);
  const sim::Wire wire = timer_wire();
  engine.set_wire(&wire);
  auto* actor = new TimerActor();
  engine.set_actor(0, std::unique_ptr<sim::Actor>(actor));
  engine.set_actor(1, std::make_unique<TimerActor>());
  engine.run([] { return false; });
  ASSERT_EQ(actor->fired.size(), 2u);
  EXPECT_DOUBLE_EQ(actor->fired[0].second, 1.0);
  EXPECT_DOUBLE_EQ(actor->fired[1].second, 2.5);
}

}  // namespace
}  // namespace fba
