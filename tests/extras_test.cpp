// Tests for the later additions: histograms and engine timers.
#include <gtest/gtest.h>

#include "net/async_engine.h"
#include "net/sync_engine.h"
#include "support/histogram.h"

namespace fba {
namespace {

// ----- Histogram ------------------------------------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h(0, 10, 10);
  for (double v : {1.0, 2.0, 2.0, 3.0, 8.0}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), 16.0 / 5);
}

TEST(HistogramTest, QuantilesAreOrderedAndBracketed) {
  Histogram h(0, 100, 50);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) h.add(rng.uniform() * 100);
  const double q10 = h.quantile(0.10);
  const double q50 = h.quantile(0.50);
  const double q99 = h.quantile(0.99);
  EXPECT_LE(q10, q50);
  EXPECT_LE(q50, q99);
  EXPECT_NEAR(q50, 50.0, 5.0);
  EXPECT_NEAR(q99, 99.0, 5.0);
}

TEST(HistogramTest, OverflowAndUnderflowCaptured) {
  Histogram h(0, 1, 4);
  h.add(-5);
  h.add(99);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5);
  EXPECT_DOUBLE_EQ(h.max(), 99);
}

TEST(HistogramTest, RenderMentionsRangeAndCount) {
  Histogram h(0, 4, 8);
  h.add(1);
  h.add(1.2);
  const std::string text = h.render();
  EXPECT_NE(text.find("n=2"), std::string::npos);
}

TEST(HistogramTest, RejectsBadConfig) {
  EXPECT_THROW(Histogram(3, 3, 4), ConfigError);
  EXPECT_THROW(Histogram(0, 1, 0), ConfigError);
  Histogram h(0, 1, 4);
  EXPECT_THROW(h.quantile(1.5), ConfigError);
}

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
