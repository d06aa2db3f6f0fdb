#include "core/global_optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "obs/trace_sink.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pulse::core {
namespace {

/// Two families with distinct accuracy ladders; variants 300/600 MB (A) and
/// 200/800 MB (B). A's high variant is worth Ai = 0.30, B's only 0.05.
models::ModelZoo two_family_zoo() {
  models::ModelZoo zoo;
  zoo.add_family(models::ModelFamily(
      "A", "t", "d",
      {models::ModelVariant{"a-low", 1.0, 3.0, 60.0, 300.0},
       models::ModelVariant{"a-high", 2.0, 6.0, 90.0, 600.0}}));
  zoo.add_family(models::ModelFamily(
      "B", "t", "d",
      {models::ModelVariant{"b-low", 1.0, 3.0, 80.0, 200.0},
       models::ModelVariant{"b-high", 2.0, 6.0, 85.0, 800.0}}));
  return zoo;
}

class GlobalOptimizerTest : public ::testing::Test {
 protected:
  GlobalOptimizerTest()
      : zoo_(two_family_zoo()),
        deployment_(sim::Deployment::round_robin(zoo_, 2)),
        schedule_(deployment_, 100),
        trackers_(2, InterArrivalTracker()) {}

  static GlobalOptimizer::Config config_with_threshold(double threshold) {
    GlobalOptimizer::Config c;
    c.peak.memory_threshold = threshold;
    c.peak.local_window = 4;
    return c;
  }

  /// Schedules variants (a_variant/b_variant, kNoVariant to skip) over
  /// [from, to) and runs the optimizer for each of those minutes, so the
  /// demand history is built exactly as in a live simulation.
  void warm(GlobalOptimizer& opt, trace::Minute from, trace::Minute to, int a_variant,
            int b_variant) {
    for (trace::Minute m = from; m < to; ++m) {
      schedule_.set(0, m, a_variant);
      schedule_.set(1, m, b_variant);
      opt.flatten_peak(m, schedule_, trackers_);
    }
  }

  models::ModelZoo zoo_;
  sim::Deployment deployment_;
  sim::KeepAliveSchedule schedule_;
  std::vector<InterArrivalTracker> trackers_;
};

TEST_F(GlobalOptimizerTest, SteadyDemandNeverPeaks) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 20, 1, 1);
  EXPECT_EQ(opt.total_downgrades(), 0u);
  EXPECT_EQ(schedule_.variant_at(0, 19), 1);
  EXPECT_EQ(schedule_.variant_at(1, 19), 1);
}

TEST_F(GlobalOptimizerTest, PeakIsFlattenedToThreshold) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 0, 0);  // steady demand 500 MB
  // Spike: both high -> 1400 MB > 550 MB threshold.
  schedule_.set(0, 10, 1);
  schedule_.set(1, 10, 1);
  const std::size_t downgrades = opt.flatten_peak(10, schedule_, trackers_);
  EXPECT_GT(downgrades, 0u);
  EXPECT_LE(schedule_.memory_at(10), 550.0);
}

TEST_F(GlobalOptimizerTest, LowestUtilityDowngradedFirst) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 1, 0);  // steady 800 MB
  schedule_.set(0, 10, 1);
  schedule_.set(1, 10, 1);  // 1400 MB > 880 MB
  opt.flatten_peak(10, schedule_, trackers_);
  // B's high variant only buys 0.05 accuracy vs A's 0.30: B goes first,
  // and one downgrade (1400 -> 800) already flattens the peak.
  EXPECT_EQ(opt.priority().downgrade_count(1), 1u);
  EXPECT_EQ(opt.priority().downgrade_count(0), 0u);
  EXPECT_EQ(schedule_.variant_at(1, 10), 0);
  EXPECT_EQ(schedule_.variant_at(0, 10), 1);
}

TEST_F(GlobalOptimizerTest, PriorityRotatesTheBurden) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 1, 0);
  schedule_.set(0, 10, 1);
  schedule_.set(1, 10, 1);
  opt.flatten_peak(10, schedule_, trackers_);
  ASSERT_EQ(opt.priority().downgrade_count(1), 1u);  // B bore the first peak

  warm(opt, 11, 20, 1, 0);  // steady again
  schedule_.set(0, 20, 1);
  schedule_.set(1, 20, 1);
  opt.flatten_peak(20, schedule_, trackers_);
  // Now Uv(B) = 0.05 + 1.0 (priority) > Uv(A) = 0.30: A is chosen first —
  // the burden rotates instead of hitting B forever.
  EXPECT_GE(opt.priority().downgrade_count(0), 1u);
  EXPECT_EQ(schedule_.variant_at(0, 20), 0);
}

TEST_F(GlobalOptimizerTest, InvocationProbabilityProtectsLikelyFunctions) {
  // B is invoked every 2 minutes (last at minute 8): its Ip ~ 1 during the
  // peak at minute 9 outweighs A's larger accuracy improvement.
  for (trace::Minute t = 0; t <= 8; t += 2) trackers_[1].record(t);
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 9, 0, 1);  // steady 1100 MB
  schedule_.set(0, 9, 1);
  schedule_.set(1, 9, 1);  // 1400 MB > 1210 MB
  opt.flatten_peak(9, schedule_, trackers_);
  EXPECT_EQ(opt.priority().downgrade_count(0), 1u);
  EXPECT_EQ(opt.priority().downgrade_count(1), 0u);
  EXPECT_EQ(schedule_.variant_at(1, 9), 1);  // the likely-invoked B survives
}

TEST_F(GlobalOptimizerTest, DropsEverythingWhenPeakHuge) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  // Steady demand is only A's low variant (300 MB).
  for (trace::Minute m = 0; m < 10; ++m) {
    schedule_.set(0, m, 0);
    opt.flatten_peak(m, schedule_, trackers_);
  }
  // Spike far beyond anything the threshold allows.
  schedule_.set(0, 10, 1);
  schedule_.set(1, 10, 1);
  const std::size_t downgrades = opt.flatten_peak(10, schedule_, trackers_);
  EXPECT_GE(downgrades, 3u);
  EXPECT_LE(schedule_.memory_at(10), 330.0);
}

TEST_F(GlobalOptimizerTest, NoRatchetAfterFlattening) {
  // The demand-history property: once a spike has been seen (and
  // flattened), an identical spike the next minute is no longer a peak —
  // the prior tracks demand, not the flattened level.
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 0, 0);
  schedule_.set(0, 10, 1);
  schedule_.set(1, 10, 1);
  ASSERT_GT(opt.flatten_peak(10, schedule_, trackers_), 0u);

  schedule_.set(0, 11, 1);
  schedule_.set(1, 11, 1);  // same 1400 MB demand again
  EXPECT_EQ(opt.flatten_peak(11, schedule_, trackers_), 0u);
  EXPECT_EQ(schedule_.variant_at(0, 11), 1);
  EXPECT_EQ(schedule_.variant_at(1, 11), 1);
}

TEST_F(GlobalOptimizerTest, DowngradeAffectsRestOfWindow) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 1, 0);
  schedule_.set(0, 10, 1);
  schedule_.fill(1, 10, 20, 1);
  opt.flatten_peak(10, schedule_, trackers_);
  for (trace::Minute m = 10; m < 20; ++m) {
    EXPECT_EQ(schedule_.variant_at(1, m), 0) << "minute " << m;
  }
}

TEST_F(GlobalOptimizerTest, DemandHistoryRecordsPreFlattenMemory) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 0, 0);  // steady 500 MB
  schedule_.set(0, 10, 0);
  schedule_.set(1, 10, 1);  // 1100 MB demand
  ASSERT_GT(opt.flatten_peak(10, schedule_, trackers_), 0u);
  ASSERT_LE(schedule_.memory_at(10), 550.0);
  // Minute 11's prior is minute 10's demand before flattening, not the
  // flattened memory the platform held.
  EXPECT_EQ(opt.detector().minutes_seen(), 11);
  EXPECT_DOUBLE_EQ(opt.detector().prior_memory(), 1100.0);
  schedule_.set(0, 11, 1);
  schedule_.set(1, 11, 1);  // 1400 MB > 1210 MB
  const std::optional<double> prior = opt.detect_peak(11, schedule_);
  ASSERT_TRUE(prior.has_value());
  EXPECT_DOUBLE_EQ(*prior, 1100.0);
  EXPECT_DOUBLE_EQ(opt.detector().prior_memory(), 1400.0);
}

TEST_F(GlobalOptimizerTest, DetectPeakTakesMinutesInOrder) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  EXPECT_THROW((void)opt.detect_peak(1, schedule_), std::logic_error);  // skips minute 0
  warm(opt, 0, 3, 0, 0);
  EXPECT_THROW((void)opt.detect_peak(2, schedule_), std::logic_error);  // repeats minute 2
  EXPECT_THROW((void)opt.flatten_peak(5, schedule_, trackers_), std::logic_error);
  EXPECT_EQ(opt.detector().minutes_seen(), 3);
  EXPECT_FALSE(opt.detect_peak(3, schedule_).has_value());
}

TEST_F(GlobalOptimizerTest, ScoreComponentsInRange) {
  trackers_[0].record(0);
  trackers_[0].record(3);
  trackers_[0].record(6);
  GlobalOptimizer opt(2, GlobalOptimizer::Config{});
  for (std::size_t v = 0; v < 2; ++v) {
    const UtilityComponents u = opt.score(0, v, 7, deployment_, trackers_);
    EXPECT_GE(u.accuracy_improvement, 0.0);
    EXPECT_LE(u.accuracy_improvement, 1.0);
    EXPECT_GE(u.invocation_probability, 0.0);
    EXPECT_LE(u.invocation_probability, 1.0);
    EXPECT_DOUBLE_EQ(u.priority, 0.0);  // no downgrades yet: Equation 1's degenerate branch
    EXPECT_GE(u.value(), 0.0);
    EXPECT_LE(u.value(), 3.0);
  }
}

TEST_F(GlobalOptimizerTest, IpZeroOutsideKeepAliveWindow) {
  trackers_[0].record(0);
  GlobalOptimizer opt(2, GlobalOptimizer::Config{});
  // 15 minutes after the last invocation: beyond the 10-minute window.
  const UtilityComponents u = opt.score(0, 1, 15, deployment_, trackers_);
  EXPECT_DOUBLE_EQ(u.invocation_probability, 0.0);
}

// ---------------------------------------------------------------------------
// Differential test: flatten_peak against a reference that re-scores every
// kept entry with score() in every downgrade round. Both must pick the same
// victims in the same order (strict `<`, first index wins ties) and leave
// the same schedule behind.

struct Downgrade {
  trace::Minute minute;
  trace::FunctionId function;
  int previous_variant;
  bool operator==(const Downgrade&) const = default;
};

class ReferenceFlattener {
 public:
  ReferenceFlattener(std::size_t model_count, GlobalOptimizer::Config config)
      : config_(config), scorer_(model_count, config), detector_(model_count, config),
        priority_(model_count) {}

  void flatten_peak(trace::Minute t, sim::KeepAliveSchedule& schedule,
                    const std::vector<InterArrivalTracker>& trackers,
                    std::vector<Downgrade>& log) {
    // The prior is detect_peak's, on an optimizer of its own fed the same
    // demand: only the flattening rounds are the reference's.
    const std::optional<double> peak_prior = detector_.detect_peak(t, schedule);
    if (!peak_prior) return;
    const double prior = *peak_prior;
    std::vector<std::pair<trace::FunctionId, std::size_t>> kept;
    bool kept_built = false;
    while (detector_.detector().is_peak(schedule.memory_at(t), prior)) {
      if (!kept_built) {
        kept = schedule.kept_alive_at(t);
        kept_built = true;
      }
      if (kept.empty()) break;
      // Equation 1 over every model's count, as a whole-vector pass.
      std::vector<double> pr(priority_.model_count());
      for (std::size_t f = 0; f < pr.size(); ++f) {
        pr[f] = static_cast<double>(priority_.downgrade_count(f));
      }
      util::minmax_normalize_inplace(pr);
      std::size_t worst_idx = 0;
      double worst_uv = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < kept.size(); ++i) {
        const auto& [f, variant] = kept[i];
        UtilityComponents u = scorer_.score(f, variant, t, schedule.deployment(), trackers);
        u.priority = pr[f];
        const double uv = u.value(config_.weights);
        if (uv < worst_uv) {
          worst_uv = uv;
          worst_idx = i;
        }
      }
      const trace::FunctionId worst_f = kept[worst_idx].first;
      const auto prev = schedule.downgrade_from(worst_f, t);
      if (!prev) break;
      if (*prev > 0) {
        kept[worst_idx].second = static_cast<std::size_t>(*prev - 1);
      } else {
        kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(worst_idx));
      }
      priority_.record_downgrade(worst_f);
      log.push_back({t, worst_f, *prev});
    }
  }

 private:
  GlobalOptimizer::Config config_;
  GlobalOptimizer scorer_;  // only score()'s Ai and Ip are used
  GlobalOptimizer detector_;  // only detect_peak() is used
  PriorityStructure priority_;
};

TEST(GlobalOptimizerDifferential, MatchesPerRoundRescoringReference) {
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  constexpr trace::Minute kMinutes = 48;
  std::size_t trials = 0;
  std::uint64_t total_downgrades = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    for (unsigned mask = 0; mask < 8; ++mask) {
      util::Pcg32 rng(seed, mask);
      GlobalOptimizer::Config config;
      config.weights.accuracy_improvement = (mask & 1u) != 0 ? 1.0 : 0.0;
      config.weights.priority = (mask & 2u) != 0 ? 1.0 : 0.0;
      config.weights.invocation_probability = (mask & 4u) != 0 ? 1.0 : 0.0;
      config.peak.memory_threshold = rng.bernoulli(0.5) ? 0.05 : 0.10;
      config.peak.local_window = 4 + static_cast<trace::Minute>(rng.bounded(5));

      const std::size_t functions = 3 + rng.bounded(22);
      const sim::Deployment deployment = sim::Deployment::round_robin(zoo, functions);
      sim::KeepAliveSchedule ref_schedule(deployment, kMinutes);
      sim::KeepAliveSchedule schedule(deployment, kMinutes);
      std::vector<InterArrivalTracker> ref_trackers(functions);
      std::vector<InterArrivalTracker> trackers(functions);
      std::vector<double> rate(functions);
      for (double& r : rate) r = rng.uniform(0.05, 0.6);

      ReferenceFlattener reference(functions, config);
      GlobalOptimizer optimizer(functions, config);
      obs::RingBufferSink sink(1 << 14);
      const obs::Observer observer{&sink, nullptr, nullptr};
      optimizer.set_observer(&observer);

      std::vector<Downgrade> expected;
      for (trace::Minute t = 0; t < kMinutes; ++t) {
        // Invocations open keep-alive windows (t, t + w] at a random
        // variant; spike minutes push most of them to the top variant.
        const bool spike = rng.bernoulli(0.25);
        for (trace::FunctionId f = 0; f < functions; ++f) {
          if (!rng.bernoulli(spike ? 0.8 : rate[f])) continue;
          ref_trackers[f].record(t);
          trackers[f].record(t);
          const std::size_t top = deployment.family_of(f).highest_index();
          const int variant =
              spike ? static_cast<int>(top)
                    : static_cast<int>(rng.bounded(static_cast<std::uint32_t>(top + 1)));
          const trace::Minute window = 1 + static_cast<trace::Minute>(rng.bounded(10));
          const trace::Minute end = std::min(t + 1 + window, kMinutes);
          ref_schedule.fill(f, t + 1, end, variant);
          schedule.fill(f, t + 1, end, variant);
        }
        reference.flatten_peak(t, ref_schedule, ref_trackers, expected);
        optimizer.flatten_peak(t, schedule, trackers);
      }

      std::vector<Downgrade> actual;
      ASSERT_EQ(sink.dropped(), 0u);
      for (const obs::TraceEvent& e : sink.events()) {
        if (e.type == obs::EventType::kDowngrade) {
          actual.push_back({e.minute, e.function, e.variant});
        }
      }
      ASSERT_EQ(actual, expected) << "seed " << seed << " weights mask " << mask;
      for (trace::FunctionId f = 0; f < functions; ++f) {
        for (trace::Minute t = 0; t < kMinutes; ++t) {
          ASSERT_EQ(schedule.variant_at(f, t), ref_schedule.variant_at(f, t))
              << "seed " << seed << " weights mask " << mask << " f " << f << " t " << t;
        }
      }
      EXPECT_EQ(optimizer.total_downgrades(), expected.size());
      total_downgrades += expected.size();
      ++trials;
    }
  }
  EXPECT_GE(trials, 200u);
  EXPECT_GT(total_downgrades, trials) << "the generator should produce real peaks";
}

TEST(UtilityComponents, ValueIsSumOfComponents) {
  UtilityComponents u;
  u.accuracy_improvement = 0.2;
  u.priority = 0.3;
  u.invocation_probability = 0.4;
  EXPECT_DOUBLE_EQ(u.value(), 0.9);
}

}  // namespace
}  // namespace pulse::core
