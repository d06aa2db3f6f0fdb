#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/temp_dir.hpp"

namespace pulse::trace {
namespace {

TEST(Trace, EmptyConstruction) {
  Trace t(3, 100);
  EXPECT_EQ(t.function_count(), 3u);
  EXPECT_EQ(t.duration(), 100);
  EXPECT_EQ(t.total_invocations(), 0u);
  EXPECT_EQ(t.count(0, 50), 0u);
}

TEST(Trace, DefaultFunctionNames) {
  Trace t(2, 10);
  EXPECT_EQ(t.function_name(0), "fn0");
  EXPECT_EQ(t.function_name(1), "fn1");
}

TEST(Trace, SetAndAddCounts) {
  Trace t(2, 10);
  t.set_count(0, 3, 5);
  t.add_invocations(0, 3, 2);
  t.add_invocations(1, 3);
  EXPECT_EQ(t.count(0, 3), 7u);
  EXPECT_EQ(t.count(1, 3), 1u);
  EXPECT_EQ(t.invocations_at(3), 8u);
}

TEST(Trace, CountOutsideHorizonIsZero) {
  Trace t(1, 10);
  EXPECT_EQ(t.count(0, -1), 0u);
  EXPECT_EQ(t.count(0, 10), 0u);
  EXPECT_EQ(t.invocations_at(999), 0u);
}

TEST(Trace, SetOutsideHorizonThrows) {
  Trace t(1, 10);
  EXPECT_THROW(t.set_count(0, 10, 1), std::out_of_range);
  EXPECT_THROW(t.add_invocations(0, -1), std::out_of_range);
}

TEST(Trace, TotalsAndAggregate) {
  Trace t(2, 5);
  t.set_count(0, 0, 1);
  t.set_count(0, 4, 2);
  t.set_count(1, 4, 3);
  EXPECT_EQ(t.total_invocations(0), 3u);
  EXPECT_EQ(t.total_invocations(1), 3u);
  EXPECT_EQ(t.total_invocations(), 6u);
  const auto agg = t.aggregate_series();
  ASSERT_EQ(agg.size(), 5u);
  EXPECT_EQ(agg[0], 1u);
  EXPECT_EQ(agg[4], 5u);
}

TEST(Trace, InvocationMinutes) {
  Trace t(1, 20);
  t.set_count(0, 2, 1);
  t.set_count(0, 9, 4);
  t.set_count(0, 15, 1);
  const auto minutes = t.invocation_minutes(0);
  EXPECT_EQ(minutes, (std::vector<Minute>{2, 9, 15}));
}

TEST(Trace, SliceExtractsWindow) {
  Trace t(2, 20);
  t.set_count(0, 5, 2);
  t.set_count(1, 10, 3);
  t.set_function_name(0, "alpha");
  const Trace s = t.slice(5, 12);
  EXPECT_EQ(s.duration(), 7);
  EXPECT_EQ(s.count(0, 0), 2u);
  EXPECT_EQ(s.count(1, 5), 3u);
  EXPECT_EQ(s.function_name(0), "alpha");
}

TEST(Trace, SliceInvalidRangeThrows) {
  Trace t(1, 10);
  EXPECT_THROW(t.slice(-1, 5), std::out_of_range);
  EXPECT_THROW(t.slice(5, 11), std::out_of_range);
  EXPECT_THROW(t.slice(8, 3), std::out_of_range);
}

TEST(Trace, SeriesSpanMatchesCounts) {
  Trace t(1, 4);
  t.set_count(0, 1, 9);
  const auto s = t.series(0);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[1], 9u);
}

TEST(Trace, CsvRoundTrip) {
  Trace t(2, 6);
  t.set_count(0, 0, 1);
  t.set_count(1, 5, 7);
  t.set_function_name(1, "periodic fn");
  const testutil::TempDir dir;
  const auto path = dir.path() / "trace.csv";
  t.save_csv(path);
  const auto loaded = Trace::try_load_csv(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().to_string();
  const Trace& back = loaded.value();

  EXPECT_EQ(back.function_count(), 2u);
  EXPECT_EQ(back.duration(), 6);
  EXPECT_EQ(back.count(0, 0), 1u);
  EXPECT_EQ(back.count(1, 5), 7u);
  EXPECT_EQ(back.function_name(1), "periodic fn");
}

TEST(Trace, NegativeDurationThrows) { EXPECT_THROW(Trace(1, -5), std::invalid_argument); }

/// Three functions over six minutes; function f's count at minute t is
/// 10 * f + t, so every cell is distinct.
Trace numbered_trace() {
  Trace t(3, 6);
  for (FunctionId f = 0; f < 3; ++f) {
    t.set_function_name(f, "fn-" + std::to_string(f));
    for (Minute m = 0; m < 6; ++m) t.set_count(f, m, static_cast<std::uint32_t>(10 * f + m));
  }
  return t;
}

TEST(TraceProjection, CopyOfOwnedTraceIsDeep) {
  const Trace source = numbered_trace();
  Trace copy = source;
  EXPECT_EQ(copy, source);
  EXPECT_NE(copy.series(1).data(), source.series(1).data());
  copy.set_count(1, 2, 99);
  copy.add_invocations(0, 0, 5);
  EXPECT_EQ(source.count(1, 2), 12u);
  EXPECT_EQ(source.count(0, 0), 0u);
  EXPECT_EQ(copy.count(1, 2), 99u);

  Trace assigned(1, 1);
  assigned = source;
  assigned.set_count(2, 5, 7);
  EXPECT_EQ(source.count(2, 5), 25u);
  EXPECT_EQ(assigned.count(2, 5), 7u);
  EXPECT_EQ(assigned.count(2, 4), 24u);
}

TEST(TraceProjection, CopyOfProjectionStillAliasesSource) {
  const Trace source = numbered_trace();
  const std::vector<FunctionId> ids{2, 0};
  const Trace projection = source.project(ids);
  const Trace copy = projection;
  Trace assigned(1, 1);
  assigned = projection;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(copy.series(i).data(), source.series(ids[i]).data());
    EXPECT_EQ(assigned.series(i).data(), source.series(ids[i]).data());
  }
  EXPECT_THROW(assigned.set_count(0, 0, 1), std::logic_error);
}

TEST(TraceProjection, MovedOwnedTraceKeepsValidRows) {
  Trace source = numbered_trace();
  const std::uint32_t* row = source.series(1).data();
  Trace moved = std::move(source);
  EXPECT_EQ(moved.series(1).data(), row);
  EXPECT_EQ(moved.count(1, 3), 13u);
  moved.set_count(1, 3, 77);
  EXPECT_EQ(moved.series(1)[3], 77u);

  Trace assigned(1, 1);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.series(1).data(), row);
  EXPECT_EQ(assigned.count(1, 3), 77u);
  EXPECT_EQ(assigned.count(2, 5), 25u);
}

TEST(TraceProjection, MutatingAProjectionThrowsLogicError) {
  const Trace source = numbered_trace();
  const std::vector<FunctionId> ids{1};
  Trace projection = source.project(ids);
  EXPECT_THROW(projection.set_count(0, 0, 1), std::logic_error);
  EXPECT_THROW(projection.add_invocations(0, 0), std::logic_error);
  EXPECT_EQ(source.count(1, 0), 10u);

  Trace empty = source.project({});
  EXPECT_THROW(empty.set_count(0, 0, 1), std::logic_error);
  EXPECT_THROW(empty.add_invocations(0, 0), std::logic_error);

  // Names are the projection's own.
  projection.set_function_name(0, "renamed");
  EXPECT_EQ(projection.function_name(0), "renamed");
  EXPECT_EQ(source.function_name(1), "fn-1");
}

TEST(TraceProjection, ReadsTheSourceAndKeepsAccessorContracts) {
  const Trace source = numbered_trace();
  const std::vector<FunctionId> ids{2, 0, 2};
  const Trace projection = source.project(ids);
  ASSERT_EQ(projection.function_count(), 3u);
  EXPECT_EQ(projection.duration(), 6);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(projection.function_name(i), source.function_name(ids[i]));
    EXPECT_EQ(projection.total_invocations(i), source.total_invocations(ids[i]));
    for (Minute m = -1; m <= 6; ++m) EXPECT_EQ(projection.count(i, m), source.count(ids[i], m));
  }
  EXPECT_EQ(projection.invocation_minutes(1), source.invocation_minutes(0));
  EXPECT_EQ(projection.invocations_at(4), 24u + 4u + 24u);
  EXPECT_EQ(projection.aggregate_series()[5], 25u + 5u + 25u);
  EXPECT_EQ(projection.slice(2, 4).count(0, 1), 23u);

  EXPECT_THROW((void)projection.series(3), std::out_of_range);
  EXPECT_THROW((void)projection.count(3, 0), std::out_of_range);
  EXPECT_THROW((void)projection.function_name(3), std::out_of_range);
}

TEST(TraceProjection, EqualsAnOwnedTraceWithTheSameContent) {
  const Trace source = numbered_trace();
  const std::vector<FunctionId> all{0, 1, 2};
  EXPECT_EQ(source.project(all), source);
  EXPECT_EQ(source, source.project(all));

  Trace reordered = source.project(std::vector<FunctionId>{1, 0, 2});
  EXPECT_NE(reordered, source);
  Trace differing = source;
  differing.set_count(2, 5, 0);
  EXPECT_NE(source.project(all), differing);
}

TEST(TraceProjection, ProjectionOfAProjectionBorrowsTheOwner) {
  const Trace source = numbered_trace();
  const Trace outer = source.project(std::vector<FunctionId>{2, 1, 0});
  const Trace inner = outer.project(std::vector<FunctionId>{2, 0});
  ASSERT_EQ(inner.function_count(), 2u);
  EXPECT_EQ(inner.series(0).data(), source.series(0).data());
  EXPECT_EQ(inner.series(1).data(), source.series(2).data());
  EXPECT_EQ(inner.function_name(1), "fn-2");
  EXPECT_EQ(inner.count(1, 3), 23u);
}

TEST(TraceProjection, EdgeCasesZeroFunctionsAndZeroMinutes) {
  const Trace source = numbered_trace();
  const Trace none = source.project({});
  EXPECT_EQ(none.function_count(), 0u);
  EXPECT_EQ(none.duration(), 6);
  EXPECT_EQ(none.total_invocations(), 0u);
  EXPECT_EQ(none.aggregate_series(), std::vector<std::uint64_t>(6, 0));
  EXPECT_EQ(none, Trace(0, 6));

  const Trace flat(3, 0);
  Trace flat_projection = flat.project(std::vector<FunctionId>{2, 0});
  ASSERT_EQ(flat_projection.function_count(), 2u);
  EXPECT_EQ(flat_projection.duration(), 0);
  EXPECT_TRUE(flat_projection.series(1).empty());
  EXPECT_EQ(flat_projection.count(0, 0), 0u);
  EXPECT_EQ(flat_projection.total_invocations(), 0u);
  EXPECT_EQ(flat_projection, flat.project(std::vector<FunctionId>{2, 0}));
  EXPECT_THROW(flat_projection.add_invocations(0, 0), std::logic_error);
}

TEST(TraceProjection, OutOfRangeIdThrows) {
  const Trace source = numbered_trace();
  EXPECT_THROW((void)source.project(std::vector<FunctionId>{0, 3}), std::out_of_range);
  const Trace projection = source.project(std::vector<FunctionId>{1});
  EXPECT_THROW((void)projection.project(std::vector<FunctionId>{1}), std::out_of_range);
}

}  // namespace
}  // namespace pulse::trace
