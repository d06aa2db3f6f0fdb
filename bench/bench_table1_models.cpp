// Table I: comparative analysis of model variants — service time,
// keep-alive cost, accuracy — plus the memory footprints and cold-start
// penalties the simulation derives from them.

#include "bench_common.hpp"

#include "models/latency.hpp"
#include "models/zoo.hpp"
#include "sim/cost_model.hpp"
#include "util/rng.hpp"

namespace {

using namespace pulse;

void print_table1() {
  bench::print_heading("Table I — model variant characterization",
                       "PULSE paper, Table I (+ Table IV families)");

  const models::ModelZoo zoo = models::ModelZoo::builtin();

  util::TextTable table({"Model", "Service Time w/ Warmup (s)", "Cold Start (s)",
                         "Keep-Alive Cost (cents/h)", "Accuracy (%)", "Memory (MB)"});
  for (const auto& family : zoo.families()) {
    for (const auto& v : family.variants()) {
      table.add_row({v.name, util::fmt(v.warm_service_time_s), util::fmt(v.cold_start_time_s),
                     util::fmt(sim::cents_per_hour(v)), util::fmt(v.accuracy_pct),
                     util::fmt(v.memory_mb, 0)});
    }
    table.add_separator();
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nPaper rows covered: GPT base/medium/large, BERT base/large,\n"
      "DenseNet 121/169/201 match Table I; YOLO and ResNet rows are the\n"
      "documented synthesis (DESIGN.md section 1).\n");
}

// The prepared draw both simulators run per served invocation.
void BM_LatencySample(benchmark::State& state, bool cold) {
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const models::LatencyModel::Prepared prepared =
      models::LatencyModel().prepare(zoo.family_by_name("GPT").highest());
  util::Pcg32 rng(cold ? 2 : 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::LatencyModel::sample(prepared, cold, rng));
  }
}
BENCHMARK_CAPTURE(BM_LatencySample, warm, false);
BENCHMARK_CAPTURE(BM_LatencySample, cold, true);

void BM_ZooLookup(benchmark::State& state) {
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  for (auto _ : state) {
    benchmark::DoNotOptimize(&zoo.family_by_name("DenseNet"));
  }
}
BENCHMARK(BM_ZooLookup);

}  // namespace

int main(int argc, char** argv) {
  print_table1();
  return pulse::bench::run_microbenchmarks(argc, argv);
}
