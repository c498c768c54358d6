// Explore the cost/time/accuracy configuration space for a workload and
// print the Pareto-optimal choices — the paper's Figs. 9/10 as a tool.
//
// Run: ./pareto_explorer [caffenet|googlenet] [images] [deadline_h] [budget_usd]
// e.g. ./pareto_explorer caffenet 1000000 10 300
#include <cstdlib>
#include <iostream>
#include <string>

#include "cloud/model_profile.h"
#include "cloud/simulator.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/accuracy_model.h"
#include "core/explorer.h"
#include "core/metrics.h"
#include "core/pareto_sweep.h"
#include "pruning/variant_generator.h"

int main(int argc, char** argv) {
  using namespace ccperf;
  const std::string model = argc > 1 ? argv[1] : "caffenet";
  const std::int64_t images = argc > 2 ? std::atoll(argv[2]) : 1'000'000LL;
  const double deadline_h = argc > 3 ? std::atof(argv[3]) : 10.0;
  const double budget = argc > 4 ? std::atof(argv[4]) : 300.0;

  const cloud::InstanceCatalog catalog = cloud::InstanceCatalog::AwsEc2();
  const cloud::CloudSimulator sim(catalog);
  const bool is_caffenet = model == "caffenet";
  if (!is_caffenet && model != "googlenet") {
    std::cerr << "unknown model '" << model
              << "' (expected caffenet or googlenet)\n";
    return 1;
  }
  const cloud::ModelProfile profile =
      is_caffenet ? cloud::CaffeNetProfile() : cloud::GoogLeNetProfile();
  const core::CalibratedAccuracyModel accuracy =
      is_caffenet ? core::CalibratedAccuracyModel::CaffeNet()
                  : core::CalibratedAccuracyModel::GoogLeNet();
  const core::ConfigSpaceExplorer explorer(sim, profile, accuracy);

  // Variants: random degrees of pruning over the most impactful layers.
  std::vector<std::string> layers;
  if (is_caffenet) {
    layers = {"conv1", "conv2", "conv3", "conv4", "conv5"};
  } else {
    layers = {"conv1-7x7-s2", "conv2-3x3", "inception-3a-3x3",
              "inception-4d-5x5", "inception-5a-3x3"};
  }
  Rng rng(1);
  const auto variants = pruning::RandomVariants(layers, 40, 0.6, 0.1, rng);
  const auto configs = cloud::EnumerateConfigs(catalog.Types(), 2);

  std::cout << "exploring " << variants.size() << " pruning variants x "
            << configs.size() << " resource configurations for " << images
            << " " << model << " inferences\n"
            << "constraints: T' = " << deadline_h << " h, C' = $" << budget
            << "\n\n";

  const core::ExplorationResult result = explorer.Explore(
      variants, configs, images, ToSeconds(Hours(deadline_h)), Usd(budget));
  std::cout << result.feasible.size() << " of " << result.evaluated
            << " candidate configurations are feasible\n\n";
  if (result.feasible.empty()) {
    std::cout << "nothing satisfies the constraints — relax T' or C'.\n";
    return 0;
  }

  for (const bool by_cost : {false, true}) {
    const auto frontier =
        by_cost ? core::CostAccuracyFrontier(result.feasible, true)
                : core::TimeAccuracyFrontier(result.feasible, true);
    std::cout << (by_cost ? "cost" : "time") << "-accuracy Pareto frontier ("
              << frontier.size() << " points):\n";
    Table table({"configuration", "variant", "Top-5 (%)", "time (h)",
                 "cost ($)", by_cost ? "CAR ($)" : "TAR (h)"});
    for (std::size_t idx : frontier) {
      const auto& p = result.feasible[idx];
      const double metric =
          by_cost ? core::CostAccuracyRatio(p.cost_usd, p.top5)
                  : core::TimeAccuracyRatio(ToHours(p.seconds), p.top5);
      table.AddRow({p.config.ToString(), p.variant_label,
                    Table::Num(p.top5 * 100.0, 1),
                    Table::Num(ToHours(p.seconds).value(), 2),
                    Table::Num(p.cost_usd.value(), 2),
                    Table::Num(metric, 2)});
    }
    std::cout << table.Render() << "\n";
  }

  // Tri-objective frontier: when both T' and C' matter, the real decision
  // set minimizes time AND cost while maximizing accuracy.
  std::vector<double> times, costs, accs;
  for (const auto& p : result.feasible) {
    times.push_back(p.seconds.value());
    costs.push_back(p.cost_usd.value());
    accs.push_back(p.top5);
  }
  const auto tri = core::SweepParetoFrontier3(times, costs, accs);
  std::cout << "tri-objective (time, cost, accuracy) frontier: " << tri.size()
            << " of " << result.feasible.size()
            << " feasible configurations remain efficient\n";
  return 0;
}
