// Strategy shootout CLI — the cross-product driver over the declarative
// spec layer (see src/apps/tuning_shootout.h and DESIGN.md §13).
//
//   tuning_shootout                     # full matrix, CSV + plots to stdout
//   tuning_shootout --smoke             # CI-sized matrix (~1 s)
//   tuning_shootout --json=OUT.json     # also write a JSON summary
//   tuning_shootout --list              # print every registered spec family
//   tuning_shootout --strategies=pro,anneal --landscapes=quad:dims=2
//       --noises=none --steps=60        # custom cells, one command line
//                                       # (';'-separated specs when a spec
//                                       # itself contains ',')
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/tuning_shootout.h"
#include "cluster/evaluator_spec.h"
#include "core/strategy_spec.h"
#include "gs2/landscape_spec.h"
#include "spec/spec.h"
#include "varmodel/noise_spec.h"

namespace {

// Spec lists are ';'-separated on the command line because specs themselves
// use ','.
std::vector<std::string> split_specs(std::string_view text) {
  std::vector<std::string> out;
  while (!text.empty()) {
    const std::size_t semi = text.find(';');
    const std::string_view part =
        semi == std::string_view::npos ? text : text.substr(0, semi);
    if (!part.empty()) out.emplace_back(part);
    if (semi == std::string_view::npos) break;
    text = text.substr(semi + 1);
  }
  return out;
}

bool flag_value(std::string_view arg, std::string_view name,
                std::string_view& value) {
  if (arg.size() <= name.size() || arg.substr(0, name.size()) != name ||
      arg[name.size()] != '=') {
    return false;
  }
  value = arg.substr(name.size() + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using protuner::apps::ShootoutOptions;

  ShootoutOptions opt;
  opt.strategies = {"pro",     "pro:racing=1", "sro", "nm:iters=200",
                    "compass", "anneal"};
  opt.landscapes = {"gs2", "gs2db", "quad:dims=3", "multimodal:dims=3"};
  opt.noises = {"none", "pareto:rho=0.1,alpha=1.7",
                "exp:rho=0.05+pareto:rho=0.05,alpha=1.5"};
  opt.min_of_k = {0, 3};

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view v;
    if (arg == "--smoke") {
      opt.strategies = {"pro", "sro", "nm:iters=150", "compass", "anneal"};
      opt.landscapes = {"gs2", "quad:dims=3", "multimodal:dims=2"};
      opt.min_of_k = {0, 3};
      opt.seeds = 2;
      opt.steps = 40;
      opt.plots = false;
    } else if (arg == "--list") {
      std::cout << "strategies:\n"
                << protuner::core::strategy_registry().help()
                << "landscapes:\n"
                << protuner::gs2::landscape_registry().help() << "noises:\n"
                << protuner::varmodel::noise_registry().help()
                << "evaluators:\n"
                << protuner::cluster::evaluator_registry().help();
      return 0;
    } else if (arg == "--no-plots") {
      opt.plots = false;
    } else if (flag_value(arg, "--json", v)) {
      json_path = v;
    } else if (flag_value(arg, "--strategies", v)) {
      opt.strategies = split_specs(v);
    } else if (flag_value(arg, "--landscapes", v)) {
      opt.landscapes = split_specs(v);
    } else if (flag_value(arg, "--noises", v)) {
      opt.noises = split_specs(v);
    } else if (flag_value(arg, "--evaluator", v)) {
      opt.evaluator = std::string(v);
    } else if (flag_value(arg, "--steps", v)) {
      opt.steps = std::stoul(std::string(v));
    } else if (flag_value(arg, "--ranks", v)) {
      opt.ranks = std::stoul(std::string(v));
    } else if (flag_value(arg, "--seeds", v)) {
      opt.seeds = std::stoul(std::string(v));
    } else if (flag_value(arg, "--k", v)) {
      opt.min_of_k.clear();
      for (const std::string& s : split_specs(v)) {
        opt.min_of_k.push_back(std::stoi(s));
      }
    } else {
      std::cerr << "unknown argument: " << arg << "\n"
                << "usage: tuning_shootout [--smoke] [--list] [--no-plots]\n"
                << "  [--json=PATH] [--strategies=S;S;...]\n"
                << "  [--landscapes=L;L;...] [--noises=N;N;...]\n"
                << "  [--evaluator=E] [--steps=N] [--ranks=N] [--seeds=N]\n"
                << "  [--k=K;K;...]\n";
      return 2;
    }
  }

  try {
    const protuner::apps::ShootoutReport report =
        protuner::apps::run_shootout(opt, std::cout);
    if (!json_path.empty()) {
      std::ofstream json(json_path);
      if (!json) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
      }
      protuner::apps::write_shootout_json(report, opt, json);
      std::cout << "\nwrote " << report.rows.size() << " rows to "
                << json_path << "\n";
    }
  } catch (const protuner::spec::SpecError& e) {
    std::cerr << "spec error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
