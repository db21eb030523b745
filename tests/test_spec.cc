// Tests for the declarative spec layer (DESIGN.md §13): the grammar and
// its round-trip law, typed option consumption with did-you-mean
// diagnostics, and the self-registering family registries (strategies,
// noise models, landscapes, evaluators).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/evaluator_spec.h"
#include "core/strategy_spec.h"
#include "gs2/landscape_spec.h"
#include "spec/registry.h"
#include "spec/spec.h"
#include "varmodel/noise_spec.h"

namespace protuner {
namespace {

using spec::Options;
using spec::Spec;
using spec::SpecError;

// ----------------------------------------------------------------- grammar

TEST(SpecGrammar, ParsesBareName) {
  const Spec s = spec::parse("pro");
  EXPECT_EQ(s.name, "pro");
  EXPECT_TRUE(s.options.empty());
  EXPECT_EQ(spec::to_string(s), "pro");
}

TEST(SpecGrammar, ParsesKeyValueOptions) {
  const Spec s = spec::parse("pro:k=4,reflect=2");
  EXPECT_EQ(s.name, "pro");
  ASSERT_EQ(s.options.size(), 2u);
  EXPECT_EQ(s.options[0].first, "k");
  EXPECT_EQ(s.options[0].second, "4");
  EXPECT_EQ(s.options[1].first, "reflect");
  EXPECT_EQ(s.options[1].second, "2");
}

TEST(SpecGrammar, BareKeyIsAFlag) {
  const Spec s = spec::parse("pro:racing");
  ASSERT_EQ(s.options.size(), 1u);
  EXPECT_EQ(s.options[0].first, "racing");
  EXPECT_EQ(s.options[0].second, "1");
}

TEST(SpecGrammar, TrimsWhitespaceAroundTokens) {
  const Spec s = spec::parse("  pro : k = 4 , racing  ");
  EXPECT_EQ(s.name, "pro");
  ASSERT_EQ(s.options.size(), 2u);
  EXPECT_EQ(s.options[0].second, "4");
}

TEST(SpecGrammar, RoundTripsEveryParseableSpec) {
  for (const char* text :
       {"pro", "pro:k=4,racing=1", "anneal:decay=0.985,migrate=25",
        "pareto:rho=0.1,alpha=1.7", "simulated:ranks=16,rho=0.3",
        "compass:k=2", "gs2db:stride=2,k=4,power=2"}) {
    const Spec s = spec::parse(text);
    EXPECT_EQ(spec::parse(spec::to_string(s)), s) << text;
  }
}

TEST(SpecGrammar, RejectsMalformedText) {
  EXPECT_THROW(spec::parse(""), SpecError);
  EXPECT_THROW(spec::parse(":k=1"), SpecError);       // empty name
  EXPECT_THROW(spec::parse("pro:"), SpecError);       // dangling colon
  EXPECT_THROW(spec::parse("pro:k=1,"), SpecError);   // dangling comma
  EXPECT_THROW(spec::parse("pro:=4"), SpecError);     // empty key
  EXPECT_THROW(spec::parse("pro:k=1,k=2"), SpecError);  // duplicate key
  EXPECT_THROW(spec::parse("p ro:k=1"), SpecError);   // bad name charset
}

// ----------------------------------------------------------------- options

TEST(SpecOptions, TypedGettersAndDefaults) {
  Options o("test", spec::parse("x:a=2.5,b=7,flag,name=min"));
  EXPECT_DOUBLE_EQ(o.get_double("a", 0.0), 2.5);
  EXPECT_EQ(o.get_int("b", 0), 7);
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_EQ(o.get_string("name", ""), "min");
  EXPECT_EQ(o.get_int("absent", 42), 42);
  o.finish();
}

TEST(SpecOptions, RejectsUntypeableValues) {
  Options o("test", spec::parse("x:a=banana"));
  EXPECT_THROW(o.get_double("a", 0.0), SpecError);
}

TEST(SpecOptions, RangeCheckedGettersNameTheInterval) {
  Options o("test", spec::parse("x:k=99"));
  try {
    o.get_int("k", 1, 1, 10);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("k"), std::string::npos) << msg;
    EXPECT_NE(msg.find("99"), std::string::npos) << msg;
    EXPECT_NE(msg.find("10"), std::string::npos) << msg;
  }
}

TEST(SpecOptions, UnknownKeyGetsDidYouMeanHint) {
  Options o("strategy", spec::parse("pro:reflct=2"));
  o.get_double("reflect", 2.0);
  try {
    o.finish();
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("reflct"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'reflect'"), std::string::npos) << msg;
  }
}

TEST(SpecOptions, AliasMapsToCanonicalKey) {
  Options o("noise", spec::parse("pareto:scale=0.3"));
  o.alias("scale", "rho");
  EXPECT_DOUBLE_EQ(o.get_double("rho", 0.1), 0.3);
  o.finish();
}

TEST(SpecOptions, ChoiceRejectsUnknownValueWithFullList) {
  Options o("strategy", spec::parse("pro:est=median"));
  try {
    o.get_choice("est", "min", {"min", "mean"});
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("median"), std::string::npos) << msg;
    EXPECT_NE(msg.find("min"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mean"), std::string::npos) << msg;
  }
}

// -------------------------------------------------------------- registries

TEST(SpecRegistry, UnknownNameGetsDidYouMeanOverNamesAndAliases) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 10)});
  try {
    (void)core::make_strategy("proo:k=3", space);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("proo"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'pro'"), std::string::npos) << msg;
  }
  // Misspelled alias: nearest candidate comes from the alias list.
  EXPECT_THROW((void)core::make_strategy("nelder_mead", space), SpecError);
}

// Unknown keys, including the retired hyperparameters that are now
// constants (one per strategy), and contradictory key pairs fail as
// SpecError naming the keys, never as an assert.
TEST(SpecRegistry, UnknownKeyFailsEvenWhenFactorySucceedsOtherwise) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 10)});
  const auto expect_spec_error = [&](const char* text,
                                     std::vector<std::string> names) {
    try {
      (void)core::make_strategy(text, space);
      ADD_FAILURE() << "expected SpecError for " << text;
    } catch (const SpecError& e) {
      const std::string msg = e.what();
      for (const std::string& name : names) {
        EXPECT_NE(msg.find(name), std::string::npos) << text << ": " << msg;
      }
    }
  };
  expect_spec_error("anneal:k=3", {"'k'"});
  expect_spec_error("pro:k=3,bogus=1", {"'bogus'"});
  expect_spec_error("pro:stop=0", {"'stop'"});
  expect_spec_error("sro:2n=0", {"'2n'"});
  expect_spec_error("nm:est=mean", {"'est'"});
  expect_spec_error("anneal:t0=2", {"'t0'"});
  expect_spec_error("genetic:mut=0.2", {"'mut'"});
  expect_spec_error("random:seed=3", {"'seed'"});
  expect_spec_error("compass:min_step=0", {"'min_step'"});
  expect_spec_error("fixed:at=8/2/0.5", {"'at'"});
  expect_spec_error("pro:adaptive=1,refresh=0", {"adaptive", "refresh"});
  expect_spec_error("pro:k=3,max_k=2", {"max_k", "k="});
  expect_spec_error("pro:racing=1,est=mean", {"racing", "est"});
}

// Grid search, SPSA and ranking-and-selection were deleted; their names
// (and rs's aliases) are unknown strategies like any other, not a crash.
TEST(SpecRegistry, DeletedStrategiesAreUnknownNames) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 10)});
  for (const char* name : {"grid", "spsa", "rs", "rs:m=16,n0=4", "ranking"}) {
    try {
      (void)core::make_strategy(name, space);
      ADD_FAILURE() << "expected SpecError for " << name;
    } catch (const SpecError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unknown strategy"), std::string::npos) << msg;
    }
  }
}

TEST(SpecRegistry, SeedArgumentFeedsStochasticStrategies) {
  const core::ParameterSpace space({
      core::Parameter::integer("x", 0, 100),
      core::Parameter::continuous("y", -1.0, 1.0),
  });
  const auto first_proposal = [&](std::uint64_t seed) {
    auto s = core::make_strategy("random", space, seed);
    s->start(4);
    return s->propose().configs;
  };
  EXPECT_EQ(first_proposal(7), first_proposal(7));
  EXPECT_NE(first_proposal(7), first_proposal(8));
}

TEST(SpecRegistry, NoiseSpecsConstructAndCompose) {
  auto none = varmodel::make_noise("none");
  ASSERT_NE(none, nullptr);
  EXPECT_DOUBLE_EQ(none->rho(), 0.0);
  auto pareto = varmodel::make_noise("pareto:rho=0.2,alpha=1.7");
  ASSERT_NE(pareto, nullptr);
  EXPECT_DOUBLE_EQ(pareto->rho(), 0.2);
  // '+' composes components; the composite's effective rho follows Eq. 7
  // applied to the combined mean disturbance at unit clean time.
  auto combo = varmodel::make_noise("exp:rho=0.05+pareto:rho=0.1,alpha=1.5");
  ASSERT_NE(combo, nullptr);
  const double mean_disturbance = 0.05 / 0.95 + 0.1 / 0.9;
  EXPECT_NEAR(combo->rho(), mean_disturbance / (1.0 + mean_disturbance),
              1e-9);
  EXPECT_THROW(varmodel::make_noise("pareto:rho=1.5"), SpecError);
}

TEST(SpecRegistry, LandscapeSpecsBundleSpaceAndLandscape) {
  for (const char* text :
       {"gs2", "gs2db:stride=3", "quad:dims=3", "multimodal:dims=2",
        "mixed"}) {
    const gs2::LandscapeBundle b = gs2::make_landscape(text);
    ASSERT_NE(b.landscape, nullptr) << text;
    ASSERT_GT(b.space.size(), 0u) << text;
    EXPECT_GT(b.landscape->clean_time(b.space.center()), 0.0) << text;
  }
  EXPECT_THROW(gs2::make_landscape("quad:dims=0"), SpecError);
}

TEST(SpecRegistry, EvaluatorSpecsBuildRunnableMachines) {
  const gs2::LandscapeBundle b = gs2::make_landscape("quad:dims=2");
  for (const char* text : {"simulated:ranks=4", "simulated:ranks=4,rho=0.2",
                           "trace:ranks=4,big_p=0.05"}) {
    auto machine = cluster::make_evaluator(text, b.landscape, nullptr, 7);
    ASSERT_NE(machine, nullptr) << text;
    EXPECT_EQ(machine->ranks(), 4u) << text;
    const std::vector<core::Point> configs(4, b.space.center());
    std::vector<double> out(4);
    machine->run_step_into({configs.data(), configs.size()},
                           {out.data(), out.size()});
    for (double t : out) EXPECT_GT(t, 0.0) << text;
  }
}

TEST(SpecRegistry, HelpListsEveryEntryWithExample) {
  const std::string help = core::strategy_registry().help();
  for (const char* name : {"pro", "sro", "nm", "compass", "anneal", "genetic",
                           "random", "fixed"}) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace protuner
