#include "synth/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/stats.h"
#include "data/logical_time.h"

namespace domd {
namespace {

SynthConfig SmallConfig(std::uint64_t seed = 1) {
  SynthConfig config;
  config.seed = seed;
  config.num_avails = 40;
  config.mean_rccs_per_avail = 60.0;
  return config;
}

TEST(GeneratorTest, ProducesRequestedAvailCount) {
  const Dataset data = GenerateDataset(SmallConfig());
  EXPECT_EQ(data.avails.size(), 40u);
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  const Dataset a = GenerateDataset(SmallConfig(5));
  const Dataset b = GenerateDataset(SmallConfig(5));
  ASSERT_EQ(a.rccs.size(), b.rccs.size());
  ASSERT_EQ(a.avails.size(), b.avails.size());
  for (std::size_t i = 0; i < a.avails.size(); ++i) {
    EXPECT_EQ(a.avails.rows()[i].planned_start,
              b.avails.rows()[i].planned_start);
    EXPECT_EQ(a.avails.rows()[i].delay(), b.avails.rows()[i].delay());
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(a.rccs.size(), 100);
       ++i) {
    EXPECT_EQ(a.rccs.rows()[i].creation_date, b.rccs.rows()[i].creation_date);
    EXPECT_DOUBLE_EQ(a.rccs.rows()[i].settled_amount,
                     b.rccs.rows()[i].settled_amount);
  }
}

TEST(GeneratorTest, DifferentSeedsProduceDifferentData) {
  const Dataset a = GenerateDataset(SmallConfig(1));
  const Dataset b = GenerateDataset(SmallConfig(2));
  bool any_difference = a.rccs.size() != b.rccs.size();
  for (std::size_t i = 0; !any_difference && i < a.avails.size(); ++i) {
    any_difference = a.avails.rows()[i].planned_start !=
                     b.avails.rows()[i].planned_start;
  }
  EXPECT_TRUE(any_difference);
}

TEST(GeneratorTest, AllRecordsValidate) {
  const Dataset data = GenerateDataset(SmallConfig());
  for (const Avail& a : data.avails.rows()) {
    EXPECT_TRUE(ValidateAvail(a).ok()) << "avail " << a.id;
  }
  for (const Rcc& r : data.rccs.rows()) {
    EXPECT_TRUE(ValidateRcc(r).ok()) << "rcc " << r.id;
  }
}

TEST(GeneratorTest, EveryRccJoinsToAnAvail) {
  const Dataset data = GenerateDataset(SmallConfig());
  for (const Rcc& r : data.rccs.rows()) {
    EXPECT_TRUE(data.avails.Find(r.avail_id).ok());
  }
}

TEST(GeneratorTest, ScalabilityConfigMatchesTable5Cardinalities) {
  // Table 5: 73 avails, 52,959 RCCs. The generator targets the same scale
  // (within sampling noise).
  const Dataset data = GenerateDataset(ScalabilityConfig(42));
  EXPECT_EQ(data.avails.size(), 73u);
  EXPECT_GT(data.rccs.size(), 35000u);
  EXPECT_LT(data.rccs.size(), 75000u);
}

TEST(GeneratorTest, DelayDistributionShape) {
  // Fig. 2: most avails finish within a few months of plan, with a heavy
  // right tail (up to years) and some early finishes.
  const Dataset data = GenerateDataset(ModelingConfig(42));
  std::vector<double> delays;
  for (const Avail& a : data.avails.rows()) {
    const auto d = a.delay();
    if (d.has_value()) delays.push_back(static_cast<double>(*d));
  }
  ASSERT_GT(delays.size(), 100u);

  const double max_delay = *std::max_element(delays.begin(), delays.end());
  const double min_delay = *std::min_element(delays.begin(), delays.end());
  EXPECT_GT(max_delay, 180.0) << "tail should reach beyond half a year";
  EXPECT_LT(min_delay, 0.0) << "some avails finish early";
  EXPECT_GE(min_delay, -60.0);

  std::size_t within_few_months = 0;
  for (double d : delays) {
    if (std::fabs(d) <= 120.0) ++within_few_months;
  }
  EXPECT_GE(static_cast<double>(within_few_months) /
                static_cast<double>(delays.size()),
            0.45)
      << "the bulk of avails land within a few months of plan";
}

TEST(GeneratorTest, RccCountCorrelatesWithDelay) {
  // The planted signal: troubled avails both delay longer and attract more
  // RCCs, so a per-avail count should correlate positively with delay.
  const Dataset data = GenerateDataset(ModelingConfig(42));
  std::vector<double> delays, counts;
  for (const Avail& a : data.avails.rows()) {
    const auto d = a.delay();
    if (!d.has_value()) continue;
    const double planned = static_cast<double>(a.planned_duration());
    delays.push_back(static_cast<double>(*d));
    counts.push_back(
        static_cast<double>(data.rccs.RowsForAvail(a.id).size()) / planned);
  }
  EXPECT_GT(PearsonCorrelation(delays, counts), 0.25);
}

TEST(GeneratorTest, OngoingFractionRespected) {
  SynthConfig config = SmallConfig();
  config.num_avails = 200;
  config.ongoing_fraction = 0.2;
  const Dataset data = GenerateDataset(config);
  std::size_t ongoing = 0;
  for (const Avail& a : data.avails.rows()) {
    if (a.status == AvailStatus::kOngoing) ++ongoing;
  }
  EXPECT_GT(ongoing, 20u);
  EXPECT_LT(ongoing, 70u);
}

TEST(GeneratorTest, SomeRccsRemainOpen) {
  SynthConfig config = SmallConfig();
  config.open_rcc_fraction = 0.10;
  const Dataset data = GenerateDataset(config);
  std::size_t open = 0;
  for (const Rcc& r : data.rccs.rows()) {
    if (!r.settled_date.has_value()) ++open;
  }
  const double fraction =
      static_cast<double>(open) / static_cast<double>(data.rccs.size());
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.2);
}

// Every generated double is the value printf's "%.6g" reads back as: the
// values every generated fleet has been trained on.
TEST(GeneratorTest, DoublesCarrySixSignificantDigits) {
  const Dataset data = GenerateDataset(SmallConfig());
  const auto six_digits = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::strtod(buf, nullptr);
  };
  for (const Avail& a : data.avails.rows()) {
    EXPECT_EQ(a.ship_age_years, six_digits(a.ship_age_years)) << a.id;
    EXPECT_EQ(a.contract_value_musd, six_digits(a.contract_value_musd))
        << a.id;
  }
  for (const Rcc& r : data.rccs.rows()) {
    ASSERT_EQ(r.settled_amount, six_digits(r.settled_amount)) << r.id;
  }
}

TEST(GeneratorTest, RccCreationWithinAvailExecution) {
  const Dataset data = GenerateDataset(SmallConfig());
  for (const Rcc& r : data.rccs.rows()) {
    const Avail& a = **data.avails.Find(r.avail_id);
    EXPECT_GE(r.creation_date, a.actual_start);
    const double t_star = LogicalTime(a, r.creation_date);
    EXPECT_GE(t_star, 0.0);
  }
}

TEST(GeneratorTest, SubsystemDigitsInRange) {
  const Dataset data = GenerateDataset(SmallConfig());
  for (const Rcc& r : data.rccs.rows()) {
    EXPECT_GE(r.swlin.subsystem(), 1);
    EXPECT_LE(r.swlin.subsystem(), 9);
  }
}

TEST(GeneratorTest, StaticAttributesPopulated) {
  const Dataset data = GenerateDataset(SmallConfig());
  for (const Avail& a : data.avails.rows()) {
    EXPECT_GE(a.ship_class, 0);
    EXPECT_LE(a.ship_class, 5);
    EXPECT_GE(a.rmc_id, 0);
    EXPECT_LE(a.rmc_id, 4);
    EXPECT_GT(a.ship_age_years, -1.0);
    EXPECT_GT(a.contract_value_musd, 0.0);
    EXPECT_GT(a.crew_size, 0);
    EXPECT_GE(a.planned_duration(), 90);
    EXPECT_LE(a.planned_duration(), 900);
  }
}

}  // namespace
}  // namespace domd
