#include "synth/generator.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <vector>

namespace domd {
namespace {

// Per-class baseline risk contributions to the latent trouble factor's
// log-mean. Indexed by ship class 0..5.
constexpr double kClassRisk[] = {0.00, 0.10, -0.08, 0.18, 0.05, -0.05};
constexpr int kNumClasses = 6;

// Per-RMC (regional maintenance center) risk contributions, 0..4.
constexpr double kRmcRisk[] = {0.00, 0.12, -0.06, 0.08, -0.10};
constexpr int kNumRmcs = 5;

// Avail-type risk: 0 = scheduled (CNO), 1 = continuous (CM), 2 = emergent.
constexpr double kAvailTypeRisk[] = {0.00, 0.08, 0.25};
constexpr int kNumAvailTypes = 3;

// How strongly trouble converts into delay days per ship class: an
// interaction between a static attribute and the latent factor. Tree models
// capture it; a linear model on the same features cannot (the reason the
// paper's XGBoost beats Elastic-Net).
constexpr double kClassDelayMultiplier[] = {0.60, 1.00, 0.80,
                                            1.55, 1.25, 0.80};

constexpr int kNumHomeports = 6;

// Subsystem (SWLIN first digit, 1..9) baseline arrival weights. Hull (1),
// propulsion (2), and electric plant (3) dominate, matching the intuition
// that structural and power work drives most contract changes.
const std::vector<double>& SubsystemWeights() {
  static const std::vector<double>& weights =
      *new std::vector<double>{0.20, 0.16, 0.14, 0.10, 0.09,
                               0.08, 0.08, 0.08, 0.07};
  return weights;
}

// How strongly each subsystem's arrival rate scales with trouble. Delay
// signal concentrates in hull/propulsion/electrical work, so the pipeline's
// per-subsystem features are differentially informative.
const std::vector<double>& SubsystemTroubleGain() {
  static const std::vector<double>& gains =
      *new std::vector<double>{1.6, 1.4, 1.3, 0.9, 0.8, 0.7, 0.9, 0.6, 0.5};
  return gains;
}

// A generated double is the six-significant-digit value (printf's "%.6g")
// that every fleet, model and digest made from this generator has been
// built on: the tables were once written in that format. Rows are rounded
// as they are emitted, after every draw that depends on the value, so the
// random stream and every date stay the same.
double SixSignificantDigits(double value) {
  char buf[32];
  const auto written = std::to_chars(buf, buf + sizeof(buf), value,
                                     std::chars_format::general, 6);
  std::from_chars(buf, written.ptr, value);
  return value;
}

}  // namespace

SynthConfig ModelingConfig(std::uint64_t seed) {
  SynthConfig config;
  config.seed = seed;
  config.num_avails = 200;
  config.mean_rccs_per_avail = 240.0;
  config.ongoing_fraction = 0.05;
  return config;
}

SynthConfig ScalabilityConfig(std::uint64_t seed) {
  SynthConfig config;
  config.seed = seed;
  config.num_avails = 73;
  // Calibrated so the realized count lands near Table 5's 52,959 given
  // the trouble-multiplier distribution.
  config.mean_rccs_per_avail = 462.0;
  return config;
}

Dataset FleetGenerator::Generate() const {
  Rng rng(config_.seed);
  Dataset data;

  const int num_ships = std::max(1, config_.num_avails / 2);
  struct Ship {
    int ship_class;
    int homeport;
    int crew_size;
    double base_age_years;
    int avail_count = 0;
  };
  std::vector<Ship> ships;
  ships.reserve(static_cast<std::size_t>(num_ships));
  for (int s = 0; s < num_ships; ++s) {
    Ship ship;
    ship.ship_class = static_cast<int>(rng.UniformInt(0, kNumClasses - 1));
    ship.homeport = static_cast<int>(rng.UniformInt(0, kNumHomeports - 1));
    ship.crew_size = 180 + 40 * ship.ship_class +
                     static_cast<int>(rng.UniformInt(-25, 25));
    ship.base_age_years = rng.Uniform(4.0, 34.0);
    ships.push_back(ship);
  }

  std::int64_t next_rcc_id = 1;
  for (int i = 0; i < config_.num_avails; ++i) {
    const auto ship_index =
        static_cast<std::size_t>(rng.UniformInt(0, num_ships - 1));
    Ship& ship = ships[ship_index];

    Avail avail;
    avail.id = i + 1;
    avail.ship_id = static_cast<std::int64_t>(ship_index) + 100;
    avail.ship_class = ship.ship_class;
    avail.homeport = ship.homeport;
    avail.crew_size = ship.crew_size;
    avail.rmc_id = static_cast<int>(rng.UniformInt(0, kNumRmcs - 1));
    avail.avail_type = static_cast<int>(
        rng.Categorical({0.55, 0.35, 0.10}));
    avail.prior_avail_count = ship.avail_count++;

    // Planned schedule.
    const double start_year =
        static_cast<double>(config_.first_year) +
        rng.Uniform(0.0, static_cast<double>(config_.span_years));
    const Date epoch = Date::FromCivil(static_cast<int>(start_year), 1, 1);
    avail.planned_start =
        epoch + static_cast<std::int64_t>(rng.Uniform(0.0, 364.0));
    const double planned_days =
        std::clamp(rng.LogNormal(std::log(300.0), 0.45), 90.0, 900.0);
    avail.planned_end =
        avail.planned_start + static_cast<std::int64_t>(planned_days);
    // Age is drawn per avail (not tied to the calendar year) so the
    // most-recent test split is not systematically out-of-distribution —
    // tree models cannot extrapolate beyond the training range.
    avail.ship_age_years =
        std::clamp(ship.base_age_years + rng.Uniform(-4.0, 4.0), 2.0, 38.0);
    avail.contract_value_musd =
        std::max(5.0, planned_days / 10.0 + rng.Gaussian(0.0, 6.0));

    // Latent trouble factor: log-mean driven by static attributes. The
    // static share dominates the idiosyncratic share so the base (t*=0)
    // prediction already explains most delay variance, as in the paper's
    // Table 7 (R^2 ~ 0.88 at t* = 0); RCC dynamics refine it.
    const double log_mu =
        0.80 * (avail.ship_age_years / 40.0) +
        2.0 * (kClassRisk[avail.ship_class] + kRmcRisk[avail.rmc_id] +
               kAvailTypeRisk[avail.avail_type]) +
        0.55 * (planned_days / 400.0 - 0.75);
    const double trouble = std::exp(log_mu - 0.35 + 0.08 * rng.Gaussian());

    // True delay: trouble converted to days through the class-specific
    // multiplier (a static x latent interaction), plus noise, plus rare
    // unpredictable execution shocks (strikes, material shortages) that put
    // the heavy right tail of Fig. 2 in the data and make the robust-loss
    // comparison of §3.2.3 meaningful.
    double delay_days = 140.0 * (trouble - 0.85) *
                            kClassDelayMultiplier[avail.ship_class] +
                        rng.Gaussian(0.0, 12.0);
    // Schedule-cascade regime: once trouble crosses a threshold the avail
    // misses its drydock window and pays a fixed re-queue penalty — a
    // discontinuity tree models capture and linear models cannot.
    if (trouble > 1.25) delay_days += 70.0;
    if (rng.Bernoulli(0.07)) {
      delay_days += rng.LogNormal(std::log(85.0), 0.55);
    }
    delay_days = std::max(delay_days, -45.0);
    const auto delay = static_cast<std::int64_t>(std::llround(delay_days));

    // Actual schedule. A small late-start jitter, which by the paper's
    // definition does not count toward delay.
    avail.actual_start =
        avail.planned_start +
        (rng.Bernoulli(0.15) ? rng.UniformInt(1, 30) : 0);
    const std::int64_t actual_days =
        static_cast<std::int64_t>(planned_days) + delay;

    const bool ongoing = rng.Bernoulli(config_.ongoing_fraction);
    if (ongoing) {
      avail.status = AvailStatus::kOngoing;
    } else {
      avail.status = AvailStatus::kClosed;
      avail.actual_end = avail.actual_start + std::max<std::int64_t>(
                                                  actual_days, 30);
    }
    const std::int64_t horizon_days = std::max<std::int64_t>(actual_days, 30);

    avail.ship_age_years = SixSignificantDigits(avail.ship_age_years);
    avail.contract_value_musd =
        SixSignificantDigits(avail.contract_value_musd);
    (void)data.avails.Add(avail);

    // --- RCC process ---
    const double type_shift = std::min(trouble - 1.0, 2.0);
    const std::vector<double> type_weights = {
        std::max(0.05, 0.50 - 0.10 * type_shift),
        0.30 + 0.05 * type_shift,
        std::max(0.05, 0.20 + 0.05 * type_shift)};

    const auto& sub_weights = SubsystemWeights();
    const auto& sub_gains = SubsystemTroubleGain();
    std::vector<double> sub_rates(sub_weights.size());
    double rate_total = 0.0;
    for (std::size_t s = 0; s < sub_weights.size(); ++s) {
      // Arrival rate per subsystem scales super-/sub-linearly with trouble.
      sub_rates[s] = sub_weights[s] * std::pow(trouble, sub_gains[s]);
      rate_total += sub_rates[s];
    }
    // Avail-level paperwork-volume nuisance: some yards simply file more
    // RCCs, independent of trouble. This keeps RCC aggregates noisy proxies
    // of the latent factor, so dynamic features refine — rather than
    // replace — the static base prediction (Table 7's flat-ish profile).
    const double volume_nuisance = std::exp(0.20 * rng.Gaussian());
    const std::int64_t rcc_count = rng.Poisson(
        config_.mean_rccs_per_avail * rate_total * volume_nuisance);

    for (std::int64_t k = 0; k < rcc_count; ++k) {
      Rcc rcc;
      rcc.id = next_rcc_id++;
      rcc.avail_id = avail.id;
      rcc.type = static_cast<RccType>(rng.Categorical(type_weights));

      const std::size_t subsystem = rng.Categorical(sub_rates);
      std::int64_t code = static_cast<std::int64_t>(subsystem + 1);
      for (int d = 1; d < Swlin::kNumDigits; ++d) {
        code = code * 10 + rng.UniformInt(0, 9);
      }
      rcc.swlin = *Swlin::FromInt(code);

      // Creation skews toward the early-middle of execution: u ~ Beta-ish
      // via the minimum of two uniforms mixed with a uniform.
      const double u = rng.Bernoulli(0.6)
                           ? std::min(rng.Uniform(), rng.Uniform())
                           : rng.Uniform();
      const auto offset = static_cast<std::int64_t>(
          u * static_cast<double>(horizon_days - 1));
      rcc.creation_date = avail.actual_start + offset;

      const double open_days =
          std::clamp(rng.LogNormal(std::log(45.0), 0.6), 3.0, 400.0);
      const bool open_forever = rng.Bernoulli(config_.open_rcc_fraction);
      if (!open_forever) {
        Date settle = rcc.creation_date +
                      static_cast<std::int64_t>(open_days);
        // Settlement paperwork can trail the avail close slightly.
        const Date limit = avail.actual_start + horizon_days + 45;
        if (settle > limit) settle = limit;
        if (settle < rcc.creation_date) settle = rcc.creation_date;
        rcc.settled_date = settle;
      }

      const double amount_scale = 1.0 + 0.6 * (trouble - 1.0);
      rcc.settled_amount = SixSignificantDigits(std::max(
          100.0, rng.LogNormal(std::log(20000.0), 1.0) *
                     std::max(0.2, amount_scale)));
      (void)data.rccs.Add(rcc);
    }
  }
  return data;
}

}  // namespace domd
