#include "cache/fingerprint.h"

#include <array>
#include <bit>

namespace domd {
namespace {

/// kPrimePowers[k] == kFnv1aPrime^k mod 2^64.
constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
  std::array<std::uint64_t, 9> powers{};
  powers[0] = 1;
  for (std::size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * kFnv1aPrime;
  }
  return powers;
}();

std::uint64_t MixDouble(std::uint64_t hash, double value) {
  // Bit-exact: +0.0 and -0.0 hash differently, which is fine — the tables
  // never distinguish them semantically but bit-identity is the contract.
  return FingerprintMix(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t MixOptionalDate(std::uint64_t hash,
                              const std::optional<Date>& date) {
  hash = FingerprintMix(hash, date.has_value() ? 1 : 0);
  return FingerprintMix(
      hash, date.has_value() ? static_cast<std::uint64_t>(date->serial()) : 0);
}

std::uint64_t MixAvail(std::uint64_t hash, const Avail& avail) {
  hash = FingerprintMix(hash, static_cast<std::uint64_t>(avail.id));
  hash = FingerprintMix(hash, static_cast<std::uint64_t>(avail.ship_id));
  hash = FingerprintMix(hash, static_cast<std::uint64_t>(avail.status));
  hash = FingerprintMix(
      hash, static_cast<std::uint64_t>(avail.planned_start.serial()));
  hash = FingerprintMix(
      hash, static_cast<std::uint64_t>(avail.planned_end.serial()));
  hash = FingerprintMix(
      hash, static_cast<std::uint64_t>(avail.actual_start.serial()));
  hash = MixOptionalDate(hash, avail.actual_end);
  hash = FingerprintMix(hash, static_cast<std::uint64_t>(avail.ship_class));
  hash = FingerprintMix(hash, static_cast<std::uint64_t>(avail.rmc_id));
  hash = MixDouble(hash, avail.ship_age_years);
  hash = FingerprintMix(hash, static_cast<std::uint64_t>(avail.avail_type));
  hash = FingerprintMix(hash, static_cast<std::uint64_t>(avail.homeport));
  hash = FingerprintMix(hash,
                        static_cast<std::uint64_t>(avail.prior_avail_count));
  hash = MixDouble(hash, avail.contract_value_musd);
  hash = FingerprintMix(hash, static_cast<std::uint64_t>(avail.crew_size));
  return hash;
}

std::uint64_t MixRcc(std::uint64_t hash, const Rcc& rcc) {
  hash = FingerprintMix(hash, static_cast<std::uint64_t>(rcc.id));
  hash = FingerprintMix(hash, static_cast<std::uint64_t>(rcc.avail_id));
  hash = FingerprintMix(hash, static_cast<std::uint64_t>(rcc.type));
  std::uint64_t swlin = 0;
  for (int d = 0; d < Swlin::kNumDigits; ++d) {
    swlin = swlin * 10 + static_cast<std::uint64_t>(rcc.swlin.digit(d));
  }
  hash = FingerprintMix(hash, swlin);
  hash = FingerprintMix(
      hash, static_cast<std::uint64_t>(rcc.creation_date.serial()));
  hash = MixOptionalDate(hash, rcc.settled_date);
  hash = MixDouble(hash, rcc.settled_amount);
  return hash;
}

}  // namespace

std::uint64_t FingerprintMix(std::uint64_t hash, std::uint64_t word) {
  // FNV-1a over the word's 8 little-endian bytes. Folding in a zero byte
  // leaves only the multiply (hash ^ 0 == hash), so the word's high zero
  // bytes collapse, with the last nonzero byte's own multiply, into one
  // multiply by the matching power of the prime — the same value mod 2^64.
  // Ids, dates and enums are mostly 1–3 bytes. A zero word counts as one
  // zero byte followed by seven more.
  const int bytes = (std::bit_width(word | 1) + 7) / 8;
  for (int byte = 0; byte + 1 < bytes; ++byte) {
    hash ^= (word >> (byte * 8)) & 0xFF;
    hash *= kFnv1aPrime;
  }
  hash ^= word >> ((bytes - 1) * 8);
  return hash * kPrimePowers[9 - bytes];
}

DatasetFingerprintStream::DatasetFingerprintStream(std::size_t num_avails)
    : hash_(FingerprintMix(kFingerprintSeed, num_avails)) {}

void DatasetFingerprintStream::Add(std::span<const Avail> avails) {
  std::uint64_t hash = hash_;
  for (const Avail& avail : avails) hash = MixAvail(hash, avail);
  hash_ = hash;
}

void DatasetFingerprintStream::BeginRccs(std::size_t num_rccs) {
  hash_ = FingerprintMix(hash_, num_rccs);
}

void DatasetFingerprintStream::Add(std::span<const Rcc> rccs) {
  std::uint64_t hash = hash_;
  for (const Rcc& rcc : rccs) hash = MixRcc(hash, rcc);
  hash_ = hash;
}

std::uint64_t ComputeDatasetFingerprint(const Dataset& data) {
  DatasetFingerprintStream stream(data.avails.size());
  stream.Add(data.avails.rows());
  stream.BeginRccs(data.rccs.size());
  stream.Add(data.rccs.rows());
  return stream.value();
}

std::uint64_t DigestIds(const std::vector<std::int64_t>& ids) {
  std::uint64_t hash = kFingerprintSeed;
  hash = FingerprintMix(hash, ids.size());
  for (std::int64_t id : ids) {
    hash = FingerprintMix(hash, static_cast<std::uint64_t>(id));
  }
  return hash;
}

std::uint64_t DigestGrid(const std::vector<double>& grid) {
  std::uint64_t hash = kFingerprintSeed;
  hash = FingerprintMix(hash, grid.size());
  for (double t : grid) {
    hash = FingerprintMix(hash, std::bit_cast<std::uint64_t>(t));
  }
  return hash;
}

}  // namespace domd
