#ifndef DOMD_COMMON_FNV1A_H_
#define DOMD_COMMON_FNV1A_H_

#include <cstdint>
#include <string_view>

namespace domd {

/// 64-bit FNV-1a's offset basis (the seed of a fresh digest) and prime.
inline constexpr std::uint64_t kFnv1aSeed = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ull;

/// Folds `bytes` into the FNV-1a digest `seed`, one byte at a time: the one
/// byte hash behind bundle checksums, log record checksums, history chains,
/// ring placement, fault streams and the feature-catalog version. Pass a
/// previous digest as `seed` to continue it.
constexpr std::uint64_t Fnv1a(std::string_view bytes,
                              std::uint64_t seed = kFnv1aSeed) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnv1aPrime;
  }
  return hash;
}

}  // namespace domd

#endif  // DOMD_COMMON_FNV1A_H_
