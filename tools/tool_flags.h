// Flag handling shared by domd, domd_serve and domd_router: the checked
// parse, fault arming, and the reactor flags of the two servers.

#ifndef DOMD_TOOLS_TOOL_FLAGS_H_
#define DOMD_TOOLS_TOOL_FLAGS_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "fault/fault.h"
#include "serve/reactor.h"

namespace domd {

/// Upper bound of every thread- or shard-count flag.
inline constexpr std::int64_t kMaxThreadsFlag = 1024;
/// Upper bound of a flag read into an int, durations included.
inline constexpr std::int64_t kMaxIntFlag = 2147483647;
/// Upper bound of a byte-size flag (2^62).
inline constexpr std::int64_t kMaxBytesFlag = std::int64_t{1} << 62;

/// Parses argv[first, argc) against `specs` plus --fault-spec, then arms
/// fault injection from --fault-spec or $DOMD_FAULT_SPEC. On a bad flag, a
/// malformed spec, or a spec given to a build that compiled faults out,
/// prints the error and returns nullopt: the caller exits 2.
inline std::optional<Flags> ParseToolFlags(const char* program, int argc,
                                           char** argv, int first,
                                           std::vector<FlagSpec> specs) {
  specs.push_back(StringFlag("fault-spec"));
  auto flags = Flags::Parse(argc, argv, first, specs);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().message().c_str());
    return std::nullopt;
  }
  std::string spec = flags->String("fault-spec");
  if (spec.empty()) {
    if (const char* env = std::getenv("DOMD_FAULT_SPEC")) spec = env;
  }
  if (spec.empty()) return std::move(*flags);
#if DOMD_FAULT_COMPILED
  const Status status = fault::FaultRegistry::Default().ApplySpec(spec);
  if (!status.ok()) {
    std::fprintf(stderr, "error: --fault-spec: %s\n",
                 status.ToString().c_str());
    return std::nullopt;
  }
  fault::SetEnabled(true);
  std::fprintf(stderr, "%s: fault injection armed: %s\n", program,
               spec.c_str());
  return std::move(*flags);
#else
  (void)program;
  std::fprintf(stderr,
               "error: --fault-spec given but fault injection was compiled "
               "out (-DDOMD_DISABLE_FAULTS)\n");
  return std::nullopt;
#endif
}

/// `specs` plus the reactor flags both servers accept.
inline std::vector<FlagSpec> WithReactorFlags(std::vector<FlagSpec> specs) {
  for (FlagSpec spec : {IntFlag("port", 0, 65535),
                        IntFlag("loop-shards", 1, kMaxThreadsFlag),
                        IntFlag("max-connections", 1, kMaxIntFlag),
                        IntFlag("idle-timeout-ms", 0, kMaxIntFlag)}) {
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Reactor options from the reactor flags; --port defaults to
/// `default_port`.
inline ReactorOptions ReactorOptionsFromFlags(const Flags& flags,
                                              int default_port) {
  ReactorOptions options;
  options.port = static_cast<int>(flags.Int("port", default_port));
  options.num_shards = static_cast<std::size_t>(flags.Int("loop-shards", 2));
  options.max_connections =
      static_cast<std::size_t>(flags.Int("max-connections", 1024));
  options.idle_timeout =
      std::chrono::milliseconds(flags.Int("idle-timeout-ms", 60000));
  return options;
}

}  // namespace domd

#endif  // DOMD_TOOLS_TOOL_FLAGS_H_
