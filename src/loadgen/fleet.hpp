// The load engine: M servers × K cores behind a pluggable balancer, driven
// by the sharded discrete-event core (sim::ShardedEventLoop). Every load
// configuration runs here; the default LoadConfig is one server with one
// client class (DESIGN.md §6c, §6f).
#pragma once

#include <cstdint>

#include "loadgen/loadgen.hpp"

namespace pqtls::trace {
class Recorder;
}

namespace pqtls::loadgen {

/// Simulate `config` to completion and report metrics. Deterministic:
/// depends only on the config (including seeds), never on the shard count.
/// Throws std::invalid_argument for a non-positive or non-finite
/// duration, a non-positive offered rate, or an empty client population.
/// When `recorder` is non-null, every `trace_every`-th connection's path
/// through the fleet is recorded (cat "fleet": balancer decision, SYN
/// arrival, queue handoff, core completion) — Perfetto-loadable via
/// trace::Recorder::write_chrome_trace. Tracing forces a single shard (the
/// recorder is not thread-safe); by the sharded loop's determinism
/// contract the results are unchanged.
LoadMetrics run_fleet(const LoadConfig& config,
                      trace::Recorder* recorder = nullptr,
                      std::uint32_t trace_every = 1000);

}  // namespace pqtls::loadgen
