// rftc::obs — umbrella header and environment wiring for the observability
// layer (metrics registry + event tracer + sinks).
//
// Environment variables (read once, on first use or via init_from_env()):
//   RFTC_OBS_TRACE=<path>           enable tracing; write Chrome trace_event
//                                   JSON to <path> at exit / flush()
//   RFTC_OBS_METRICS=stderr|<path>  dump the metric registry at exit:
//                                   human-readable to stderr, JSON to <path>
//   RFTC_OBS_HEARTBEAT=<path>[:interval_ms]
//                                   start the background heartbeat sampler
//                                   (obs/sampler.hpp): append one snapshot
//                                   line to <path> every interval_ms
//                                   (default 1000), fsync'd per tick
//   RFTC_OBS_PERF=0                 disable perf_event_open profiling
//   RFTC_OBS_POSTMORTEM=<path>      arm the crash-safe post-mortem writer
//                                   (obs/postmortem.hpp): dump <path> on
//                                   SIGSEGV/SIGABRT/SIGBUS/SIGFPE,
//                                   std::terminate, or recovery exhaustion
//   RFTC_LOG=<spec>                 structured-logger levels (obs/log.hpp),
//                                   e.g. RFTC_LOG=info,clk=debug
//   RFTC_LOG_FILE=<path>            JSONL log sink
//
// Relative sink paths (trace/metrics/heartbeat) land under RFTC_BENCH_DIR
// like every other artifact; absolute paths are used as-is.  The trace
// rings hold kTraceRingEvents events per thread and the log flight
// recorder kLogRingRecords records per thread (obs/thread_ring.hpp).
//
// See docs/OBSERVABILITY.md for the metric catalogue and span names.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"

namespace rftc::obs {

/// Reads the RFTC_OBS_* environment once, enables the tracer if a trace
/// sink is configured, and registers an atexit flush.  Idempotent and
/// thread-safe; called lazily by trace_enabled(), so binaries need no
/// explicit setup.
void init_from_env();

/// Fast query used by every instrumentation site: is event tracing on?
/// First call performs the env initialisation.
bool trace_enabled();

/// Writes all configured sinks now (also runs automatically at exit).
/// Useful before abnormal termination or between bench phases.  Also
/// surfaces Tracer::dropped() as the obs.trace.dropped_events gauge and
/// warns on stderr (once) when flight-recorder events were lost.
void flush();

/// Writes `content` to `path_spec` routed exactly like the RFTC_OBS_*
/// sinks (relative paths land under artifact_dir()); returns the resolved
/// path, or "" when the file cannot be opened.
std::string write_artifact(const std::string& path_spec,
                           const std::string& content);

}  // namespace rftc::obs
