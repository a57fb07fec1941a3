// Worker side of the distributed campaign protocol: executes exactly one
// shard task file (see dist/protocol.hpp) — accumulate the shard's trace
// range, snapshot the accumulator, record the shard manifest checkpoint.
// The rftc-worker binary is a thin main() around run_worker_task.
#pragma once

#include <string>

namespace rftc::dist {

/// Reads the task at `task_path`, accumulates its trace range through the
/// single-process analysis primitives (accumulate_attack_range /
/// accumulate_tvla_range), atomically writes the accumulator snapshot —
/// streamed from the accumulator in one pass — and then the done manifest
/// it names (size, seal and phase times).  Idempotent: re-running a task overwrites
/// both artifacts with identical bytes.  Throws on any I/O, parse or
/// geometry failure — the coordinator treats a non-zero worker exit as a
/// shard attempt failure.
///
/// Fault-injection hook for the resume tests and the dist-resume CI job:
/// when RFTC_DIST_KILL_SHARD names this task's shard index and the marker
/// file RFTC_DIST_KILL_MARK does not exist yet, the worker creates the
/// marker and raises SIGKILL *before* anything durable is written — a
/// one-shot mid-shard crash.
void run_worker_task(const std::string& task_path);

}  // namespace rftc::dist
