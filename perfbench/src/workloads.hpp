// The four benchmark workloads (see perfbench/README.md for why each one
// exists and which layer it puts in front).
#pragma once

#include <string>

#include "harness.hpp"

namespace perfbench {

/// Runs `opt.workload` with its stores under `scratch` and fills `r`:
/// end-to-end metrics untraced, per-layer metrics traced.  Throws
/// std::invalid_argument for an unknown workload name.
void run_workload(const Options& opt, const ScratchDir& scratch, Result& r);

}  // namespace perfbench
