// The traced run: spans around every call the benchmark makes into a
// layer, and the per-layer metrics derived from them.
#pragma once

#include <vector>

#include "common.h"
#include "common/status.h"
#include "workloads.h"

namespace perfbench {

/// Traced run of `spec`: every per-layer metric.
tar::Status RunTraced(const WorkloadSpec& spec, const Options& options,
                      std::vector<Metric>* metrics, Tally* tally);

}  // namespace perfbench
