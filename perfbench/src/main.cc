// tar_perfbench: one workload of the kNNTA serving benchmark per call.
//
//   tar_perfbench --workload serve-read|cold-tia|ingest-mixed --seed N
//                 --seconds S --trace 0|1 [--scale F] [--work-dir DIR]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the traced
// pass instead and prints every per-layer metric (and writes the spans to
// DIR/spans-<workload>-<seed>.jsonl). The last line of stdout is the
// result object; lines before it start with "# ". Exit 0 when the run
// completed, even with wrong answers (they show as correct=false); exit 1
// without a result line when it could not run or a metric is not finite.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "layers.h"
#include "workloads.h"

using namespace perfbench;

namespace {

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(value, "1") == 0;
      if (!o->trace && std::strcmp(value, "0") != 0) return false;
    } else if (flag == "--scale") {
      o->scale = std::strtod(value, &end);
    } else if (flag == "--work-dir") {
      o->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !o->workload.empty() && o->seconds > 0.0 && o->scale > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: tar_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale F] [--work-dir DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::vector<Metric> metrics;
  Tally tally;
  const tar::Status st =
      options.trace ? RunTraced(*spec, options, &metrics, &tally)
                    : RunWorkload(*spec, options, &metrics, &tally);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  bool finite = true;
  for (const Metric& m : metrics) {
    Note("%-28s %14.4f %s", m.name.c_str(), m.value, m.unit.c_str());
    finite = finite && std::isfinite(m.value);
  }
  if (!finite) {
    // A NaN or infinity is a broken measurement, never a figure to report.
    std::fprintf(stderr, "%s: a metric is not finite\n",
                 options.workload.c_str());
    return 1;
  }
  std::printf("%s\n", ResultLine(tally, metrics).c_str());
  return 0;
}
