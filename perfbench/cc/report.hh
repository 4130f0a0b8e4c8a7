/**
 * @file
 * Metric definitions, provenance, and the result line.
 */

#ifndef GMX_PERFBENCH_REPORT_HH
#define GMX_PERFBENCH_REPORT_HH

#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "workload.hh"

namespace perfbench {

/** One reported metric, as BENCHMARK.json lists it. */
struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better; //!< "lower" or "higher"
    /** Which end-to-end metric, on which workload, it should move. */
    std::string moves;
};

/** Metrics of the timed run (--trace 0). */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics of the traced run (--trace 1). */
const std::vector<MetricDef> &perLayerMetrics();

/** Both lists as JSON, for keeping BENCHMARK.json in step. */
std::string describeJson();

/** Build, host and configuration facts printed with every result. */
std::string provenanceJson(const Workload &w, u64 seed, double seconds,
                           bool traced, const std::string &commit);

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/**
 * The last stdout line: correct/attempted/failed plus every metric of
 * @p defs, in order, taken from @p values (missing ones are an error).
 */
std::string resultLine(bool correct, u64 attempted, u64 failed,
                       const std::vector<MetricDef> &defs,
                       const std::map<std::string, double> &values);

} // namespace perfbench

#endif // GMX_PERFBENCH_REPORT_HH
