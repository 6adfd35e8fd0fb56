/**
 * @file
 * The traced run: all four workloads once each with spans around the
 * benchmark's calls into every layer's public API, plus the probes
 * that only a traced run makes (the 1-thread fleet replay and the
 * standalone KvService), and the per-layer metrics derived from them.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>

#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

/** A metric value and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/**
 * Run the traced suite, each workload at its seed in @p seeds. Fills
 * @p metrics with every per-layer metric and @p outcomes with each
 * workload's traced outcome (for the digest and invariant checks).
 */
void runTraced(const std::map<std::string, std::uint64_t> &seeds,
               Tracer &tracer, Metrics &metrics,
               std::map<std::string, Outcome> &outcomes);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
