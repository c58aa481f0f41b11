#pragma once

// The four workloads and the layer probes they share.

#include <string>
#include <vector>

#include "common.hpp"
#include "fg/graph.hpp"
#include "runtime/engine.hpp"

namespace orianna::perfbench {

Result runServeApps(const Options &options);
Result runSlam(const Options &options, bool manhattan);
Result runDse(const Options &options);

/** One frame's work for the single-threaded layer probe. */
struct ProbeItem
{
    hw::AcceleratorConfig config;
    std::vector<hw::WorkItem> work;
    /** Graph/values pairs whose objective the frame reports. */
    std::vector<std::pair<const fg::FactorGraph *, const fg::Values *>>
        objectives;
};

/**
 * Times the layers under one frame, single-threaded and outside the
 * timed phase, on the workload's own programs and values:
 * FactorGraph::totalError (fg.*), comp::Executor::run in program
 * order without a schedule (compiler.executor_*), and
 * ExecutionContext::run (context.*, whose excess over the executor
 * is the schedule simulation). Also counts dispatched kernels and
 * MACs per frame (matrix.*) and instructions per frame. When
 * @p hw_totals is given, each item's simulated frame is added to it.
 */
void probeLayers(const std::vector<ProbeItem> &items, Result &out,
                 HwTotals *hw_totals = nullptr);

/**
 * Compile-side layer metrics of an engine's compile @p log:
 * compiler.compile_ms(_p50)
 * from the engine.compile_us histogram (recorded since the last
 * registry reset), and compiler.pass_ms.<pass>,
 * compiler.pass_shrink_ratio and engine.compile_log_entries from
 * compileLog() PassStats.
 */
void reportCompiler(const std::vector<runtime::Engine::CompileRecord> &log,
                    Result &out);

/**
 * engine.* cache counters since the last registry reset, plus the
 * programs an engine holds at the end of the run.
 */
void reportEngine(std::size_t cached_programs, Result &out);

/** session.* from the frame.* histograms since the last reset. */
void reportSessions(Result &out);

/** The p-quantile of a registry histogram, in microseconds. */
double histogramQuantileUs(const char *name, double p);
/** Mean of a registry histogram, in microseconds (0 when empty). */
double histogramMeanUs(const char *name);

} // namespace orianna::perfbench
