#include <algorithm>
#include <map>

#include "matrix/mac_counter.hpp"
#include "matrix/simd.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace orianna::perfbench {

namespace {

/** Timed repetitions per probed frame; the median is kept. */
constexpr int kProbeRepeats = 9;

std::uint64_t
kernelCalls()
{
    std::uint64_t total = 0;
    for (std::size_t op = 0; op < mat::kernels::kKernelOpCount; ++op)
        total += mat::kernels::kernelCallCount(
            static_cast<mat::kernels::KernelOp>(op));
    return total;
}

template <typename Body>
double
medianUs(const char *span, std::uint64_t frame, Body &&body)
{
    std::vector<double> samples;
    for (int r = 0; r < kProbeRepeats; ++r) {
        ScopedSpan scoped(span, frame);
        const std::int64_t start = nowNs();
        body();
        samples.push_back(static_cast<double>(nowNs() - start) / 1e3);
    }
    return median(std::move(samples));
}

} // namespace

void
probeLayers(const std::vector<ProbeItem> &items, Result &out,
            HwTotals *hw_totals)
{
    double objective_us = 0.0;
    double executor_us = 0.0;
    double run_us = 0.0;
    double instructions = 0.0;
    double kernels = 0.0;
    double macs = 0.0;
    std::uint64_t frame = 1;
    for (const ProbeItem &item : items) {
        objective_us += medianUs("fg.totalError", frame, [&] {
            double total = 0.0;
            for (const auto &[graph, values] : item.objectives)
                total += graph->totalError(*values);
            return total;
        });

        std::vector<comp::Executor> executors;
        for (const hw::WorkItem &w : item.work)
            executors.emplace_back(*w.program);
        executor_us += medianUs("compiler.Executor.run", frame, [&] {
            for (std::size_t i = 0; i < executors.size(); ++i)
                executors[i].run(*item.work[i].values);
        });

        runtime::ExecutionContext context(item.work);
        const std::uint64_t kernels_before = kernelCalls();
        const mat::MacScope mac_scope;
        const hw::SimResult result = context.run(item.config);
        macs += static_cast<double>(mac_scope.elapsed());
        kernels += static_cast<double>(kernelCalls() - kernels_before);
        run_us += medianUs("runtime.ExecutionContext.run", frame,
                           [&] { context.run(item.config); });

        std::size_t count = 0;
        for (const hw::WorkItem &w : item.work)
            count += w.program->instructions.size();
        instructions += static_cast<double>(count);
        if (hw_totals != nullptr)
            hw_totals->add(result, item.config, count);
        ++frame;
    }
    const double n = static_cast<double>(std::max<std::size_t>(
        1, items.size()));
    out.layer("fg.objective_us_per_step", objective_us / n, "us");
    out.layer("compiler.executor_us_per_frame", executor_us / n, "us");
    out.layer("compiler.instructions_per_frame", instructions / n,
              "count");
    out.layer("context.run_us_per_frame", run_us / n, "us");
    out.layer("context.schedule_us_per_frame",
              (run_us - executor_us) / n, "us");
    out.layer("context.schedule_share",
              run_us > 0.0 ? (run_us - executor_us) / run_us : 0.0,
              "ratio");
    out.layer("context.sim_instr_per_s",
              run_us > 0.0 ? instructions / (run_us * 1e-6) : 0.0,
              "1/s");
    out.layer("matrix.kernel_calls_per_frame", kernels / n, "count");
    out.layer("matrix.macs_per_frame", macs / n, "count");
}

double
histogramQuantileUs(const char *name, double p)
{
    return runtime::MetricsRegistry::global().histogram(name).percentile(
        p);
}

double
histogramMeanUs(const char *name)
{
    const runtime::Histogram &h =
        runtime::MetricsRegistry::global().histogram(name);
    return h.count() == 0 ? 0.0
                          : static_cast<double>(h.sumUs()) /
                                static_cast<double>(h.count());
}

void
reportCompiler(const std::vector<runtime::Engine::CompileRecord> &log,
               Result &out)
{
    out.layer("compiler.compile_ms",
              histogramMeanUs("engine.compile_us") / 1e3, "ms");
    out.layer("compiler.compile_ms_p50",
              histogramQuantileUs("engine.compile_us", 0.5) / 1e3, "ms");

    std::map<std::string, double> pass_us;
    double before = 0.0;
    double after = 0.0;
    for (const runtime::Engine::CompileRecord &record : log) {
        for (const comp::PassStats &pass : record.passes)
            pass_us[pass.pass] += static_cast<double>(pass.wallUs);
        if (!record.passes.empty()) {
            before += static_cast<double>(record.passes.front().before);
            after += static_cast<double>(record.passes.back().after);
        }
    }
    const double compiles =
        static_cast<double>(std::max<std::size_t>(1, log.size()));
    for (const char *pass : {"dedup", "dce", "cse", "fuse"})
        out.layer(std::string("compiler.pass_ms.") + pass,
                  pass_us[pass] / compiles / 1e3, "ms");
    out.layer("compiler.pass_shrink_ratio",
              before > 0.0 ? after / before : 0.0, "ratio");
    out.layer("engine.compile_log_entries",
              static_cast<double>(log.size()), "count");
}

void
reportEngine(std::size_t cached_programs, Result &out)
{
    runtime::MetricsRegistry &metrics = runtime::MetricsRegistry::global();
    const double compiled =
        static_cast<double>(metrics.counter("engine.compiles").value());
    const double hits =
        static_cast<double>(metrics.counter("engine.cache_hits").value());
    out.layer("engine.compiles", compiled, "count");
    out.layer("engine.cache_hits", hits, "count");
    out.layer("engine.cache_hit_ratio",
              compiled + hits > 0.0 ? hits / (compiled + hits) : 0.0,
              "ratio");
    out.layer("engine.session_open_us_p50",
              histogramQuantileUs("engine.session_open_us", 0.5), "us");
    out.layer("engine.singleflight_waits",
              static_cast<double>(
                  metrics.counter("engine.singleflight_waits").value()),
              "count");
    out.layer("engine.cached_programs",
              static_cast<double>(cached_programs), "count");
}

void
reportSessions(Result &out)
{
    out.layer("session.step_us_p50",
              histogramQuantileUs("frame.total_us", 0.5), "us");
    out.layer("session.simulate_us_p50",
              histogramQuantileUs("frame.simulate_us", 0.5), "us");
    out.layer("session.update_us_p50",
              histogramQuantileUs("frame.update_us", 0.5), "us");
}

} // namespace orianna::perfbench
