// dse-zc706: hwgen::generate for each Tbl. 4 application under the
// ZC706 budget (AvgLatency objective, out-of-order, sequential, as
// the figure benches call it), then the ARM platform model for the
// Fig. 13 speedup. The generator is the paper's product and this is
// the only workload that touches hwgen, the cost model's resources
// and the baselines. Each pass over the four applications uses fresh
// mission seeds, so every greedy step simulates (program, config)
// pairs it has not seen before: a schedule cache keyed on them is
// bypassed and only the cold scheduler path counts.

#include <algorithm>
#include <cmath>
#include <memory>

#include "../bench/bench_common.hpp"
#include "apps/benchmark_apps.hpp"
#include "baselines/platform_models.hpp"
#include "hwgen/generator.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace orianna::perfbench {

namespace {

/**
 * Pass @p pass builds every application for mission 2000 + pass (a
 * fixed structure per pass) and perturbs its initial values with the
 * workload seed.
 */
std::unique_ptr<apps::BenchmarkApp>
buildMission(apps::AppKind kind, unsigned seed, std::size_t pass)
{
    auto app = std::make_unique<apps::BenchmarkApp>(
        apps::buildApp(kind, 2000 + static_cast<unsigned>(pass)));
    for (std::size_t i = 0; i < app->app.size(); ++i)
        perturbValues(app->app.algorithm(i).values, seed,
                      pass * 16 + static_cast<std::size_t>(kind) * 4 + i);
    return app;
}

struct Design
{
    std::unique_ptr<apps::BenchmarkApp> app;
    hwgen::GenerationResult generated;
    double generateMs = 0.0;
};

/** Pass 0's applications and their ARM platform-model times. */
struct Setup
{
    std::vector<double> armSeconds;
    std::vector<double> buildMs;
};

Setup
setUp(unsigned seed)
{
    Setup setup;
    for (const apps::AppKind kind : apps::allApps()) {
        ScopedSpan span("apps.buildApp");
        const std::int64_t start = nowNs();
        const std::unique_ptr<apps::BenchmarkApp> app =
            buildMission(kind, seed, 0);
        setup.buildMs.push_back(secondsSince(start) * 1e3);
        setup.armSeconds.push_back(
            baselines::runOnCpu(baselines::arm(),
                                app->app.referenceFrameWork())
                .seconds);
    }
    return setup;
}

Design
generateDesign(std::unique_ptr<apps::BenchmarkApp> app, std::uint64_t id)
{
    Design design;
    design.app = std::move(app);
    const std::vector<hw::WorkItem> work = design.app->app.frameWork();
    ScopedSpan span("hwgen.generate", id);
    const std::int64_t start = nowNs();
    design.generated = hwgen::generate(work, bench::zc706Budget(),
                                       hwgen::Objective::AvgLatency, true);
    design.generateMs = static_cast<double>(nowNs() - start) / 1e6;
    return design;
}

/**
 * Passes differ in their missions, so a run's mix of generate calls
 * depends on how many passes it makes. The count is therefore fixed
 * by the run length alone, at about one pass per second of the
 * 4-core reference host, instead of by a deadline.
 */
constexpr double kPassSeconds = 1.0;

std::size_t
passesFor(double seconds)
{
    return static_cast<std::size_t>(
        std::max(1.0, std::round(seconds / kPassSeconds)));
}

/**
 * @p passes whole passes over the four applications, each building
 * its missions and generating their designs; each pass is one
 * host-clock window.
 */
std::vector<Design>
generatePasses(unsigned seed, std::size_t passes, std::size_t &pass,
               std::vector<Window> &windows)
{
    std::vector<Design> designs;
    for (std::size_t p = 0; p < passes; ++p, ++pass) {
        Window window;
        window.calibrationMs = calibrationMs();
        const std::int64_t start = nowNs();
        for (std::size_t a = 0; a < apps::allApps().size(); ++a) {
            designs.push_back(generateDesign(
                buildMission(apps::allApps()[a], seed, pass),
                pass * 16 + a + 1));
            window.frameMs.push_back(designs.back().generateMs);
        }
        window.seconds = secondsSince(start);
        windows.push_back(std::move(window));
    }
    return designs;
}

} // namespace

Result
runDse(const Options &options)
{
    Result result;
    Tracer &tracer = Tracer::global();

    SetupTimes setup_times;
    Setup setup;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        setup_times.start();
        setup = setUp(options.seed);
        setup_times.stop();
    }
    setup_times.report(result);
    const std::vector<double> arm_seconds = setup.armSeconds;
    const std::vector<double> build_ms = setup.buildMs;

    std::size_t pass = 0;
    const std::size_t passes =
        passesFor(options.trace ? options.seconds / 2 : options.seconds);
    std::vector<Window> windows;
    std::vector<Design> untraced =
        generatePasses(options.seed, passes, pass, windows);
    const double rss_mb = peakRssMb();
    std::vector<Design> traced;
    const double untraced_evaluations = static_cast<double>(
        runtime::MetricsRegistry::global().counter("hw.frames").value());
    if (options.trace) {
        runtime::MetricsRegistry::global().reset();
        tracer.setEnabled(true);
        std::vector<Window> traced_windows;
        traced = generatePasses(options.seed, passes, pass,
                                traced_windows);
        tracer.setEnabled(false);
    }
    const double traced_evaluations = static_cast<double>(
        runtime::MetricsRegistry::global().counter("hw.frames").value());

    // --- Output checks: re-simulate every selected design. ----------
    const std::int64_t check_start = nowNs();
    const hw::Resources budget = bench::zc706Budget();
    for (const std::vector<Design> *set : {&untraced, &traced}) {
        for (const Design &d : *set) {
            result.attempted += 2;
            runtime::ExecutionContext fresh(d.app->app.frameWork());
            if (fresh.run(d.generated.config).cycles !=
                d.generated.result.cycles)
                result.fail("re-simulating a selected design on a fresh "
                            "context changed its cycles");
            if (!d.generated.config.resources().fitsIn(budget))
                result.fail("a selected design exceeds the ZC706 budget");
        }
    }
    result.checkSeconds = secondsSince(check_start);

    // --- End-to-end metrics. ----------------------------------------
    reportHostFrames(windows, result);
    std::vector<double> generate_ms;
    for (const Design &d : untraced)
        generate_ms.push_back(d.generateMs);
    result.e2e("generate_p50_s", quantile(generate_ms, 0.5) / 1e3, "s");

    std::vector<double> device_us;
    std::vector<double> energy_uj;
    double log_speedup = 0.0;
    Digest digest;
    HwTotals hw_totals;
    const std::size_t app_count = apps::allApps().size();
    for (std::size_t a = 0; a < app_count; ++a) {
        const Design &d = untraced[a];
        const hw::SimResult &frame = d.generated.result;
        device_us.push_back(cyclesToUs(static_cast<double>(frame.cycles)));
        energy_uj.push_back(frame.totalEnergyJ() * 1e6);
        log_speedup += std::log(arm_seconds[a] / frame.seconds());
        digest.add(frame);
        for (unsigned units : d.generated.config.units)
            digest.add(static_cast<std::uint64_t>(units));
        digest.add(arm_seconds[a]);
        std::size_t instructions = 0;
        for (const hw::WorkItem &w : d.app->app.frameWork())
            instructions += w.program->instructions.size();
        hw_totals.add(frame, d.generated.config, instructions);
    }
    result.simDigest = digest.hex();
    result.e2e("device_frame_p50_us", quantile(device_us, 0.5), "us");
    result.e2e("device_energy_uj", mean(energy_uj), "uJ");
    result.e2e("device_speedup_vs_arm",
               std::exp(log_speedup / static_cast<double>(app_count)),
               "x");
    result.e2e("peak_rss_mb", rss_mb, "MB");

    if (!options.trace)
        return result;

    // --- Per-layer metrics. -----------------------------------------
    result.layer("apps.build_ms", mean(build_ms), "ms");
    double traced_ms = 0.0;
    double steps = 0.0;
    for (const Design &d : traced) {
        traced_ms += d.generateMs;
        steps += static_cast<double>(d.generated.trajectory.size());
    }
    const double calls = static_cast<double>(traced.size());
    result.layer("hwgen.generate_ms", traced_ms / calls, "ms");
    result.layer("hwgen.greedy_steps", steps / calls, "count");
    result.layer("hwgen.evaluations", traced_evaluations / calls, "count");
    result.layer("hwgen.eval_us", traced_ms * 1e3 / traced_evaluations,
                 "us");
    double dsp = 0.0;
    double lut = 0.0;
    for (std::size_t a = 0; a < app_count; ++a) {
        const hw::Resources r = untraced[a].generated.config.resources();
        dsp += static_cast<double>(r.dsp);
        lut += static_cast<double>(r.lut);
    }
    result.layer("hwgen.design_dsp", dsp / static_cast<double>(app_count),
                 "count");
    result.layer("hwgen.design_lut", lut / static_cast<double>(app_count),
                 "count");
    hw_totals.report(result);

    // Compile side: the pass-0 algorithms through a fresh engine.
    runtime::MetricsRegistry::global().reset();
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true));
    std::vector<ProbeItem> items;
    for (std::size_t a = 0; a < app_count; ++a) {
        const core::Application &app = untraced[a].app->app;
        for (std::size_t i = 0; i < app.size(); ++i)
            engine.program(app.algorithm(i).graph,
                           app.algorithm(i).values,
                           static_cast<std::uint8_t>(i),
                           app.algorithm(i).name);
        ProbeItem item{untraced[a].generated.config, app.frameWork(), {}};
        for (std::size_t i = 0; i < app.size(); ++i)
            item.objectives.emplace_back(&app.algorithm(i).graph,
                                         &app.algorithm(i).values);
        items.push_back(std::move(item));
    }
    reportCompiler(engine.compileLog(), result);
    reportEngine(engine.cachedPrograms(), result);
    result.layers.erase("engine.session_open_us_p50"); // no sessions
    probeLayers(items, result);
    // Passes differ in their missions, so the overhead compares host
    // time per simulated candidate rather than per generate call.
    double untraced_ms = 0.0;
    for (double ms : generate_ms)
        untraced_ms += ms;
    result.layer("trace.overhead_ratio",
                 (traced_ms / traced_evaluations) /
                     (untraced_ms / untraced_evaluations),
                 "ratio");
    return result;
}

} // namespace orianna::perfbench
