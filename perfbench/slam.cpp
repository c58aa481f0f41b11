// slam-garage / slam-manhattan: closed loop, one stream replaying a
// pose-graph world through one AcceleratedSmoother with the
// accelerator-path settings bench_incremental uses (every suffix on
// the device, relinearize-all every poses/10 frames, threshold
// relinearization off).
//
// garage: fixed-depth loop closures converge to a few suffix shapes,
// so the engine cache and the session LRU are read-mostly; host time
// goes to smoother bookkeeping, streaming bindings and simulating
// long suffix programs, and the tail to relinearize-all compiles.
//
// manhattan: each closure reaches back a different depth, so most
// deep frames are a fresh shape and the engine, its run-private
// program store and the compiler are used write-heavy (compiles,
// pass pipeline, compile log, store publishes), and memory grows.
//
// Every replay runs on a fresh Engine (and store), so each replay
// repeats the same work and the compile cost stays in the timed
// phase. Replays repeat until the run time is spent; the one in
// progress finishes.

#include <algorithm>
#include <filesystem>
#include <unistd.h>

#include "apps/pose_graph.hpp"
#include "fg/incremental.hpp"
#include "fg/optimizer.hpp"
#include "runtime/incremental.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace_sink.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace orianna::perfbench {

namespace {

constexpr std::size_t kGarageLaps = 5;
constexpr std::size_t kGaragePerLap = 24;
constexpr std::size_t kManhattanPoses = 160;
/**
 * World structure (trajectory, closures, measurements) is fixed; the
 * workload seed perturbs the initial estimates.
 */
constexpr unsigned kWorldSeed = 5;
/** Frames replayed on a throwaway engine during set-up. */
constexpr std::size_t kWarmFrames = 48;
/** Leading frames whose batch program the layer probe runs. */
constexpr std::size_t kProbeFrames = 48;

apps::PoseGraphScenario
makeScenario(bool manhattan, unsigned seed)
{
    apps::PoseGraphScenario scenario =
        manhattan ? apps::makeManhattanWorld(kManhattanPoses, kWorldSeed)
                  : apps::makeGarageWorld(kGarageLaps, kGaragePerLap,
                                          kWorldSeed);
    perturbValues(scenario.initial, seed, 0);
    return scenario;
}

runtime::AcceleratedSmootherOptions
smootherOptions(std::size_t poses)
{
    runtime::AcceleratedSmootherOptions options;
    options.params.relinearizeInterval =
        std::max<std::size_t>(10, poses / 10);
    options.params.relinearizeThreshold = 1e18;
    options.maxAcceleratedSuffix = 0;
    return options;
}

/** One replay of the whole world through a fresh engine. */
struct Replay
{
    Window host; //!< The replay is one host-clock window.
    std::vector<std::uint64_t> cycles;
    double updateUs = 0.0;
    double reeliminated = 0.0;
    std::size_t relinearized = 0;
    fg::Values estimate;
    runtime::AcceleratedSmootherStats stats;
    runtime::Engine::Stats engineStats;
    std::uint64_t retries = 0;
    std::uint64_t fallbacks = 0;
    std::size_t cachedPrograms = 0;
    std::vector<runtime::Engine::CompileRecord> log;
    std::uint64_t storeBytes = 0;
    std::uint64_t storeEntries = 0;
};

template <typename Smoother>
void
feedFrame(Smoother &smoother, const apps::PoseGraphScenario &scenario,
          const apps::PoseGraphFrame &frame)
{
    {
        ScopedSpan span("smoother.addVariable");
        smoother.addVariable(frame.key, scenario.initial.pose(frame.key));
    }
    ScopedSpan span("smoother.addFactor");
    for (const fg::FactorPtr &factor : frame.factors)
        smoother.addFactor(factor);
}

Replay
replay(const apps::PoseGraphScenario &scenario, std::size_t frames,
       const std::string &store_dir, std::uint64_t replay_id)
{
    namespace fs = std::filesystem;
    std::error_code error;
    if (!store_dir.empty())
        fs::remove_all(store_dir, error);
    runtime::EngineOptions engine_options;
    engine_options.precision = comp::Precision::Fp64;
    engine_options.storeDir = store_dir;
    Replay out;
    {
        runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                               engine_options);
        runtime::AcceleratedSmoother smoother(
            engine, smootherOptions(scenario.frames.size()));
        const std::int64_t start = nowNs();
        for (std::size_t i = 0; i < frames; ++i) {
            const apps::PoseGraphFrame &frame = scenario.frames[i];
            ScopedSpan span("smoother.frame", (replay_id << 32) | (i + 1));
            const std::int64_t frame_start = nowNs();
            feedFrame(smoother, scenario, frame);
            fg::UpdateStats update;
            {
                ScopedSpan update_span("smoother.update");
                const std::int64_t update_start = nowNs();
                update = smoother.update();
                out.updateUs +=
                    static_cast<double>(nowNs() - update_start) / 1e3;
            }
            out.host.frameMs.push_back(
                static_cast<double>(nowNs() - frame_start) / 1e6);
            out.cycles.push_back(smoother.stats().lastCycles);
            out.reeliminated +=
                static_cast<double>(update.eliminatedVariables);
            out.relinearized += update.relinearized ? 1 : 0;
        }
        out.host.seconds = secondsSince(start);
        out.estimate = smoother.estimate();
        out.stats = smoother.stats();
        out.engineStats = engine.stats();
        out.retries = engine.health().retries;
        out.fallbacks = engine.health().fallbacks;
        out.cachedPrograms = engine.cachedPrograms();
        out.log = engine.compileLog();
    }
    if (!store_dir.empty()) {
        std::tie(out.storeBytes, out.storeEntries) =
            directoryUsage(store_dir);
        fs::remove_all(store_dir, error);
    }
    return out;
}

double
maxDelta(const fg::Values &a, const fg::Values &b)
{
    double worst = 0.0;
    for (fg::Key key : a.keys())
        worst = std::max(worst,
                         (a.pose(key).t() - b.pose(key).t()).norm());
    return worst;
}

/** Modeled counters the simulator records for a fixed frame set. */
struct HwSnapshot
{
    std::uint64_t frames = 0;
    std::uint64_t cycles = 0;
    std::array<std::uint64_t, hw::kUnitKindCount> busy{};
};

HwSnapshot
hwSnapshot()
{
    runtime::MetricsRegistry &metrics = runtime::MetricsRegistry::global();
    HwSnapshot snapshot;
    snapshot.frames = metrics.counter("hw.frames").value();
    snapshot.cycles = metrics.counter("hw.cycles").value();
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
        snapshot.busy[k] =
            metrics
                .counter(std::string("hw.busy_cycles.") +
                         hw::unitName(static_cast<hw::UnitKind>(k)))
                .value();
    return snapshot;
}

/** Replays until @p seconds have passed; at least one. */
std::vector<Replay>
replayFor(const apps::PoseGraphScenario &scenario, double seconds,
          const std::string &store_dir, std::uint64_t &replay_id,
          HwSnapshot *first_hw)
{
    std::vector<Replay> replays;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    do {
        const double calibration = calibrationMs();
        const HwSnapshot before = hwSnapshot();
        replays.push_back(replay(scenario, scenario.frames.size(),
                                 store_dir, ++replay_id));
        replays.back().host.calibrationMs = calibration;
        if (first_hw != nullptr && replays.size() == 1) {
            const HwSnapshot after = hwSnapshot();
            first_hw->frames = after.frames - before.frames;
            first_hw->cycles = after.cycles - before.cycles;
            for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
                first_hw->busy[k] = after.busy[k] - before.busy[k];
        }
    } while (nowNs() < deadline);
    return replays;
}

} // namespace

Result
runSlam(const Options &options, bool manhattan)
{
    Result result;
    Tracer &tracer = Tracer::global();
    const std::string store_dir =
        manhattan ? options.outDir + "/store-manhattan-" +
                        std::to_string(::getpid())
                  : std::string();

    // --- Set-up: build the world, warm the code paths. --------------
    SetupTimes setup_times;
    std::vector<double> build_ms;
    apps::PoseGraphScenario scenario;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        setup_times.start();
        const std::int64_t start = nowNs();
        scenario = makeScenario(manhattan, options.seed);
        build_ms.push_back(secondsSince(start) * 1e3);
        replay(scenario, std::min(kWarmFrames, scenario.frames.size()),
               std::string(), 0);
        setup_times.stop();
    }
    setup_times.report(result);

    // --- Timed phase(s). --------------------------------------------
    std::uint64_t replay_id = 0;
    HwSnapshot first_hw;
    std::vector<Replay> untraced = replayFor(
        scenario, options.trace ? options.seconds / 2 : options.seconds,
        store_dir, replay_id, &first_hw);
    const double rss_mb = peakRssMb();
    std::vector<Replay> traced;
    if (options.trace) {
        runtime::MetricsRegistry::global().reset();
        tracer.setEnabled(true);
        runtime::TraceCollector::global().setEnabled(true);
        traced = replayFor(scenario, options.seconds / 2, store_dir,
                           replay_id, nullptr);
        runtime::TraceCollector::global().setEnabled(false);
        tracer.setEnabled(false);
    }

    // --- Output checks (outside the timed phase). -------------------
    const std::int64_t check_start = nowNs();
    const Replay &first = untraced.front();
    for (const std::vector<Replay> *set : {&untraced, &traced}) {
        for (const Replay &r : *set) {
            result.attempted += r.host.frameMs.size();
            ++result.attempted;
            if (r.cycles != first.cycles ||
                maxDelta(r.estimate, first.estimate) != 0.0)
                result.fail("a replay's modeled frames or estimate "
                            "differ from the first replay");
        }
    }
    fg::IncrementalSmoother cpu(
        smootherOptions(scenario.frames.size()).params);
    for (const apps::PoseGraphFrame &frame : scenario.frames) {
        feedFrame(cpu, scenario, frame);
        cpu.update();
    }
    ++result.attempted;
    const double cpu_delta = maxDelta(first.estimate, cpu.estimate());
    if (!(cpu_delta < 1e-6))
        result.fail("accelerated estimate is " +
                    std::to_string(cpu_delta) +
                    " m from the CPU-only smoother replay");
    const fg::Values batch =
        fg::optimize(scenario.graph(), first.estimate).values;
    result.checkSeconds = secondsSince(check_start);

    // --- End-to-end metrics. ----------------------------------------
    std::vector<Window> windows;
    for (const Replay &r : untraced)
        windows.push_back(r.host);
    reportHostFrames(windows, result);
    std::vector<double> device_us;
    Digest digest;
    for (std::uint64_t c : first.cycles) {
        device_us.push_back(cyclesToUs(static_cast<double>(c)));
        digest.add(c);
    }
    digest.add(first_hw.frames);
    digest.add(first_hw.cycles);
    for (std::uint64_t busy : first_hw.busy)
        digest.add(busy);
    result.simDigest = digest.hex();
    result.e2e("device_frame_p50_us", quantile(device_us, 0.5), "us");
    result.e2e("device_frame_p99_us", quantile(device_us, 0.99), "us");
    result.e2e("traj_delta_m", maxDelta(first.estimate, batch), "m");
    result.e2e("peak_rss_mb", rss_mb, "MB");
    result.unreachable["device_energy_uj"] =
        "AcceleratedSmoother exposes per-frame cycles only; the "
        "energy of its sessions' frames is not visible from outside";

    if (!options.trace)
        return result;

    // --- Per-layer metrics of the traced half. ----------------------
    result.layer("apps.build_ms", median(build_ms), "ms");
    const Replay &last = traced.back();
    reportCompiler(last.log, result);
    reportEngine(last.cachedPrograms, result);
    reportSessions(result);
    // Per replay (each replay has its own engine), not summed.
    const double compiles =
        static_cast<double>(last.engineStats.compiles);
    const double hits = static_cast<double>(last.engineStats.cacheHits);
    result.layer("engine.compiles", compiles, "count");
    result.layer("engine.cache_hits", hits, "count");
    result.layer("engine.cache_hit_ratio",
                 compiles + hits > 0.0 ? hits / (compiles + hits) : 0.0,
                 "ratio");
    result.layers.erase("engine.session_open_us_p50");
    result.unreachable["engine.session_open_us_p50"] =
        "the smoother opens sessions through Engine::openSession, which "
        "records no open-time histogram";
    double update_us = 0.0;
    double traced_frames = 0.0;
    for (const Replay &r : traced) {
        update_us += r.updateUs;
        traced_frames += static_cast<double>(r.host.frameMs.size());
    }
    runtime::MetricsRegistry &metrics = runtime::MetricsRegistry::global();
    const double compile_us = static_cast<double>(
        metrics.histogram("engine.compile_us").sumUs());
    const double step_us =
        static_cast<double>(metrics.histogram("frame.total_us").sumUs());
    result.layer("smoother.host_self_us_per_frame",
                 (update_us - compile_us - step_us) / traced_frames, "us");
    result.layer("smoother.compile_ms_per_frame",
                 compile_us / traced_frames / 1e3, "ms");
    const double n = static_cast<double>(last.host.frameMs.size());
    result.layer("smoother.accelerated_frames",
                 static_cast<double>(last.stats.acceleratedFrames),
                 "count");
    result.layer("smoother.batch_frames",
                 static_cast<double>(last.stats.batchFrames), "count");
    result.layer("smoother.cpu_frames",
                 static_cast<double>(last.stats.cpuFrames), "count");
    result.layer("smoother.sessions_opened",
                 static_cast<double>(last.stats.sessionsOpened), "count");
    result.layer("smoother.session_reuse_ratio",
                 static_cast<double>(last.stats.sessionReuses) / n,
                 "ratio");
    result.layer("smoother.reeliminated_mean", last.reeliminated / n,
                 "count");
    result.layer("session.retries", static_cast<double>(last.retries),
                 "count");
    result.layer("session.fallbacks", static_cast<double>(last.fallbacks),
                 "count");
    result.layer("smoother.relinearized_frames",
                 static_cast<double>(last.relinearized), "count");
    if (manhattan) {
        result.layer("store.writes",
                     static_cast<double>(last.engineStats.storeWrites),
                     "count");
        result.layer("store.entries",
                     static_cast<double>(last.storeEntries), "count");
        result.layer("store.bytes", static_cast<double>(last.storeBytes),
                     "bytes");
    }

    // Layer probe: the batch program of the leading frames.
    fg::FactorGraph prefix;
    fg::Values initial;
    for (std::size_t i = 0;
         i < std::min(kProbeFrames, scenario.frames.size()); ++i) {
        const apps::PoseGraphFrame &frame = scenario.frames[i];
        initial.insert(frame.key, scenario.initial.pose(frame.key));
        for (const fg::FactorPtr &factor : frame.factors)
            prefix.add(factor);
    }
    runtime::Engine probe_engine(hw::AcceleratorConfig::minimal(true));
    const auto program = probe_engine.program(prefix, initial, 0, "probe");
    HwTotals probe_hw;
    probeLayers({{probe_engine.config(),
                  {{program.get(), &initial}},
                  {{&prefix, &initial}}}},
                result, &probe_hw);
    probe_hw.report(result); // ipc and phase shares
    HwTotals replay_hw;      // cycles and utilization of replay 1
    replay_hw.frames = static_cast<double>(first_hw.frames);
    replay_hw.cycles = static_cast<double>(first_hw.cycles);
    const hw::AcceleratorConfig config =
        hw::AcceleratorConfig::minimal(true);
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
        replay_hw.busy[k] = static_cast<double>(first_hw.busy[k]);
        replay_hw.unitCycles[k] =
            replay_hw.cycles * static_cast<double>(config.units[k]);
    }
    replay_hw.report(result);

    std::vector<Window> traced_windows;
    for (const Replay &r : traced)
        traced_windows.push_back(r.host);
    result.layer("trace.overhead_ratio",
                 median(frameTimesMs(traced_windows, true)) /
                     median(frameTimesMs(windows, true)),
                 "ratio");
    return result;
}

} // namespace orianna::perfbench
