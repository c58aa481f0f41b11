// serve-apps: the per-frame host cost a deployed robot pays.
//
// Closed loop: kStreams client streams, each with its own
// ProtocolServer over one shared fp64 Engine, driven by a
// kWorkers-worker ServerPool one request per stream per round. Each
// stream cycles submit -> kSteps one-frame step requests -> values ->
// close over every (app, algorithm) pair of the four Tbl. 4
// applications and a fixed set of mission seeds. Set-up builds the
// missions and compiles every program, so each timed submit hits the
// cache: the run covers schedule bookkeeping, executor numerics,
// SIMD kernels, the objective and the protocol JSON, and bypasses
// codegen, the passes and the smoother.

#include <algorithm>
#include <map>
#include <memory>

#include "apps/benchmark_apps.hpp"
#include "runtime/metrics.hpp"
#include "runtime/server_pool.hpp"
#include "runtime/serving_protocol.hpp"
#include "runtime/trace_sink.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace orianna::perfbench {

namespace {

constexpr std::size_t kStreams = 4;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kSteps = 3;
/** Missions per application; their structure is fixed. */
constexpr unsigned kMissionSeeds = 2;

struct Mission
{
    apps::AppKind kind;
    std::string algorithm;
    unsigned seed = 0;
    const core::Algorithm *source = nullptr;
};

/** Every (app, algorithm, seed) a stream submits, in stream order. */
struct Inputs
{
    std::vector<std::unique_ptr<apps::BenchmarkApp>> built;
    std::vector<Mission> missions;
    std::vector<double> buildMs;
};

Inputs
buildInputs(unsigned seed)
{
    Inputs inputs;
    for (unsigned s = 0; s < kMissionSeeds; ++s) {
        const unsigned mission_seed = 1000 + s;
        for (const apps::AppKind kind : apps::allApps()) {
            ScopedSpan span("apps.buildApp");
            const std::int64_t start = nowNs();
            inputs.built.push_back(std::make_unique<apps::BenchmarkApp>(
                apps::buildApp(kind, mission_seed)));
            inputs.buildMs.push_back(secondsSince(start) * 1e3);
            core::Application &app = inputs.built.back()->app;
            for (std::size_t a = 0; a < app.size(); ++a) {
                perturbValues(app.algorithm(a).values, seed,
                              inputs.missions.size());
                inputs.missions.push_back({kind, app.algorithm(a).name,
                                           mission_seed,
                                           &app.algorithm(a)});
            }
        }
    }
    return inputs;
}

/** The program receives only the generated graphs and values. */
void
registerApps(runtime::ProtocolServer &server, const Inputs &inputs)
{
    for (const apps::AppKind kind : apps::allApps()) {
        server.registerApp(
            apps::appName(kind),
            [&inputs, kind](const std::string &algorithm,
                            unsigned seed) {
                for (const Mission &m : inputs.missions)
                    if (m.kind == kind && m.seed == seed &&
                        m.algorithm == algorithm)
                        return runtime::SubmittedGraph{
                            m.source->graph, m.source->values,
                            m.source->stepScale};
                throw std::invalid_argument("no such mission");
            });
    }
}

std::string
submitLine(const Mission &m)
{
    return "{\"op\":\"submit\",\"app\":\"" +
           std::string(apps::appName(m.kind)) + "\",\"algorithm\":\"" +
           m.algorithm + "\",\"seed\":" + std::to_string(m.seed) + "}";
}

bool
ok(const std::string &response)
{
    return response.rfind("{\"ok\":true", 0) == 0;
}

std::uint64_t
numberField(const std::string &response, const char *field)
{
    const std::string key = std::string("\"") + field + "\":";
    const auto at = response.find(key);
    return at == std::string::npos
               ? 0
               : std::strtoull(response.c_str() + at + key.size(),
                               nullptr, 10);
}

/** The state part of a values response (drops the session id). */
std::string
valuesBody(const std::string &response)
{
    const auto at = response.find("\"values\":");
    return at == std::string::npos ? response : response.substr(at);
}

enum Op { kSubmit, kStep, kValues, kClose, kOps };
constexpr const char *kOpNames[kOps] = {"submit", "step", "values",
                                        "close"};

/** What a mission's session is expected to answer. */
struct Observed
{
    std::vector<std::uint64_t> cycles; //!< Per step.
    std::string values;
};

/** One closed-loop client stream. */
struct Stream
{
    runtime::ProtocolServer *server = nullptr;
    const Inputs *inputs = nullptr;
    std::size_t next = 0;   //!< Next mission index to submit.
    std::size_t mission = 0;
    std::uint64_t session = 0;
    int op = kSubmit;
    std::size_t step = 0;
    std::uint64_t requests = 0;
    std::uint64_t steps = 0;
    std::uint64_t errors = 0;
    std::vector<std::string> messages;
    std::array<std::vector<double>, kOps> handleUs;
    std::vector<double> waitUs;
    /** First answer per mission; later answers must repeat it. */
    std::map<std::size_t, Observed> observed;
    Observed current;

    void
    fail(const std::string &message)
    {
        ++errors;
        if (messages.size() < 4)
            messages.push_back(message);
    }

    void
    advance(std::uint64_t request_id)
    {
        const std::vector<Mission> &missions = inputs->missions;
        std::string line;
        switch (op) {
          case kSubmit:
            mission = next;
            next = (next + 1) % missions.size();
            line = submitLine(missions[mission]);
            break;
          case kStep:
            line = "{\"op\":\"step\",\"session\":" +
                   std::to_string(session) + "}";
            break;
          case kValues:
            line = "{\"op\":\"values\",\"session\":" +
                   std::to_string(session) + "}";
            break;
          default:
            line = "{\"op\":\"close\",\"session\":" +
                   std::to_string(session) + "}";
        }
        std::string response;
        {
            ScopedSpan span("protocol.handle", request_id);
            const std::int64_t start = nowNs();
            response = server->handle(line);
            handleUs[op].push_back(
                static_cast<double>(nowNs() - start) / 1e3);
        }
        ++requests;
        if (!ok(response)) {
            fail(std::string(kOpNames[op]) + ": " + response);
            op = kSubmit; // Abandon the mission; its session leaks.
            return;
        }
        switch (op) {
          case kSubmit:
            session = numberField(response, "session");
            current = Observed{};
            step = 0;
            op = kStep;
            break;
          case kStep:
            ++steps;
            current.cycles.push_back(numberField(response, "cycles"));
            if (++step == kSteps)
                op = kValues;
            break;
          case kValues: {
            current.values = valuesBody(response);
            auto [it, fresh] = observed.emplace(mission, current);
            if (!fresh && (it->second.values != current.values ||
                           it->second.cycles != current.cycles))
                fail("mission " + std::to_string(mission) +
                     " answered differently on a repeat");
            op = kClose;
            break;
          }
          default:
            op = kSubmit;
        }
    }
};

struct Setup
{
    /** Heap-held: the registered app factories point into it. */
    std::unique_ptr<Inputs> inputs;
    std::unique_ptr<runtime::Engine> engine;
    std::vector<std::unique_ptr<runtime::ProtocolServer>> servers;
};

Setup
setUp(unsigned seed, Result &result)
{
    Setup setup;
    setup.inputs = std::make_unique<Inputs>(buildInputs(seed));
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    setup.engine = std::make_unique<runtime::Engine>(
        hw::AcceleratorConfig::minimal(true), options);
    for (std::size_t s = 0; s < kStreams; ++s) {
        setup.servers.push_back(
            std::make_unique<runtime::ProtocolServer>(*setup.engine));
        registerApps(*setup.servers.back(), *setup.inputs);
    }
    // Warm the program cache: one submit per mission compiles it.
    runtime::ProtocolServer &warm = *setup.servers.front();
    for (const Mission &m : setup.inputs->missions) {
        const std::string response = warm.handle(submitLine(m));
        ++result.attempted;
        if (!ok(response)) {
            result.fail("warm-up submit: " + response);
            continue;
        }
        warm.handle("{\"op\":\"close\",\"session\":" +
                    std::to_string(numberField(response, "session")) +
                    "}");
    }
    return setup;
}

/** Mission cycles of every stream per host-clock window. */
constexpr std::size_t kCyclesPerWindow = 5;

/**
 * Serves whole windows until @p seconds have passed. One round sends
 * the next request of every stream; a mission takes kSteps + 3
 * requests, so a window of kCyclesPerWindow x missions x (kSteps + 3)
 * rounds has every stream complete whole cycles and holds the same
 * frames every time.
 */
std::vector<Window>
runPhase(std::vector<Stream> &streams, runtime::ServerPool &pool,
         double seconds, std::uint64_t &round)
{
    for (Stream &stream : streams) {
        for (auto &samples : stream.handleUs)
            samples.clear();
        stream.waitUs.clear();
    }
    const std::size_t window_rounds = kCyclesPerWindow *
                                      streams.front().inputs->missions.size() *
                                      (kSteps + 3);
    std::vector<Window> windows;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    do {
        std::vector<std::size_t> marks;
        for (const Stream &stream : streams)
            marks.push_back(stream.handleUs[kStep].size());
        Window window;
        window.calibrationMs = calibrationMs();
        const std::int64_t start = nowNs();
        for (std::size_t r = 0; r < window_rounds; ++r) {
            const std::int64_t ready = nowNs();
            const std::uint64_t id = ++round;
            pool.parallelFor(streams.size(), [&](std::size_t s) {
                streams[s].waitUs.push_back(
                    static_cast<double>(nowNs() - ready) / 1e3);
                streams[s].advance(id * kStreams + s);
            });
        }
        window.seconds = secondsSince(start);
        for (std::size_t s = 0; s < streams.size(); ++s) {
            const std::vector<double> &step_us = streams[s].handleUs[kStep];
            for (std::size_t i = marks[s]; i < step_us.size(); ++i)
                window.frameMs.push_back(step_us[i] / 1e3);
        }
        windows.push_back(std::move(window));
    } while (nowNs() < deadline);
    return windows;
}

/**
 * The modeled reference: every mission replayed single-threaded on a
 * fresh engine, through the protocol (for the byte-identity check)
 * and through a Session (for the modeled frame statistics).
 */
struct Reference
{
    std::vector<Observed> missions;
    std::vector<hw::SimResult> frames;
    std::vector<std::size_t> instructions;
};

Reference
replayReference(const Inputs &inputs, Result &result)
{
    runtime::EngineOptions options;
    options.precision = comp::Precision::Fp64;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    runtime::ProtocolServer server(engine);
    registerApps(server, inputs);
    Reference ref;
    for (const Mission &m : inputs.missions) {
        Observed observed;
        const std::string submitted = server.handle(submitLine(m));
        const std::string session =
            std::to_string(numberField(submitted, "session"));
        for (std::size_t k = 0; k < kSteps; ++k)
            observed.cycles.push_back(numberField(
                server.handle("{\"op\":\"step\",\"session\":" +
                              session + "}"),
                "cycles"));
        observed.values = valuesBody(server.handle(
            "{\"op\":\"values\",\"session\":" + session + "}"));
        server.handle("{\"op\":\"close\",\"session\":" + session + "}");

        runtime::Session direct =
            engine.session(m.source->graph, m.source->values,
                           m.source->stepScale, 0, apps::appName(m.kind));
        for (std::size_t k = 0; k < kSteps; ++k) {
            ref.frames.push_back(direct.step());
            ref.instructions.push_back(
                direct.program().instructions.size());
            ++result.attempted;
            if (ref.frames.back().cycles != observed.cycles[k])
                result.fail("protocol step cycles differ from the "
                            "session replay");
        }
        ref.missions.push_back(std::move(observed));
    }
    if (server.errors() != 0)
        result.fail("reference replay answered ok:false");
    return ref;
}

} // namespace

Result
runServeApps(const Options &options)
{
    Result result;
    Tracer &tracer = Tracer::global();

    // --- Set-up, repeated; the last one is served. -----------------
    SetupTimes setup_times;
    Setup setup;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        runtime::MetricsRegistry::global().reset();
        setup = Setup{};
        setup_times.start();
        setup = setUp(options.seed, result);
        setup_times.stop();
    }
    setup_times.report(result);
    // Layer metrics read from the registry are taken before the
    // output checks, whose reference engine records into it too.
    Result registry_layers;
    reportCompiler(setup.engine->compileLog(), registry_layers);

    runtime::ServerPool pool(kWorkers);
    std::vector<Stream> streams(kStreams);
    for (std::size_t s = 0; s < kStreams; ++s) {
        streams[s].server = setup.servers[s].get();
        streams[s].inputs = setup.inputs.get();
        // Streams start at different missions so they overlap.
        streams[s].next =
            s * setup.inputs->missions.size() / kStreams;
    }

    // --- Timed phase(s). -------------------------------------------
    std::uint64_t round = 0;
    const double untraced_s =
        options.trace ? options.seconds / 2 : options.seconds;
    const std::vector<Window> untraced =
        runPhase(streams, pool, untraced_s, round);
    const double rss_mb = peakRssMb();
    std::vector<Window> traced;
    std::uint64_t tasks_before = 0;
    const std::uint64_t steals_before = pool.steals();
    if (options.trace) {
        for (std::uint64_t t : pool.tasksExecuted())
            tasks_before += t;
        runtime::MetricsRegistry::global().reset();
        tracer.setEnabled(true);
        runtime::TraceCollector::global().setEnabled(true);
        traced = runPhase(streams, pool, options.seconds / 2, round);
        runtime::TraceCollector::global().setEnabled(false);
        tracer.setEnabled(false);
        reportEngine(setup.engine->cachedPrograms(), registry_layers);
        reportSessions(registry_layers);
        registry_layers.layer("session.step_us_mean",
                              histogramMeanUs("frame.total_us"), "us");
        registry_layers.layer(
            "pool.queue_depth_peak",
            static_cast<double>(runtime::MetricsRegistry::global()
                                    .gauge("pool.queue_depth_peak")
                                    .value()),
            "count");
    }

    std::uint64_t protocol_errors = 0;
    for (std::size_t s = 0; s < kStreams; ++s) {
        result.attempted += streams[s].requests;
        protocol_errors += setup.servers[s]->errors();
        result.failed += streams[s].errors;
        for (const std::string &m : streams[s].messages)
            if (result.failures.size() < 8)
                result.failures.push_back(m);
    }

    // --- Output checks (outside the timed phase). -------------------
    const std::int64_t check_start = nowNs();
    const Reference ref = replayReference(*setup.inputs, result);
    for (const Stream &stream : streams) {
        for (const auto &[mission, observed] : stream.observed) {
            ++result.attempted;
            const Observed &expected = ref.missions[mission];
            if (observed.values != expected.values ||
                observed.cycles != expected.cycles)
                result.fail("stream values differ from the "
                            "single-threaded replay of mission " +
                            std::to_string(mission));
        }
    }
    result.checkSeconds = secondsSince(check_start);

    // --- End-to-end metrics. ----------------------------------------
    reportHostFrames(untraced, result);
    std::vector<double> step_ms;
    for (const Window &window : untraced)
        step_ms.insert(step_ms.end(), window.frameMs.begin(),
                       window.frameMs.end());
    result.e2e("frame_host_p99_ms", quantile(step_ms, 0.99), "ms");
    std::vector<double> device_us;
    std::vector<double> energy_uj;
    Digest digest;
    HwTotals hw_totals;
    for (std::size_t f = 0; f < ref.frames.size(); ++f) {
        const hw::SimResult &frame = ref.frames[f];
        device_us.push_back(cyclesToUs(static_cast<double>(frame.cycles)));
        energy_uj.push_back(frame.totalEnergyJ() * 1e6);
        digest.add(frame);
        hw_totals.add(frame, setup.engine->config(), ref.instructions[f]);
    }
    result.simDigest = digest.hex();
    result.e2e("device_frame_p50_us", quantile(device_us, 0.5), "us");
    result.e2e("device_frame_p99_us", quantile(device_us, 0.99), "us");
    result.e2e("device_energy_uj", mean(energy_uj), "uJ");
    result.e2e("peak_rss_mb", rss_mb, "MB");

    if (!options.trace)
        return result;

    // --- Per-layer metrics of the traced half. ----------------------
    result.layers = registry_layers.layers;
    result.layer("apps.build_ms", mean(setup.inputs->buildMs), "ms");
    hw_totals.report(result);

    std::vector<ProbeItem> items;
    std::vector<std::shared_ptr<const comp::Program>> programs;
    for (const Mission &m : setup.inputs->missions) {
        programs.push_back(setup.engine->program(m.source->graph,
                                                 m.source->values, 0,
                                                 apps::appName(m.kind)));
        items.push_back({setup.engine->config(),
                         {{programs.back().get(), &m.source->values}},
                         {{&m.source->graph, &m.source->values}}});
    }
    probeLayers(items, result);

    std::array<std::vector<double>, kOps> handle_us;
    std::vector<double> wait_us;
    for (const Stream &stream : streams) {
        for (int op = 0; op < kOps; ++op)
            handle_us[op].insert(handle_us[op].end(),
                                 stream.handleUs[op].begin(),
                                 stream.handleUs[op].end());
        wait_us.insert(wait_us.end(), stream.waitUs.begin(),
                       stream.waitUs.end());
    }
    for (int op = 0; op < kOps; ++op)
        result.layer(std::string("protocol.handle_us_p50.") +
                         kOpNames[op],
                     quantile(handle_us[op], 0.5), "us");
    result.layer("protocol.self_us_per_step",
                 mean(handle_us[kStep]) -
                     result.layers["session.step_us_mean"].value -
                     result.layers["fg.objective_us_per_step"].value,
                 "us");
    result.layer("protocol.errors", static_cast<double>(protocol_errors),
                 "count");

    std::uint64_t tasks = 0;
    for (std::uint64_t t : pool.tasksExecuted())
        tasks += t;
    result.layer("pool.tasks", static_cast<double>(tasks - tasks_before),
                 "count");
    result.layer("pool.steals",
                 static_cast<double>(pool.steals() - steals_before),
                 "count");
    result.layer("pool.wait_us_p50", quantile(wait_us, 0.5), "us");
    const runtime::EngineHealth &health = setup.engine->health();
    result.layer("session.retries", static_cast<double>(health.retries),
                 "count");
    result.layer("session.fallbacks",
                 static_cast<double>(health.fallbacks), "count");
    result.layer("trace.overhead_ratio",
                 median(frameTimesMs(traced, true)) /
                     median(frameTimesMs(untraced, true)),
                 "ratio");
    return result;
}

} // namespace orianna::perfbench
