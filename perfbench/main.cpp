// The repository benchmark program: runs one workload for a fixed
// time, checks its outputs, and prints every metric by name and unit
// followed by one machine-readable record line.
//
// Usage: orianna_perfbench --workload NAME --seed N --seconds S
//                          --trace 0|1 [--out-dir DIR] [--commit SHA]
//
// Workloads: serve-apps, slam-garage, slam-manhattan, dse-zc706.
// --trace 1 splits the run into an untraced and a traced half and
// reports per-layer metrics, the traced-run invariants and the
// tracing overhead; the spans are written to DIR. Exit status: 0
// when every operation and output check passed, 1 when one failed,
// 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "runtime/json.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace orianna;
using namespace orianna::perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: orianna_perfbench --workload "
                 "serve-apps|slam-garage|slam-manhattan|dse-zc706 "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--commit SHA]\n");
    return 2;
}

/** Name of the benchmark span each workload's frames are traced as. */
const char *
frameSpan(const std::string &workload)
{
    if (workload == "serve-apps")
        return "protocol.handle";
    if (workload == "dse-zc706")
        return "hwgen.generate";
    return "smoother.frame";
}

std::string
metricsJson(const std::map<std::string, Metric> &metrics)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        out += first ? "" : ",";
        first = false;
        out += runtime::json::quote(name) + ":{\"value\":" +
               runtime::json::numberToJson(metric.value) +
               ",\"unit\":" + runtime::json::quote(metric.unit) + "}";
    }
    return out + "}";
}

void
print(const char *kind, const std::map<std::string, Metric> &metrics)
{
    for (const auto &[name, metric] : metrics)
        std::printf("%-7s %-40s %16.6g %s\n", kind, name.c_str(),
                    metric.value, metric.unit.c_str());
}

/** False on an unknown flag, a missing value or a bad number. */
bool
parseArgs(int argc, char **argv, Options &options)
{
    bool have_trace = false;
    if (argc % 2 != 1)
        return false;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string value = argv[i + 1];
            if (flag == "--workload") {
                options.workload = value;
            } else if (flag == "--seed") {
                options.seed = static_cast<unsigned>(std::stoul(value));
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                options.trace = value == "1";
                have_trace = value == "0" || value == "1";
            } else if (flag == "--out-dir") {
                options.outDir = value;
            } else if (flag == "--commit") {
                options.commit = value;
            } else {
                return false;
            }
        }
    } catch (const std::exception &) {
        return false;
    }
    return have_trace && options.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseArgs(argc, argv, options))
        return usage();

    Result result;
    try {
        if (options.workload == "serve-apps")
            result = runServeApps(options);
        else if (options.workload == "slam-garage")
            result = runSlam(options, false);
        else if (options.workload == "slam-manhattan")
            result = runSlam(options, true);
        else if (options.workload == "dse-zc706")
            result = runDse(options);
        else
            return usage();
    } catch (const std::exception &failure) {
        std::fprintf(stderr, "error: %s\n", failure.what());
        return 1;
    }

    if (options.trace) {
        for (const std::string &violation :
             Tracer::global().checkInvariants(frameSpan(options.workload))) {
            ++result.attempted;
            result.fail("trace invariant: " + violation);
        }
        for (const auto &[name, layer] : Tracer::global().layerTimes())
            result.layer("trace.self_us." + name,
                         layer.selfUs / static_cast<double>(layer.count),
                         "us");
        result.traceFile = options.outDir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".json";
        Tracer::global().write(result.traceFile);
    }
    result.e2e("failed_ratio",
               result.attempted == 0
                   ? 1.0
                   : static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted),
               "ratio");

    std::printf("workload %s seed %u (%g s, trace %d)\n",
                options.workload.c_str(), options.seed, options.seconds,
                options.trace ? 1 : 0);
    print("metric", result.endToEnd);
    print("layer", result.layers);
    for (const auto &[name, why] : result.unreachable)
        std::printf("unreachable %s: %s\n", name.c_str(), why.c_str());
    for (const std::string &failure : result.failures)
        std::printf("FAILED: %s\n", failure.c_str());
    std::printf("sim_digest %s\n", result.simDigest.c_str());
    std::printf("check_s %.3f\n", result.checkSeconds);

    std::string unreachable = "{";
    for (const auto &[name, why] : result.unreachable) {
        if (unreachable.size() > 1)
            unreachable += ',';
        unreachable += runtime::json::quote(name);
        unreachable += ':';
        unreachable += runtime::json::quote(why);
    }
    unreachable += "}";
    std::printf(
        "RECORD {\"workload\":%s,\"host\":%s,\"attempted\":%llu,"
        "\"failed\":%llu,\"sim_digest\":\"%s\",\"trace_file\":%s,"
        "\"end_to_end\":%s,\"per_layer\":%s,\"unreachable\":%s}\n",
        runtime::json::quote(options.workload).c_str(),
        hostStampJson(options).c_str(),
        static_cast<unsigned long long>(result.attempted),
        static_cast<unsigned long long>(result.failed),
        result.simDigest.c_str(),
        runtime::json::quote(result.traceFile).c_str(),
        metricsJson(result.endToEnd).c_str(),
        metricsJson(result.layers).c_str(), unreachable.c_str());
    return result.failed == 0 ? 0 : 1;
}
