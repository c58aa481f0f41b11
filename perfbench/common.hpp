#pragma once

// Shared plumbing of the repository benchmark: options, the result
// record every workload fills, order statistics, the modeled-result
// digest and the host stamp.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fg/values.hpp"
#include "hw/accelerator.hpp"

namespace orianna::perfbench {

/** How often setup is repeated per run; setup_s is the median. */
constexpr int kSetupRepeats = 7;

struct Options
{
    std::string workload;
    unsigned seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";  //!< Scratch space inside the checkout.
    std::string commit = "unknown";
};

/** One metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * Everything one workload run reports. `endToEnd` holds every
 * end-to-end metric that applies to the workload; `layers` the
 * per-layer metrics of a traced run; `unreachable` names per-layer
 * metrics the workload cannot observe from outside the program, with
 * the reason.
 */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< First few check messages.
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> layers;
    std::map<std::string, std::string> unreachable;
    std::string simDigest;
    std::string traceFile;
    double checkSeconds = 0.0; //!< Host time of the output checks.

    /** Count one failed operation or check, keeping its message. */
    void fail(const std::string &message);
    void
    e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd[name] = {value, unit};
    }
    void
    layer(const std::string &name, double value,
          const std::string &unit)
    {
        layers[name] = {value, unit};
    }
};

using SteadyClock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/** Linear-interpolated quantile (p in [0,1]); 0 on empty input. */
double quantile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double> &values);

/** Modeled cycles to microseconds at the cost model's 167 MHz. */
double cyclesToUs(double cycles);

/**
 * The workload seed's part of the inputs: every variable of @p values
 * is retracted by a tangent step drawn from N(0, kPerturbSigma^2)
 * with a generator seeded by (@p seed, @p stream). Each workload
 * fixes the structure of its inputs (graphs, worlds, missions) and
 * lets the seed move only the initial estimates, so the work a run
 * does, and with it its host time, is the same for every seed while
 * every value the program computes differs.
 */
void perturbValues(fg::Values &values, unsigned seed,
                   std::uint64_t stream);
constexpr double kPerturbSigma = 1e-3;

/**
 * Host-clock record of one window: a unit of work that repeats
 * within a run with its frames in the same order (five mission
 * cycles of every serving stream, one slam replay, one dse pass over
 * the four applications).
 */
struct Window
{
    double seconds = 0.0;
    std::vector<double> frameMs;
    double calibrationMs = 0.0; //!< calibrationMs() just before it.
};

/**
 * Host time of a fixed CPU kernel that shares no code with the
 * program (a small dense matrix product and std::map updates), best
 * of three, in ms: how fast the shared host runs at this moment.
 */
double calibrationMs();

/**
 * Host speed the `_ref` metrics are scaled to: a host on which
 * calibrationMs() reads 1 ms (the 4-core reference host reads
 * 1.0-1.6 ms depending on its neighbours' load).
 */
constexpr double kReferenceCalibrationMs = 1.0;

/**
 * The set-up repetitions of a run. Each is timed after a
 * calibrationMs() reading; setup_s is the median repetition scaled
 * to the reference host speed like the `_ref` metrics, and
 * setup_raw_s the median as measured.
 */
class SetupTimes
{
  public:
    void start();
    void stop();
    void report(Result &out) const;

  private:
    double calibrationMs_ = kReferenceCalibrationMs;
    std::int64_t startNs_ = 0;
    std::vector<double> raw_;
    std::vector<double> reference_;
};

/**
 * Each frame position of a window, timed once per window: its host
 * time is the lower quartile of those times. The CPUs this benchmark
 * runs on are shared, and a fixed loop swings by up to 60% in
 * one-to-two-second episodes when other tenants load the machine;
 * the faster repetitions of a frame are the ones that measure the
 * program. With @p reference, each window's times are first scaled
 * by kReferenceCalibrationMs over the window's calibrationMs.
 */
std::vector<double> frameTimesMs(const std::vector<Window> &windows,
                                 bool reference = false);

/**
 * The host-clock end-to-end metrics of a run: frame_host_p50_ms and
 * frame_host_p90_ms over frameTimesMs(), throughput_fps as the upper
 * quartile of the per-window throughputs, the same three scaled to
 * the reference host speed with a `_ref` suffix, frame_samples,
 * windows and calibration_ms (the median calibrationMs() of the
 * windows).
 */
void reportHostFrames(const std::vector<Window> &windows, Result &out);

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/** Host CPU, nproc, SIMD tier, precision, build type, commit. */
std::string hostStampJson(const Options &options);

/** Bytes and files under @p dir (0 when it does not exist). */
std::pair<std::uint64_t, std::uint64_t>
directoryUsage(const std::string &dir);

/**
 * FNV-1a over modeled statistics. Doubles are hashed by bit pattern,
 * so two commits agree on the digest only when every modeled value
 * is bit-identical.
 */
class Digest
{
  public:
    void add(std::uint64_t value);
    void add(double value);
    /** Cycles, energy terms, unit and phase busy cycles. */
    void add(const hw::SimResult &result);
    std::string hex() const;

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/**
 * Modeled hardware-layer metrics of a fixed set of frames:
 * hw.cycles_per_frame, hw.ipc, hw.util.<unit> (busy over cycles x
 * instances) and hw.phase_share.<phase>.
 */
struct HwTotals
{
    double frames = 0.0;
    double cycles = 0.0;
    double instructions = 0.0;
    std::array<double, hw::kUnitKindCount> busy{};
    std::array<double, hw::kUnitKindCount> unitCycles{}; //!< x count
    std::array<double, 3> phase{};

    void add(const hw::SimResult &result,
             const hw::AcceleratorConfig &config,
             std::size_t instructions);
    void report(Result &result) const;
};

} // namespace orianna::perfbench
