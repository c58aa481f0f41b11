#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <thread>

#include "matrix/simd.hpp"
#include "runtime/json.hpp"

#ifndef ORIANNA_PERFBENCH_BUILD_TYPE
#define ORIANNA_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace orianna::perfbench {

void
Result::fail(const std::string &message)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(message);
}

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double position =
        p * static_cast<double>(values.size() - 1);
    const std::size_t low = static_cast<std::size_t>(position);
    const std::size_t high = std::min(low + 1, values.size() - 1);
    const double frac = position - static_cast<double>(low);
    return values[low] + (values[high] - values[low]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
cyclesToUs(double cycles)
{
    return cycles / hw::CostModel::frequencyHz * 1e6;
}

void
perturbValues(fg::Values &values, unsigned seed, std::uint64_t stream)
{
    std::mt19937_64 rng((static_cast<std::uint64_t>(seed) << 32) ^
                        (stream * 0x9e3779b97f4a7c15ull));
    std::normal_distribution<double> noise(0.0, kPerturbSigma);
    for (fg::Key key : values.keys()) {
        fg::Vector delta(values.dof(key));
        for (std::size_t i = 0; i < delta.size(); ++i)
            delta[i] = noise(rng);
        values.retract(key, delta);
    }
}

namespace {

double
calibrationKernel()
{
    constexpr std::size_t n = 40;
    std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
    for (std::size_t i = 0; i < n * n; ++i) {
        a[i] = static_cast<double>(i % 7) * 0.5;
        b[i] = static_cast<double>(i % 5) * 0.25;
    }
    for (int rep = 0; rep < 6; ++rep)
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t k = 0; k < n; ++k)
                for (std::size_t j = 0; j < n; ++j)
                    c[i * n + j] += a[i * n + k] * b[k * n + j];
    std::map<unsigned, double> table;
    unsigned x = 12345;
    for (int i = 0; i < 6000; ++i) {
        x = x * 1103515245u + 12345u;
        table[(x >> 8) % 4096] += static_cast<double>(i);
    }
    double sum = std::accumulate(c.begin(), c.end(), 0.0);
    for (const auto &entry : table)
        sum += entry.second;
    return sum;
}

} // namespace

double
calibrationMs()
{
    double best = 1e300;
    for (int r = 0; r < 3; ++r) {
        const std::int64_t start = nowNs();
        volatile double sink = calibrationKernel();
        (void)sink;
        best = std::min(best, static_cast<double>(nowNs() - start) / 1e6);
    }
    return best;
}

void
SetupTimes::start()
{
    calibrationMs_ = calibrationMs();
    startNs_ = nowNs();
}

void
SetupTimes::stop()
{
    const double seconds = secondsSince(startNs_);
    raw_.push_back(seconds);
    reference_.push_back(seconds * kReferenceCalibrationMs /
                         calibrationMs_);
}

void
SetupTimes::report(Result &out) const
{
    out.e2e("setup_s", median(reference_), "s");
    out.e2e("setup_raw_s", median(raw_), "s");
}

std::vector<double>
frameTimesMs(const std::vector<Window> &windows, bool reference)
{
    std::size_t positions = SIZE_MAX;
    for (const Window &w : windows)
        positions = std::min(positions, w.frameMs.size());
    std::vector<double> times;
    for (std::size_t i = 0; i < positions && !windows.empty(); ++i) {
        std::vector<double> samples;
        for (const Window &w : windows)
            samples.push_back(w.frameMs[i] *
                              (reference ? kReferenceCalibrationMs /
                                               w.calibrationMs
                                         : 1.0));
        times.push_back(quantile(std::move(samples), 0.25));
    }
    return times;
}

void
reportHostFrames(const std::vector<Window> &windows, Result &out)
{
    std::vector<double> throughput;
    std::vector<double> throughput_ref;
    std::vector<double> calibration;
    double frames = 0.0;
    for (const Window &w : windows) {
        const double fps = static_cast<double>(w.frameMs.size()) /
                           w.seconds;
        throughput.push_back(fps);
        throughput_ref.push_back(fps * w.calibrationMs /
                                 kReferenceCalibrationMs);
        calibration.push_back(w.calibrationMs);
        frames += static_cast<double>(w.frameMs.size());
    }
    const std::vector<double> times = frameTimesMs(windows);
    const std::vector<double> times_ref = frameTimesMs(windows, true);
    out.e2e("throughput_fps", quantile(std::move(throughput), 0.75),
            "frames/s");
    out.e2e("frame_host_p50_ms", quantile(times, 0.5), "ms");
    out.e2e("frame_host_p90_ms", quantile(times, 0.9), "ms");
    out.e2e("throughput_fps_ref", quantile(std::move(throughput_ref), 0.75),
            "frames/s");
    out.e2e("frame_host_p50_ms_ref", quantile(times_ref, 0.5), "ms");
    out.e2e("frame_host_p90_ms_ref", quantile(times_ref, 0.9), "ms");
    out.e2e("frame_samples", frames, "count");
    out.e2e("windows", static_cast<double>(windows.size()), "count");
    out.e2e("calibration_ms", median(std::move(calibration)), "ms");
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

std::string
hostStampJson(const Options &options)
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(colon + 2);
            break;
        }
    }
    return "{\"cpu\":" + runtime::json::quote(cpu) +
           ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"simd\":" +
           runtime::json::quote(mat::kernels::simdCapabilityString()) +
           ",\"precision\":\"fp64\",\"build_type\":" +
           runtime::json::quote(ORIANNA_PERFBENCH_BUILD_TYPE) +
           ",\"seed\":" + std::to_string(options.seed) +
           ",\"commit\":" + runtime::json::quote(options.commit) + "}";
}

std::pair<std::uint64_t, std::uint64_t>
directoryUsage(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::uint64_t bytes = 0;
    std::uint64_t files = 0;
    std::error_code error;
    if (!fs::exists(dir, error))
        return {0, 0};
    for (const auto &entry :
         fs::recursive_directory_iterator(dir, error)) {
        if (entry.is_regular_file(error)) {
            bytes += entry.file_size(error);
            ++files;
        }
    }
    return {bytes, files};
}

void
Digest::add(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        state_ ^= (value >> (8 * i)) & 0xffu;
        state_ *= 0x100000001b3ull;
    }
}

void
Digest::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

void
Digest::add(const hw::SimResult &result)
{
    add(result.cycles);
    add(result.dynamicEnergyJ);
    add(result.memoryEnergyJ);
    add(result.staticEnergyJ);
    for (std::uint64_t busy : result.unitBusyCycles)
        add(busy);
    for (std::uint64_t busy : result.phaseBusyCycles)
        add(busy);
}

std::string
Digest::hex() const
{
    char buffer[19];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(state_));
    return buffer;
}

void
HwTotals::add(const hw::SimResult &result,
              const hw::AcceleratorConfig &config,
              std::size_t instruction_count)
{
    frames += 1.0;
    cycles += static_cast<double>(result.cycles);
    instructions += static_cast<double>(instruction_count);
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k) {
        busy[k] += static_cast<double>(result.unitBusyCycles[k]);
        unitCycles[k] += static_cast<double>(result.cycles) *
                         static_cast<double>(config.units[k]);
    }
    for (std::size_t p = 0; p < phase.size(); ++p)
        phase[p] += static_cast<double>(result.phaseBusyCycles[p]);
}

void
HwTotals::report(Result &out) const
{
    if (frames > 0.0)
        out.layer("hw.cycles_per_frame", cycles / frames, "cycles");
    if (instructions > 0.0 && cycles > 0.0)
        out.layer("hw.ipc", instructions / cycles, "instr/cycle");
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
        if (unitCycles[k] > 0.0)
            out.layer(std::string("hw.util.") +
                          hw::unitName(static_cast<hw::UnitKind>(k)),
                      busy[k] / unitCycles[k], "ratio");
    const double phase_total = phase[0] + phase[1] + phase[2];
    static constexpr const char *kPhases[] = {"construct", "decompose",
                                              "backsub"};
    if (phase_total > 0.0)
        for (std::size_t p = 0; p < phase.size(); ++p)
            out.layer(std::string("hw.phase_share.") + kPhases[p],
                      phase[p] / phase_total, "ratio");
}

} // namespace orianna::perfbench
