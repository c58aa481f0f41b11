#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "runtime/json.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace_sink.hpp"

namespace orianna::perfbench {

namespace {

thread_local std::vector<std::int64_t> tOpen;

std::uint64_t
threadId()
{
    return std::hash<std::thread::id>()(std::this_thread::get_id());
}

/**
 * Offset from the program's trace timebase (MetricsRegistry::nowUs,
 * microseconds since its own epoch) to this file's nanosecond clock.
 */
std::int64_t
programEpochNs()
{
    const std::int64_t before = nowNs();
    const std::uint64_t us = runtime::MetricsRegistry::nowUs();
    const std::int64_t after = nowNs();
    return (before + after) / 2 - static_cast<std::int64_t>(us) * 1000;
}

/** Clock skew allowed between the two timebases (integer-us spans). */
constexpr std::int64_t kSlackNs = 3000;

} // namespace

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

std::int64_t
Tracer::open(const char *name, std::uint64_t frame)
{
    const std::int64_t parent = tOpen.empty() ? -1 : tOpen.back();
    std::int64_t index = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (parent >= 0 && frame == 0)
            frame = spans_[static_cast<std::size_t>(parent)].frame;
        index = static_cast<std::int64_t>(spans_.size());
        spans_.push_back({name, 0, 0, parent, frame, threadId()});
        spans_.back().startNs = nowNs();
    }
    tOpen.push_back(index);
    return index;
}

void
Tracer::close(std::int64_t index)
{
    const std::int64_t end = nowNs();
    if (!tOpen.empty() && tOpen.back() == index)
        tOpen.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].endNs = end;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, Tracer::LayerTime>
Tracer::layerTimes() const
{
    const std::vector<SpanRecord> all = spans();
    std::vector<double> childNs(all.size(), 0.0);
    for (const SpanRecord &span : all)
        if (span.parent >= 0)
            childNs[static_cast<std::size_t>(span.parent)] +=
                static_cast<double>(span.endNs - span.startNs);
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const double dur =
            static_cast<double>(all[i].endNs - all[i].startNs);
        LayerTime &layer = out[all[i].name];
        layer.selfUs += (dur - childNs[i]) / 1e3;
        ++layer.count;
    }
    return out;
}

std::vector<std::string>
Tracer::checkInvariants(const std::string &frame_span) const
{
    std::vector<std::string> violations;
    const std::vector<SpanRecord> all = spans();
    for (const SpanRecord &span : all) {
        if (span.endNs < span.startNs)
            violations.push_back("span " + span.name + " never closed");
        if (span.parent < 0)
            continue;
        const SpanRecord &parent =
            all[static_cast<std::size_t>(span.parent)];
        if (span.startNs < parent.startNs || span.endNs > parent.endNs)
            violations.push_back("span " + span.name +
                                 " extends past its parent " +
                                 parent.name);
    }
    for (const auto &[name, layer] : layerTimes())
        if (layer.selfUs < 0.0)
            violations.push_back("layer " + name +
                                 " has negative self time");

    // Program-side frame and stage spans must nest in a benchmark
    // frame span (any thread: a served frame runs on a pool worker).
    std::vector<std::pair<std::int64_t, std::int64_t>> frames;
    std::int64_t longest = 0;
    for (const SpanRecord &span : all) {
        if (span.name == frame_span) {
            frames.emplace_back(span.startNs, span.endNs);
            longest = std::max(longest, span.endNs - span.startNs);
        }
    }
    std::sort(frames.begin(), frames.end());
    const std::int64_t epoch = programEpochNs();
    std::size_t outside = 0;
    for (const runtime::RuntimeSpan &span :
         runtime::TraceCollector::global().spans()) {
        if (span.category != "frame" && span.category != "stage")
            continue;
        const std::int64_t start =
            epoch + static_cast<std::int64_t>(span.startUs) * 1000;
        const std::int64_t end =
            start + static_cast<std::int64_t>(span.durUs) * 1000;
        // Frames starting at or before this span, latest first; none
        // that started more than the longest frame earlier can hold it.
        auto it = std::upper_bound(
            frames.begin(), frames.end(),
            std::make_pair(start + kSlackNs, INT64_MAX));
        bool inside = false;
        for (auto back = it; back != frames.begin();) {
            --back;
            if (back->second + kSlackNs >= end) {
                inside = true;
                break;
            }
            if (start - back->first > longest + kSlackNs)
                break;
        }
        if (!inside)
            ++outside;
    }
    if (outside > 0)
        violations.push_back(std::to_string(outside) +
                             " program spans lie outside every " +
                             frame_span + " span");
    return violations;
}

void
Tracer::write(const std::string &path) const
{
    const std::vector<SpanRecord> all = spans();
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    const auto emit = [&](const std::string &event) {
        out << (first ? "\n" : ",\n") << event;
        first = false;
    };
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &span = all[i];
        emit("{\"name\":" + runtime::json::quote(span.name) +
             ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
             std::to_string(span.thread % 1000000) +
             ",\"ts\":" + std::to_string(span.startNs / 1000) +
             ",\"dur\":" +
             std::to_string((span.endNs - span.startNs) / 1000) +
             ",\"args\":{\"id\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(span.parent) +
             ",\"frame\":" + std::to_string(span.frame) + "}}");
    }
    const std::int64_t epochUs = programEpochNs() / 1000;
    for (const runtime::RuntimeSpan &span :
         runtime::TraceCollector::global().spans())
        emit("{\"name\":" + runtime::json::quote(span.name) +
             ",\"cat\":" + runtime::json::quote(span.category) +
             ",\"ph\":\"X\",\"pid\":2,\"tid\":" +
             std::to_string(span.track) + ",\"ts\":" +
             std::to_string(epochUs +
                            static_cast<std::int64_t>(span.startUs)) +
             ",\"dur\":" + std::to_string(span.durUs) + "}");
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
}

ScopedSpan::ScopedSpan(const char *name, std::uint64_t frame)
{
    if (Tracer::global().enabled())
        index_ = Tracer::global().open(name, frame);
}

ScopedSpan::~ScopedSpan()
{
    if (index_ >= 0)
        Tracer::global().close(index_);
}

} // namespace orianna::perfbench
