#pragma once

// Benchmark-side tracing: spans placed around the benchmark's calls
// into each module's public functions, kept in memory and written as
// Chrome/Perfetto JSON when the run ends. Spans inside the program
// come from runtime::TraceCollector and are attached to these by
// time inclusion.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace orianna::perfbench {

struct SpanRecord
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = -1;  //!< Index into the span list, -1: root.
    std::uint64_t frame = 0;   //!< Frame or request id of the root.
    std::uint64_t thread = 0;
};

class Tracer
{
  public:
    static Tracer &global();

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span on the calling thread; returns its index. */
    std::int64_t open(const char *name, std::uint64_t frame);
    void close(std::int64_t index);

    std::vector<SpanRecord> spans() const;

    /**
     * Per-layer self time (duration minus the part covered by child
     * spans), summed in microseconds, and span count, keyed by span
     * name.
     */
    struct LayerTime
    {
        double selfUs = 0.0;
        std::uint64_t count = 0;
    };
    std::map<std::string, LayerTime> layerTimes() const;

    /**
     * Invariants of the traced run: every layer's self time is >= 0,
     * every child lies inside its parent, and each program-side frame
     * or stage span from runtime::TraceCollector lies inside some
     * benchmark span named @p frame_span. Returns the violations.
     */
    std::vector<std::string>
    checkInvariants(const std::string &frame_span) const;

    /** Write benchmark and program spans as Chrome trace JSON. */
    void write(const std::string &path) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** RAII span; a no-op while tracing is off. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, std::uint64_t frame = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::int64_t index_ = -1;
};

} // namespace orianna::perfbench
