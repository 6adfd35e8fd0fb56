/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is one call the benchmark makes into a layer's public API:
 * its name, host start and end, the enclosing span, the trial it
 * belongs to and the track (one per workload) it is drawn on. Spans
 * stay in memory until the run ends and are then written once as
 * Chrome trace-event JSON, which chrome://tracing and the Perfetto UI
 * open as is.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (CLOCK_MONOTONIC on Linux). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

constexpr std::int64_t noParent = -1;
constexpr std::int64_t noTrial = -1;

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = noParent;  ///< index into the span list
    std::int64_t trial = noTrial;
    std::uint32_t track = 0;

    std::int64_t durationNs() const { return endNs - startNs; }
};

class Tracer
{
  public:
    /** Register a track (one per workload); @return its id. */
    std::uint32_t track(const std::string &name);

    /** Open a span nested in the innermost open one. */
    std::size_t open(const std::string &name, std::uint32_t track,
                     std::int64_t trial = noTrial);
    void close(std::size_t span);

    /** Record an already-timed span (tests build trees with it). */
    std::size_t add(Span span);

    const std::vector<Span> &spans() const { return _spans; }

    /** Duration minus the union of the direct children's intervals. */
    std::int64_t selfNs(std::size_t span) const;

    /** Sum of durations / self times over every span named @p name. */
    std::int64_t totalNs(const std::string &name) const;
    std::int64_t totalSelfNs(const std::string &name) const;

    /** Durations (ms) of every span named @p name, in record order. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Chrome trace-event JSON: one "X" event per span. */
    void writeChrome(std::ostream &os) const;

  private:
    std::vector<Span> _spans;
    std::vector<std::size_t> openStack;
    std::vector<std::string> tracks;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(Tracer *tracer, const std::string &name, std::uint32_t track,
          std::int64_t trial = noTrial)
        : tracer(tracer),
          id(tracer ? tracer->open(name, track, trial) : 0)
    {}
    ~Scope()
    {
        if (tracer)
            tracer->close(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer;
    std::size_t id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
