/**
 * @file
 * Tests of the benchmark's own logic: the percentile rule, span
 * self-time arithmetic, error-rate accounting and pin comparison.
 * (That a pin mismatch fails the whole run with a nonzero exit is
 * checked end to end by pin_mismatch.cmake.)
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "pins.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        ++failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

void
percentileRule()
{
    // p90 needs 10 samples beyond it: 100 samples, not 99.
    CHECK(!tailPercentile(99).has_value());
    CHECK(tailPercentile(100) == 90.0);
    CHECK(tailPercentile(999) == 90.0);
    CHECK(tailPercentile(1000) == 99.0);
    CHECK(tailPercentile(10000) == 99.9);
    CHECK(!tailPercentile(0).has_value());

    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    CHECK(percentile(v, 90.0) == 90.0);
    CHECK(percentile(v, 100.0) == 100.0);
    CHECK(percentile(v, 0.0) == 1.0);
    CHECK(median(v) == 50.5);
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
}

Span
span(std::int64_t start, std::int64_t end, std::int64_t parent)
{
    return Span{std::string("s"), start, end, parent};
}

void
selfTime()
{
    Tracer t;
    const auto root = static_cast<std::int64_t>(t.add(span(0, 100, noParent)));
    const auto a = static_cast<std::int64_t>(t.add(span(10, 30, root)));
    t.add(span(20, 50, root));   // overlaps a: union [10, 50]
    t.add(span(90, 120, root));  // clipped to the parent's end
    t.add(span(12, 14, a));      // grandchild: not the root's child
    CHECK(t.selfNs(0) == 100 - 40 - 10);
    CHECK(t.selfNs(1) == 20 - 2);
    CHECK(t.selfNs(4) == 2);
    CHECK(t.totalNs("s") == 100 + 20 + 30 + 30 + 2);

    // open/close nests by call order.
    Tracer live;
    const std::uint32_t track = live.track("w");
    {
        Scope outer(&live, "outer", track);
        Scope inner(&live, "inner", track, 7);
    }
    CHECK(live.spans().size() == 2);
    CHECK(live.spans()[1].parent == 0);
    CHECK(live.spans()[1].trial == 7);
    CHECK(live.selfNs(0) + live.spans()[1].durationNs()
          == live.spans()[0].durationNs());

    std::ostringstream json;
    live.writeChrome(json);
    CHECK(json.str().find("\"traceEvents\"") != std::string::npos);
    CHECK(json.str().find("\"thread_name\"") != std::string::npos);
    CHECK(json.str().find("\"name\":\"inner\"") != std::string::npos);
}

void
errorRate()
{
    Tally t;
    CHECK(t.errorRate() == 0.0);
    t.add(10, 2);
    t.add(5, 0);
    CHECK(t.attempted == 15 && t.failed == 2);
    CHECK(std::fabs(t.errorRate() - 2.0 / 15.0) < 1e-15);
    t.add(3, 7);  // never more failed trials than attempted
    CHECK(t.attempted == 18 && t.failed == 5);

    const std::vector<std::string> notes = {
        "trial 4 [SnG intensity 1]: lost acked PUT",
        "trial 4 [SnG intensity 1]: divergent commit",
        "trial 9 [SysPC intensity 3]: phantom read",
    };
    CHECK(failedFromNotes({}, 0, 100) == 0);
    CHECK(failedFromNotes(notes, 3, 100) == 2);
    // Truncated notes: each unlisted violation may be its own trial.
    CHECK(failedFromNotes(notes, 5, 100) == 4);
    CHECK(failedFromNotes(notes, 500, 100) == 100);
    // Untagged notes (RAS campaign): one trial per violation.
    CHECK(failedFromNotes({"sdc at line 3"}, 2, 100) == 2);
}

void
pinComparison()
{
    const char *path = "selftest_pins.txt";
    {
        std::ofstream f(path);
        f << "# comment\n\n"
          << "42 kv_service digest 0x00000000000000ff\n"
          << "42 kv_service sim_sng_outage_ms 2.5\n";
    }
    Pins pins;
    std::string error;
    CHECK(pins.load(path, error));

    Outcome o;
    o.digest = 0xff;
    o.sims["sim_sng_outage_ms"] = 2.5;
    CHECK(pins.compare(42, "kv_service", o).empty());
    CHECK(pins.compare(7, "kv_service", o).empty());  // unpinned seed
    CHECK(formatPins(42, "kv_service", o)
          == "42 kv_service digest 0x00000000000000ff\n"
             "42 kv_service sim_sng_outage_ms 2.5\n");

    o.digest = 0xfe;
    o.sims["sim_sng_outage_ms"] = std::nextafter(2.5, 3.0);
    const std::vector<std::string> why = pins.compare(42, "kv_service", o);
    CHECK(why.size() == 2);
    CHECK(!why.empty() && why[0].rfind("kv_service: digest mismatch", 0) == 0);

    {
        std::ofstream f(path);
        f << "42 kv_service digest\n";
    }
    Pins bad;
    CHECK(!bad.load(path, error));
    CHECK(error.find(":1: malformed pin") != std::string::npos);
    std::remove(path);
}

} // namespace

int
main()
{
    percentileRule();
    selfTime();
    errorRate();
    pinComparison();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::puts("perfbench selftest: all checks passed");
    return 0;
}
