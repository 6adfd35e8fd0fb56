#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench
{

std::uint32_t
Tracer::track(const std::string &name)
{
    tracks.push_back(name);
    return static_cast<std::uint32_t>(tracks.size() - 1);
}

std::size_t
Tracer::open(const std::string &name, std::uint32_t track,
             std::int64_t trial)
{
    Span s;
    s.name = name;
    s.track = track;
    s.trial = trial;
    s.parent = openStack.empty()
        ? noParent : static_cast<std::int64_t>(openStack.back());
    s.startNs = nowNs();
    _spans.push_back(std::move(s));
    openStack.push_back(_spans.size() - 1);
    return _spans.size() - 1;
}

void
Tracer::close(std::size_t span)
{
    if (openStack.empty() || openStack.back() != span)
        throw std::logic_error("spans must close innermost first");
    _spans[span].endNs = nowNs();
    openStack.pop_back();
}

std::size_t
Tracer::add(Span span)
{
    _spans.push_back(std::move(span));
    return _spans.size() - 1;
}

std::int64_t
Tracer::selfNs(std::size_t span) const
{
    const Span &p = _spans[span];
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const Span &s : _spans)
        if (s.parent == static_cast<std::int64_t>(span))
            kids.emplace_back(std::max(s.startNs, p.startNs),
                              std::min(s.endNs, p.endNs));
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = p.startNs;
    for (const auto &[start, end] : kids) {
        const std::int64_t from = std::max(start, reach);
        if (end > from) {
            covered += end - from;
            reach = end;
        }
    }
    return p.durationNs() - covered;
}

std::int64_t
Tracer::totalNs(const std::string &name) const
{
    std::int64_t total = 0;
    for (const Span &s : _spans)
        if (s.name == name)
            total += s.durationNs();
    return total;
}

std::int64_t
Tracer::totalSelfNs(const std::string &name) const
{
    std::int64_t total = 0;
    for (std::size_t i = 0; i < _spans.size(); ++i)
        if (_spans[i].name == name)
            total += selfNs(i);
    return total;
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : _spans)
        if (s.name == name)
            out.push_back(static_cast<double>(s.durationNs()) / 1e6);
    return out;
}

namespace
{

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

} // namespace

void
Tracer::writeChrome(std::ostream &os) const
{
    const std::int64_t origin = _spans.empty() ? 0 : _spans.front().startNs;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (std::size_t t = 0; t < tracks.size(); ++t) {
        sep();
        os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t
           << ",\"name\":\"thread_name\",\"args\":{\"name\":";
        writeJsonString(os, tracks[t]);
        os << "}}";
    }
    char buf[64];
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        sep();
        os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
           << ",\"name\":";
        writeJsonString(os, s.name);
        std::snprintf(buf, sizeof(buf), "%.3f",
                      static_cast<double>(s.startNs - origin) / 1e3);
        os << ",\"ts\":" << buf;
        std::snprintf(buf, sizeof(buf), "%.3f",
                      static_cast<double>(s.durationNs()) / 1e3);
        os << ",\"dur\":" << buf << ",\"args\":{\"span\":" << i
           << ",\"parent\":" << s.parent << ",\"trial\":" << s.trial
           << ",\"self_us\":";
        std::snprintf(buf, sizeof(buf), "%.3f",
                      static_cast<double>(selfNs(i)) / 1e3);
        os << buf << "}}";
    }
    os << "\n]}\n";
}

} // namespace perfbench
