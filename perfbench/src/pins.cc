#include "pins.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench
{

namespace
{

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

bool
Pins::load(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read pin file " + path;
        return false;
    }
    std::string line;
    for (int n = 1; std::getline(in, line); ++n) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::uint64_t seed = 0;
        std::string workload, key, value, extra;
        if (!(fields >> seed)) {
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
        } else if ((fields >> workload >> key >> value) && !(fields >> extra)) {
            values[{seed, workload, key}] = value;
            continue;
        }
        error = path + ":" + std::to_string(n) + ": malformed pin";
        return false;
    }
    return true;
}

std::vector<std::string>
Pins::compare(std::uint64_t seed, const std::string &workload,
              const Outcome &o) const
{
    std::map<std::string, std::string> got;
    got["digest"] = hex(o.digest);
    for (const auto &[name, value] : o.sims)
        got[name] = exact(value);

    std::vector<std::string> out;
    for (const auto &[key, value] : values) {
        const auto &[pseed, pworkload, pkey] = key;
        if (pseed != seed || pworkload != workload)
            continue;
        const auto it = got.find(pkey);
        const std::string have = it == got.end() ? "(absent)" : it->second;
        if (have != value)
            out.push_back(workload + ": " + pkey + " mismatch at seed "
                          + std::to_string(seed) + ": got " + have
                          + ", pinned " + value);
    }
    return out;
}

std::string
formatPins(std::uint64_t seed, const std::string &workload,
           const Outcome &o)
{
    std::ostringstream os;
    os << seed << ' ' << workload << " digest " << hex(o.digest) << '\n';
    for (const auto &[name, value] : o.sims)
        os << seed << ' ' << workload << ' ' << name << ' ' << exact(value)
           << '\n';
    return os.str();
}

} // namespace perfbench
