/**
 * @file
 * Command line and output of the campaign benches.
 *
 * CampaignCli parses every campaign bench's --seed S, --threads N|-j N
 * and --out FILE plus the sizing flags the bench registers. Counts
 * must be strictly positive decimal integers and reals must parse
 * whole and pass the bench's range check; anything else (trailing
 * junk, a sign, zero, overflow) prints the usage line and exits 2.
 * --threads keeps sim::parseThreadsArg's rule instead: a bad value
 * warns and falls back to one worker, since the thread count never
 * changes a result.
 *
 * JsonWriter, printRows() and printFields() print stats structs
 * through their field tables (sim/fields.hh), so a counter added to
 * a table reaches BENCH_*.json and the console with no bench change.
 * In the JSON, the top-level object and the arrays directly inside it
 * put one member per line ("threads" stays on its own line for
 * grep -v diffs); deeper levels are written inline.
 */

#ifndef LIGHTPC_BENCH_CAMPAIGN_IO_HH
#define LIGHTPC_BENCH_CAMPAIGN_IO_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/fields.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/ticks.hh"
#include "stats/table.hh"

namespace bench
{

/** A whole decimal integer in [0, max]; false on anything else. */
inline bool
parseUnsigned(const char *text, std::uint64_t max, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text < '0' || *text > '9' || *end || errno || v > max)
        return false;
    out = v;
    return true;
}

/** A whole finite real; false on anything else. */
inline bool
parseReal(const char *text, double &out)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end || errno || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

class CampaignCli
{
  public:
    std::uint64_t seed;
    /** The worker count, resolved by parse() (0 = every host thread). */
    unsigned threads = 0;
    std::string out;

    CampaignCli(std::uint64_t seed, std::string out)
        : seed(seed), out(std::move(out))
    {}

    /** --flag META, handed to @p set, which returns false to reject. */
    CampaignCli &
    option(const char *flag, const char *meta,
           std::function<bool(const char *)> set)
    {
        options.push_back({flag, meta, std::move(set)});
        return *this;
    }

    /** --flag N: a strictly positive count that fits in T. */
    template <class T>
    CampaignCli &
    count(const char *flag, T &value)
    {
        return option(flag, "N", [&value](const char *text) {
            std::uint64_t v = 0;
            const bool ok =
                parseUnsigned(text, std::numeric_limits<T>::max(), v)
                && v > 0;
            if (ok)
                value = static_cast<T>(v);
            return ok;
        });
    }

    /** --flag META: a real that @p accept approves. */
    CampaignCli &
    real(const char *flag, const char *meta, double &value,
         bool (*accept)(double))
    {
        return option(flag, meta, [&value, accept](const char *text) {
            double v = 0.0;
            const bool ok = parseReal(text, v) && accept(v);
            if (ok)
                value = v;
            return ok;
        });
    }

    /** Parse argv; exits 2 with the usage line on bad input. */
    void
    parse(int argc, char **argv)
    {
        option("--seed", "S", [this](const char *text) {
            return parseUnsigned(text, ~std::uint64_t(0), seed);
        });
        option("--threads", "N|-j N", [this](const char *text) {
            threads = lightpc::sim::parseThreadsArg(text);
            return true;
        });
        option("--out", "FILE", [this](const char *text) {
            out = text;
            return true;
        });
        for (int i = 1; i < argc; i += 2) {
            const std::string flag =
                std::string(argv[i]) == "-j" ? "--threads" : argv[i];
            const Option *opt = nullptr;
            for (const Option &o : options)
                if (o.flag == flag)
                    opt = &o;
            if (!opt || i + 1 >= argc || !opt->set(argv[i + 1]))
                usage(argv[0]);
        }
        threads = lightpc::sim::resolveThreads(threads);
    }

  private:
    struct Option
    {
        std::string flag;
        std::string meta;
        std::function<bool(const char *)> set;
    };

    std::vector<Option> options;

    [[noreturn]] void
    usage(const char *argv0) const
    {
        std::string line = std::string("usage: ") + argv0;
        for (const Option &o : options)
            line += " [" + o.flag + " " + o.meta + "]";
        std::fprintf(stderr, "%s\n", line.c_str());
        std::exit(2);
    }
};

/** @p s as a JSON string (keys and names need no escapes). */
inline std::string
quote(const std::string &s)
{
    return "\"" + s + "\"";
}

/** @p v as JSON text; doubles print with @p fmt. */
template <class V>
std::string
jsonText(const V &v, const char *fmt = nullptr)
{
    char buf[64];
    if constexpr (std::is_same_v<V, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<V>) {
        std::snprintf(buf, sizeof(buf), fmt ? fmt : "%g", v);
        return buf;
    } else if constexpr (std::is_integral_v<V> || std::is_enum_v<V>) {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        return buf;
    } else if constexpr (std::is_same_v<V, std::vector<std::string>>) {
        return jsonText(v.size());
    } else {
        return quote(v);
    }
}

/** Row @p row of @p obj as JSON text. */
template <class S, class Row>
std::string
rowText(const S &obj, const Row &row)
{
    using lightpc::sim::Show;
    const auto &v = obj.*row.member;
    using M = std::decay_t<decltype(v)>;
    if constexpr (std::is_integral_v<M> || std::is_enum_v<M>) {
        const auto n = static_cast<unsigned long long>(v);
        char buf[64];
        if (row.show == Show::Text) {
            std::snprintf(buf, sizeof(buf), row.fmt, n);
            return quote(buf);
        }
        if (row.show == Show::Name)
            return quote(row.names(n));
        if (row.show == Show::Ms)
            return jsonText(n == lightpc::maxTick
                                ? -1.0
                                : double(n) / double(lightpc::tickMs),
                            row.fmt);
    }
    if constexpr (lightpc::sim::detail::IsArray<M>::value) {
        std::string s = "{";
        for (std::size_t i = row.firstName; i < v.size(); ++i)
            s += (i > row.firstName ? ", " : "")
                 + quote(row.names(i)) + ": " + jsonText(v[i]);
        return s + "}";
    } else {
        return jsonText(v, row.fmt);
    }
}

/**
 * Print @p items as a console table of the rows named @p keys (every
 * keyed row when empty), formatted as in the JSON.
 */
template <class S, class Table>
void
printRows(const std::vector<S> &items, const Table &table,
          std::vector<std::string> keys = {})
{
    if (keys.empty())
        lightpc::sim::forEachRow(table, [&keys](const auto &row) {
            if (row.key)
                keys.push_back(row.key);
        });
    lightpc::stats::Table out(keys);
    for (const S &item : items) {
        std::vector<std::string> cells;
        for (const std::string &k : keys) {
            lightpc::sim::forEachRow(table, [&](const auto &row) {
                if (!row.key || k != row.key)
                    return;
                const std::string s = rowText(item, row);
                cells.push_back(s[0] == '"' ? s.substr(1, s.size() - 2)
                                            : s);
            });
        }
        out.addRow(cells);
    }
    out.print(std::cout);
}

/** Print @p obj's JSON rows, one "key: value" line each. */
template <class S, class Table>
void
printFields(const S &obj, const Table &table)
{
    lightpc::sim::forEachRow(table, [&](const auto &row) {
        if (row.key)
            std::cout << "  " << row.key << ": " << rowText(obj, row)
                      << "\n";
    });
}

class JsonWriter
{
  public:
    /** A run parameter or a hand-computed value. */
    template <class V>
    JsonWriter &
    put(const char *key, const V &value, const char *fmt = nullptr)
    {
        member(key);
        out += jsonText(value, fmt);
        return *this;
    }

    /**
     * @p obj's table rows from key @p first through key @p last (all
     * rows by default; to the end without @p last).
     */
    template <class S, class Table>
    JsonWriter &
    fields(const S &obj, const Table &table, const char *first = nullptr,
           const char *last = nullptr)
    {
        bool on = !first;
        bool done = false;
        lightpc::sim::forEachRow(table, [&](const auto &row) {
            if (!row.key || done)
                return;
            on = on || std::strcmp(row.key, first) == 0;
            if (!on)
                return;
            member(row.key);
            out += rowText(obj, row);
            done = last && std::strcmp(row.key, last) == 0;
        });
        if (!on || (last && !done))
            lightpc::fatal("bench json: no rows ", first ? first : "",
                           "..", last ? last : "");
        return *this;
    }

    /** @p obj's rows named @p keys, in that order. */
    template <class S, class Table>
    JsonWriter &
    pick(const S &obj, const Table &table,
         std::initializer_list<const char *> keys)
    {
        for (const char *k : keys)
            fields(obj, table, k, k);
        return *this;
    }

    /** An array of one table-printed object per item. */
    template <class S, class Table>
    JsonWriter &
    objects(const char *key, const std::vector<S> &items,
            const Table &table)
    {
        open(key, '[');
        for (const S &item : items) {
            open(nullptr, '{');
            fields(item, table).close('}');
        }
        return close(']');
    }

    /** Open an object ('{') or array ('[') the caller fills. */
    JsonWriter &
    open(const char *key, char bracket)
    {
        member(key);
        out += bracket;
        // Arrays directly in the top-level object list one item per
        // line; everything deeper stays inline.
        stack.push_back({true, bracket == '[' && stack.size() == 1});
        return *this;
    }

    JsonWriter &
    close(char bracket)
    {
        const Frame f = stack.back();
        stack.pop_back();
        if (f.multiline && !f.first)
            newline();
        out += bracket;
        return *this;
    }

    /**
     * Close the document and write it to @p path. Reports the file
     * written, or the error and false when it cannot be written.
     */
    bool
    save(const std::string &path)
    {
        close('}');
        out += "\n";
        std::FILE *f = std::fopen(path.c_str(), "w");
        const bool written = f && std::fputs(out.c_str(), f) >= 0;
        if (!f || std::fclose(f) != 0 || !written) {
            std::perror(path.c_str());
            return false;
        }
        std::cout << "\nwrote " << path << "\n";
        return true;
    }

  private:
    struct Frame
    {
        bool first;
        bool multiline;
    };

    std::string out{"{"};
    std::vector<Frame> stack{{true, true}};

    void
    newline()
    {
        out += '\n';
        out.append(2 * stack.size(), ' ');
    }

    void
    member(const char *key)
    {
        Frame &f = stack.back();
        if (!f.first)
            out += f.multiline ? "," : ", ";
        if (f.multiline)
            newline();
        f.first = false;
        if (key)
            out += quote(key) + ": ";
    }
};

} // namespace bench

#endif // LIGHTPC_BENCH_CAMPAIGN_IO_HH
