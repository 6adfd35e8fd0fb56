/**
 * @file
 * Declarative field tables for campaign statistics.
 *
 * Each campaign stats struct names its members once, in a constexpr
 * table next to the struct. A row gives one member's BENCH JSON key
 * (null: not in the JSON), how partials fold into the aggregate, its
 * slot in the FNV digest stream (-1: not digested) and how the JSON
 * prints it. Table order is JSON key order; the digest slot is
 * explicit because the pinned digests mix members in an order that
 * predates the tables. Adding a counter is one row: a JSON key and
 * the next free digest slot.
 *
 * fold()/foldFrom() merge partials and per-trial results, digest()
 * mixes the digested rows, and bench/campaign_io.hh prints the rows.
 * Folds run once per trial after the simulation.
 */

#ifndef LIGHTPC_SIM_FIELDS_HH
#define LIGHTPC_SIM_FIELDS_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/digest.hh"

namespace lightpc::sim
{

enum class Fold : std::uint8_t
{
    Sum,
    Min,
    Max,
    Key,    ///< identifies the cell: the first non-default value wins
    Notes,  ///< violation notes: appended, keeping the first noteCap
    None,   ///< derived after the fold (digests, percentiles)
};

/** Most violation notes a folded aggregate keeps. */
inline constexpr std::size_t noteCap = 8;

/** Count one invariant violation on @p result and keep its note. */
template <class R>
void
flagViolation(R &result, const std::string &note)
{
    ++result.violations;
    if (result.violationNotes.size() < noteCap)
        result.violationNotes.push_back(note);
}

/** How a row prints in JSON beyond its type's default. */
enum class Show : std::uint8_t
{
    Plain,  ///< numbers (doubles with fmt), strings, bools, sizes
    Ms,     ///< a Tick in milliseconds with fmt (-1 for maxTick)
    Text,   ///< an integer through fmt, quoted (digests)
    Name,   ///< an enum through names(), quoted
};

/** Source type of rows that fold only partials of their own struct. */
struct NoSource
{};

/**
 * One row over member @p member of S. A row that also folds from a
 * foreign per-trial result names that source member in @p from.
 */
template <class S, class M, class Src = NoSource, class SM = int>
struct Field
{
    using Struct = S;
    using Member = M;
    using Source = Src;

    const char *key = nullptr;
    M S::*member = nullptr;
    Fold fold = Fold::Sum;
    int slot = -1;
    Show show = Show::Plain;
    const char *fmt = nullptr;
    /** Enum names, or array element keys from element firstName on
     *  (earlier elements enter the digest only). */
    const char *(*names)(std::size_t) = nullptr;
    std::size_t firstName = 0;
    SM Src::*from = nullptr;

    constexpr Field
    fixed(const char *f, Show s = Show::Plain) const
    {
        Field r = *this;
        r.fmt = f;
        r.show = s;
        return r;
    }

    constexpr Field ms(const char *f) const { return fixed(f, Show::Ms); }
    constexpr Field text(const char *f) const { return fixed(f, Show::Text); }

    constexpr Field
    named(const char *(*n)(std::size_t), std::size_t first = 0) const
    {
        Field r = fixed(nullptr, std::is_enum_v<M> ? Show::Name
                                                    : Show::Plain);
        r.names = n;
        r.firstName = first;
        return r;
    }

    template <class Src2, class SM2>
    constexpr Field<S, M, Src2, SM2>
    source(SM2 Src2::*p) const
    {
        return {key, member, fold, slot, show, fmt, names, firstName, p};
    }
};

/**
 * Row builders: sum("key", &S::member, slot) and so on; a fourth
 * argument names the member of a per-trial source that folds in.
 */
template <Fold F>
struct RowOf
{
    template <class S, class M>
    constexpr Field<S, M>
    operator()(const char *key, M S::*m, int slot = -1) const
    {
        return {key, m, F, slot};
    }

    template <class S, class M, class Src, class SM>
    constexpr Field<S, M, Src, SM>
    operator()(const char *key, M S::*m, int slot, SM Src::*from) const
    {
        return Field<S, M>{key, m, F, slot}.source(from);
    }
};

inline constexpr RowOf<Fold::Sum> sum{};
inline constexpr RowOf<Fold::Min> minimum{};
inline constexpr RowOf<Fold::Max> maximum{};
inline constexpr RowOf<Fold::Key> key{};
inline constexpr RowOf<Fold::Notes> notes{};
inline constexpr RowOf<Fold::None> derived{};

/** Call @p fn on every row of @p table, in table order. */
template <class Table, class Fn>
constexpr void
forEachRow(const Table &table, Fn &&fn)
{
    std::apply([&fn](const auto &...row) { (fn(row), ...); }, table);
}

namespace detail
{

template <class T>
struct IsArray : std::false_type
{};

template <class T, std::size_t N>
struct IsArray<std::array<T, N>> : std::true_type
{};

template <class M>
void
foldValue(M &acc, const M &part, Fold fold)
{
    if constexpr (IsArray<M>::value) {
        for (std::size_t i = 0; i < acc.size(); ++i)
            foldValue(acc[i], part[i], fold);
    } else if constexpr (std::is_same_v<M, std::vector<std::string>>) {
        for (auto it = part.begin(); fold == Fold::Notes
             && it != part.end() && acc.size() < noteCap; ++it)
            acc.push_back(*it);
    } else if (fold == Fold::Key) {
        if (acc == M{})
            acc = part;
    } else if constexpr (std::is_arithmetic_v<M>
                         && !std::is_same_v<M, bool>) {
        if (fold == Fold::Sum)
            acc += part;
        else if (fold == Fold::Min)
            acc = std::min(acc, part);
        else if (fold == Fold::Max)
            acc = std::max(acc, part);
    }
}

/** Numbers, enums and arrays of them; only these enter a digest. */
template <class M>
constexpr bool
mixable()
{
    if constexpr (IsArray<M>::value)
        return mixable<typename M::value_type>();
    else
        return std::is_arithmetic_v<M> || std::is_enum_v<M>;
}

template <class M>
void
mixValue(Fnv64 &h, const M &v)
{
    if constexpr (IsArray<M>::value) {
        for (const auto &e : v)
            mixValue(h, e);
    } else if constexpr (std::is_floating_point_v<M>) {
        // Doubles enter the digest in truncated thousandths.
        h.mix(static_cast<std::uint64_t>(v * 1000.0));
    } else {
        h.mix(static_cast<std::uint64_t>(v));
    }
}

} // namespace detail

/** Fold partial @p part into @p acc, row by row. */
template <class S, class Table>
void
fold(S &acc, const S &part, const Table &table)
{
    forEachRow(table, [&](const auto &row) {
        detail::foldValue(acc.*row.member, part.*row.member, row.fold);
    });
}

/**
 * Fold the source members of one foreign result @p src into @p acc
 * (a vector source folds as its size). With @p base, only the growth
 * since that earlier snapshot of the same counters folds in.
 */
template <class S, class Src, class Table>
void
foldFrom(S &acc, const Src &src, const Table &table,
         const Src *base = nullptr)
{
    forEachRow(table, [&](const auto &row) {
        using R = std::decay_t<decltype(row)>;
        if constexpr (std::is_same_v<typename R::Source, Src>) {
            using M = typename R::Member;
            auto value = [&row](const Src &s) {
                const auto &v = s.*row.from;
                if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                             std::vector<std::string>>)
                    return static_cast<M>(v.size());
                else
                    return static_cast<M>(v);
            };
            M v = value(src);
            if constexpr (std::is_integral_v<M>)
                if (base)
                    v -= value(*base);
            detail::foldValue(acc.*row.member, v, row.fold);
        }
    });
}

/**
 * Mix @p obj's digested rows into @p h in slot order. Slots are
 * numbered without gaps (tests/test_fields.cc checks it), so the
 * first empty slot ends the stream.
 */
template <class S, class Table>
void
digest(Fnv64 &h, const S &obj, const Table &table)
{
    for (int s = 0, found = 1; found; ++s) {
        found = 0;
        forEachRow(table, [&](const auto &row) {
            using M = typename std::decay_t<decltype(row)>::Member;
            if constexpr (detail::mixable<M>()) {
                if (row.slot == s) {
                    detail::mixValue(h, obj.*row.member);
                    found = 1;
                }
            }
        });
    }
}

/** The digest of @p obj's rows alone. */
template <class S, class Table>
std::uint64_t
digestOf(const S &obj, const Table &table)
{
    Fnv64 h;
    digest(h, obj, table);
    return h.h;
}

} // namespace lightpc::sim

#endif // LIGHTPC_SIM_FIELDS_HH
