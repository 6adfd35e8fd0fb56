/**
 * @file
 * Self-test of every campaign field table (sim/fields.hh).
 *
 * One typed test runs over each table and checks what a hand-written
 * merge, digest and JSON writer used to get right by inspection:
 *
 *  - JSON keys are unique and each row names a distinct member;
 *  - digest slots number the digested rows 0..n-1 exactly once;
 *  - folding partials split at any point equals the one-pass fold;
 *  - bumping any single digested member changes the digest, so no
 *    row points at the wrong member.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "cluster/cluster.hh"
#include "fault/campaign.hh"
#include "fault/cluster_campaign.hh"
#include "fault/compound.hh"
#include "fault/energy_campaign.hh"
#include "fault/partition_campaign.hh"
#include "fault/ras_campaign.hh"
#include "net/service_plane.hh"
#include "sim/fields.hh"
#include "sim/rng.hh"

using namespace lightpc;

namespace
{

template <const auto &T>
struct Tab
{
    using Struct =
        typename std::tuple_element_t<0, std::decay_t<decltype(T)>>::Struct;
    static constexpr const auto &table = T;
};

using Tables = ::testing::Types<
    Tab<fault::campaignResultFields>, Tab<fault::rasCellFields>,
    Tab<fault::rasCampaignFields>, Tab<fault::compoundFields>,
    Tab<net::serviceResultFields>, Tab<net::serviceOutageFields>,
    Tab<fault::clusterCellFields>, Tab<fault::clusterCampaignFields>,
    Tab<fault::partitionCellFields>,
    Tab<fault::partitionCampaignFields>, Tab<fault::energyCellFields>,
    Tab<fault::energyProvisionFields>,
    Tab<fault::energyCampaignFields>, Tab<cluster::clusterResultFields>>;

template <class M>
void
randomize(M &v, Rng &rng)
{
    if constexpr (sim::detail::IsArray<M>::value) {
        for (auto &e : v)
            randomize(e, rng);
    } else if constexpr (std::is_same_v<M, std::vector<std::string>>) {
        v.clear();
        for (std::uint64_t n = rng.below(4); n > 0; --n)
            v.push_back("note " + std::to_string(rng.below(100)));
    } else if constexpr (std::is_same_v<M, std::string>) {
        v = std::to_string(rng.below(100));
    } else if constexpr (std::is_same_v<M, bool>) {
        v = rng.below(2) == 1;
    } else if constexpr (std::is_enum_v<M>) {
        v = static_cast<M>(rng.below(2));
    } else {
        // Whole numbers keep double sums exact in any order.
        v = static_cast<M>(rng.below(1000));
    }
}

template <class M>
void
setKey(M &v)
{
    if constexpr (std::is_same_v<M, std::string>)
        v = "key";
    else if constexpr (std::is_enum_v<M>)
        v = static_cast<M>(2);
    else if constexpr (std::is_arithmetic_v<M>)
        v = static_cast<M>(3);
}

/** One cell's partial: shared keys, random everything else. */
template <class S, class Table>
S
makePartial(const Table &table, Rng &rng)
{
    S s{};
    sim::forEachRow(table, [&](const auto &row) {
        if (row.fold == sim::Fold::Key)
            setKey(s.*row.member);
        else
            randomize(s.*row.member, rng);
    });
    return s;
}

template <class S, class Table>
bool
rowsEqual(const S &a, const S &b, const Table &table)
{
    bool equal = true;
    sim::forEachRow(table, [&](const auto &row) {
        equal = equal && a.*row.member == b.*row.member;
    });
    return equal;
}

template <class M>
void
bump(M &v)
{
    if constexpr (std::is_same_v<M, bool>)
        v = !v;
    else if constexpr (std::is_enum_v<M>)
        v = static_cast<M>(static_cast<std::uint64_t>(v) + 1);
    else
        v += 1;
}

} // namespace

template <class T>
class FieldTable : public ::testing::Test
{};

TYPED_TEST_SUITE(FieldTable, Tables);

TYPED_TEST(FieldTable, KeysAndMembersAreUnique)
{
    const auto &table = TypeParam::table;
    int i = 0;
    sim::forEachRow(table, [&](const auto &a) {
        int j = 0;
        sim::forEachRow(table, [&](const auto &b) {
            if (j++ <= i)
                return;
            if (a.key && b.key) {
                EXPECT_STRNE(a.key, b.key);
            }
            using A = typename std::decay_t<decltype(a)>::Member;
            using B = typename std::decay_t<decltype(b)>::Member;
            if constexpr (std::is_same_v<A, B>) {
                EXPECT_NE(a.member, b.member)
                    << "two rows name one member: " << (a.key ? a.key : "")
                    << " / " << (b.key ? b.key : "");
            }
        });
        ++i;
    });
}

TYPED_TEST(FieldTable, DigestSlotsAreAPermutation)
{
    std::vector<int> slots;
    sim::forEachRow(TypeParam::table, [&](const auto &row) {
        using M = typename std::decay_t<decltype(row)>::Member;
        if (row.slot < 0)
            return;
        EXPECT_TRUE(sim::detail::mixable<M>())
            << "row " << (row.key ? row.key : "") << " cannot be mixed";
        slots.push_back(row.slot);
    });
    std::sort(slots.begin(), slots.end());
    for (std::size_t s = 0; s < slots.size(); ++s)
        EXPECT_EQ(slots[s], static_cast<int>(s));
}

TYPED_TEST(FieldTable, JsonRowsCarryTheirFormat)
{
    sim::forEachRow(TypeParam::table, [&](const auto &row) {
        using M = typename std::decay_t<decltype(row)>::Member;
        if (!row.key)
            return;
        if constexpr (std::is_floating_point_v<M>) {
            EXPECT_NE(row.fmt, nullptr) << row.key;
        }
        if constexpr (sim::detail::IsArray<M>::value) {
            EXPECT_NE(row.names, nullptr) << row.key;
        }
        if (row.show != sim::Show::Plain && row.show != sim::Show::Name) {
            EXPECT_NE(row.fmt, nullptr) << row.key;
        }
    });
}

TYPED_TEST(FieldTable, SplitFoldEqualsOnePassFold)
{
    using S = typename TypeParam::Struct;
    const auto &table = TypeParam::table;
    Rng rng(0x6669656c64ULL);
    std::vector<S> parts;
    for (int p = 0; p < 6; ++p)
        parts.push_back(makePartial<S>(table, rng));

    S whole{};
    for (const S &p : parts)
        sim::fold(whole, p, table);

    for (std::size_t k = 0; k <= parts.size(); ++k) {
        S left{};
        S right{};
        for (std::size_t p = 0; p < parts.size(); ++p)
            sim::fold(p < k ? left : right, parts[p], table);
        sim::fold(left, right, table);
        EXPECT_TRUE(rowsEqual(left, whole, table)) << "split at " << k;
    }
}

TYPED_TEST(FieldTable, EveryDigestedMemberMovesTheDigest)
{
    using S = typename TypeParam::Struct;
    const auto &table = TypeParam::table;
    Rng rng(0x64696765ULL);
    const S base = makePartial<S>(table, rng);
    const std::uint64_t h = sim::digestOf(base, table);

    sim::forEachRow(table, [&](const auto &row) {
        using M = typename std::decay_t<decltype(row)>::Member;
        if (row.slot < 0)
            return;
        if constexpr (sim::detail::IsArray<M>::value) {
            for (std::size_t i = 0; i < (base.*row.member).size(); ++i) {
                S changed = base;
                bump((changed.*row.member)[i]);
                EXPECT_NE(sim::digestOf(changed, table), h)
                    << row.key << "[" << i << "]";
            }
        } else if constexpr (sim::detail::mixable<M>()) {
            S changed = base;
            bump(changed.*row.member);
            EXPECT_NE(sim::digestOf(changed, table), h)
                << (row.key ? row.key : "slot " + std::to_string(row.slot));
        }
    });
}
