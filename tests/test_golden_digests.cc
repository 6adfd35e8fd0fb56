/**
 * @file
 * Golden digests of the seven campaign families.
 *
 * Each campaign runs at the reduced size its CI smoke job uses, and
 * its digest is pinned. The thread-invariance tests only prove that
 * a digest is the same at every thread count; these pins prove that
 * a refactor of the fold, digest or reporting code leaves every
 * digest bit-identical. A pin moves only with a deliberate change in
 * simulated behaviour.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/cluster_campaign.hh"
#include "fault/compound.hh"
#include "fault/energy_campaign.hh"
#include "fault/partition_campaign.hh"
#include "fault/ras_campaign.hh"
#include "net/service_plane.hh"

using namespace lightpc;

namespace
{

constexpr unsigned kThreads = 2;

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

// fault_campaign_main --cuts 8: five modes x two PSUs.
TEST(GoldenDigest, FaultCampaign)
{
    using Runner =
        fault::CampaignResult (*)(const fault::CampaignConfig &);
    const Runner runners[] = {
        fault::runSngCampaign,      fault::runSysPcCampaign,
        fault::runSCheckPcCampaign, fault::runACheckPcCampaign,
        fault::runOpLogCampaign,
    };
    std::vector<std::string> got;
    for (const Runner run : runners) {
        for (const power::PsuModel &psu :
             {power::PsuModel::atx(), power::PsuModel::dellServer()}) {
            fault::CampaignConfig config;
            config.cuts = 8;
            config.seed = 1;
            config.psu = psu;
            config.threads = kThreads;
            got.push_back(hex(run(config).digest));
        }
    }
    const std::vector<std::string> want = {
        "0x48e9efc6087fbf8a", "0x93e25ed7c5744953",
        "0x9d9b48a4cce26deb", "0x0815dc60a38113fb",
        "0x17b34eadf8ba935a", "0x17b34eadf8ba935a",
        "0x46df8d2000a2f515", "0xf0f55c4196077b14",
        "0xd392132d4587ae66", "0x9f9da3ad49137034",
    };
    EXPECT_EQ(got, want);
}

// ras_campaign_main --seeds 2.
TEST(GoldenDigest, RasCampaign)
{
    fault::RasCampaignConfig config;
    config.seedsPerCell = 2;
    config.threads = kThreads;
    EXPECT_EQ(hex(fault::runRasCampaign(config).digest),
              "0x6d4482821d8ab20a");
}

// bench_compound_fault --trials 48.
TEST(GoldenDigest, CompoundCampaign)
{
    fault::CompoundConfig config;
    config.trials = 48;
    config.threads = kThreads;
    EXPECT_EQ(hex(fault::runCompoundCampaign(config).digest),
              "0x6b389a5c7122b77f");
}

// bench_service_availability --runfor-ms 1500 --cuts 1
// --arrivals 1000 --clients 300: one run per persistence mode.
TEST(GoldenDigest, ServicePlane)
{
    std::vector<net::ServiceConfig> suite;
    for (const net::PersistMode mode :
         {net::PersistMode::SnG, net::PersistMode::OpLog,
          net::PersistMode::SysPc, net::PersistMode::SCheckPc,
          net::PersistMode::ACheckPc}) {
        net::ServiceConfig cfg;
        cfg.mode = mode;
        cfg.cuts = 1;
        cfg.seed = 42;
        cfg.runFor = 1500 * tickMs;
        cfg.fleet.arrivalsPerSec = 1000.0;
        cfg.fleet.clients = 300;
        suite.push_back(cfg);
    }
    std::vector<std::string> got;
    for (const net::ServiceResult &r :
         net::runServiceSuite(suite, kThreads))
        got.push_back(hex(r.digest));
    const std::vector<std::string> want = {
        "0x537bd5171e8ce90d", "0x4d7a0101427364f8",
        "0x4413a3b8fac1d20b", "0x8290d4aa1a39266f",
        "0x15539f41b53ef5a8",
    };
    EXPECT_EQ(got, want);
}

// bench_cluster --seeds 1 --runfor-ms 1000 --arrivals 1000
// --clients 80.
TEST(GoldenDigest, ClusterCampaign)
{
    fault::ClusterCampaignConfig cfg;
    cfg.seed = 42;
    cfg.seedsPerCell = 1;
    cfg.runFor = 1000 * tickMs;
    cfg.drainGrace = 2 * tickSec;
    cfg.clients = 80;
    cfg.arrivalsPerSec = 1000.0;
    cfg.threads = kThreads;
    EXPECT_EQ(hex(fault::runClusterCampaign(cfg).digest),
              "0x5830d585e4282d33");
}

// bench_partition --seeds 1 --runfor-ms 1000 --arrivals 1000
// --clients 80.
TEST(GoldenDigest, PartitionCampaign)
{
    fault::PartitionCampaignConfig cfg;
    cfg.seed = 42;
    cfg.seedsPerCell = 1;
    cfg.runFor = 1000 * tickMs;
    cfg.drainGrace = 2 * tickSec;
    cfg.clients = 80;
    cfg.arrivalsPerSec = 1000.0;
    cfg.threads = kThreads;
    EXPECT_EQ(hex(fault::runPartitionCampaign(cfg).digest),
              "0x94609b68941fab5b");
}

// bench_energy --seeds 2.
TEST(GoldenDigest, EnergyCampaign)
{
    fault::EnergyCampaignConfig cfg;
    cfg.seed = 3001;
    cfg.seedsPerCell = 2;
    cfg.agingSpreadCycles = 600.0;
    cfg.threads = kThreads;
    EXPECT_EQ(hex(fault::runEnergyCampaign(cfg).digest),
              "0xe39d8c3860e3112a");
}
