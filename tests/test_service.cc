/**
 * @file
 * Tests for the drop-directory campaign service: spec ingestion,
 * multi-campaign multiplexing over one pool, streamed status and
 * exports, async submission while workers run, and survival of
 * malformed dropped specs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "campaign/campaign.hh"
#include "campaign/export.hh"
#include "service/service.hh"
#include "util/logging.hh"

using namespace mprobe;

namespace
{

namespace fs = std::filesystem;

std::string
freshDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "mprobe-service-" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Spec-file text of a tiny random-workload campaign. */
std::string
tinySpecText(int random_count)
{
    std::ostringstream os;
    os << "categories = random\n"
       << "random_count = " << random_count << "\n"
       << "body_size = 128\n"
       << "bootstrap = 0\n"
       << "configs = 1-1,2-1\n";
    return os.str();
}

/** A tiny campaign swept over freqs x vdds: off-curve voltages at
 * a non-nominal and at the nominal frequency. */
std::string
sweepSpecText()
{
    return "categories = random\n"
           "random_count = 2\n"
           "body_size = 128\n"
           "bootstrap = 0\n"
           "configs = 1-1,2-2\n"
           "freqs = 2.5,3.0\n"
           "vdds = 0.80,0.95\n";
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path);
    ASSERT_TRUE(f.is_open()) << path;
    f << content;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    EXPECT_TRUE(f.is_open()) << path;
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/** Fast-cadence options over fresh directories. */
ServiceOptions
testOptions(const std::string &tag)
{
    ServiceOptions opts;
    opts.dropDir = freshDir(tag + "-drop");
    opts.cacheDir = freshDir(tag + "-cache");
    opts.resultsDir = freshDir(tag + "-results");
    opts.threads = 2;
    opts.pollSeconds = 0.05;
    opts.statusSeconds = 0.05;
    opts.exitWhenIdle = true;
    return opts;
}

/** The export of @p spec_text run standalone over @p cache_dir
 * (empty: a fresh cache of its own). */
std::string
standaloneCsv(const std::string &spec_text, const std::string &tag,
              const std::string &cache_dir = "")
{
    std::string dir = freshDir(tag + "-ref");
    std::string path = dir + "/ref.spec";
    writeFile(path, spec_text);
    CampaignSpec spec = loadCampaignSpec(path);
    spec.cacheDir = cache_dir.empty() ? dir + "/cache" : cache_dir;
    Architecture arch = Architecture::get("POWER7");
    Machine machine(arch.isa(), arch.uarch().cacheGeometries(),
                    arch.uarch().clockGhz());
    Campaign campaign(machine, spec);
    CampaignResult res = campaign.run(arch);
    std::ostringstream os;
    exportSamplesCsv(os, res.samples);
    return os.str();
}

TEST(Service, CompletesDroppedCampaigns)
{
    ServiceOptions opts = testOptions("basic");
    writeFile(opts.dropDir + "/alpha.spec", tinySpecText(2));
    writeFile(opts.dropDir + "/beta.spec", tinySpecText(3));

    CampaignService service(opts);
    EXPECT_EQ(service.run(), 2u);

    for (const std::string name : {"alpha", "beta"}) {
        std::string base = opts.resultsDir + "/" + name;
        EXPECT_TRUE(fs::exists(base + "/samples.csv")) << name;
        EXPECT_TRUE(fs::exists(base + "/samples.json")) << name;
        EXPECT_TRUE(fs::exists(base + "/campaign.manifest"))
            << name;
        std::string status = readFile(base + "/status.json");
        EXPECT_NE(status.find("\"state\": \"complete\""),
                  std::string::npos)
            << status;
        EXPECT_NE(status.find(cat("\"campaign\": \"", name, "\"")),
                  std::string::npos)
            << status;
    }

    auto statuses = service.statuses();
    ASSERT_EQ(statuses.size(), 2u);
    for (const auto &s : statuses) {
        EXPECT_TRUE(s.complete) << s.name;
        EXPECT_EQ(s.doneJobs, s.totalJobs) << s.name;
    }
}

TEST(Service, ExportMatchesStandaloneRun)
{
    for (const std::string &text : {tinySpecText(3), sweepSpecText()}) {
        ServiceOptions opts = testOptions("match");
        writeFile(opts.dropDir + "/sweep.spec", text);

        CampaignService service(opts);
        ASSERT_EQ(service.run(), 1u);

        EXPECT_EQ(readFile(opts.resultsDir + "/sweep/samples.csv"),
                  standaloneCsv(text, "match"))
            << text;
    }
}

TEST(Service, CampaignsSharingWorkloadsExportLikeStandalone)
{
    // All three campaigns generate the same random programs, and
    // "plain" and "again" are the same spec, so their jobs share
    // keys. Each campaign's claim groups come from its own pool
    // range: a group never spans campaigns, and every campaign
    // still exports what it exports standalone.
    ServiceOptions opts = testOptions("overlap");
    std::string plain = tinySpecText(2);
    std::string sweep = sweepSpecText();
    writeFile(opts.dropDir + "/again.spec", plain);
    writeFile(opts.dropDir + "/plain.spec", plain);
    writeFile(opts.dropDir + "/sweep.spec", sweep);

    CampaignService service(opts);
    ASSERT_EQ(service.run(), 3u);

    std::string plain_ref = standaloneCsv(plain, "overlap-plain");
    EXPECT_EQ(readFile(opts.resultsDir + "/plain/samples.csv"),
              plain_ref);
    EXPECT_EQ(readFile(opts.resultsDir + "/again/samples.csv"),
              plain_ref);
    EXPECT_EQ(readFile(opts.resultsDir + "/sweep/samples.csv"),
              standaloneCsv(sweep, "overlap-sweep"));
}

TEST(Service, SharedCacheServesStandaloneRunsCorrectly)
{
    // The service's cache entries must be exactly what a
    // standalone run would store: a standalone run replaying them
    // exports what a clean standalone run exports, on every axis.
    ServiceOptions opts = testOptions("shared");
    std::string text = sweepSpecText();
    writeFile(opts.dropDir + "/sweep.spec", text);
    CampaignService service(opts);
    ASSERT_EQ(service.run(), 1u);

    EXPECT_EQ(standaloneCsv(text, "shared-replay", opts.cacheDir),
              standaloneCsv(text, "shared-clean"));
}

TEST(Service, SurvivesMalformedSpec)
{
    ServiceOptions opts = testOptions("malformed");
    writeFile(opts.dropDir + "/broken.spec",
              "categories = no-such-category\n");
    writeFile(opts.dropDir + "/good.spec", tinySpecText(2));

    CampaignService service(opts);
    // The broken spec is rejected with a warning; the good one
    // still completes and the process survives.
    EXPECT_EQ(service.run(), 1u);
    EXPECT_TRUE(
        fs::exists(opts.resultsDir + "/good/samples.csv"));
    EXPECT_FALSE(
        fs::exists(opts.resultsDir + "/broken/samples.csv"));
}

TEST(Service, RejectsRetiredShardKey)
{
    // Static sharding is gone: a dropped spec that still asks for
    // a slice is rejected like any malformed spec, never run whole.
    ServiceOptions opts = testOptions("shard-key");
    writeFile(opts.dropDir + "/sliced.spec",
              tinySpecText(2) + "shard = 0/2\n");
    writeFile(opts.dropDir + "/good.spec", tinySpecText(2));

    CampaignService service(opts);
    testing::internal::CaptureStderr();
    EXPECT_EQ(service.run(), 1u);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown campaign key 'shard'"),
              std::string::npos)
        << err;
    EXPECT_TRUE(
        fs::exists(opts.resultsDir + "/good/samples.csv"));
    EXPECT_FALSE(
        fs::exists(opts.resultsDir + "/sliced/samples.csv"));
}

TEST(Service, IngestsSpecsWhileRunning)
{
    ServiceOptions opts = testOptions("async");
    opts.exitWhenIdle = false;

    CampaignService service(opts);
    std::thread runner([&]() { service.run(); });

    auto waitFor = [&](const std::string &path) {
        for (int i = 0; i < 1000; ++i) {
            if (fs::exists(path))
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        return false;
    };

    // Submit the first campaign only after the service is already
    // running, then a second after the first completed — true
    // async ingestion, not a pre-seeded directory.
    writeFile(opts.dropDir + "/first.spec", tinySpecText(2));
    EXPECT_TRUE(
        waitFor(opts.resultsDir + "/first/samples.csv"));
    writeFile(opts.dropDir + "/second.spec", tinySpecText(3));
    EXPECT_TRUE(
        waitFor(opts.resultsDir + "/second/samples.csv"));

    service.requestStop();
    runner.join();

    auto statuses = service.statuses();
    ASSERT_EQ(statuses.size(), 2u);
    EXPECT_TRUE(statuses[0].complete);
    EXPECT_TRUE(statuses[1].complete);
}

} // namespace
