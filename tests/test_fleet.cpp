/**
 * @file
 * Fleet mode: shard partitioning, the shared run-all renderer, the
 * shard-JSON merge and the content-addressed result cache.
 *
 * The load-bearing property is byte-stability: the union of any N
 * shards' `run-all --format=json` documents must be byte-identical to
 * the unsharded document, and a cache hit must reproduce the fresh
 * run's bytes exactly.  The suite proves both against the real
 * registry at smoke scale — one full catalog pass populates a cache,
 * and every shard sweep after it replays from the store, so testing
 * four different shard counts costs one run-all.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <unistd.h>

#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/result_cache.hpp"
#include "util/hash.hpp"

using namespace lruleak;
using namespace lruleak::core;

namespace {

/**
 * A scratch directory private to this process.  ctest runs every test
 * in its own process, so under `ctest -jN` a fixed path would be shared
 * (and deleted) by tests running side by side.
 */
std::string
processTempDir(const std::string &leaf)
{
    return (std::filesystem::path(testing::TempDir()) /
            (leaf + "-" + std::to_string(getpid())))
        .string();
}

// ---------------------------------------------------------------- shards

TEST(ShardSpec, ParsesWellFormedSpecs)
{
    const ShardSpec s = parseShardSpec("2/5");
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(parseShardSpec("0/1").count, 1u);
    EXPECT_EQ(parseShardSpec("63/64").index, 63u);
}

TEST(ShardSpec, RejectsMalformedSpecs)
{
    for (const char *bad : {"", "3", "/3", "1/", "a/3", "1/b", "1//3",
                            "1/3x", "-1/3", "3/3", "4/3", "0/0", "1/0"})
        EXPECT_THROW(parseShardSpec(bad), std::invalid_argument)
            << "accepted '" << bad << "'";
}

TEST(Shard, HashIsPinnedFnv1a)
{
    // shardOf must stay a pure, stable function of the name — pin the
    // underlying FNV-1a against its published test vectors so a switch
    // to an order- or platform-dependent hash (std::hash, list
    // position) fails loudly.
    EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(util::fnv1a64("foobar"), 0x85944171f73967e8ULL);
    EXPECT_EQ(shardOf("foobar", 3),
              static_cast<std::uint32_t>(0x85944171f73967e8ULL % 3));
}

TEST(Shard, EveryExperimentLandsInExactlyOneShard)
{
    for (const std::uint32_t n : {1u, 2u, 3u, 7u}) {
        for (const Experiment *e : Registry::instance().all()) {
            std::uint32_t homes = 0;
            for (std::uint32_t i = 0; i < n; ++i)
                homes += inShard(e->name(), ShardSpec{i, n}) ? 1 : 0;
            EXPECT_EQ(homes, 1u) << e->name() << " under /" << n;
        }
    }
}

TEST(Shard, AssignmentIgnoresTheRestOfTheCatalog)
{
    // The shard of a name is decided by the name alone; computing it
    // before/after/among other names changes nothing.
    const std::uint32_t solo = shardOf("leakage_matrix", 5);
    for (const Experiment *e : Registry::instance().all())
        (void)shardOf(e->name(), 5);
    EXPECT_EQ(shardOf("leakage_matrix", 5), solo);
}

// ----------------------------------------------------------------- merge

/** A renderer-shaped object ('{' .. '}\n' like JsonSink emits). */
std::string
fakeObject(const std::string &name)
{
    return "{\n  \"experiment\": \"" + name +
           "\",\n  \"results\": [\n    {\"kind\": \"note\", \"text\": "
           "\"b{r}ace \\\" soup\"}\n  ]\n}\n";
}

/** Assemble rendered objects exactly like the run-all JSON renderer. */
std::string
fakeDocument(const std::vector<std::string> &names)
{
    std::string doc = "[\n";
    bool first = true;
    for (const auto &n : names) {
        doc += (first ? "" : ",\n") + fakeObject(n);
        first = false;
    }
    return doc + "]\n";
}

TEST(Merge, UnionReassemblesInNameOrder)
{
    const std::string expected = fakeDocument({"alpha", "beta", "gamma"});
    EXPECT_EQ(mergeRunAllJson({fakeDocument({"beta"}),
                               fakeDocument({"gamma", "alpha"})}),
              expected);
    // Order of the documents themselves is irrelevant too.
    EXPECT_EQ(mergeRunAllJson({fakeDocument({"gamma", "alpha"}),
                               fakeDocument({"beta"})}),
              expected);
}

TEST(Merge, EmptyShardsAreHarmless)
{
    EXPECT_EQ(mergeRunAllJson({"[\n]\n", "[\n]\n"}), "[\n]\n");
    EXPECT_EQ(mergeRunAllJson({fakeDocument({"solo"}), "[\n]\n"}),
              fakeDocument({"solo"}));
}

TEST(Merge, RejectsDuplicatesAndMalformedDocuments)
{
    EXPECT_THROW(mergeRunAllJson({fakeDocument({"dup"}),
                                  fakeDocument({"dup"})}),
                 std::invalid_argument);
    for (const char *bad :
         {"not json", "[\n{\n  \"experiment\": \"x\"\n}\n", // unterminated
          "[\n{\n  \"name\": \"x\"\n}\n]\n",                // no field
          "[\n]\ntrailing", "[\n42\n]\n"})
        EXPECT_THROW(mergeRunAllJson({bad}), std::invalid_argument)
            << "accepted: " << bad;
}

// ------------------------------------------------ cache keys and store

TEST(ResultCache, KeyChangesWithEveryTupleField)
{
    const ResultCache cache("unused-dir", "hashA");
    const std::map<std::string, std::string> params{{"seed", "1"},
                                                    {"trials", "2"}};
    const std::string base = cache.keyFor("exp", params, "json");

    EXPECT_EQ(cache.keyFor("exp", params, "json"), base); // stable
    EXPECT_NE(cache.keyFor("exp2", params, "json"), base);
    EXPECT_NE(cache.keyFor("exp", params, "table"), base);
    EXPECT_NE(cache.keyFor("exp", {{"seed", "2"}, {"trials", "2"}},
                           "json"),
              base);
    EXPECT_NE(cache.keyFor("exp", {{"seed", "1"}}, "json"), base);
    const ResultCache rebuilt("unused-dir", "hashB");
    EXPECT_NE(rebuilt.keyFor("exp", params, "json"), base);
}

TEST(ResultCache, KeySerializationIsUnambiguous)
{
    // Length-prefixing: a value containing what looks like the next
    // field must not alias it.
    const ResultCache cache("unused-dir", "h");
    EXPECT_NE(cache.keyFor("exp", {{"a", "1"}, {"b", "2"}}, "json"),
              cache.keyFor("exp", {{"a", "1b2"}}, "json"));
    EXPECT_NE(cache.keyFor("expjson", {}, ""),
              cache.keyFor("exp", {}, "json"));
}

TEST(ResultCache, StoreFetchRoundTripsArbitraryBytes)
{
    const std::string dir = processTempDir("lruleak-cache-rt");
    std::filesystem::remove_all(dir);
    const ResultCache cache(dir, "h");
    const std::string key = cache.keyFor("exp", {}, "json");

    EXPECT_FALSE(cache.fetch(key).has_value()); // cold
    std::string artifact = "line1\nline2\r\n";
    artifact += '\0';
    artifact += "\xff tail";
    ASSERT_TRUE(cache.store(key, artifact));
    const auto fetched = cache.fetch(key);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(*fetched, artifact); // byte-identical, embedded NUL kept
    std::filesystem::remove_all(dir);
}

TEST(ResultCache, ResolveCacheDirPrecedence)
{
    ASSERT_EQ(unsetenv("LRULEAK_CACHE"), 0);
    EXPECT_EQ(resolveCacheDir("flag"), "flag");
    EXPECT_EQ(resolveCacheDir(""), "");
    ASSERT_EQ(setenv("LRULEAK_CACHE", "/from/env", 1), 0);
    EXPECT_EQ(resolveCacheDir(""), "/from/env");
    EXPECT_EQ(resolveCacheDir("flag"), "flag"); // flag wins
    ASSERT_EQ(unsetenv("LRULEAK_CACHE"), 0);
}

// --------------------------- the real catalog, sharded and cached

/**
 * One unsharded smoke-scale pass over the real registry (populating a
 * cache), then shard sweeps for several N replaying from that cache.
 * Everything downstream compares against `all`.
 *
 * By default each process makes its own cold pass into a private store.
 * Under ctest the cases share one: the FleetCatalogStore fixture runs
 * the cold pass once into LRULEAK_FLEET_STORE_INIT and records its
 * outcome there, and every case reads that store and record through
 * LRULEAK_FLEET_STORE (the cases only fetch, so they may run in
 * parallel).
 */
class FleetCatalogTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        const char *init = std::getenv("LRULEAK_FLEET_STORE_INIT");
        const char *shared = std::getenv("LRULEAK_FLEET_STORE");
        if (init == nullptr && shared != nullptr) {
            cache_dir_ = shared;
            cache_ = new ResultCache(cache_dir_, "fleet-test-binary");
            owns_store_ = false;
            if (loadColdPass())
                return;
            delete cache_; // no complete record: make a private pass
        }
        owns_store_ = init == nullptr;
        cache_dir_ = owns_store_ ? processTempDir("lruleak-fleet-cache")
                                 : std::string(init);
        std::filesystem::remove_all(cache_dir_);
        cache_ = new ResultCache(cache_dir_, "fleet-test-binary");

        RunAllOptions options;
        options.format = OutputFormat::Json;
        options.smoke = true;
        options.cache = cache_;
        std::ostringstream out, err;
        outcome_ = runAllCatalog(options, out, err);
        all_ = out.str();
        errors_ = err.str();
        if (!owns_store_)
            saveColdPass();
    }

    static void
    TearDownTestSuite()
    {
        delete cache_;
        cache_ = nullptr;
        if (owns_store_)
            std::filesystem::remove_all(cache_dir_);
    }

    /** Record the cold pass in the store; the counts go last, so their
     *  presence marks a complete record. */
    static void
    saveColdPass()
    {
        cache_->store("cold-pass-document", all_);
        cache_->store("cold-pass-errors", errors_);
        std::ostringstream counts;
        counts << outcome_.ran << ' ' << outcome_.skipped << ' '
               << outcome_.failures << ' ' << outcome_.cache.hits << ' '
               << outcome_.cache.misses << ' ' << outcome_.cache.skips;
        cache_->store("cold-pass-counts", counts.str());
    }

    static bool
    loadColdPass()
    {
        const auto counts = cache_->fetch("cold-pass-counts");
        const auto document = cache_->fetch("cold-pass-document");
        const auto errors = cache_->fetch("cold-pass-errors");
        if (!counts || !document || !errors)
            return false;
        std::istringstream in(*counts);
        in >> outcome_.ran >> outcome_.skipped >> outcome_.failures >>
            outcome_.cache.hits >> outcome_.cache.misses >>
            outcome_.cache.skips;
        all_ = *document;
        errors_ = *errors;
        return !in.fail();
    }

    static RunAllOptions
    shardOptions(std::uint32_t i, std::uint32_t n)
    {
        RunAllOptions options;
        options.format = OutputFormat::Json;
        options.smoke = true;
        options.shard = ShardSpec{i, n};
        options.cache = cache_;
        return options;
    }

    static std::string cache_dir_;
    static bool owns_store_;
    static ResultCache *cache_;
    static RunAllOutcome outcome_;
    static std::string all_;
    static std::string errors_;
};

std::string FleetCatalogTest::cache_dir_;
bool FleetCatalogTest::owns_store_ = true;
ResultCache *FleetCatalogTest::cache_ = nullptr;
RunAllOutcome FleetCatalogTest::outcome_;
std::string FleetCatalogTest::all_;
std::string FleetCatalogTest::errors_;

TEST_F(FleetCatalogTest, UnshardedPassRanEverythingCold)
{
    EXPECT_EQ(errors_, "");
    EXPECT_EQ(outcome_.failures, 0u);
    EXPECT_EQ(outcome_.skipped, 0u);
    EXPECT_EQ(outcome_.ran, Registry::instance().size());
    EXPECT_EQ(outcome_.cache.misses, Registry::instance().size());
    EXPECT_EQ(outcome_.cache.hits, 0u);
    EXPECT_EQ(outcome_.cache.skips, 0u);
}

TEST_F(FleetCatalogTest, ShardUnionIsByteIdenticalForManyCounts)
{
    const std::uint64_t catalog = Registry::instance().size();
    // 64 > catalog size: some shards must come out empty and still
    // merge cleanly.
    ASSERT_GT(64u, catalog);
    for (const std::uint32_t n : {2u, 3u, 5u, 64u}) {
        std::vector<std::string> documents;
        std::uint64_t ran = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            std::ostringstream out, err;
            const auto outcome =
                runAllCatalog(shardOptions(i, n), out, err);
            EXPECT_EQ(err.str(), "");
            EXPECT_EQ(outcome.failures, 0u);
            EXPECT_EQ(outcome.ran + outcome.skipped, catalog);
            // Warm cache: the shard replays, it never re-executes.
            EXPECT_EQ(outcome.cache.hits, outcome.ran);
            EXPECT_EQ(outcome.cache.misses, 0u);
            ran += outcome.ran;
            documents.push_back(out.str());
        }
        EXPECT_EQ(ran, catalog) << "N=" << n;
        EXPECT_EQ(mergeRunAllJson(documents), all_) << "N=" << n;
    }
}

TEST_F(FleetCatalogTest, WarmCacheRerunIsByteIdenticalWithZeroExecutions)
{
    RunAllOptions options;
    options.format = OutputFormat::Json;
    options.smoke = true;
    options.cache = cache_;
    std::ostringstream out, err;
    const auto outcome = runAllCatalog(options, out, err);
    EXPECT_EQ(out.str(), all_);
    EXPECT_EQ(outcome.cache.hits, Registry::instance().size());
    EXPECT_EQ(outcome.cache.misses, 0u);
    EXPECT_EQ(runAllSummary(options, outcome),
              "run-all: ran " +
                  std::to_string(Registry::instance().size()) +
                  ", skipped 0; cache: " +
                  std::to_string(Registry::instance().size()) +
                  " hit, 0 miss, 0 skip");
}

TEST_F(FleetCatalogTest, RebuiltBinaryMissesEveryEntry)
{
    // Same store, different binary hash: nothing may be served.
    const ResultCache rebuilt(cache_dir_, "another-binary");
    const Experiment *e = Registry::instance().all().front();
    const ParamMap resolved = resolveParams(e->params(), e->smokeParams());
    EXPECT_TRUE(cache_
                    ->fetch(cache_->keyFor(e->name(), resolved.values(),
                                           "json"))
                    .has_value());
    EXPECT_FALSE(rebuilt
                     .fetch(rebuilt.keyFor(e->name(), resolved.values(),
                                           "json"))
                     .has_value());
}

TEST_F(FleetCatalogTest, ParamAndSeedChangesMiss)
{
    const Experiment *e = Registry::instance().find("trace_replay");
    ASSERT_NE(e, nullptr);
    auto smoke = e->smokeParams();
    const std::string hot_key = cache_->keyFor(
        e->name(), resolveParams(e->params(), smoke).values(), "json");
    EXPECT_TRUE(cache_->fetch(hot_key).has_value());

    auto reseeded = smoke;
    reseeded["seed"] = "987654";
    EXPECT_FALSE(
        cache_
            ->fetch(cache_->keyFor(
                e->name(),
                resolveParams(e->params(), reseeded).values(), "json"))
            .has_value());

    auto retuned = smoke;
    retuned["accesses"] = "4321";
    EXPECT_FALSE(
        cache_
            ->fetch(cache_->keyFor(
                e->name(),
                resolveParams(e->params(), retuned).values(), "json"))
            .has_value());
}

TEST_F(FleetCatalogTest, CacheHitMatchesAFreshRender)
{
    // Serve one experiment from the store and re-render it live; the
    // bytes must agree (the stored artifact IS the rendering).
    const Experiment *e = Registry::instance().all().front();
    const auto smoke = e->smokeParams();
    const auto cached = cache_->fetch(cache_->keyFor(
        e->name(), resolveParams(e->params(), smoke).values(), "json"));
    ASSERT_TRUE(cached.has_value());

    std::ostringstream os;
    const auto sink = makeSink(OutputFormat::Json, os);
    runExperiment(*e, smoke, *sink);
    EXPECT_EQ(*cached, os.str());
}

} // namespace
