/**
 * @file
 * Unit tests for the engine's building blocks: set kernels, the
 * chunk arena, the horizontal (collision-dropping) table and the
 * data caches with every replacement policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>

#include "core/cache.hh"
#include "core/chunk.hh"
#include "core/horizontal.hh"
#include "core/kernels/kernels.hh"
#include "graph/generators.hh"
#include "support/check.hh"
#include "support/rng.hh"

namespace khuzdul
{
namespace
{

using core::Chunk;
using core::DataCache;
using core::HorizontalTable;

std::vector<VertexId>
sortedList(std::initializer_list<VertexId> values)
{
    return values;
}

TEST(Intersect, PairBasics)
{
    std::vector<VertexId> out;
    core::intersectInto(sortedList({1, 3, 5, 7}),
                        sortedList({2, 3, 4, 7, 9}), out);
    EXPECT_EQ(out, sortedList({3, 7}));
    core::intersectInto(sortedList({1, 2}), sortedList({3, 4}), out);
    EXPECT_TRUE(out.empty());
    core::intersectInto({}, sortedList({1}), out);
    EXPECT_TRUE(out.empty());
}

TEST(Intersect, CountMatchesMaterialized)
{
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<VertexId> a;
        std::vector<VertexId> b;
        for (int i = 0; i < 300; ++i) {
            if (rng.coin(0.4))
                a.push_back(i);
            if (rng.coin(0.4))
                b.push_back(i);
        }
        std::vector<VertexId> out;
        core::intersectInto(a, b, out);
        core::SplitCount count;
        core::intersectCount(a, b, 0, count);
        EXPECT_EQ(count.atOrAbove, out.size());
    }
}

TEST(Intersect, SubtractBasics)
{
    std::vector<VertexId> out;
    core::subtractInto(sortedList({1, 2, 3, 4, 5}),
                       sortedList({2, 4, 6}), out);
    EXPECT_EQ(out, sortedList({1, 3, 5}));
    core::subtractInto(sortedList({1, 2}), {}, out);
    EXPECT_EQ(out, sortedList({1, 2}));
}

TEST(Intersect, ManyListsFoldCorrectly)
{
    const auto a = sortedList({1, 2, 3, 4, 5, 6, 7, 8});
    const auto b = sortedList({2, 4, 6, 8, 10});
    const auto c = sortedList({4, 8, 12});
    std::array<std::span<const VertexId>, 3> lists{a, b, c};
    std::vector<VertexId> out;
    std::vector<VertexId> scratch;
    core::intersectMany({lists.data(), 3}, out, scratch);
    EXPECT_EQ(out, sortedList({4, 8}));
    Count count = 0;
    std::vector<VertexId> s2;
    core::intersectManyCount({lists.data(), 3}, count, out, s2);
    EXPECT_EQ(count, 2u);
}

TEST(Intersect, SingleListPassesThrough)
{
    const auto a = sortedList({5, 9});
    std::array<std::span<const VertexId>, 1> lists{a};
    std::vector<VertexId> out;
    std::vector<VertexId> scratch;
    core::intersectMany({lists.data(), 1}, out, scratch);
    EXPECT_EQ(out, a);
}

TEST(Intersect, ContainsBinarySearch)
{
    const auto list = sortedList({2, 4, 8, 16});
    EXPECT_TRUE(core::contains(list, 8));
    EXPECT_FALSE(core::contains(list, 7));
    EXPECT_FALSE(core::contains({}, 1));
}

TEST(Chunk, AppendAndRecover)
{
    Chunk chunk(1 << 20);
    const auto i0 = chunk.add(10, core::kNoParent, true);
    const auto i1 = chunk.add(20, i0, false);
    EXPECT_EQ(chunk.size(), 2u);
    EXPECT_EQ(chunk.vertex(i1), 20u);
    EXPECT_EQ(chunk.parent(i1), i0);
    EXPECT_TRUE(chunk.needsFetch(i0));
    EXPECT_FALSE(chunk.needsFetch(i1));
}

TEST(Chunk, FrontierColumnsExposeContiguousLayout)
{
    // The level-wise frontier layout: vertex/parent columns are
    // index-aligned spans over the whole chunk, and the fetch list is
    // the ascending index column of exactly the entries added with
    // needs_fetch — the fetch phase walks it as one contiguous run.
    Chunk chunk(1 << 20);
    const auto i0 = chunk.add(10, core::kNoParent, true);
    const auto i1 = chunk.add(20, i0, false);
    const auto i2 = chunk.add(30, i0, true);
    const auto i3 = chunk.add(40, i1, true);

    const auto verts = chunk.vertexColumn();
    const auto parents = chunk.parentColumn();
    ASSERT_EQ(verts.size(), chunk.size());
    ASSERT_EQ(parents.size(), chunk.size());
    for (std::uint32_t i = 0; i < chunk.size(); ++i) {
        EXPECT_EQ(verts[i], chunk.vertex(i));
        EXPECT_EQ(parents[i], chunk.parent(i));
    }

    const auto fetch = chunk.fetchList();
    EXPECT_EQ(std::vector<std::uint32_t>(fetch.begin(), fetch.end()),
              (std::vector<std::uint32_t>{i0, i2, i3}));
    EXPECT_TRUE(std::is_sorted(fetch.begin(), fetch.end()));

    chunk.reset();
    EXPECT_TRUE(chunk.fetchList().empty());
    EXPECT_TRUE(chunk.vertexColumn().empty());
}

TEST(Chunk, BudgetGatesFullness)
{
    Chunk chunk(Chunk::kEntryBytes * 3);
    EXPECT_FALSE(chunk.full());
    chunk.add(1, core::kNoParent, false);
    chunk.add(2, core::kNoParent, false);
    EXPECT_FALSE(chunk.full());
    chunk.add(3, core::kNoParent, false);
    EXPECT_TRUE(chunk.full());
    chunk.reset();
    EXPECT_FALSE(chunk.full());
    EXPECT_EQ(chunk.size(), 0u);
}

TEST(Chunk, SharedResultsAreReadableByAllSiblings)
{
    Chunk chunk(1 << 20);
    const auto a = chunk.add(1, core::kNoParent, false);
    const auto b = chunk.add(2, core::kNoParent, false);
    const auto result = sortedList({7, 8, 9});
    const auto offset = chunk.appendResult(result);
    chunk.setResultRef(a, offset, 3);
    chunk.setResultRef(b, offset, 3);
    EXPECT_EQ(std::vector<VertexId>(chunk.result(a).begin(),
                                    chunk.result(a).end()),
              result);
    EXPECT_EQ(chunk.result(b).data(), chunk.result(a).data());
}

TEST(Chunk, FetchedBytesCountTowardBudget)
{
    Chunk chunk(100);
    chunk.add(1, core::kNoParent, true);
    EXPECT_FALSE(chunk.full());
    chunk.addFetchedBytes(80);
    EXPECT_TRUE(chunk.full());
}

TEST(Horizontal, HitClaimDropSemantics)
{
    HorizontalTable table(64);
    const auto first = table.offer(5);
    EXPECT_EQ(first, HorizontalTable::Probe::Claimed);
    EXPECT_EQ(table.offer(5), HorizontalTable::Probe::Hit);
    // Find a colliding vertex (same slot, different id).
    VertexId collider = kInvalidVertex;
    for (VertexId v = 6; v < 100'000; ++v) {
        if (v != 5 && mix64(v) % 64 == mix64(5) % 64) {
            collider = v;
            break;
        }
    }
    ASSERT_NE(collider, kInvalidVertex);
    EXPECT_EQ(table.offer(collider), HorizontalTable::Probe::Dropped);
    table.clear();
    EXPECT_EQ(table.offer(collider), HorizontalTable::Probe::Claimed);
}

TEST(Horizontal, RequiresPowerOfTwoSize)
{
    EXPECT_THROW(HorizontalTable(0), FatalError);
    EXPECT_THROW(HorizontalTable(3), FatalError);
    EXPECT_NO_THROW(HorizontalTable(1));
    EXPECT_NO_THROW(HorizontalTable(64));
}

TEST(Horizontal, ClearReleasesEveryClaimedSlot)
{
    HorizontalTable table(256);
    std::vector<VertexId> claimed;
    for (VertexId v = 0; v < 2000; v += 7)
        if (table.offer(v) == HorizontalTable::Probe::Claimed)
            claimed.push_back(v);
    ASSERT_GT(claimed.size(), 100u);
    for (int round = 0; round < 3; ++round) {
        table.clear();
        for (const VertexId v : claimed)
            ASSERT_EQ(table.offer(v), HorizontalTable::Probe::Claimed)
                << "round " << round << " vertex " << v;
        for (const VertexId v : claimed)
            ASSERT_EQ(table.offer(v), HorizontalTable::Probe::Hit);
    }
}

/** One policy's pinned outcome of the op script in
 *  Cache.PolicyMatrixIsPinned. */
struct CacheRun
{
    std::uint64_t resultHash = 14695981039346656037ull;
    std::uint64_t reinserts = 0; ///< admissions of an evicted vertex
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t usedBytes = 0;

    bool operator==(const CacheRun &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const CacheRun &r)
{
    return os << "{" << r.resultHash << "ull, " << r.reinserts << ", "
              << r.hits << ", " << r.misses << ", " << r.insertions
              << ", " << r.evictions << ", " << r.usedBytes << "}";
}

/** A seeded mix of lookups and inserts over 48 vertices of
 *  different degrees; every result feeds an FNV-1a hash. */
CacheRun
runCacheScript(DataCache &cache)
{
    CacheRun run;
    std::set<VertexId> admitted;
    Rng rng(5);
    for (int op = 0; op < 600; ++op) {
        const auto v = static_cast<VertexId>(rng.nextBounded(48));
        bool result;
        if (rng.nextBounded(3) == 0) {
            result = cache.insert(v);
            if (result && !admitted.insert(v).second)
                ++run.reinserts;
        } else {
            result = cache.lookup(v);
        }
        run.resultHash = (run.resultHash ^ (result ? 1u : 2u))
            * 1099511628211ull;
    }
    run.hits = cache.hits();
    run.misses = cache.misses();
    run.insertions = cache.insertions();
    run.evictions = cache.evictions();
    run.usedBytes = cache.usedBytes();
    return run;
}

TEST(Cache, PolicyMatrixIsPinned)
{
    // The Fig 16 ablation and Table 6 read these counters; any
    // change to residency tests or eviction order shows here.
    const Graph g = gen::rmat(200, 1600, 0.55, 0.15, 0.15, 3);
    const std::pair<core::CachePolicy, CacheRun> pinned[] = {
        {core::CachePolicy::None,
         {13668878995424266533ull, 0, 0, 398, 0, 0, 0}},
        {core::CachePolicy::Static,
         {13964338752801502848ull, 0, 63, 335, 8, 0, 636}},
        {core::CachePolicy::Fifo,
         {3459418481013932462ull, 104, 106, 292, 151, 137, 584}},
        {core::CachePolicy::Lifo,
         {445632331906795908ull, 99, 101, 297, 146, 130, 584}},
        {core::CachePolicy::Lru,
         {13915688547310547118ull, 106, 102, 296, 153, 141, 516}},
        {core::CachePolicy::Mru,
         {3345111851265468585ull, 94, 105, 293, 141, 124, 632}},
    };
    for (const auto &[policy, expected] : pinned) {
        SCOPED_TRACE(core::cachePolicyName(policy));
        DataCache cache(g, policy, 640, 12);
        const CacheRun first = runCacheScript(cache);
        EXPECT_EQ(first, expected);
        if (policy != core::CachePolicy::None
            && policy != core::CachePolicy::Static) {
            EXPECT_GT(first.evictions, 0u);
            EXPECT_GT(first.reinserts, 0u);
        }
        // clear() is a cold restart: nothing stays resident and the
        // same script replays the same outcome.
        cache.clear();
        EXPECT_EQ(cache.usedBytes(), 0u);
        EXPECT_FALSE(cache.fullForever());
        for (VertexId v = 0; v < 48; ++v)
            EXPECT_FALSE(cache.lookup(v)) << v;
        cache.clear();
        EXPECT_EQ(cache.misses(), 0u);
        EXPECT_EQ(runCacheScript(cache), first);
    }
}

TEST(Cache, StaticRespectsDegreeThresholdAndFreeze)
{
    const Graph g = gen::star(100); // hub degree 99, leaves 1
    DataCache cache(g, core::CachePolicy::Static, 1 << 10, 10);
    EXPECT_FALSE(cache.insert(5));  // leaf: below threshold
    EXPECT_TRUE(cache.insert(0));   // hub qualifies
    EXPECT_TRUE(cache.lookup(0));
    EXPECT_FALSE(cache.lookup(5));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, StaticFreezesWhenFull)
{
    const Graph g = gen::complete(32); // all degrees 31 (124B each)
    DataCache cache(g, core::CachePolicy::Static, 300, 4);
    EXPECT_TRUE(cache.insert(0));
    EXPECT_TRUE(cache.insert(1));
    EXPECT_FALSE(cache.insert(2)); // would exceed capacity: freeze
    EXPECT_TRUE(cache.fullForever());
    EXPECT_FALSE(cache.insert(3)); // frozen forever
    EXPECT_TRUE(cache.lookup(0));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    const Graph g = gen::complete(32);
    DataCache cache(g, core::CachePolicy::Lru, 300, 0);
    cache.insert(0);
    cache.insert(1);
    EXPECT_TRUE(cache.lookup(0)); // 0 is now most recent
    cache.insert(2);              // evicts 1
    EXPECT_TRUE(cache.lookup(0));
    EXPECT_FALSE(cache.lookup(1));
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Cache, MruEvictsMostRecentlyUsed)
{
    const Graph g = gen::complete(32);
    DataCache cache(g, core::CachePolicy::Mru, 300, 0);
    cache.insert(0);
    cache.insert(1);
    EXPECT_TRUE(cache.lookup(0)); // 0 becomes most recent
    cache.insert(2);              // evicts 0
    EXPECT_FALSE(cache.lookup(0));
    EXPECT_TRUE(cache.lookup(1));
}

TEST(Cache, FifoAndLifoEvictionOrder)
{
    const Graph g = gen::complete(32);
    DataCache fifo(g, core::CachePolicy::Fifo, 300, 0);
    fifo.insert(0);
    fifo.insert(1);
    fifo.insert(2); // evicts 0 (first in)
    EXPECT_FALSE(fifo.lookup(0));
    EXPECT_TRUE(fifo.lookup(1));

    DataCache lifo(g, core::CachePolicy::Lifo, 300, 0);
    lifo.insert(0);
    lifo.insert(1);
    lifo.insert(2); // evicts 1 (last in)
    EXPECT_TRUE(lifo.lookup(0));
    EXPECT_FALSE(lifo.lookup(1));
}

TEST(Cache, ZeroCapacityDisables)
{
    const Graph g = gen::complete(8);
    DataCache cache(g, core::CachePolicy::Static, 0, 0);
    EXPECT_EQ(cache.policy(), core::CachePolicy::None);
    EXPECT_FALSE(cache.insert(0));
    EXPECT_FALSE(cache.lookup(0));
}

TEST(Cache, OversizedListIsRejectedWithoutEvictionStorm)
{
    const Graph g = gen::star(1000); // hub list ~4KB
    DataCache cache(g, core::CachePolicy::Lru, 64, 0);
    cache.insert(5); // leaf fits
    EXPECT_FALSE(cache.insert(0)); // hub larger than whole cache
    EXPECT_TRUE(cache.lookup(5));  // nothing was evicted for it
}

} // namespace
} // namespace khuzdul
