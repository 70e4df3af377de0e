/**
 * @file
 * The arena allocator behind the fused kernel path: alignment of every
 * returned pointer, zero-size and odd-size requests, geometric chunk
 * growth, allocation-free reuse after reset(), mark/rewind (Frame)
 * semantics, and per-thread distinctness of threadArena(). The
 * concurrent hammering lives in chaos_kernel_arena_test.cc so it runs
 * under the `chaos` label (and the ASan/TSan presets).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "core/contracts.hh"
#include "numeric/kernels/arena.hh"

using wcnn::numeric::kernels::Arena;
using wcnn::numeric::kernels::kArenaAlignment;
using wcnn::numeric::kernels::threadArena;

namespace {

bool
isAligned(const double *p)
{
    return reinterpret_cast<std::uintptr_t>(p) % kArenaAlignment == 0;
}

} // namespace

TEST(KernelArenaTest, EveryPointerIsCacheLineAligned)
{
    Arena arena(64);
    // Odd sizes force the cursor through every non-grain offset.
    for (std::size_t n : {1u, 3u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
        double *p = arena.alloc(n);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(isAligned(p)) << "misaligned block of " << n;
        // The block is writable end to end.
        std::memset(p, 0, n * sizeof(double));
    }
}

TEST(KernelArenaTest, ZeroSizeRequestIsValidAndFree)
{
    Arena arena;
    const std::size_t before = arena.inUse();
    double *p = arena.alloc(0);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(isAligned(p));
    EXPECT_EQ(arena.inUse(), before);
}

TEST(KernelArenaTest, DistinctAllocationsNeverOverlap)
{
    Arena arena(16); // tiny first chunk: forces growth quickly
    std::vector<std::pair<double *, std::size_t>> blocks;
    for (std::size_t n : {5u, 11u, 16u, 17u, 130u, 1u})
        blocks.emplace_back(arena.alloc(n), n);
    for (auto &[p, n] : blocks)
        for (std::size_t i = 0; i < n; ++i)
            p[i] = static_cast<double>(reinterpret_cast<std::uintptr_t>(p) + i);
    // If any two blocks overlapped, one of these reads would see the
    // other block's pattern.
    for (auto &[p, n] : blocks)
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(p[i], static_cast<double>(
                                reinterpret_cast<std::uintptr_t>(p) + i));
}

TEST(KernelArenaTest, ChunksGrowGeometrically)
{
    Arena arena(8);
    EXPECT_EQ(arena.chunkCount(), 0u); // lazy: nothing until first use
    arena.alloc(8);
    EXPECT_EQ(arena.chunkCount(), 1u);
    // Overflow the first chunk repeatedly; the chunk count must stay
    // logarithmic in the total footprint, not linear in the call count.
    for (int i = 0; i < 100; ++i)
        arena.alloc(8);
    EXPECT_LE(arena.chunkCount(), 8u);
    EXPECT_GE(arena.capacity(), 101u * 8u);
}

TEST(KernelArenaTest, OversizedRequestGetsItsOwnChunk)
{
    Arena arena(8);
    double *p = arena.alloc(10000);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(isAligned(p));
    std::memset(p, 0, 10000 * sizeof(double));
    EXPECT_GE(arena.capacity(), 10000u);
}

TEST(KernelArenaTest, ResetRetainsCapacityAndReusesMemory)
{
    Arena arena(32);
    double *first = arena.alloc(100);
    const std::size_t cap = arena.capacity();
    const std::size_t chunks = arena.chunkCount();
    arena.reset();
    EXPECT_EQ(arena.inUse(), 0u);
    EXPECT_EQ(arena.capacity(), cap);
    EXPECT_EQ(arena.chunkCount(), chunks);
    // Steady state: the same memory comes back, no new chunks appear.
    double *second = arena.alloc(100);
    EXPECT_EQ(first, second);
    EXPECT_EQ(arena.chunkCount(), chunks);
}

TEST(KernelArenaTest, MarkRewindReclaimsLifoScopes)
{
    Arena arena(64);
    arena.alloc(10);
    const std::size_t outer = arena.inUse();
    const Arena::Mark m = arena.mark();
    arena.alloc(20);
    arena.alloc(30);
    EXPECT_GT(arena.inUse(), outer);
    arena.rewind(m);
    EXPECT_EQ(arena.inUse(), outer);
}

TEST(KernelArenaTest, FrameIsRaiiRewind)
{
    Arena arena(64);
    double *outer_block = arena.alloc(8);
    const std::size_t outer = arena.inUse();
    double *inner_block = nullptr;
    {
        Arena::Frame frame(arena);
        inner_block = arena.alloc(8);
        EXPECT_NE(inner_block, outer_block);
        {
            Arena::Frame nested(arena);
            arena.alloc(400);
        }
        // The nested frame released its scratch; the inner block's
        // cursor position is restored.
        EXPECT_EQ(arena.inUse(), outer + 8);
    }
    EXPECT_EQ(arena.inUse(), outer);
    // The next allocation reuses the inner block's slot.
    EXPECT_EQ(arena.alloc(8), inner_block);
}

TEST(KernelArenaTest, ThreadArenasAreDistinctInstances)
{
    Arena *mine = &threadArena();
    EXPECT_EQ(mine, &threadArena()); // stable within a thread
    Arena *theirs = nullptr;
    std::thread t([&] { theirs = &threadArena(); });
    t.join();
    EXPECT_NE(mine, theirs);
}

#ifndef WCNN_NO_CONTRACTS
TEST(KernelArenaTest, ImplausibleRequestViolatesContract)
{
    Arena arena;
    EXPECT_THROW(static_cast<void>(
                     arena.alloc(std::size_t{1} << 41)),
                 wcnn::ContractViolation);
}
#endif
