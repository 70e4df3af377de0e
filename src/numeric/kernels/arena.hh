/**
 * @file
 * 64-byte-aligned arena allocator for kernel scratch buffers.
 *
 * The fused batched forward (Mlp::forward(Matrix), serving predict)
 * needs short-lived activation buffers per call. Heap allocation per
 * call is exactly the overhead the fused path exists to remove, so
 * scratch comes from a bump arena instead: allocation is a
 * cursor increment, every returned pointer is 64-byte aligned (one
 * full cache line, and wide enough for any current or future vector
 * ISA this tree compiles to), and a Frame rewinds the cursor on scope
 * exit so nested kernel calls compose without freeing.
 *
 * Concurrency model: an Arena is NOT thread-safe; concurrent kernel
 * calls each use their own via threadArena(), which hands every
 * thread a thread_local instance (the chaos_kernel_arena_test ASan/
 * TSan pass pins this). Memory is retained across reset() — steady
 * state does zero heap traffic.
 */

#ifndef WCNN_NUMERIC_KERNELS_ARENA_HH
#define WCNN_NUMERIC_KERNELS_ARENA_HH

#include <cstddef>
#include <vector>

namespace wcnn {
namespace numeric {
namespace kernels {

/** Alignment of every pointer an Arena returns, in bytes. */
inline constexpr std::size_t kArenaAlignment = 64;

/**
 * Chunked bump allocator for doubles; see the file comment for the
 * contract. Chunks grow geometrically and are retained until
 * destruction, so reuse after reset() is allocation-free.
 */
class Arena
{
  public:
    /**
     * @param initial_doubles Capacity of the first chunk, allocated
     *        lazily on first use.
     */
    explicit Arena(std::size_t initial_doubles = 4096);
    ~Arena();

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate n doubles, 64-byte aligned, uninitialized.
     *
     * A zero-size request returns a valid (dereferenceable-for-zero-
     * elements) aligned pointer without consuming space; distinct
     * non-zero allocations never overlap.
     */
    double *alloc(std::size_t n);

    /** Rewind the cursor to empty; capacity is retained. */
    void reset();

    /** Cursor position for Frame; opaque outside the arena. */
    struct Mark
    {
        std::size_t chunk;
        std::size_t used;
    };

    /** Current cursor. */
    Mark mark() const { return Mark{activeChunk, usedInChunk}; }

    /**
     * Rewind to a previously taken mark. Marks must be released in
     * LIFO order (Frame enforces this pattern).
     */
    void rewind(Mark m);

    /** Doubles handed out since the last reset/rewind baseline. */
    std::size_t inUse() const;

    /** Total doubles of capacity across all chunks. */
    std::size_t capacity() const;

    /** Number of chunks allocated so far (growth diagnostics). */
    std::size_t chunkCount() const { return chunks.size(); }

    /**
     * RAII cursor scope: everything alloc()ed while the frame lives
     * is reclaimed when it dies. Nested kernel calls (a fused predict
     * whose layers call blas kernels) each open their own frame.
     */
    class Frame
    {
      public:
        explicit Frame(Arena &a) : arena(a), saved(a.mark()) {}
        ~Frame() { arena.rewind(saved); }
        Frame(const Frame &) = delete;
        Frame &operator=(const Frame &) = delete;

      private:
        Arena &arena;
        Mark saved;
    };

  private:
    struct Chunk
    {
        double *data;
        std::size_t cap; // in doubles
    };

    /** Make chunk `index` exist with at least `need` doubles free. */
    void ensureChunk(std::size_t index, std::size_t need);

    std::vector<Chunk> chunks;
    std::size_t activeChunk = 0;
    std::size_t usedInChunk = 0;
    std::size_t firstChunkDoubles;
};

/**
 * The calling thread's arena. Each thread gets its own instance, so
 * concurrent kernel calls never contend or share scratch.
 */
Arena &threadArena();

} // namespace kernels
} // namespace numeric
} // namespace wcnn

#endif // WCNN_NUMERIC_KERNELS_ARENA_HH
