/**
 * @file
 * tpre::mem — per-run arena memory (DESIGN.md section 15).
 *
 * A simulation run allocates trace-cache entries, Memory pages,
 * predictor tables, precon buffers and decoded blocks piecemeal
 * from the global allocator; under `--jobs N` that allocator is the
 * contention point left after the PR 3 InlineVec/flat-hash work.
 * Arena gives each run a private bump-pointer heap: allocation is a
 * pointer increment, deallocation is a no-op, and the whole run's
 * state is freed wholesale (and the chunks retained for the next
 * run on the same worker thread) by a single reset().
 *
 * The pieces:
 *
 *  - Arena: a chunked bump allocator. Chunks are retained across
 *    reset() so a worker's steady state touches the global
 *    allocator zero times per run; under ASan, reset() and
 *    per-object release poison the retired ranges so use-after-free
 *    of arena-backed objects is caught like a normal heap bug.
 *
 *  - ArenaRef: a nullable handle threaded through constructors. A
 *    null ref means "use the global allocator", which keeps the
 *    arena-on and arena-off builds on one code path (the
 *    TPRE_ARENA=0|1 knob just decides which ref the Simulator
 *    hands out).
 *
 *  - ArenaAllocator<T>: the std-allocator bridge. Containers
 *    declared as ArenaVector/ArenaDeque draw from the run's arena
 *    when the ref is set and from ::operator new otherwise; the
 *    global path counts `alloc.count`/`alloc.bytes` obs counters,
 *    as do arena chunk refills, so the counters always measure
 *    global-allocator traffic and bench/micro_alloc.cc can contrast
 *    the two modes.
 */

#ifndef TPRE_MEM_ARENA_HH
#define TPRE_MEM_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace tpre::mem
{

/**
 * Default state of the arena knob: reads TPRE_ARENA once (strictly
 * parsed: exactly "0" or "1", anything else is a fatal config
 * error), on when unset.
 */
bool arenaDefaultEnabled();

namespace detail
{
/** Count one global-allocator allocation in the obs registry. */
void countGlobalAlloc(std::size_t bytes);
/** ASan poisoning hooks; no-ops when ASan is not compiled in. */
void poison(void *p, std::size_t n);
void unpoison(void *p, std::size_t n);
} // namespace detail

/**
 * A chunked bump-pointer arena. Not thread-safe: each run (worker
 * thread) owns its own instance.
 */
class Arena
{
  public:
    static constexpr std::size_t kDefaultChunkBytes =
        std::size_t{1} << 20;
    /**
     * Largest single allocation the arena will serve. Run state is
     * made of pages, table slabs and container buffers well under
     * this; a bigger request is a logic error upstream, not a
     * reason to grow a chunk without bound.
     */
    static constexpr std::size_t kMaxAllocBytes =
        std::size_t{1} << 28;

    /**
     * @param chunkBytes  payload size of each chunk.
     * @param capBytes    optional total-reserved cap; 0 means
     *                    uncapped. Exceeding it is fatal
     *                    (exhaustion is a configuration error).
     */
    explicit Arena(std::size_t chunkBytes = kDefaultChunkBytes,
                   std::size_t capBytes = 0);
    ~Arena();

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Bump-allocate @p bytes aligned to @p align. */
    void *allocate(std::size_t bytes, std::size_t align);

    /**
     * Rewind to empty, retaining the chunks for the next run.
     * Under ASan every retained byte is poisoned until allocate()
     * hands it out again.
     */
    void reset();

    /** Return all chunks to the global allocator. */
    void releaseAll();

    struct Stats
    {
        /** Allocations served by the bump pointer. */
        std::uint64_t allocCount = 0;
        std::uint64_t allocBytes = 0;
        /** Chunk refills that hit the global allocator. */
        std::uint64_t chunkCount = 0;
        std::uint64_t chunkBytes = 0;
        std::uint64_t resets = 0;
    };

    const Stats &stats() const { return stats_; }
    /** Total payload bytes currently reserved from the system. */
    std::size_t reservedBytes() const { return reserved_; }

  private:
    struct Chunk
    {
        Chunk *next;
        std::size_t capacity;
        // Payload follows the header; the header size is a
        // multiple of alignof(std::max_align_t) so the payload
        // starts maximally aligned.
    };
    static_assert(sizeof(Chunk) % alignof(std::max_align_t) == 0);

    static unsigned char *payload(Chunk *c)
    {
        return reinterpret_cast<unsigned char *>(c) + sizeof(Chunk);
    }

    Chunk *newChunk(std::size_t capacity);

    std::size_t chunkBytes_;
    std::size_t capBytes_;
    Chunk *head_ = nullptr;
    /** Chunk currently being bumped (an element of the chain). */
    Chunk *cur_ = nullptr;
    std::size_t used_ = 0;
    std::size_t reserved_ = 0;
    Stats stats_;
};

/** Nullable arena handle; null selects the global allocator. */
class ArenaRef
{
  public:
    ArenaRef() = default;
    ArenaRef(Arena &arena) : arena_(&arena) {}

    Arena *get() const { return arena_; }
    explicit operator bool() const { return arena_ != nullptr; }

  private:
    Arena *arena_ = nullptr;
};

/**
 * std-allocator bridge: arena-backed when the ref is set, counted
 * global allocation otherwise. Stateful (is_always_equal = false),
 * and propagates on container copy/move/swap so a container keeps
 * drawing from the arena it was constructed with.
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;
    using propagate_on_container_copy_assignment = std::true_type;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;
    using is_always_equal = std::false_type;

    ArenaAllocator() = default;
    ArenaAllocator(ArenaRef arena) : arena_(arena.get()) {}
    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &other)
        : arena_(other.arena())
    {}

    Arena *arena() const { return arena_; }

    T *
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (arena_) {
            return static_cast<T *>(
                arena_->allocate(bytes, alignof(T)));
        }
        detail::countGlobalAlloc(bytes);
        return static_cast<T *>(::operator new(bytes));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        if (arena_) {
            // Wholesale free at reset(); poison the retired range
            // now so stale references trip ASan immediately.
            detail::poison(p, n * sizeof(T));
            return;
        }
        ::operator delete(p);
    }

  private:
    Arena *arena_ = nullptr;
};

template <typename T, typename U>
bool
operator==(const ArenaAllocator<T> &a, const ArenaAllocator<U> &b)
{
    return a.arena() == b.arena();
}

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;
template <typename T>
using ArenaDeque = std::deque<T, ArenaAllocator<T>>;

} // namespace tpre::mem

#endif // TPRE_MEM_ARENA_HH
