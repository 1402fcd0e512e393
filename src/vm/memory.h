/**
 * @file
 * Flat segmented guest memory. Three segments: globals, per-thread
 * stacks, and a bump-allocated heap whose base carries a per-execution
 * jitter (heap nondeterminism the paper discusses under Limitations).
 * The stack segment is backed lazily: every stack address is valid
 * and reads zero until written, but host memory is only allocated
 * for the slots a guest touches, so most machines back one slot.
 *
 * The guest stack holds real return tokens written at call time, so
 * MiniC buffer overflows can clobber them exactly like native stack
 * smashing — this is what the vulnerable-program experiments rely on.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "os/memaccess.h"

namespace ldx::vm {

/** Guest-visible fault kinds. */
enum class TrapKind
{
    MemoryFault,
    DivideByZero,
    BadIndirectCall,
    ControlHijack,   ///< corrupted return token detected at ret
    StackOverflow,
    BudgetExceeded,  ///< instruction budget exhausted
    BadSyscall,
};

/** Name of a trap kind. */
const char *trapKindName(TrapKind kind);

/** Thrown by the machine on guest faults. */
class VmTrap : public std::runtime_error
{
  public:
    VmTrap(TrapKind kind, const std::string &msg)
        : std::runtime_error(msg), kind_(kind)
    {}

    TrapKind kind() const { return kind_; }

  private:
    TrapKind kind_;
};

/**
 * An arena checkpoint of the backed extent of every guest segment:
 * the immutable image a Memory::snapshot() produces and restore()
 * consumes. Stacks hold only the slots touched so far, since bytes
 * beyond them read zero. One image is shared (by shared_ptr) across
 * every execution forked from the same snapshot; execution itself
 * keeps running on the flat segment vectors, so the hot interpreter
 * path pays nothing for the versioning.
 */
struct MemoryImage
{
    std::vector<std::uint8_t> globals;
    std::vector<std::uint8_t> stacks;
    std::vector<std::uint8_t> heap;
    std::uint64_t heapBrk = 0;
};

/** Segmented guest memory. */
class Memory : public os::MemAccess
{
  public:
    static constexpr std::uint64_t kGlobalsBase = 0x10000;
    static constexpr std::uint64_t kStackBase = 0x01000000;
    static constexpr std::uint64_t kHeapBase = 0x40000000;

    /** Page granularity of restore()'s fault-injection knob. */
    static constexpr std::uint64_t kSnapshotPageSize = 4096;

    /**
     * @param globals_size  bytes of global storage
     * @param stack_size    bytes of stack per thread
     * @param max_threads   number of per-thread stack slots
     * @param heap_jitter   added to the heap base (nondeterminism)
     */
    Memory(std::uint64_t globals_size, std::uint64_t stack_size,
           int max_threads, std::uint64_t heap_jitter);

    // -- Typed accessors. --
    std::uint8_t readU8(std::uint64_t addr) const;
    void writeU8(std::uint64_t addr, std::uint8_t v);
    std::int64_t readI64(std::uint64_t addr) const;
    void writeI64(std::uint64_t addr, std::int64_t v);

    // -- os::MemAccess. --
    std::string readBytes(std::uint64_t addr,
                          std::uint64_t n) const override;
    void writeBytes(std::uint64_t addr, const std::string &data) override;
    std::string readCString(std::uint64_t addr,
                            std::uint64_t max_len = 4096) const override;

    /** Bump-allocate @p n heap bytes (8-aligned). */
    std::uint64_t heapAlloc(std::uint64_t n);

    /**
     * Checkpoint the backed extent of every segment into an immutable
     * arena image. The image is cheap to share: forks restored from
     * the same snapshot all alias one copy.
     */
    std::shared_ptr<const MemoryImage> snapshot() const;

    /**
     * Overwrite every segment from @p image and resize it to the
     * image's backed extent, so stack slots touched since the
     * snapshot read zero again (the layout — sizes, heap base jitter
     * — must match the construction parameters, as it does when the
     * image came from a same-configured Machine). Bumps the memory
     * version.
     *
     * @p chaos_drop_page is the stale-snapshot fault injector: when
     * non-zero, restore skips copying the Nth *dirty*
     * kSnapshotPageSize page (one whose current bytes differ from the
     * image, counted 1-based across the image's globals+stacks+heap
     * extent), leaving whatever bytes the segment already held —
     * exactly the "fork that misses one dirtied COW page" bug the
     * fuzz harness must catch. With fewer than N dirty pages the
     * injection is a no-op.
     */
    void restore(const MemoryImage &image,
                 std::uint64_t chaos_drop_page = 0);

    /** Restores performed on this memory (0 = never restored). */
    std::uint64_t version() const { return version_; }

    /** Top (highest address, exclusive) of thread @p tid's stack. */
    std::uint64_t stackTop(int tid) const;

    /** Lowest valid address of thread @p tid's stack. */
    std::uint64_t stackFloor(int tid) const;

    std::uint64_t stackSize() const { return stackSize_; }
    std::uint64_t heapBase() const { return heapBase_; }

  private:
    /**
     * Map [@p addr, @p addr + @p n) to backing bytes when it lies in
     * one segment, backing untouched stack slots on the way; nullptr
     * otherwise.
     */
    std::uint8_t *span(std::uint64_t addr, std::uint64_t n) const;

    /** Map @p addr to backing byte; throws VmTrap on bad addresses. */
    std::uint8_t *resolve(std::uint64_t addr) const;

    std::uint64_t globalsSize_;
    std::uint64_t stackSize_;
    std::uint64_t heapBase_;
    std::uint64_t heapBrk_;
    std::uint64_t stackSpan_; ///< stack_size * max_threads
    std::uint64_t version_ = 0;

    mutable std::vector<std::uint8_t> globals_;
    /** The backed prefix of the stack span; span() extends it. */
    mutable std::vector<std::uint8_t> stacks_;
    mutable std::vector<std::uint8_t> heap_;
};

} // namespace ldx::vm
