#include "vm/memory.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

namespace ldx::vm {

// The word path copies guest words as host words.
static_assert(std::endian::native == std::endian::little,
              "guest words are little-endian");

namespace {

/**
 * True when [addr, addr + n) lies inside [base, base + size). Written
 * as differences so no sum can overflow.
 */
bool
within(std::uint64_t addr, std::uint64_t n, std::uint64_t base,
       std::uint64_t size)
{
    return addr >= base && size >= n && addr - base <= size - n;
}

} // namespace

const char *
trapKindName(TrapKind kind)
{
    switch (kind) {
      case TrapKind::MemoryFault: return "memory-fault";
      case TrapKind::DivideByZero: return "divide-by-zero";
      case TrapKind::BadIndirectCall: return "bad-indirect-call";
      case TrapKind::ControlHijack: return "control-hijack";
      case TrapKind::StackOverflow: return "stack-overflow";
      case TrapKind::BudgetExceeded: return "budget-exceeded";
      case TrapKind::BadSyscall: return "bad-syscall";
    }
    return "?";
}

Memory::Memory(std::uint64_t globals_size, std::uint64_t stack_size,
               int max_threads, std::uint64_t heap_jitter)
    : globalsSize_(globals_size), stackSize_(stack_size),
      heapBase_(kHeapBase + heap_jitter),
      heapBrk_(heapBase_),
      stackSpan_(stack_size * static_cast<std::uint64_t>(max_threads)),
      globals_(globals_size, 0)
{}

std::uint8_t *
Memory::span(std::uint64_t addr, std::uint64_t n) const
{
    if (within(addr, n, kGlobalsBase, globalsSize_))
        return &globals_[addr - kGlobalsBase];
    if (within(addr, n, kStackBase, stackSpan_)) {
        // Back the stack lazily: the first touch of a slot grows the
        // segment, zero-filled, to the end of that slot.
        std::uint64_t off = addr - kStackBase;
        std::uint64_t end = off + n;
        if (end > stacks_.size())
            stacks_.resize((end + stackSize_ - 1) / stackSize_ * stackSize_,
                           0);
        return &stacks_[off];
    }
    if (within(addr, n, heapBase_, heap_.size()))
        return &heap_[addr - heapBase_];
    return nullptr;
}

std::uint8_t *
Memory::resolve(std::uint64_t addr) const
{
    if (std::uint8_t *p = span(addr, 1))
        return p;
    throw VmTrap(TrapKind::MemoryFault,
                 "bad address 0x" + [addr] {
                     char buf[32];
                     std::snprintf(buf, sizeof(buf), "%llx",
                                   static_cast<unsigned long long>(addr));
                     return std::string(buf);
                 }());
}

std::uint8_t
Memory::readU8(std::uint64_t addr) const
{
    return *resolve(addr);
}

void
Memory::writeU8(std::uint64_t addr, std::uint8_t v)
{
    *resolve(addr) = v;
}

std::int64_t
Memory::readI64(std::uint64_t addr) const
{
    if (const std::uint8_t *p = span(addr, 8)) {
        std::int64_t word = 0;
        std::memcpy(&word, p, 8);
        return word;
    }
    // Not inside one segment: byte by byte, highest first, so a fault
    // names the same byte as it always has.
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | readU8(addr + static_cast<std::uint64_t>(i));
    return static_cast<std::int64_t>(v);
}

void
Memory::writeI64(std::uint64_t addr, std::int64_t value)
{
    if (std::uint8_t *p = span(addr, 8)) {
        std::memcpy(p, &value, 8);
        return;
    }
    // Not inside one segment: byte by byte, lowest first, so the
    // bytes before a bad one are already written when it traps.
    std::uint64_t v = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
        writeU8(addr + static_cast<std::uint64_t>(i),
                static_cast<std::uint8_t>(v & 0xff));
        v >>= 8;
    }
}

std::string
Memory::readBytes(std::uint64_t addr, std::uint64_t n) const
{
    std::string out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        out += static_cast<char>(readU8(addr + i));
    return out;
}

void
Memory::writeBytes(std::uint64_t addr, const std::string &data)
{
    for (std::size_t i = 0; i < data.size(); ++i)
        writeU8(addr + i, static_cast<std::uint8_t>(data[i]));
}

std::string
Memory::readCString(std::uint64_t addr, std::uint64_t max_len) const
{
    std::string out;
    for (std::uint64_t i = 0; i < max_len; ++i) {
        char c = static_cast<char>(readU8(addr + i));
        if (c == '\0')
            return out;
        out += c;
    }
    return out;
}

std::shared_ptr<const MemoryImage>
Memory::snapshot() const
{
    auto image = std::make_shared<MemoryImage>();
    image->globals = globals_;
    image->stacks = stacks_;
    image->heap = heap_;
    image->heapBrk = heapBrk_;
    return image;
}

void
Memory::restore(const MemoryImage &image, std::uint64_t chaos_drop_page)
{
    // Segment-by-segment copy over the concatenation
    // globals | stacks | heap, each first resized to the image's
    // extent, so stack slots backed since the snapshot are dropped
    // and read zero again. The injector skips the Nth *dirty* page —
    // one whose current bytes differ from the image — which models
    // the stale-snapshot bug (a dirtied copy-on-write page whose
    // capture was missed): the page silently keeps its pre-restore
    // content. Pages already matching the image don't count, so the
    // skip is observable whenever it happens at all; with fewer than
    // N dirty pages the restore is complete and the injection is a
    // no-op.
    std::vector<std::uint8_t> *segs[3] = {&globals_, &stacks_, &heap_};
    const std::vector<std::uint8_t> *srcs[3] = {&image.globals,
                                                &image.stacks,
                                                &image.heap};
    std::uint64_t dirty_seen = 0;
    for (int s = 0; s < 3; ++s) {
        const std::vector<std::uint8_t> &src = *srcs[s];
        std::vector<std::uint8_t> &dst = *segs[s];
        dst.resize(src.size(), 0);
        for (std::uint64_t off = 0; off < src.size();
             off += kSnapshotPageSize) {
            std::uint64_t n =
                std::min<std::uint64_t>(kSnapshotPageSize,
                                        src.size() - off);
            if (chaos_drop_page &&
                !std::equal(src.begin() + off, src.begin() + off + n,
                            dst.begin() + off) &&
                ++dirty_seen == chaos_drop_page)
                continue;
            std::copy(src.begin() + off, src.begin() + off + n,
                      dst.begin() + off);
        }
    }
    heapBrk_ = image.heapBrk;
    ++version_;
}

std::uint64_t
Memory::heapAlloc(std::uint64_t n)
{
    n = (n + 7) & ~std::uint64_t{7};
    std::uint64_t addr = heapBrk_;
    heapBrk_ += n;
    heap_.resize(heapBrk_ - heapBase_, 0);
    return addr;
}

std::uint64_t
Memory::stackTop(int tid) const
{
    return kStackBase + stackSize_ * static_cast<std::uint64_t>(tid + 1);
}

std::uint64_t
Memory::stackFloor(int tid) const
{
    return kStackBase + stackSize_ * static_cast<std::uint64_t>(tid);
}

} // namespace ldx::vm
