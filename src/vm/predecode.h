/**
 * @file
 * Predecoded instruction stream for the fast-path interpreter.
 *
 * Each ir::Function is flattened once into a dense DecodedInstr array:
 * all blocks concatenated, branch targets resolved to flat indices,
 * operands pre-classified (register slot vs. immediate value), and a
 * flag byte marking the instructions the fast loop cannot retire
 * inline (calls, returns, syscalls, barriers, counter-stack ops).
 * The interpreter walks the array with a local program counter and
 * only re-derives (block, ip) frame coordinates at run boundaries, so
 * the hot loop does no fn.block()/bb.instrs()[ip] pointer chasing.
 *
 * A "run" is a maximal sequence of fast instructions inside one
 * block. Every run that starts at its canonical head carries a
 * precomputed per-opcode histogram so retirement accounting
 * (opCounts_, instruction budget, kernel ticks) is batched per run
 * instead of per instruction; resuming mid-run (after a syscall or a
 * scheduling slice boundary) falls back to walking the retired range.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/ir.h"
#include "obs/profiler.h"

namespace ldx::vm {

/** One pre-resolved instruction (fits in a cache line). */
struct DecodedInstr
{
    // Flag byte: dispatch class + operand classification.
    static constexpr std::uint8_t kSlow = 1 << 0; ///< needs executeOne
    static constexpr std::uint8_t kAReg = 1 << 1; ///< a is a register
    static constexpr std::uint8_t kBReg = 1 << 2; ///< b is a register

    ir::Opcode op = ir::Opcode::Const;
    std::uint8_t flags = 0;
    std::uint8_t size = 8;        ///< Load/Store width (1 or 8)
    std::int32_t dst = -1;
    std::int64_t a = 0;           ///< register index or immediate
    std::int64_t b = 0;           ///< register index or immediate
    std::int64_t imm = 0;         ///< op-specific payload (see decoder)
    std::int32_t target0 = -1;    ///< flat index of Br/CondBr-true target
    std::int32_t target1 = -1;    ///< flat index of CondBr-false target
    std::int32_t block = 0;       ///< owning block id
    std::int32_t ip = 0;          ///< index within the owning block
    std::int32_t histIdx = -1;    ///< run histogram at canonical heads
    std::uint16_t runLen = 1;     ///< fast instrs from here to run end
    const ir::Instr *src = nullptr; ///< original instruction

    bool isSlow() const { return flags & kSlow; }
};

/** Sparse per-opcode retirement counts of one run. */
using RunHist = std::vector<std::pair<ir::Opcode, std::uint32_t>>;

/** One function flattened for dispatch. */
class DecodedFunction
{
  public:
    explicit DecodedFunction(const ir::Function &fn);

    const DecodedInstr *code() const { return code_.data(); }
    std::size_t numInstrs() const { return code_.size(); }

    /** Flat index of the first instruction of @p block. */
    std::uint32_t
    blockStart(int block) const
    {
        return blockStart_[static_cast<std::size_t>(block)];
    }

    const RunHist &
    hist(std::int32_t idx) const
    {
        return hists_[static_cast<std::size_t>(idx)];
    }

  private:
    std::vector<DecodedInstr> code_;
    std::vector<std::uint32_t> blockStart_;
    std::vector<RunHist> hists_;
};

/**
 * Lazily decoded view of a whole module.
 *
 * A module shared across machines (EngineConfig/campaign reuse) must
 * be fully decoded first — decodeAll() — after which function() is a
 * pure read and safe from concurrent VM threads.
 */
class PredecodedModule
{
  public:
    explicit PredecodedModule(const ir::Module &module);

    /** The decoded form of function @p fn (built on first use). */
    const DecodedFunction &
    function(int fn)
    {
        auto &slot = fns_[static_cast<std::size_t>(fn)];
        if (!slot)
            slot = std::make_unique<DecodedFunction>(
                module_.function(fn));
        return *slot;
    }

    /** Eagerly decode every function (required before sharing). */
    void decodeAll();

    /** True once every function slot is built. */
    bool fullyDecoded() const;

    const ir::Module &module() const { return module_; }
    std::size_t numFunctions() const { return fns_.size(); }

  private:
    const ir::Module &module_;
    std::vector<std::unique_ptr<DecodedFunction>> fns_;
};

/**
 * Site metadata for the guest-level profiler: one obs::SiteMeta per
 * decoded instruction (opcode name, source location, instrumentation
 * site id), in the exact (function, flat offset) shape the profiled
 * interpreter counts in. Decodes any not-yet-built function. @p
 * program labels the report; @p source is the MiniC text for the
 * annotated listing (may be empty).
 */
obs::ProfileMeta buildProfileMeta(PredecodedModule &pm,
                                  const std::string &program,
                                  const std::string &source);

} // namespace ldx::vm
