#include "vm/predecode.h"

#include <algorithm>
#include <array>

namespace ldx::vm {

namespace {

/** True for opcodes the fast loop defers to executeOne (kSlow). */
bool
isSlowOpcode(ir::Opcode op)
{
    switch (op) {
      case ir::Opcode::Call:
      case ir::Opcode::ICall:
      case ir::Opcode::Ret:
      case ir::Opcode::Syscall:
      case ir::Opcode::SyncBarrier:
      case ir::Opcode::CntPush:
      case ir::Opcode::CntPop:
        return true;
      default:
        return false;
    }
}

/** Classify @p operand into (flag, payload) form. */
void
encodeOperand(const ir::Operand &operand, std::uint8_t reg_flag,
              std::uint8_t &flags, std::int64_t &out)
{
    if (operand.isReg()) {
        flags |= reg_flag;
        out = operand.reg;
    } else if (operand.isImm()) {
        out = operand.imm;
    } else {
        out = 0; // eval() yields 0 for None
    }
}

} // namespace

DecodedFunction::DecodedFunction(const ir::Function &fn)
{
    std::size_t total = 0;
    blockStart_.resize(fn.numBlocks());
    for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
        blockStart_[b] = static_cast<std::uint32_t>(total);
        total += fn.block(static_cast<int>(b)).instrs().size();
    }
    code_.reserve(total);

    for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
        const auto &instrs = fn.block(static_cast<int>(b)).instrs();
        for (std::size_t i = 0; i < instrs.size(); ++i) {
            const ir::Instr &in = instrs[i];
            DecodedInstr d;
            d.op = in.op;
            d.dst = in.dst;
            d.size = static_cast<std::uint8_t>(in.size);
            d.block = static_cast<std::int32_t>(b);
            d.ip = static_cast<std::int32_t>(i);
            d.src = &in;
            if (isSlowOpcode(in.op))
                d.flags |= DecodedInstr::kSlow;
            encodeOperand(in.a, DecodedInstr::kAReg, d.flags, d.a);
            encodeOperand(in.b, DecodedInstr::kBReg, d.flags, d.b);
            switch (in.op) {
              case ir::Opcode::Alloca:
                // Pre-align the reservation like executeOne does.
                d.imm = static_cast<std::int64_t>(
                    (static_cast<std::uint64_t>(
                         std::max<std::int64_t>(8, in.imm)) + 7) &
                    ~std::uint64_t{7});
                break;
              case ir::Opcode::FnAddr:
                d.imm = in.callee;
                break;
              case ir::Opcode::Br:
                d.target0 = static_cast<std::int32_t>(
                    blockStart_[static_cast<std::size_t>(in.target0)]);
                break;
              case ir::Opcode::CondBr:
                d.target0 = static_cast<std::int32_t>(
                    blockStart_[static_cast<std::size_t>(in.target0)]);
                d.target1 = static_cast<std::int32_t>(
                    blockStart_[static_cast<std::size_t>(in.target1)]);
                break;
              default:
                d.imm = in.imm;
                break;
            }
            code_.push_back(d);
        }
    }

    // Chop each block into runs of fast instructions and attach a
    // retirement histogram to every canonical run head. runLen counts
    // the fast instructions from a given index to the end of its run,
    // so the interpreter can resume mid-run after a slice boundary.
    std::size_t pos = 0;
    while (pos < code_.size()) {
        if (code_[pos].isSlow()) {
            ++pos;
            continue;
        }
        std::size_t end = pos;
        int block = code_[pos].block;
        while (end < code_.size() && !code_[end].isSlow() &&
               code_[end].block == block &&
               end - pos < 0xffff)
            ++end;

        std::array<std::uint32_t,
                   static_cast<std::size_t>(ir::kNumOpcodes)>
            counts{};
        for (std::size_t i = pos; i < end; ++i)
            ++counts[static_cast<std::size_t>(code_[i].op)];
        RunHist hist;
        for (std::size_t o = 0; o < counts.size(); ++o) {
            if (counts[o])
                hist.emplace_back(static_cast<ir::Opcode>(o),
                                  counts[o]);
        }
        code_[pos].histIdx = static_cast<std::int32_t>(hists_.size());
        hists_.push_back(std::move(hist));
        for (std::size_t i = pos; i < end; ++i)
            code_[i].runLen = static_cast<std::uint16_t>(end - i);
        pos = end;
    }
}

PredecodedModule::PredecodedModule(const ir::Module &module)
    : module_(module), fns_(module.numFunctions())
{}

void
PredecodedModule::decodeAll()
{
    for (std::size_t f = 0; f < fns_.size(); ++f) {
        if (!fns_[f])
            fns_[f] = std::make_unique<DecodedFunction>(
                module_.function(static_cast<int>(f)));
    }
}

bool
PredecodedModule::fullyDecoded() const
{
    for (const auto &slot : fns_)
        if (!slot)
            return false;
    return true;
}

obs::ProfileMeta
buildProfileMeta(PredecodedModule &pm, const std::string &program,
                 const std::string &source)
{
    obs::ProfileMeta meta;
    meta.program = program;
    meta.fns.resize(pm.numFunctions());
    for (std::size_t f = 0; f < pm.numFunctions(); ++f) {
        const DecodedFunction &df = pm.function(static_cast<int>(f));
        obs::FunctionMeta &fm = meta.fns[f];
        fm.name = pm.module().function(static_cast<int>(f)).name();
        fm.sites.resize(df.numInstrs());
        const DecodedInstr *code = df.code();
        for (std::size_t i = 0; i < df.numInstrs(); ++i) {
            obs::SiteMeta &sm = fm.sites[i];
            sm.op = ir::opcodeName(code[i].op);
            sm.line = code[i].src->loc.line;
            sm.col = code[i].src->loc.col;
            sm.siteId = code[i].src->site;
            sm.isSyscall = code[i].op == ir::Opcode::Syscall;
        }
    }
    std::size_t begin = 0;
    while (begin <= source.size() && !source.empty()) {
        std::size_t end = source.find('\n', begin);
        if (end == std::string::npos) {
            if (begin < source.size())
                meta.sourceLines.push_back(source.substr(begin));
            break;
        }
        meta.sourceLines.push_back(source.substr(begin, end - begin));
        begin = end + 1;
    }
    return meta;
}

} // namespace ldx::vm
