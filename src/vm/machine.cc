#include "vm/machine.h"

#include <algorithm>
#include <cmath>

#include "support/diag.h"

namespace ldx::vm {

namespace {

constexpr std::int64_t kTokenTag = 0x5a00000000000000LL;

// Guest int64 arithmetic wraps (two's complement). Host signed
// overflow is undefined, so every dispatch path computes Add, Sub,
// Mul and Neg in uint64_t and casts back.
inline std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapNeg(std::int64_t a)
{
    return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a));
}

} // namespace

const char *
dispatchModeName(DispatchMode mode)
{
    switch (mode) {
      case DispatchMode::Switch: return "switch";
      case DispatchMode::Threaded: return "threaded";
    }
    return "?";
}

bool
parseDispatchMode(const std::string &name, DispatchMode &out)
{
    if (name == "switch")
        out = DispatchMode::Switch;
    else if (name == "threaded")
        out = DispatchMode::Threaded;
    else
        return false;
    return true;
}

Machine::Machine(const ir::Module &module, os::Kernel &kernel,
                 MachineConfig cfg)
    : module_(module), kernel_(kernel), cfg_(cfg),
      schedPrng_(cfg.schedSeed)
{
    // Lay out globals: 8-aligned, in declaration order.
    std::uint64_t offset = 0;
    globalAddrs_.resize(module.numGlobals());
    for (std::size_t g = 0; g < module.numGlobals(); ++g) {
        globalAddrs_[g] = Memory::kGlobalsBase + offset;
        std::uint64_t sz = static_cast<std::uint64_t>(
            std::max<std::int64_t>(8, module.global(
                static_cast<int>(g)).size));
        offset += (sz + 7) & ~std::uint64_t{7};
    }
    memory_ = std::make_unique<Memory>(
        offset, cfg.stackSize, cfg.maxThreads,
        kernel.heapBaseJitter());
    if (cfg.predecode) {
        if (cfg.predecoded) {
            // A shared predecoded module is read-only here, so it can
            // back many machines at once (both dual sides, campaign
            // pool workers) — but only if every slot is already built.
            checkInvariant(cfg.predecoded->fullyDecoded(),
                           "shared PredecodedModule must be decodeAll()ed");
            checkInvariant(&cfg.predecoded->module() == &module,
                           "shared PredecodedModule wraps another module");
            decodedShared_ = cfg.predecoded;
            decoded_ = decodedShared_.get();
        } else {
            decodedOwned_ = std::make_unique<PredecodedModule>(module);
            decoded_ = decodedOwned_.get();
        }
    }
    threaded_ =
        cfg.dispatch == DispatchMode::Threaded && hasThreadedDispatch();
    if (cfg_.siteProfile) {
        // Site indices are decoded-stream offsets, so the whole
        // program must be decoded up front: counters shaped once,
        // never resized mid-run.
        checkInvariant(decoded_ != nullptr,
                       "site profiling requires predecode");
        if (decodedOwned_)
            decodedOwned_->decodeAll();
        std::vector<std::size_t> sites(decoded_->numFunctions());
        for (std::size_t f = 0; f < sites.size(); ++f)
            sites[f] =
                decoded_->function(static_cast<int>(f)).numInstrs();
        cfg_.siteProfile->shape(sites);
        prof_ = cfg_.siteProfile;
    }
    for (std::size_t g = 0; g < module.numGlobals(); ++g) {
        const ir::Global &gl = module.global(static_cast<int>(g));
        if (!gl.init.empty())
            memory_->writeBytes(globalAddrs_[g], gl.init);
    }
}

void
Machine::start()
{
    checkInvariant(!started_, "Machine::start called twice");
    started_ = true;
    int main_fn = module_.mainFunction();
    if (main_fn < 0)
        fatal("module has no main()");
    newContext(main_fn, {});
}

Context &
Machine::newContext(int fn, std::vector<std::int64_t> args)
{
    if (static_cast<int>(contexts_.size()) >= cfg_.maxThreads)
        throw VmTrap(TrapKind::StackOverflow, "too many threads");
    auto ctx = std::make_unique<Context>();
    ctx->tid = static_cast<int>(contexts_.size());
    ctx->sp = memory_->stackTop(ctx->tid);
    Frame frame;
    frame.fn = fn;
    frame.block = ir::Function::entryBlockId;
    frame.ip = 0;
    frame.regs.assign(module_.function(fn).numRegs(), 0);
    for (std::size_t i = 0;
         i < args.size() &&
         i < static_cast<std::size_t>(module_.function(fn).numParams());
         ++i)
        frame.regs[i] = args[i];
    frame.spAtEntry = ctx->sp;
    ctx->frames.push_back(std::move(frame));
    contexts_.push_back(std::move(ctx));
    if (prof_)
        ++prof_->rootCalls[static_cast<std::size_t>(fn)];
    emitObsInstant(obs::RecKind::ThreadStart, "thread_start",
                   contexts_.back()->tid,
                   module_.function(fn).name());
    return *contexts_.back();
}

void
Machine::emitObsInstant(obs::RecKind kind, const char *name, int tid,
                        const std::string &detail)
{
    if (!obs_)
        return;
    if (obs_->recorder()) {
        obs::RecEvent evt;
        evt.kind = kind;
        evt.tid = static_cast<std::uint16_t>(tid);
        evt.arg = detail.empty() ? 0 : obs::fnv1a(detail);
        obs_->record(obsLane_, evt);
    }
    if (!obs_->tracing())
        return;
    obs::TraceRecord rec;
    rec.name = name;
    rec.lane = obsLane_;
    rec.tid = tid;
    if (!detail.empty())
        rec.strArgs = {{"detail", detail}};
    obs_->emit(std::move(rec));
}

std::int64_t
Machine::eval(const Context &ctx, const ir::Operand &op) const
{
    switch (op.kind) {
      case ir::Operand::Kind::Reg:
        return ctx.frames.back().regs[op.reg];
      case ir::Operand::Kind::Imm:
        return op.imm;
      case ir::Operand::Kind::None:
        return 0;
    }
    return 0;
}

void
Machine::setReg(Context &ctx, int reg, std::int64_t v)
{
    if (reg >= 0)
        ctx.frames.back().regs[reg] = v;
}

std::int64_t
Machine::makeToken(int fn, int block, int ip) const
{
    return kTokenTag |
           (static_cast<std::int64_t>(fn + 1) << 36) |
           (static_cast<std::int64_t>(block + 1) << 16) |
           static_cast<std::int64_t>(ip + 1);
}

int
Machine::pickContext()
{
    auto pollable = [&](int i) {
        Context::State s = contexts_[i]->state;
        return s == Context::State::Runnable ||
               s == Context::State::BlockedPort;
    };
    int n = static_cast<int>(contexts_.size());
    if (curCtx_ >= 0 && curCtx_ < n && sliceLeft_ > 0 &&
        pollable(curCtx_))
        return curCtx_;
    // Rotate: next pollable context after curCtx_.
    for (int d = 1; d <= n; ++d) {
        int i = (curCtx_ + d + n) % n;
        if (pollable(i)) {
            curCtx_ = i;
            sliceLeft_ = cfg_.quantum;
            if (cfg_.schedJitter) {
                sliceLeft_ = 1 + static_cast<int>(schedPrng_.below(
                    static_cast<std::uint64_t>(
                        std::max(1, cfg_.quantum * 2))));
            }
            return i;
        }
    }
    return -1;
}

StepStatus
Machine::step()
{
    checkInvariant(started_, "Machine::step before start");
    if (finished())
        return trap_ ? StepStatus::Trapped : StepStatus::Finished;
    if (pauseRequested())
        return StepStatus::Stalled;

    int n = static_cast<int>(contexts_.size());
    std::vector<bool> tried(static_cast<std::size_t>(n), false);
    for (int attempts = 0; attempts < n; ++attempts) {
        int c = pickContext();
        if (c < 0)
            return settleNoPollable();
        if (tried[static_cast<std::size_t>(c)])
            return StepStatus::Stalled;
        tried[static_cast<std::size_t>(c)] = true;

        Context &ctx = *contexts_[c];
        bool progressed = false;
        try {
            progressed = executeOne(ctx);
        } catch (const VmTrap &trap) {
            const Frame &fr = ctx.frames.back();
            const ir::Instr &instr =
                module_.function(fr.fn).block(fr.block).instrs()[
                    static_cast<std::size_t>(fr.ip)];
            trap_ = TrapInfo{trap.kind(), trap.what(), ctx.tid,
                             instr.loc};
            emitObsInstant(obs::RecKind::Trap, "trap", ctx.tid,
                           trap_->message);
            markFinished();
            if (port_)
                port_->onFinished(*this);
            return StepStatus::Trapped;
        }
        if (finished())
            return trap_ ? StepStatus::Trapped : StepStatus::Finished;
        if (progressed) {
            --sliceLeft_;
            return StepStatus::Progress;
        }
        // Pause before the rotate bookkeeping: the scheduler state
        // stays exactly what it was going into this blocked attempt.
        if (pauseRequested())
            return StepStatus::Stalled;
        // Blocked; rotate to the next candidate.
        sliceLeft_ = 0;
    }
    return StepStatus::Stalled;
}

StepStatus
Machine::settleNoPollable()
{
    bool all_done = true;
    for (const auto &ctx : contexts_) {
        if (ctx->state != Context::State::Done)
            all_done = false;
    }
    if (all_done) {
        // Main returning finishes the program, so reaching here
        // means auxiliary threads outlived main; treat as finished.
        markFinished();
        if (port_)
            port_->onFinished(*this);
        return StepStatus::Finished;
    }
    trap_ = TrapInfo{TrapKind::BadSyscall,
                     "guest deadlock: all threads blocked", 0, {}};
    emitObsInstant(obs::RecKind::Trap, "trap", 0, trap_->message);
    markFinished();
    if (port_)
        port_->onFinished(*this);
    return StepStatus::Trapped;
}

StepStatus
Machine::stepMany(std::uint64_t budget, std::uint64_t &retired)
{
    retired = 0;
    checkInvariant(started_, "Machine::stepMany before start");
    if (finished())
        return trap_ ? StepStatus::Trapped : StepStatus::Finished;
    if (pauseRequested())
        return StepStatus::Stalled;

    if (!useFastPath()) {
        // Legacy oracle path: byte-for-byte the seed interpreter.
        while (retired < budget) {
            StepStatus st = step();
            if (st != StepStatus::Progress)
                return st;
            ++retired;
        }
        return StepStatus::Progress;
    }

    ++triedGen_;
    while (retired < budget) {
        int c = pickContext();
        if (c < 0)
            return settleNoPollable();
        if (triedSeen_.size() < contexts_.size())
            triedSeen_.resize(contexts_.size(), 0);
        if (triedSeen_[static_cast<std::size_t>(c)] == triedGen_)
            return StepStatus::Stalled;

        Context &ctx = *contexts_[static_cast<std::size_t>(c)];
        std::uint64_t got = 0;
        try {
            Frame &fr = ctx.frames.back();
            const DecodedFunction &df = decoded_->function(fr.fn);
            const DecodedInstr &head =
                df.code()[df.blockStart(fr.block) +
                          static_cast<std::uint32_t>(fr.ip)];
            if (head.isSlow()) {
                if (executeOne(ctx)) {
                    got = 1;
                    --sliceLeft_;
                }
            } else {
                std::uint64_t limit = budget - retired;
                if (limit > static_cast<std::uint64_t>(sliceLeft_))
                    limit = static_cast<std::uint64_t>(sliceLeft_);
                // One profiled-or-not branch per run batch; each
                // instantiation compiles its counting in or out.
#if LDX_HAS_COMPUTED_GOTO
                if (threaded_)
                    got = prof_ ? fastRunThreaded<true>(ctx, limit)
                                : fastRunThreaded<false>(ctx, limit);
                else
#endif
                    got = prof_ ? fastRun<true>(ctx, limit)
                                : fastRun<false>(ctx, limit);
                sliceLeft_ -= static_cast<int>(got);
            }
        } catch (const VmTrap &trap) {
            const Frame &fr = ctx.frames.back();
            const ir::Instr &instr =
                module_.function(fr.fn).block(fr.block).instrs()[
                    static_cast<std::size_t>(fr.ip)];
            trap_ = TrapInfo{trap.kind(), trap.what(), ctx.tid,
                             instr.loc};
            emitObsInstant(obs::RecKind::Trap, "trap", ctx.tid,
                           trap_->message);
            markFinished();
            if (port_)
                port_->onFinished(*this);
            return StepStatus::Trapped;
        }
        retired += got;
        if (finished())
            return trap_ ? StepStatus::Trapped : StepStatus::Finished;
        // Pause before the poll-set/slice bookkeeping (see step()).
        if (pauseRequested())
            return StepStatus::Stalled;
        if (got > 0) {
            ++triedGen_; // progress resets the polled set
        } else {
            triedSeen_[static_cast<std::size_t>(c)] = triedGen_;
            sliceLeft_ = 0; // blocked; rotate to the next candidate
        }
    }
    return StepStatus::Progress;
}

void
Machine::skipIdleRounds(std::uint64_t k)
{
    if (settled() || k == 0)
        return;
    if (useFastPath()) {
        // Each blocked round opens one poll generation and stamps
        // every context it polled with it.
        for (std::uint64_t &gen : triedSeen_)
            if (gen == triedGen_)
                gen += k;
        triedGen_ += k;
    }
    for (const auto &cp : contexts_) {
        Context &ctx = *cp;
        if (ctx.state != Context::State::BlockedPort)
            continue;
        const Frame &fr = ctx.frames.back();
        const ir::Instr &instr =
            module_.function(fr.fn).block(fr.block).instrs()[
                static_cast<std::size_t>(fr.ip)];
        if (instr.op == ir::Opcode::Syscall && !ctx.portApproved) {
            ctx.cntSamples += k;
            // k single adds of an integer, bit for bit: integer-valued
            // sums below 2^52 are exact, so one multiply-add is too.
            double v = static_cast<double>(ctx.cnt);
            if (std::fabs(ctx.cntSum) +
                    static_cast<double>(k) * std::fabs(v) <
                0x1p52) {
                ctx.cntSum += static_cast<double>(k) * v;
            } else {
                for (std::uint64_t i = 0; i < k; ++i)
                    ctx.cntSum += v;
            }
        }
        if (prof_)
            prof_->stallPolls[static_cast<std::size_t>(fr.fn)]
                             [decoded_->function(fr.fn).blockStart(
                                  fr.block) +
                              static_cast<std::uint32_t>(fr.ip)] += k;
    }
}

StepStatus
Machine::run()
{
    start();
    while (true) {
        std::uint64_t retired = 0;
        StepStatus st = stepMany(1u << 20, retired);
        if (st == StepStatus::Finished || st == StepStatus::Trapped)
            return st;
        if (st == StepStatus::Stalled) {
            trap_ = TrapInfo{TrapKind::BadSyscall,
                             "stalled without a dual-execution driver",
                             0, {}};
            emitObsInstant(obs::RecKind::Trap, "trap", 0, trap_->message);
            markFinished();
            return StepStatus::Trapped;
        }
    }
}

MachineImage
Machine::captureImage() const
{
    MachineImage img;
    img.memory = memory_->snapshot();
    img.contexts.reserve(contexts_.size());
    for (const auto &ctx : contexts_)
        img.contexts.push_back(*ctx);
    img.curCtx = curCtx_;
    img.sliceLeft = sliceLeft_;
    img.schedPrng = schedPrng_;
    img.triedSeen = triedSeen_;
    img.triedGen = triedGen_;
    img.mutexOwner = mutexOwner_;
    img.mutexWaiters = mutexWaiters_;
    img.started = started_;
    img.finished = finished();
    img.exitCode = exitCode_;
    img.trap = trap_;
    img.totalInstrs = totalInstrs_;
    img.totalSyscalls = totalSyscalls_;
    img.chaosCntAdds = chaosCntAdds_;
    img.totalBarriers = totalBarriers_;
    img.opCounts = opCounts_;
    return img;
}

void
Machine::restoreImage(const MachineImage &image,
                      std::uint64_t chaos_drop_page)
{
    checkInvariant(image.memory != nullptr,
                   "restoreImage on an empty MachineImage");
    memory_->restore(*image.memory, chaos_drop_page);
    contexts_.clear();
    contexts_.reserve(image.contexts.size());
    for (const Context &ctx : image.contexts)
        contexts_.push_back(std::make_unique<Context>(ctx));
    curCtx_ = image.curCtx;
    sliceLeft_ = image.sliceLeft;
    schedPrng_ = image.schedPrng;
    triedSeen_ = image.triedSeen;
    triedGen_ = image.triedGen;
    mutexOwner_ = image.mutexOwner;
    mutexWaiters_ = image.mutexWaiters;
    started_ = image.started;
    finished_.store(image.finished, std::memory_order_relaxed);
    exitCode_ = image.exitCode;
    trap_ = image.trap;
    totalInstrs_ = image.totalInstrs;
    totalSyscalls_ = image.totalSyscalls;
    chaosCntAdds_ = image.chaosCntAdds;
    totalBarriers_ = image.totalBarriers;
    opCounts_ = image.opCounts;
    clearPause();
}

bool
Machine::executeOne(Context &ctx)
{
    Frame &fr = ctx.frames.back();
    const ir::Function &fn = module_.function(fr.fn);
    const ir::BasicBlock &bb = fn.block(fr.block);
    const ir::Instr &instr = bb.instrs()[static_cast<std::size_t>(fr.ip)];

    // Resolve the profile slots before the frame mutates (calls,
    // branches, returns all move fr); the pointers stay valid.
    std::uint64_t *prof_site = nullptr;
    std::uint64_t *prof_stall = nullptr;
    if (prof_) {
        const DecodedFunction &pdf = decoded_->function(fr.fn);
        std::uint32_t off = pdf.blockStart(fr.block) +
                            static_cast<std::uint32_t>(fr.ip);
        prof_site =
            &prof_->retired[static_cast<std::size_t>(fr.fn)][off];
        prof_stall =
            &prof_->stallPolls[static_cast<std::size_t>(fr.fn)][off];
    }

    if (totalInstrs_ >= cfg_.maxInstructions)
        throw VmTrap(TrapKind::BudgetExceeded,
                     "instruction budget exceeded");

    auto arith = [&](std::int64_t a, std::int64_t b) -> std::int64_t {
        switch (instr.op) {
          case ir::Opcode::Add: return wrapAdd(a, b);
          case ir::Opcode::Sub: return wrapSub(a, b);
          case ir::Opcode::Mul: return wrapMul(a, b);
          case ir::Opcode::Div:
            if (b == 0)
                throw VmTrap(TrapKind::DivideByZero, "division by zero");
            if (a == INT64_MIN && b == -1)
                return INT64_MIN;
            return a / b;
          case ir::Opcode::Rem:
            if (b == 0)
                throw VmTrap(TrapKind::DivideByZero, "remainder by zero");
            if (a == INT64_MIN && b == -1)
                return 0;
            return a % b;
          case ir::Opcode::And: return a & b;
          case ir::Opcode::Or: return a | b;
          case ir::Opcode::Xor: return a ^ b;
          case ir::Opcode::Shl:
            return static_cast<std::int64_t>(
                static_cast<std::uint64_t>(a) << (b & 63));
          case ir::Opcode::Shr:
            return static_cast<std::int64_t>(
                static_cast<std::uint64_t>(a) >> (b & 63));
          case ir::Opcode::CmpEq: return a == b;
          case ir::Opcode::CmpNe: return a != b;
          case ir::Opcode::CmpLt: return a < b;
          case ir::Opcode::CmpLe: return a <= b;
          case ir::Opcode::CmpGt: return a > b;
          case ir::Opcode::CmpGe: return a >= b;
          default:
            panic("arith on non-arith opcode");
        }
    };

    auto account = [&]() {
        ++ctx.instrCount;
        ++totalInstrs_;
        ++opCounts_[static_cast<std::size_t>(instr.op)];
        kernel_.tickInstructions(1);
        profilePair(ctx, instr.op);
        if (prof_site)
            ++*prof_site;
    };

    std::uint64_t eff_addr = 0;
    std::int64_t result = 0;
    bool has_result = false;

    switch (instr.op) {
      case ir::Opcode::Const:
        setReg(ctx, instr.dst, instr.imm);
        result = instr.imm;
        has_result = true;
        ++fr.ip;
        break;
      case ir::Opcode::Move:
        result = eval(ctx, instr.a);
        setReg(ctx, instr.dst, result);
        has_result = true;
        ++fr.ip;
        break;
      case ir::Opcode::Neg:
        result = wrapNeg(eval(ctx, instr.a));
        setReg(ctx, instr.dst, result);
        has_result = true;
        ++fr.ip;
        break;
      case ir::Opcode::Not:
        result = ~eval(ctx, instr.a);
        setReg(ctx, instr.dst, result);
        has_result = true;
        ++fr.ip;
        break;
      case ir::Opcode::Add: case ir::Opcode::Sub: case ir::Opcode::Mul:
      case ir::Opcode::Div: case ir::Opcode::Rem: case ir::Opcode::And:
      case ir::Opcode::Or: case ir::Opcode::Xor: case ir::Opcode::Shl:
      case ir::Opcode::Shr: case ir::Opcode::CmpEq:
      case ir::Opcode::CmpNe: case ir::Opcode::CmpLt:
      case ir::Opcode::CmpLe: case ir::Opcode::CmpGt:
      case ir::Opcode::CmpGe:
        result = arith(eval(ctx, instr.a), eval(ctx, instr.b));
        setReg(ctx, instr.dst, result);
        has_result = true;
        ++fr.ip;
        break;
      case ir::Opcode::Load: {
        eff_addr = static_cast<std::uint64_t>(eval(ctx, instr.a));
        result = instr.size == 1
            ? static_cast<std::int64_t>(memory_->readU8(eff_addr))
            : memory_->readI64(eff_addr);
        setReg(ctx, instr.dst, result);
        has_result = true;
        ++fr.ip;
        break;
      }
      case ir::Opcode::Store: {
        eff_addr = static_cast<std::uint64_t>(eval(ctx, instr.a));
        std::int64_t v = eval(ctx, instr.b);
        if (instr.size == 1)
            memory_->writeU8(eff_addr, static_cast<std::uint8_t>(v));
        else
            memory_->writeI64(eff_addr, v);
        result = v;
        has_result = true;
        ++fr.ip;
        break;
      }
      case ir::Opcode::Alloca: {
        std::uint64_t size =
            (static_cast<std::uint64_t>(std::max<std::int64_t>(
                 8, instr.imm)) + 7) & ~std::uint64_t{7};
        if (ctx.sp < memory_->stackFloor(ctx.tid) + size)
            throw VmTrap(TrapKind::StackOverflow, "stack overflow");
        ctx.sp -= size;
        eff_addr = ctx.sp;
        result = static_cast<std::int64_t>(ctx.sp);
        setReg(ctx, instr.dst, result);
        has_result = true;
        ++fr.ip;
        break;
      }
      case ir::Opcode::GlobalAddr:
        result = static_cast<std::int64_t>(
            globalAddrs_[static_cast<std::size_t>(instr.imm)]);
        eff_addr = static_cast<std::uint64_t>(result);
        setReg(ctx, instr.dst, result);
        has_result = true;
        ++fr.ip;
        break;
      case ir::Opcode::FnAddr:
        result = kFnTokenBase + instr.callee;
        setReg(ctx, instr.dst, result);
        has_result = true;
        ++fr.ip;
        break;
      case ir::Opcode::LibCall:
        result = doLibCall(ctx, instr, eff_addr);
        setReg(ctx, instr.dst, result);
        has_result = true;
        ++fr.ip;
        break;
      case ir::Opcode::Call:
        account();
        doCall(ctx, instr, instr.callee);
        return true;
      case ir::Opcode::ICall: {
        std::int64_t token = eval(ctx, instr.a);
        int callee = static_cast<int>(token - kFnTokenBase);
        if (token < kFnTokenBase || callee < 0 ||
            callee >= static_cast<int>(module_.numFunctions()))
            throw VmTrap(TrapKind::BadIndirectCall,
                         "indirect call through bad function pointer");
        if (static_cast<int>(instr.args.size()) !=
            module_.function(callee).numParams())
            throw VmTrap(TrapKind::BadIndirectCall,
                         "indirect call arity mismatch");
        account();
        doCall(ctx, instr, callee);
        return true;
      }
      case ir::Opcode::Syscall:
        return doSyscall(ctx, instr);
      case ir::Opcode::Br:
        fr.block = instr.target0;
        fr.ip = 0;
        account();
        if (execHook_)
            execHook_->onBlockEnter(ctx.tid, fr.fn, fr.block, *this);
        return true;
      case ir::Opcode::CondBr:
        fr.block = eval(ctx, instr.a) != 0 ? instr.target0
                                           : instr.target1;
        fr.ip = 0;
        account();
        if (execHook_) {
            execHook_->onBranch(ctx.tid, instr, fr.block, *this);
            execHook_->onBlockEnter(ctx.tid, fr.fn, fr.block, *this);
        }
        return true;
      case ir::Opcode::Ret:
        account();
        doRet(ctx, instr);
        return true;
      case ir::Opcode::CntAdd:
        if (!cfg_.chaosSkipCntAddPeriod ||
            ++chaosCntAdds_ % cfg_.chaosSkipCntAddPeriod != 0)
            ctx.cnt += instr.imm;
        ctx.maxCnt = std::max(ctx.maxCnt, ctx.cnt);
        ++fr.ip;
        break;
      case ir::Opcode::SyncBarrier: {
        if (!port_) {
            // Native run: barrier degenerates to the counter reset.
            ctx.cnt += instr.a.imm;
            ++totalBarriers_;
            ++fr.ip;
            break;
        }
        std::int64_t iter = ctx.barrierIter[instr.imm];
        PortReply reply = port_->onBarrier(ctx.tid, instr.imm, iter,
                                           ctx.cnt, instr.a.imm, *this);
        if (reply == PortReply::Blocked) {
            if (prof_stall)
                ++*prof_stall;
            ctx.state = Context::State::BlockedPort;
            return false;
        }
        ctx.state = Context::State::Runnable;
        ctx.barrierIter[instr.imm] = iter + 1;
        ctx.cnt += instr.a.imm;
        ++totalBarriers_;
        ++fr.ip;
        break;
      }
      case ir::Opcode::CntPush:
        ctx.cntStack.push_back(ctx.cnt);
        ctx.maxCntDepth = std::max(ctx.maxCntDepth, ctx.cntStack.size());
        ctx.cnt = 0;
        if (port_)
            port_->onCounterPush(ctx.tid, ctx.cntStack.back(), *this);
        ++fr.ip;
        break;
      case ir::Opcode::CntPop:
        checkInvariant(!ctx.cntStack.empty(), "counter stack underflow");
        ctx.cnt = ctx.cntStack.back();
        ctx.cntStack.pop_back();
        if (port_)
            port_->onCounterPop(ctx.tid, ctx.cnt, *this);
        ++fr.ip;
        break;
    }

    account();
    if (execHook_ && has_result)
        execHook_->onInstr(ctx.tid, instr, eff_addr, result, *this);
    return true;
}

template <bool Profiled>
std::uint64_t
Machine::fastRun(Context &ctx, std::uint64_t limit)
{
    Frame &fr = ctx.frames.back();
    const DecodedFunction &df = decoded_->function(fr.fn);
    const DecodedInstr *code = df.code();
    std::uint32_t pc =
        df.blockStart(fr.block) + static_cast<std::uint32_t>(fr.ip);
    const DecodedInstr &head = code[pc];

    [[maybe_unused]] std::uint64_t *prof = nullptr;
    if constexpr (Profiled)
        prof = prof_->retired[static_cast<std::size_t>(fr.fn)].data();

    if (totalInstrs_ >= cfg_.maxInstructions)
        throw VmTrap(TrapKind::BudgetExceeded,
                     "instruction budget exceeded");

    // Cap the run so it cannot cross the instruction budget; the
    // budget trap then fires at the head of the next run, exactly
    // where the per-instruction check would have fired.
    std::uint64_t run = head.runLen;
    if (run > limit)
        run = limit;
    if (run > cfg_.maxInstructions - totalInstrs_)
        run = cfg_.maxInstructions - totalInstrs_;

    std::int64_t *regs = fr.regs.data();
    Memory &mem = *memory_;
    const std::uint32_t start = pc;
    std::uint64_t k = 0;

    // Retirement accounting for [start, start+k): a full canonical
    // run applies its precomputed histogram; a truncated or trapped
    // run walks the contiguous retired range (branches only sit at
    // run ends, so the range is always contiguous).
    auto flush = [&]() {
        if (k == head.runLen && head.histIdx >= 0) {
            for (const auto &[op, cnt] : df.hist(head.histIdx))
                opCounts_[static_cast<std::size_t>(op)] += cnt;
        } else {
            for (std::uint32_t i = start; i < start + k; ++i)
                ++opCounts_[static_cast<std::size_t>(code[i].op)];
        }
        if constexpr (Profiled) {
            // Per-site attribution always walks the retired range —
            // one bump per site, batched per run.
            for (std::uint32_t i = start; i < start + k; ++i)
                ++prof[i];
        }
        totalInstrs_ += k;
        ctx.instrCount += k;
        kernel_.tickInstructions(static_cast<std::int64_t>(k));
        fr.block = code[pc].block;
        fr.ip = code[pc].ip;
    };

    try {
        for (; k < run; ++k) {
            const DecodedInstr &d = code[pc];
            auto A = [&]() -> std::int64_t {
                return (d.flags & DecodedInstr::kAReg)
                           ? regs[d.a] : d.a;
            };
            auto B = [&]() -> std::int64_t {
                return (d.flags & DecodedInstr::kBReg)
                           ? regs[d.b] : d.b;
            };
            auto set = [&](std::int64_t v) {
                if (d.dst >= 0)
                    regs[d.dst] = v;
            };
            switch (d.op) {
              case ir::Opcode::Const: set(d.imm); ++pc; break;
              case ir::Opcode::Move: set(A()); ++pc; break;
              case ir::Opcode::Neg: set(wrapNeg(A())); ++pc; break;
              case ir::Opcode::Not: set(~A()); ++pc; break;
              case ir::Opcode::Add: set(wrapAdd(A(), B())); ++pc; break;
              case ir::Opcode::Sub: set(wrapSub(A(), B())); ++pc; break;
              case ir::Opcode::Mul: set(wrapMul(A(), B())); ++pc; break;
              case ir::Opcode::Div: {
                std::int64_t a = A(), b = B();
                if (b == 0)
                    throw VmTrap(TrapKind::DivideByZero,
                                 "division by zero");
                set(a == INT64_MIN && b == -1 ? INT64_MIN : a / b);
                ++pc;
                break;
              }
              case ir::Opcode::Rem: {
                std::int64_t a = A(), b = B();
                if (b == 0)
                    throw VmTrap(TrapKind::DivideByZero,
                                 "remainder by zero");
                set(a == INT64_MIN && b == -1 ? 0 : a % b);
                ++pc;
                break;
              }
              case ir::Opcode::And: set(A() & B()); ++pc; break;
              case ir::Opcode::Or: set(A() | B()); ++pc; break;
              case ir::Opcode::Xor: set(A() ^ B()); ++pc; break;
              case ir::Opcode::Shl:
                set(static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(A()) << (B() & 63)));
                ++pc;
                break;
              case ir::Opcode::Shr:
                set(static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(A()) >> (B() & 63)));
                ++pc;
                break;
              case ir::Opcode::CmpEq: set(A() == B()); ++pc; break;
              case ir::Opcode::CmpNe: set(A() != B()); ++pc; break;
              case ir::Opcode::CmpLt: set(A() < B()); ++pc; break;
              case ir::Opcode::CmpLe: set(A() <= B()); ++pc; break;
              case ir::Opcode::CmpGt: set(A() > B()); ++pc; break;
              case ir::Opcode::CmpGe: set(A() >= B()); ++pc; break;
              case ir::Opcode::Load: {
                std::uint64_t addr = static_cast<std::uint64_t>(A());
                set(d.size == 1
                        ? static_cast<std::int64_t>(mem.readU8(addr))
                        : mem.readI64(addr));
                ++pc;
                break;
              }
              case ir::Opcode::Store: {
                std::uint64_t addr = static_cast<std::uint64_t>(A());
                std::int64_t v = B();
                if (d.size == 1)
                    mem.writeU8(addr, static_cast<std::uint8_t>(v));
                else
                    mem.writeI64(addr, v);
                ++pc;
                break;
              }
              case ir::Opcode::Alloca: {
                std::uint64_t size = static_cast<std::uint64_t>(d.imm);
                if (ctx.sp < mem.stackFloor(ctx.tid) + size)
                    throw VmTrap(TrapKind::StackOverflow,
                                 "stack overflow");
                ctx.sp -= size;
                set(static_cast<std::int64_t>(ctx.sp));
                ++pc;
                break;
              }
              case ir::Opcode::GlobalAddr:
                set(static_cast<std::int64_t>(
                    globalAddrs_[static_cast<std::size_t>(d.imm)]));
                ++pc;
                break;
              case ir::Opcode::FnAddr:
                set(kFnTokenBase + d.imm);
                ++pc;
                break;
              case ir::Opcode::LibCall: {
                std::uint64_t eff = 0;
                set(doLibCall(ctx, *d.src, eff));
                ++pc;
                break;
              }
              case ir::Opcode::CntAdd:
                if (!cfg_.chaosSkipCntAddPeriod ||
                    ++chaosCntAdds_ % cfg_.chaosSkipCntAddPeriod != 0)
                    ctx.cnt += d.imm;
                ctx.maxCnt = std::max(ctx.maxCnt, ctx.cnt);
                ++pc;
                break;
              case ir::Opcode::Br:
                pc = static_cast<std::uint32_t>(d.target0);
                break;
              case ir::Opcode::CondBr:
                pc = static_cast<std::uint32_t>(
                    A() != 0 ? d.target0 : d.target1);
                break;
              default:
                panic("slow opcode reached the fast run loop");
            }
        }
    } catch (const VmTrap &) {
        // pc still names the trapping instruction: the retired range
        // is [start, start+k) and fr must point at the fault site for
        // the trap report (the faulting instruction is not retired,
        // exactly like the legacy path).
        flush();
        throw;
    }
    flush();
    return k;
}

#if LDX_HAS_COMPUTED_GOTO

#include "vm/dispatch.inc"

/**
 * One dispatch: stop at the limit, otherwise jump through the token
 * table. Slow opcodes map to the exit label, so the loop needs no
 * explicit isSlow() test.
 */
#define LDX_NEXT() \
    do { \
        if (k >= lim) \
            goto L_done; \
        d = &code[pc]; \
        goto *tbl[static_cast<std::size_t>(d->op)]; \
    } while (0)

/** Ordinary label: body, retire one instruction, dispatch the next. */
#define LDX_OP_LABEL(name) \
    L_##name: \
    LDX_BODY_##name; \
    LDX_PROF_SITE(); \
    ++opCounts_[static_cast<std::size_t>(ir::Opcode::name)]; \
    ++k; \
    LDX_NEXT()

template <bool Profiled>
std::uint64_t
Machine::fastRunThreaded(Context &ctx, std::uint64_t limit)
{
    Frame &fr = ctx.frames.back();
    const DecodedFunction &df = decoded_->function(fr.fn);
    const DecodedInstr *code = df.code();
    std::uint32_t pc =
        df.blockStart(fr.block) + static_cast<std::uint32_t>(fr.ip);

    // LDX_PROF_SITE's base pointer; never read unless Profiled (an
    // if constexpr guard, not a ternary — prof_ may be null here).
    [[maybe_unused]] std::uint64_t *prof = nullptr;
    if constexpr (Profiled)
        prof = prof_->retired[static_cast<std::size_t>(fr.fn)].data();

    if (totalInstrs_ >= cfg_.maxInstructions)
        throw VmTrap(TrapKind::BudgetExceeded,
                     "instruction budget exceeded");

    // Unlike fastRun this loop chains across branches, so the retired
    // range is not contiguous and per-run histograms do not apply:
    // opCounts_ is bumped per label (a compile-time-constant index),
    // and the cap only has to keep the budget trap at the same
    // instruction the switch dispatcher would fault on.
    std::uint64_t lim = limit;
    if (lim > cfg_.maxInstructions - totalInstrs_)
        lim = cfg_.maxInstructions - totalInstrs_;

    std::int64_t *regs = fr.regs.data();
    Memory &mem = *memory_;
    std::uint64_t k = 0;

    // Deferred accounting identical to fastRun's flush(): totals move
    // once per call, and fr re-derives (block, ip) from the flat pc —
    // on a trap that names the fault site, otherwise the resume point.
    auto flush = [&]() {
        totalInstrs_ += k;
        ctx.instrCount += k;
        kernel_.tickInstructions(static_cast<std::int64_t>(k));
        fr.block = code[pc].block;
        fr.ip = code[pc].ip;
    };

    // Token table indexed by DecodedInstr::op, in ir::Opcode
    // declaration order (asserted below).
    static_assert(static_cast<int>(ir::Opcode::Const) == 0);
    static_assert(static_cast<int>(ir::Opcode::Add) == 2);
    static_assert(static_cast<int>(ir::Opcode::Neg) == 12);
    static_assert(static_cast<int>(ir::Opcode::CmpEq) == 14);
    static_assert(static_cast<int>(ir::Opcode::Load) == 20);
    static_assert(static_cast<int>(ir::Opcode::Call) == 24);
    static_assert(static_cast<int>(ir::Opcode::Br) == 29);
    static_assert(static_cast<int>(ir::Opcode::CntAdd) == 32);
    static_assert(static_cast<int>(ir::Opcode::CntPop) == 35);
    static_assert(ir::kNumOpcodes == 36);
    static const void *tbl[ir::kNumOpcodes] = {
        &&L_Const, &&L_Move,
        &&L_Add, &&L_Sub, &&L_Mul, &&L_Div, &&L_Rem,
        &&L_And, &&L_Or, &&L_Xor, &&L_Shl, &&L_Shr,
        &&L_Neg, &&L_Not,
        &&L_CmpEq, &&L_CmpNe, &&L_CmpLt, &&L_CmpLe, &&L_CmpGt,
        &&L_CmpGe,
        &&L_Load, &&L_Store, &&L_Alloca, &&L_GlobalAddr,
        &&L_done /* Call */, &&L_done /* ICall */,
        &&L_FnAddr, &&L_LibCall,
        &&L_done /* Syscall */,
        &&L_Br, &&L_CondBr,
        &&L_done /* Ret */,
        &&L_CntAdd,
        &&L_done /* SyncBarrier */, &&L_done /* CntPush */,
        &&L_done /* CntPop */,
    };

    const DecodedInstr *d;
    try {
        LDX_NEXT();

        LDX_OP_LABEL(Const);
        LDX_OP_LABEL(Move);
        LDX_OP_LABEL(Neg);
        LDX_OP_LABEL(Not);
        LDX_OP_LABEL(Add);
        LDX_OP_LABEL(Sub);
        LDX_OP_LABEL(Mul);
        LDX_OP_LABEL(Div);
        LDX_OP_LABEL(Rem);
        LDX_OP_LABEL(And);
        LDX_OP_LABEL(Or);
        LDX_OP_LABEL(Xor);
        LDX_OP_LABEL(Shl);
        LDX_OP_LABEL(Shr);
        LDX_OP_LABEL(CmpEq);
        LDX_OP_LABEL(CmpNe);
        LDX_OP_LABEL(CmpLt);
        LDX_OP_LABEL(CmpLe);
        LDX_OP_LABEL(CmpGt);
        LDX_OP_LABEL(CmpGe);
        LDX_OP_LABEL(Load);
        LDX_OP_LABEL(Store);
        LDX_OP_LABEL(Alloca);
        LDX_OP_LABEL(GlobalAddr);
        LDX_OP_LABEL(FnAddr);
        LDX_OP_LABEL(LibCall);
        LDX_OP_LABEL(CntAdd);
        LDX_OP_LABEL(Br);
        LDX_OP_LABEL(CondBr);

    L_done:;
    } catch (const VmTrap &) {
        flush();
        throw;
    }
    flush();
    return k;
}

#undef LDX_NEXT
#undef LDX_OP_LABEL
#undef LDX_PROF_SITE
#undef LDX_A
#undef LDX_B
#undef LDX_SET
#undef LDX_BODY_Const
#undef LDX_BODY_Move
#undef LDX_BODY_Neg
#undef LDX_BODY_Not
#undef LDX_BODY_Add
#undef LDX_BODY_Sub
#undef LDX_BODY_Mul
#undef LDX_BODY_Div
#undef LDX_BODY_Rem
#undef LDX_BODY_And
#undef LDX_BODY_Or
#undef LDX_BODY_Xor
#undef LDX_BODY_Shl
#undef LDX_BODY_Shr
#undef LDX_BODY_CmpEq
#undef LDX_BODY_CmpNe
#undef LDX_BODY_CmpLt
#undef LDX_BODY_CmpLe
#undef LDX_BODY_CmpGt
#undef LDX_BODY_CmpGe
#undef LDX_BODY_Load
#undef LDX_BODY_Store
#undef LDX_BODY_Alloca
#undef LDX_BODY_GlobalAddr
#undef LDX_BODY_FnAddr
#undef LDX_BODY_LibCall
#undef LDX_BODY_CntAdd
#undef LDX_BODY_Br
#undef LDX_BODY_CondBr

#endif // LDX_HAS_COMPUTED_GOTO

void
Machine::doCall(Context &ctx, const ir::Instr &instr, int callee)
{
    std::vector<std::int64_t> args;
    args.reserve(instr.args.size());
    {
        // Evaluate with the caller frame still current.
        for (const ir::Operand &a : instr.args)
            args.push_back(eval(ctx, a));
    }

    Frame &caller = ctx.frames.back();
    ++caller.ip; // resume point
    if (prof_)
        ++prof_->callEdges[static_cast<std::size_t>(caller.fn) *
                               prof_->numFns +
                           static_cast<std::size_t>(callee)];

    Frame frame;
    frame.fn = callee;
    frame.block = ir::Function::entryBlockId;
    frame.ip = 0;
    frame.regs.assign(module_.function(callee).numRegs(), 0);
    for (std::size_t i = 0; i < args.size(); ++i)
        frame.regs[i] = args[i];
    frame.spAtEntry = ctx.sp;
    frame.retReg = instr.dst;

    // Push the return token onto the guest stack where a buffer
    // overflow can reach it.
    if (ctx.sp < memory_->stackFloor(ctx.tid) + 8)
        throw VmTrap(TrapKind::StackOverflow, "stack overflow at call");
    ctx.sp -= 8;
    frame.tokenAddr = ctx.sp;
    frame.token = makeToken(caller.fn, caller.block, caller.ip);
    memory_->writeI64(frame.tokenAddr, frame.token);

    ctx.frames.push_back(std::move(frame));
    if (execHook_)
        execHook_->onCall(ctx.tid, instr, callee, args, *this);
}

void
Machine::doRet(Context &ctx, const ir::Instr &instr)
{
    Frame &fr = ctx.frames.back();
    std::int64_t rv = instr.a.isNone() ? 0 : eval(ctx, instr.a);

    if (fr.tokenAddr != 0) {
        std::int64_t token = memory_->readI64(fr.tokenAddr);
        if (sinkHook_)
            sinkHook_->onRetToken(ctx.tid, fr.tokenAddr, token, fr.token,
                                  *this);
        if (token != fr.token)
            throw VmTrap(TrapKind::ControlHijack,
                         "return token corrupted (stack smash)");
    }

    ctx.sp = fr.spAtEntry;
    int ret_reg = fr.retReg;
    ctx.frames.pop_back();
    if (execHook_)
        execHook_->onRet(ctx.tid, instr, ret_reg, rv, *this);

    if (ctx.frames.empty()) {
        finishContext(ctx, rv);
        if (ctx.tid == 0)
            finishProgram(rv);
        return;
    }
    setReg(ctx, ret_reg, rv);
}

void
Machine::finishContext(Context &ctx, std::int64_t ret_val)
{
    ctx.state = Context::State::Done;
    ctx.retVal = ret_val;
    emitObsInstant(obs::RecKind::ThreadDone, "thread_done", ctx.tid);
    if (port_)
        port_->onThreadDone(ctx.tid, *this);
    for (auto &other : contexts_) {
        if (other->state == Context::State::BlockedJoin &&
            other->joinTarget == ctx.tid)
            other->state = Context::State::Runnable;
    }
}

void
Machine::finishProgram(std::int64_t code)
{
    exitCode_ = code;
    markFinished();
    if (port_)
        port_->onFinished(*this);
}

std::int64_t
Machine::doLibCall(Context &ctx, const ir::Instr &instr,
                   std::uint64_t &eff_addr)
{
    auto argv = [&](std::size_t i) -> std::int64_t {
        return i < instr.args.size() ? eval(ctx, instr.args[i]) : 0;
    };
    ir::LibRoutine r = static_cast<ir::LibRoutine>(instr.imm);
    switch (r) {
      case ir::LibRoutine::Memcpy: {
        std::uint64_t dst = static_cast<std::uint64_t>(argv(0));
        std::uint64_t src = static_cast<std::uint64_t>(argv(1));
        std::uint64_t n = static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, argv(2)));
        memory_->writeBytes(dst, memory_->readBytes(src, n));
        eff_addr = dst;
        return static_cast<std::int64_t>(dst);
      }
      case ir::LibRoutine::Memset: {
        std::uint64_t dst = static_cast<std::uint64_t>(argv(0));
        std::uint64_t n = static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, argv(2)));
        memory_->writeBytes(dst, std::string(
            static_cast<std::size_t>(n),
            static_cast<char>(argv(1) & 0xff)));
        eff_addr = dst;
        return static_cast<std::int64_t>(dst);
      }
      case ir::LibRoutine::Strlen:
        return static_cast<std::int64_t>(
            memory_->readCString(
                static_cast<std::uint64_t>(argv(0))).size());
      case ir::LibRoutine::Strcmp: {
        std::string a = memory_->readCString(
            static_cast<std::uint64_t>(argv(0)));
        std::string b = memory_->readCString(
            static_cast<std::uint64_t>(argv(1)));
        return a < b ? -1 : (a == b ? 0 : 1);
      }
      case ir::LibRoutine::Strcpy: {
        std::uint64_t dst = static_cast<std::uint64_t>(argv(0));
        std::string s = memory_->readCString(
            static_cast<std::uint64_t>(argv(1)));
        memory_->writeBytes(dst, s + '\0');
        eff_addr = dst;
        return static_cast<std::int64_t>(dst);
      }
      case ir::LibRoutine::Strcat: {
        std::uint64_t dst = static_cast<std::uint64_t>(argv(0));
        std::string head = memory_->readCString(dst);
        std::string tail = memory_->readCString(
            static_cast<std::uint64_t>(argv(1)));
        memory_->writeBytes(dst + head.size(), tail + '\0');
        eff_addr = dst;
        return static_cast<std::int64_t>(dst);
      }
      case ir::LibRoutine::Atoi: {
        std::string s = memory_->readCString(
            static_cast<std::uint64_t>(argv(0)));
        std::int64_t v = 0;
        std::size_t i = 0;
        bool neg = false;
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t'))
            ++i;
        if (i < s.size() && (s[i] == '-' || s[i] == '+')) {
            neg = s[i] == '-';
            ++i;
        }
        for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i)
            v = v * 10 + (s[i] - '0');
        return neg ? -v : v;
      }
      case ir::LibRoutine::Itoa: {
        std::uint64_t buf = static_cast<std::uint64_t>(argv(1));
        memory_->writeBytes(buf, std::to_string(argv(0)) + '\0');
        eff_addr = buf;
        return static_cast<std::int64_t>(buf);
      }
      case ir::LibRoutine::Malloc: {
        std::int64_t n = argv(0);
        if (sinkHook_)
            sinkHook_->onAllocSize(ctx.tid, n, *this);
        if (n < 0 || n > (1LL << 31))
            throw VmTrap(TrapKind::MemoryFault,
                         "malloc size out of range");
        std::uint64_t p =
            memory_->heapAlloc(static_cast<std::uint64_t>(n));
        eff_addr = p;
        return static_cast<std::int64_t>(p);
      }
      case ir::LibRoutine::Free:
        return 0;
    }
    panic("unknown library routine");
}

bool
Machine::doSyscall(Context &ctx, const ir::Instr &instr)
{
    Frame &fr = ctx.frames.back();
    if (!os::isValidSys(instr.imm))
        throw VmTrap(TrapKind::BadSyscall,
                     "invalid syscall number " + std::to_string(instr.imm));

    // The syscall's decoded site, for stall polls while blocked and
    // cost attribution once it completes.
    std::size_t prof_fn = 0;
    std::uint32_t prof_off = 0;
    if (prof_) {
        prof_fn = static_cast<std::size_t>(fr.fn);
        prof_off = decoded_->function(fr.fn).blockStart(fr.block) +
                   static_cast<std::uint32_t>(fr.ip);
    }

    SyscallRequest req;
    req.tid = ctx.tid;
    req.sysNo = instr.imm;
    req.args.reserve(instr.args.size());
    for (const ir::Operand &a : instr.args)
        req.args.push_back(eval(ctx, a));
    req.site = instr.site;
    req.cnt = ctx.cnt;
    req.loc = instr.loc;

    const os::SysDesc &desc = os::sysDesc(instr.imm);
    bool local_class = desc.klass == os::SysClass::Local ||
                       desc.klass == os::SysClass::Sync;

    os::Outcome out;
    if (!ctx.portApproved) {
        // Sample the dynamic counter at syscall issue (Table 1 stats).
        ctx.cntSum += static_cast<double>(ctx.cnt);
        ++ctx.cntSamples;
        ctx.maxCnt = std::max(ctx.maxCnt, ctx.cnt);

        if (port_) {
            PortReply reply = port_->onSyscall(req, *this, out);
            if (reply == PortReply::Blocked) {
                if (prof_)
                    ++prof_->stallPolls[prof_fn][prof_off];
                ctx.state = Context::State::BlockedPort;
                return false;
            }
        } else if (!local_class) {
            out = kernel_.execute(req.sysNo, req.args, *memory_);
        }
        ctx.portApproved = true;
        ctx.state = Context::State::Runnable;
    }

    if (local_class) {
        if (!doLocalSyscall(ctx, instr, req, out))
            return false;
        if (finished())
            return true;
    }

    ctx.portApproved = false;
    ++totalSyscalls_;
    ++ctx.instrCount;
    ++totalInstrs_;
    ++opCounts_[static_cast<std::size_t>(ir::Opcode::Syscall)];
    kernel_.tickInstructions(1);
    profilePair(ctx, ir::Opcode::Syscall);
    if (prof_) {
        ++prof_->retired[prof_fn][prof_off];
        ++prof_->syscalls[prof_fn][prof_off];
        prof_->sysTicks[prof_fn][prof_off] += static_cast<std::uint64_t>(
            os::virtualSyscallCost(req.sysNo, out));
    }
    if (out.exited) {
        finishProgram(req.args.empty() ? 0 : req.args[0]);
        return true;
    }
    setReg(ctx, instr.dst, out.ret);
    ++fr.ip;
    if (execHook_)
        execHook_->onSyscall(req, out, *this);
    return true;
}

bool
Machine::doLocalSyscall(Context &ctx, const ir::Instr &instr,
                        const SyscallRequest &req, os::Outcome &out)
{
    (void)instr;
    os::Sys sys = static_cast<os::Sys>(req.sysNo);
    auto a = [&](std::size_t i) -> std::int64_t {
        return i < req.args.size() ? req.args[i] : 0;
    };
    switch (sys) {
      case os::Sys::Exit:
        kernel_.execute(req.sysNo, req.args, *memory_);
        out.ret = a(0);
        out.exited = true;
        return true;
      case os::Sys::ThreadCreate: {
        std::int64_t token = a(0);
        int callee = static_cast<int>(token - kFnTokenBase);
        if (token < kFnTokenBase || callee < 0 ||
            callee >= static_cast<int>(module_.numFunctions()))
            throw VmTrap(TrapKind::BadIndirectCall,
                         "thread_create with bad function pointer");
        Context &child = newContext(callee, {a(1)});
        out.ret = child.tid;
        return true;
      }
      case os::Sys::ThreadJoin: {
        std::int64_t t = a(0);
        if (t < 0 || t >= static_cast<std::int64_t>(contexts_.size()) ||
            t == ctx.tid) {
            out.ret = -1;
            return true;
        }
        Context &target = *contexts_[static_cast<std::size_t>(t)];
        if (target.state == Context::State::Done) {
            out.ret = target.retVal;
            ctx.joinTarget = -1;
            return true;
        }
        ctx.joinTarget = t;
        ctx.state = Context::State::BlockedJoin;
        return false;
      }
      case os::Sys::Yield:
        sliceLeft_ = 0;
        out.ret = 0;
        return true;
      case os::Sys::MutexLock: {
        std::int64_t id = a(0);
        auto it = mutexOwner_.find(id);
        std::int64_t owner = it == mutexOwner_.end() ? -1 : it->second;
        if (owner == -1) {
            mutexOwner_[id] = ctx.tid;
            out.ret = 0;
            return true;
        }
        if (owner == ctx.tid) {
            if (ctx.mutexWait == id) {
                // Ownership was transferred to us at unlock.
                ctx.mutexWait = -1;
                out.ret = 0;
                return true;
            }
            out.ret = -1; // recursive lock
            return true;
        }
        auto &waiters = mutexWaiters_[id];
        if (std::find(waiters.begin(), waiters.end(), ctx.tid) ==
            waiters.end())
            waiters.push_back(ctx.tid);
        ctx.mutexWait = id;
        ctx.state = Context::State::BlockedMutex;
        return false;
      }
      case os::Sys::MutexUnlock: {
        std::int64_t id = a(0);
        auto it = mutexOwner_.find(id);
        if (it == mutexOwner_.end() || it->second != ctx.tid) {
            out.ret = -1;
            return true;
        }
        auto &waiters = mutexWaiters_[id];
        if (waiters.empty()) {
            it->second = -1;
        } else {
            int next = waiters.front();
            waiters.erase(waiters.begin());
            it->second = next;
            contexts_[static_cast<std::size_t>(next)]->state =
                Context::State::Runnable;
        }
        out.ret = 0;
        return true;
      }
      default:
        panic("doLocalSyscall on non-local syscall");
    }
}

MachineStats
Machine::stats() const
{
    MachineStats s;
    s.instructions = totalInstrs_;
    s.syscalls = totalSyscalls_;
    s.barriers = totalBarriers_;
    auto op = [&](ir::Opcode o) {
        return opCounts_[static_cast<std::size_t>(o)];
    };
    s.mixData = op(ir::Opcode::Const) + op(ir::Opcode::Move);
    s.mixAlu = op(ir::Opcode::Add) + op(ir::Opcode::Sub) +
               op(ir::Opcode::Mul) + op(ir::Opcode::Div) +
               op(ir::Opcode::Rem) + op(ir::Opcode::And) +
               op(ir::Opcode::Or) + op(ir::Opcode::Xor) +
               op(ir::Opcode::Shl) + op(ir::Opcode::Shr) +
               op(ir::Opcode::Neg) + op(ir::Opcode::Not) +
               op(ir::Opcode::CmpEq) + op(ir::Opcode::CmpNe) +
               op(ir::Opcode::CmpLt) + op(ir::Opcode::CmpLe) +
               op(ir::Opcode::CmpGt) + op(ir::Opcode::CmpGe);
    s.mixMem = op(ir::Opcode::Load) + op(ir::Opcode::Store) +
               op(ir::Opcode::Alloca) + op(ir::Opcode::GlobalAddr);
    s.mixCall = op(ir::Opcode::Call) + op(ir::Opcode::ICall) +
                op(ir::Opcode::FnAddr) + op(ir::Opcode::LibCall) +
                op(ir::Opcode::Ret);
    s.mixBranch = op(ir::Opcode::Br) + op(ir::Opcode::CondBr);
    s.mixSyscall = op(ir::Opcode::Syscall);
    s.mixCounter = op(ir::Opcode::CntAdd) + op(ir::Opcode::SyncBarrier) +
                   op(ir::Opcode::CntPush) + op(ir::Opcode::CntPop);
    double sum = 0.0;
    std::uint64_t samples = 0;
    for (const auto &ctx : contexts_) {
        s.maxCnt = std::max(s.maxCnt, ctx->maxCnt);
        s.maxCntDepth = std::max(s.maxCntDepth, ctx->maxCntDepth);
        sum += ctx->cntSum;
        samples += ctx->cntSamples;
    }
    s.avgCnt = samples ? sum / static_cast<double>(samples) : 0.0;
    return s;
}

} // namespace ldx::vm
