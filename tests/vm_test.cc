/**
 * @file
 * VM-layer tests: guest memory semantics, stack/heap layout, traps,
 * the return-token mechanism, thread scheduling, mutexes, and IR
 * infrastructure (builder, printer, verifier).
 */
#include <gtest/gtest.h>

#include <sstream>

#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "lang/compiler.h"
#include "support/diag.h"
#include "testutil.h"
#include "vm/memory.h"

namespace ldx {
namespace {

using test::runProgram;

// ------------------------------------------------------------ memory

TEST(MemoryTest, ReadWriteRoundTrip)
{
    vm::Memory mem(64, 1 << 12, 2, 0);
    mem.writeI64(vm::Memory::kGlobalsBase, 0x1122334455667788LL);
    EXPECT_EQ(mem.readI64(vm::Memory::kGlobalsBase),
              0x1122334455667788LL);
    EXPECT_EQ(mem.readU8(vm::Memory::kGlobalsBase), 0x88); // little end
}

TEST(MemoryTest, OutOfRangeTraps)
{
    vm::Memory mem(16, 1 << 12, 1, 0);
    EXPECT_THROW(mem.readU8(vm::Memory::kGlobalsBase + 16), vm::VmTrap);
    EXPECT_THROW(mem.readU8(0), vm::VmTrap);
    EXPECT_THROW(mem.readU8(vm::Memory::kHeapBase), vm::VmTrap);
}

TEST(MemoryTest, HeapAllocAlignedAndJittered)
{
    vm::Memory a(16, 1 << 12, 1, 0);
    vm::Memory b(16, 1 << 12, 1, 64);
    std::uint64_t pa = a.heapAlloc(3);
    std::uint64_t pb = b.heapAlloc(3);
    EXPECT_EQ(pa % 8, 0u);
    EXPECT_EQ(pb - pa, 64u);
    std::uint64_t pa2 = a.heapAlloc(1);
    EXPECT_EQ(pa2 - pa, 8u); // 3 rounded up to 8
    a.writeU8(pa2, 0xab);
    EXPECT_EQ(a.readU8(pa2), 0xab);
}

TEST(MemoryTest, PerThreadStacks)
{
    vm::Memory mem(16, 0x100, 3, 0);
    EXPECT_EQ(mem.stackTop(0) - mem.stackFloor(0), 0x100u);
    EXPECT_EQ(mem.stackFloor(1), mem.stackTop(0));
    EXPECT_EQ(mem.stackFloor(2), mem.stackTop(1));
}

TEST(MemoryTest, CStringBounded)
{
    vm::Memory mem(32, 1 << 12, 1, 0);
    mem.writeBytes(vm::Memory::kGlobalsBase, std::string("hey\0!", 5));
    EXPECT_EQ(mem.readCString(vm::Memory::kGlobalsBase), "hey");
    EXPECT_EQ(mem.readCString(vm::Memory::kGlobalsBase, 2), "he");
}

/** The message of the trap @p fn throws ("" when it does not trap). */
template <typename Fn>
std::string
trapMessage(Fn fn)
{
    try {
        fn();
    } catch (const vm::VmTrap &trap) {
        EXPECT_EQ(trap.kind(), vm::TrapKind::MemoryFault);
        return trap.what();
    }
    return "";
}

TEST(MemoryTest, WordAtTheLastEightBytesOfEverySegment)
{
    vm::Memory mem(64, 1 << 12, 2, 0);
    std::uint64_t heap = mem.heapAlloc(32);
    const std::uint64_t ends[] = {vm::Memory::kGlobalsBase + 64 - 8,
                                  mem.stackTop(0) - 8, mem.stackTop(1) - 8,
                                  heap + 32 - 8};
    std::int64_t v = 0x0102030405060708LL;
    for (std::uint64_t addr : ends) {
        mem.writeI64(addr, v);
        EXPECT_EQ(mem.readI64(addr), v);
        EXPECT_EQ(mem.readU8(addr), v & 0xff); // low byte first
        EXPECT_EQ(mem.readU8(addr + 7), 0x01);
        v += 0x10;
    }
}

TEST(MemoryTest, StraddlingWordWriteTrapsAfterItsLowBytes)
{
    vm::Memory mem(16, 1 << 12, 1, 0);
    std::uint64_t addr = vm::Memory::kGlobalsBase + 12;
    EXPECT_EQ(
        trapMessage([&] { mem.writeI64(addr, 0x1122334455667788LL); }),
        "bad address 0x10010");
    // The four bytes inside globals were written before the fault.
    EXPECT_EQ(mem.readBytes(addr, 4), "\x88\x77\x66\x55");
}

TEST(MemoryTest, StraddlingWordReadTrapNamesTheHighestBadByte)
{
    vm::Memory mem(16, 1 << 12, 1, 0);
    // Past the end of globals: bytes are read highest first.
    EXPECT_EQ(trapMessage(
                  [&] { mem.readI64(vm::Memory::kGlobalsBase + 12); }),
              "bad address 0x10013");
    // Below the start of the heap.
    std::uint64_t heap = mem.heapAlloc(16);
    EXPECT_EQ(trapMessage([&] { mem.readI64(heap - 4); }),
              "bad address 0x3fffffff");
    // Past the end of the last stack slot.
    EXPECT_EQ(trapMessage([&] { mem.readI64(mem.stackTop(0) - 2); }),
              "bad address 0x1001005");
}

TEST(MemoryTest, UntouchedStackSlotsReadZero)
{
    vm::Memory mem(16, 1 << 16, 16, 0);
    EXPECT_EQ(mem.readI64(mem.stackTop(15) - 8), 0);
    EXPECT_EQ(mem.readU8(mem.stackFloor(7)), 0);
    EXPECT_THROW(mem.readU8(mem.stackTop(15)), vm::VmTrap);
}

TEST(MemoryTest, RestoreDropsStackSlotsBackedAfterTheSnapshot)
{
    vm::Memory mem(16, 1 << 12, 4, 0);
    mem.writeI64(mem.stackTop(0) - 8, 7);
    auto image = mem.snapshot();
    EXPECT_EQ(image->stacks.size(), mem.stackSize()); // one slot backed

    mem.writeI64(mem.stackTop(3) - 8, 9);
    mem.writeI64(mem.stackTop(0) - 8, 8);
    mem.restore(*image);
    EXPECT_EQ(mem.readI64(mem.stackTop(3) - 8), 0);
    EXPECT_EQ(mem.readI64(mem.stackTop(0) - 8), 7);
}

TEST(MemoryTest, WordSpanningTwoStackSlots)
{
    vm::Memory mem(16, 1 << 12, 2, 0);
    std::uint64_t addr = mem.stackTop(0) - 4;
    mem.writeI64(addr, 0x1122334455667788LL);
    EXPECT_EQ(mem.readI64(addr), 0x1122334455667788LL);
    EXPECT_EQ(mem.readU8(mem.stackFloor(1)), 0x44);
}

// ----------------------------------------------------------- machine

TEST(MachineTest, StackOverflowTraps)
{
    auto r = runProgram(
        "int deep(int n) { int pad[64]; pad[0] = n;"
        "  return deep(n + pad[0]); }"
        "int main() { return deep(1); }");
    EXPECT_EQ(r.status, vm::StepStatus::Trapped);
    EXPECT_NE(r.trapMessage.find("stack overflow"), std::string::npos);
}

TEST(MachineTest, InstructionBudgetTraps)
{
    vm::MachineConfig cfg;
    cfg.maxInstructions = 1000;
    auto r = runProgram("int main() { while (1) { } return 0; }", {},
                        cfg);
    EXPECT_EQ(r.status, vm::StepStatus::Trapped);
}

TEST(MachineTest, BadIndirectCallTraps)
{
    auto r = runProgram(
        "int main() { fn f = 12345; return f(1); }");
    // The assignment stores a non-token value into the fn variable.
    EXPECT_EQ(r.status, vm::StepStatus::Trapped);
}

TEST(MachineTest, GuestMutexProtectsCounter)
{
    auto r = runProgram(R"(
int counter;
int work(int id) {
    for (int i = 0; i < 50; i = i + 1) {
        lock(7);
        counter = counter + 1;
        unlock(7);
    }
    return id;
}
int main() {
    int t1 = spawn(&work, 1);
    int t2 = spawn(&work, 2);
    work(0);
    join(t1);
    join(t2);
    return counter;
}
)");
    EXPECT_EQ(r.exitCode, 150);
}

TEST(MachineTest, JoinReturnsThreadValue)
{
    auto r = runProgram(R"(
int worker(int x) { return x * 3; }
int main() {
    int t = spawn(&worker, 14);
    return join(t);
}
)");
    EXPECT_EQ(r.exitCode, 42);
}

TEST(MachineTest, UnlockWithoutOwnershipFails)
{
    auto r = runProgram(
        "int main() { return unlock(3); }");
    EXPECT_EQ(r.exitCode, -1);
}

TEST(MachineTest, SchedulerJitterPreservesLockedResults)
{
    const char *src = R"(
int total;
int work(int id) {
    for (int i = 0; i < 30; i = i + 1) {
        lock(1);
        total = total + id;
        unlock(1);
        yield();
    }
    return 0;
}
int main() {
    int t1 = spawn(&work, 1);
    int t2 = spawn(&work, 2);
    join(t1);
    join(t2);
    return total;
}
)";
    for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
        vm::MachineConfig cfg;
        cfg.schedJitter = true;
        cfg.schedSeed = seed;
        auto r = runProgram(src, {}, cfg);
        EXPECT_EQ(r.exitCode, 90) << "seed " << seed;
    }
}

TEST(MachineTest, GlobalsInitialized)
{
    auto r = runProgram(
        "int g = 1234; char s[] = \"hi\";"
        "int main() { return g + s[0]; }");
    EXPECT_EQ(r.exitCode, 1234 + 'h');
}

// ------------------------------------------------------- ir plumbing

TEST(IrTest, BuilderProducesVerifiableFunction)
{
    ir::Module m;
    ir::Function &fn = m.addFunction("main", 0);
    fn.newBlock();
    ir::IRBuilder b(fn);
    int x = b.emitConst(40);
    int y = b.emitBinary(ir::Opcode::Add, ir::IRBuilder::reg(x),
                         ir::IRBuilder::imm(2));
    b.emitRet(ir::IRBuilder::reg(y));
    EXPECT_TRUE(ir::verifyModule(m).empty());

    os::Kernel kernel({});
    vm::Machine machine(m, kernel, {});
    EXPECT_EQ(machine.run(), vm::StepStatus::Finished);
    EXPECT_EQ(machine.exitCode(), 42);
}

TEST(IrTest, VerifierCatchesMissingTerminator)
{
    ir::Module m;
    ir::Function &fn = m.addFunction("main", 0);
    fn.newBlock();
    ir::IRBuilder b(fn);
    b.emitConst(1); // no terminator
    auto problems = ir::verifyModule(m);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("terminator"), std::string::npos);
}

TEST(IrTest, VerifierCatchesBadTargets)
{
    ir::Module m;
    ir::Function &fn = m.addFunction("main", 0);
    fn.newBlock();
    ir::IRBuilder b(fn);
    b.emitBr(7); // no such block
    EXPECT_FALSE(ir::verifyModule(m).empty());
}

TEST(IrTest, VerifierRequiresMain)
{
    ir::Module m;
    ir::Function &fn = m.addFunction("not_main", 0);
    fn.newBlock();
    ir::IRBuilder b(fn);
    b.emitRet();
    EXPECT_FALSE(ir::verifyModule(m, true).empty());
    EXPECT_TRUE(ir::verifyModule(m, false).empty());
}

TEST(IrTest, PrinterRendersCoreOpcodes)
{
    auto module = lang::compileSource(
        "int main() { int x = time(); "
        "  if (x > 0) { print(\"a\", 1); } return x; }");
    std::string text = ir::moduleToString(*module);
    EXPECT_NE(text.find("syscall"), std::string::npos);
    EXPECT_NE(text.find("condbr"), std::string::npos);
    EXPECT_NE(text.find("ret"), std::string::npos);
    EXPECT_NE(text.find("func @main"), std::string::npos);
}

TEST(IrTest, DuplicateFunctionRejected)
{
    ir::Module m;
    m.addFunction("f", 0);
    EXPECT_THROW(m.addFunction("f", 1), FatalError);
}

TEST(IrTest, GlobalLookup)
{
    ir::Module m;
    int id = m.addGlobal("g", 16, "abc");
    EXPECT_EQ(m.findGlobal("g"), id);
    EXPECT_EQ(m.findGlobal("h"), -1);
    EXPECT_THROW(m.addGlobal("g", 8), FatalError);
}

} // namespace
} // namespace ldx
