/**
 * @file
 * Writes tests/data/stall_goldens.txt: the canonical rendering of
 * every stall-exactness case (tests/stall_golden.h), in case order.
 *
 *     build/tests/stall_golden_gen > tests/data/stall_goldens.txt
 *
 * The checked-in goldens were written by a build that spins through
 * every idle lockstep round, so they pin what the idle-round
 * fast-forward must reproduce; regenerate them only for an intended
 * change of behaviour.
 */
#include <iostream>

#include "stall_golden.h"

int
main()
{
    using namespace ldx::test::stall;
    for (const std::string &name : stallCaseNames())
        std::cout << runStallCase(stallCase(name));
    return 0;
}
