/**
 * @file
 * The stall-exactness wall for the lockstep driver's idle-round
 * fast-forward. Each case (tests/stall_golden.h) spends almost all of
 * its rounds in frozen mutual waits. Its rendering — every registry
 * counter, the recorder streams, the findings, the stall profiles —
 * must equal tests/data/stall_goldens.txt, which was written by a
 * build that spun through every one of those rounds. The
 * fast-forward must also actually engage: at most a few real idle
 * rounds per expiry, the rest booked as skipped.
 */
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "stall_golden.h"

namespace ldx {
namespace {

using test::stall::runStallCase;
using test::stall::stallCase;
using test::stall::stallCaseNames;

/** The golden block of case @p name ("case <name>" through "end"). */
std::string
goldenBlock(const std::string &name)
{
    std::ifstream in(std::string(LDX_TEST_DATA_DIR) +
                     "/stall_goldens.txt");
    std::string line, block;
    bool inside = false;
    while (std::getline(in, line)) {
        if (line == "case " + name)
            inside = true;
        if (!inside)
            continue;
        block += line + "\n";
        if (line == "end")
            break;
    }
    return block;
}

/** First differing line of two renderings ("" when equal). */
std::string
firstDiff(const std::string &got, const std::string &want)
{
    std::istringstream g(got), w(want);
    std::string gl, wl;
    for (int n = 1;; ++n) {
        bool more_g = static_cast<bool>(std::getline(g, gl));
        bool more_w = static_cast<bool>(std::getline(w, wl));
        if (!more_g && !more_w)
            return "";
        if (!more_g || !more_w || gl != wl)
            return "line " + std::to_string(n) + ": got '" +
                   (more_g ? gl : "<eof>") + "', want '" +
                   (more_w ? wl : "<eof>") + "'";
    }
}

class StallGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(StallGolden, FastForwardMatchesSpinningRun)
{
    std::string want = goldenBlock(GetParam());
    ASSERT_FALSE(want.empty()) << "no golden for " << GetParam();

    core::DualResult r;
    std::string got = runStallCase(stallCase(GetParam()), &r);
    EXPECT_EQ(firstDiff(got, want), "");

    // Counts, not timings: every expiry (watchdog or lock-poll) costs
    // a handful of real idle rounds; the rest were fast-forwarded.
    // A jittered scheduler never repeats a round, so nothing is.
    std::uint64_t idle = r.metrics.counterOr("driver.idle_rounds");
    std::uint64_t skipped =
        r.metrics.counterOr("driver.idle_rounds_skipped");
    std::uint64_t expiries = r.metrics.counterOr("watchdog.expired") +
                             r.metrics.counterOr("lock.order_diverged");
    if (GetParam().ends_with("_jitter")) {
        EXPECT_EQ(skipped, 0u);
        return;
    }
    EXPECT_GT(skipped, 0u);
    ASSERT_LE(skipped, idle);
    EXPECT_LE(idle - skipped, 4 * expiries);
}

INSTANTIATE_TEST_SUITE_P(
    Lockstep, StallGolden, ::testing::ValuesIn(stallCaseNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace ldx
