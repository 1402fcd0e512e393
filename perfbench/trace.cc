#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <numeric>

#include "bench.h"
#include "ldx/report.h"
#include "obs/registry.h"

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

/** nowNs() - obs::nowUs() * 1000, fixed on first use. */
std::int64_t
obsOffsetNs()
{
    static const std::int64_t offset = [] {
        std::int64_t us = ldx::obs::nowUs();
        return nowNs() - us * 1000;
    }();
    return offset;
}

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

std::int64_t
obsUsToNs(std::int64_t us)
{
    return us * 1000 + obsOffsetNs();
}

void
Tracer::beginOp(std::uint64_t op)
{
    op_ = op;
    obsOffsetNs();
}

int
Tracer::open(const std::string &name)
{
    int parent = stack_.empty() ? -1 : stack_.back();
    int id = static_cast<int>(spans_.size());
    spans_.push_back({op_, id, parent, name, nowNs(), 0});
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

int
Tracer::attach(const std::string &name, std::int64_t start_ns,
               std::int64_t end_ns, int parent)
{
    if (parent == -2)
        parent = stack_.empty() ? -1 : stack_.back();
    int id = static_cast<int>(spans_.size());
    spans_.push_back({op_, id, parent, name, start_ns, end_ns});
    return id;
}

std::vector<int>
Tracer::attachPhases(const std::vector<ldx::obs::PhaseSample> &phases,
                     int parent)
{
    std::vector<int> ids(phases.size(), -1);
    std::vector<const ldx::obs::PhaseSample *> order;
    for (const ldx::obs::PhaseSample &p : phases)
        order.push_back(&p);
    std::stable_sort(order.begin(), order.end(),
                     [](const auto *a, const auto *b) {
                         if (a->startUs != b->startUs)
                             return a->startUs < b->startUs;
                         return a->depth < b->depth;
                     });
    std::vector<std::pair<int, int>> open; // (depth, span id)
    for (const ldx::obs::PhaseSample *p : order) {
        while (!open.empty() && open.back().first >= p->depth)
            open.pop_back();
        std::int64_t start = obsUsToNs(p->startUs);
        std::int64_t end =
            start + static_cast<std::int64_t>(p->seconds * 1e9);
        int id = attach(p->name, start, end,
                        open.empty() ? parent : open.back().second);
        open.emplace_back(p->depth, id);
        ids[static_cast<std::size_t>(p - phases.data())] = id;
    }
    return ids;
}

std::vector<double>
Tracer::selfSeconds() const
{
    std::vector<std::vector<int>> children(spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(s.id);
    std::vector<double> self(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (int c : children[static_cast<std::size_t>(s.id)]) {
            const Span &k = spans_[static_cast<std::size_t>(c)];
            std::int64_t a = std::max(k.startNs, s.startNs);
            std::int64_t b = std::min(k.endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, cur_a = 0, cur_b = 0;
        bool have = false;
        for (const auto &[a, b] : iv) {
            if (have && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (have)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            have = true;
        }
        if (have)
            covered += cur_b - cur_a;
        self[static_cast<std::size_t>(s.id)] =
            static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
    }
    return self;
}

double
Tracer::selfTotal(const std::string &name) const
{
    std::vector<double> self = selfSeconds();
    double total = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            total += self[static_cast<std::size_t>(s.id)];
    return total;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-9);
    return out;
}

double
Tracer::maxSelfSumError(const std::string &root) const
{
    std::vector<double> self = selfSeconds();
    std::vector<int> rootOf(spans_.size(), -1);
    std::vector<double> sum(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        std::size_t i = static_cast<std::size_t>(s.id);
        rootOf[i] = s.parent < 0
                        ? s.id
                        : rootOf[static_cast<std::size_t>(s.parent)];
        sum[static_cast<std::size_t>(rootOf[i])] += self[i];
    }
    double worst = 0.0;
    for (const Span &s : spans_) {
        if (s.parent >= 0 || s.name != root)
            continue;
        double dur = static_cast<double>(s.endNs - s.startNs) * 1e-9;
        if (dur > 0)
            worst = std::max(
                worst,
                std::fabs(sum[static_cast<std::size_t>(s.id)] - dur) / dur);
    }
    return worst;
}

void
Tracer::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    std::vector<double> self = selfSeconds();
    for (const Span &s : spans_) {
        out << "{\"op\":" << s.op << ",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
            << "\",\"start_us\":" << static_cast<double>(s.startNs) / 1e3
            << ",\"dur_us\":"
            << static_cast<double>(s.endNs - s.startNs) / 1e3
            << ",\"self_us\":"
            << self[static_cast<std::size_t>(s.id)] * 1e6 << "}\n";
    }
}

namespace {

/** Sum of the samples of histogram @p name in @p m (0 when absent). */
double
histogramSum(const ldx::obs::MetricsSnapshot &m, const std::string &name)
{
    for (const ldx::obs::HistogramSnapshot &h : m.histograms)
        if (h.name == name)
            return h.sum;
    return 0.0;
}

} // namespace

void
DualTally::add(const ldx::core::DualResult &res, double run_seconds)
{
    instrs += res.masterStats.instructions + res.slaveStats.instructions;
    syscalls += res.masterStats.syscalls + res.slaveStats.syscalls;
    aligned += res.metrics.counterOr("dual.syscalls.aligned");
    diffs += res.metrics.counterOr("dual.syscalls.diff");
    decouples += res.metrics.counterOr("dual.align.decouples");
    waitPolls += static_cast<std::uint64_t>(
        histogramSum(res.metrics, "chan.wait_polls"));
    std::uint64_t idle = res.metrics.counterOr("driver.idle_rounds");
    idleRounds += idle;
    if (idle)
        stalledSeconds += run_seconds;
    for (const ldx::obs::PhaseSample &p : res.phases)
        if (p.name == "dual-run")
            dualRunSeconds += p.seconds;
}

void
DualTally::emit(MetricMap &out) const
{
    auto count = [&](const char *name, std::uint64_t v) {
        out[name] = {static_cast<double>(v), "count"};
    };
    out["vm.dual_minstr_per_s"] = {
        static_cast<double>(instrs) / dualRunSeconds / 1e6, "Minstr/s"};
    count("vm.retired_instrs", instrs);
    count("os.syscalls", syscalls);
    count("ldx.coupling.aligned_syscalls", aligned);
    count("ldx.coupling.syscall_diffs", diffs);
    count("ldx.coupling.decouples", decouples);
    count("ldx.coupling.wait_polls", waitPolls);
    count("ldx.driver.idle_rounds", idleRounds);
    out["ldx.driver.stalled_query_ms"] = {stalledSeconds * 1e3, "ms"};
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

double
tailPercentile(std::size_t samples)
{
    double best = 50.0;
    for (double p : {75.0, 90.0, 95.0, 99.0, 99.9})
        if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0)
            best = p;
    return best;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

} // namespace perfbench
