/**
 * @file
 * ldxbench — the benchmark binary. One process runs one
 * workload:
 *
 *   ldxbench --workload NAME --seed N --seconds S [--trace 0|1]
 *            [--corpus-dir DIR] [--run-dir DIR] [--trace-out FILE]
 *
 * It sets the workload up (several times; setup_s is the median),
 * runs one untimed warm-up pass, then the timed closed loop over the
 * fixed op list, and prints one JSON object on stdout. With --trace 1
 * it then sets up again and repeats the op list with spans recorded,
 * adding the per-layer section. perfbench/run.py builds this binary
 * and turns its output into the benchmark's result line.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

#include "bench.h"
#include "obs/json.h"

namespace perfbench {
namespace {

/** Set-up repetitions; setup_s reports their median. */
constexpr int kSetupReps = 5;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "ldxbench: " << why
              << "\nusage: ldxbench --workload dual-lockstep|campaign-cold|"
                 "serve-mixed --seed N --seconds S [--trace 0|1] "
                 "[--corpus-dir DIR] [--run-dir DIR] [--trace-out FILE]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string val = argv[++i];
        if (arg == "--workload")
            opt.workload = val;
        else if (arg == "--seed")
            opt.seed = std::stoull(val);
        else if (arg == "--seconds")
            opt.seconds = std::stoi(val);
        else if (arg == "--trace")
            opt.trace = val == "1";
        else if (arg == "--corpus-dir")
            opt.corpusDir = val;
        else if (arg == "--run-dir")
            opt.runDir = val;
        else if (arg == "--trace-out")
            opt.traceOut = val;
        else
            usage("unknown option " + arg);
    }
    if (opt.seconds < 1)
        usage("--seconds must be >= 1");
    return opt;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 1469598103934665603ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

void
writeMetrics(std::ostream &os, const MetricMap &m)
{
    os << "{";
    bool first = true;
    for (const auto &[name, metric] : m) {
        os << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
           << num(metric.value) << ",\"unit\":\"" << metric.unit << "\"}";
        first = false;
    }
    os << "}";
}

/** Latencies and counts of one pass over the op list. */
struct Pass
{
    double wallSeconds = 0.0;
    std::vector<double> latency;       ///< +inf for failed ops
    std::vector<double> firstVerdict;  ///< ops that delivered one
    std::uint64_t verdicts = 0;
    std::uint64_t failed = 0;
    std::uint64_t queriesPlanned = 0;
    std::uint64_t dualExecutions = 0;
    std::uint64_t retiredInstrs = 0;
    std::vector<std::string> errors;
};

Pass
runPass(Workload &wl, Tracer *tr)
{
    Pass pass;
    const std::size_t n = wl.opLabels().size();
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        if (tr)
            tr->beginOp(i);
        Clock::time_point ti = Clock::now();
        OpResult r;
        {
            SpanGuard op(tr, "op");
            r = wl.runOp(i, tr);
        }
        double dt = secondsSince(ti);
        pass.verdicts += r.verdicts;
        pass.queriesPlanned += r.queriesPlanned;
        pass.dualExecutions += r.dualExecutions;
        pass.retiredInstrs += r.retiredInstrs;
        if (r.ok) {
            pass.latency.push_back(dt);
            if (r.firstVerdictSeconds >= 0)
                pass.firstVerdict.push_back(r.firstVerdictSeconds);
        } else {
            // A failed op misses every latency limit.
            pass.latency.push_back(
                std::numeric_limits<double>::infinity());
            ++pass.failed;
            if (pass.errors.size() < 5)
                pass.errors.push_back(wl.opLabels()[i] + ": " + r.error);
        }
    }
    pass.wallSeconds = secondsSince(t0);
    return pass;
}

/** Label of the op whose latency sits at percentile @p p. */
std::string
labelAt(const Pass &pass, const std::vector<std::string> &labels,
        double p)
{
    std::vector<std::size_t> idx(pass.latency.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [&](auto a, auto b) {
        return pass.latency[a] < pass.latency[b];
    });
    double rank = std::ceil(p / 100.0 * static_cast<double>(idx.size()));
    std::size_t k = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return idx.empty() ? "" : labels[idx[std::min(k, idx.size() - 1)]];
}

int
run(const Options &opt, Clock::time_point process_start)
{
    std::unique_ptr<Workload> wl;
    if (opt.workload == "dual-lockstep")
        wl = makeDualWorkload(opt);
    else if (opt.workload == "campaign-cold")
        wl = makeCampaignWorkload(opt);
    else if (opt.workload == "serve-mixed")
        wl = makeServeWorkload(opt);
    else
        usage("unknown workload '" + opt.workload + "'");

    // Set-up: front end, worlds, daemon, warm set, and one untimed
    // warm-up pass. The first repetition starts at process start.
    std::vector<double> setup_times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rep > 0)
            wl->teardown();
        Clock::time_point t0 = rep == 0 ? process_start : Clock::now();
        wl->setup();
        std::string error = wl->warmup();
        if (!error.empty()) {
            std::cerr << "ldxbench: warm-up failed: " << error << "\n";
            wl->teardown();
            return 1;
        }
        setup_times.push_back(secondsSince(t0));
    }

    const std::vector<std::string> &labels = wl->opLabels();
    Pass timed = runPass(*wl, nullptr);
    const std::size_t n = labels.size();
    const double tail_p = tailPercentile(n);

    MetricMap e2e;
    e2e["setup_s"] = {median(setup_times), "s"};
    e2e["ops_per_s"] = {static_cast<double>(n - timed.failed) /
                            timed.wallSeconds,
                        "1/s"};
    e2e["op_p50_ms"] = {percentile(timed.latency, 50) * 1e3, "ms"};
    e2e["op_tail_ms"] = {percentile(timed.latency, tail_p) * 1e3, "ms"};
    e2e["queries_per_s"] = {static_cast<double>(timed.verdicts) /
                                timed.wallSeconds,
                            "1/s"};
    e2e["first_verdict_p50_ms"] = {median(timed.firstVerdict) * 1e3,
                                   "ms"};
    e2e["ok_ratio"] = {static_cast<double>(n - timed.failed) /
                           static_cast<double>(n),
                       "ratio"};

    // Determinism guard: the op list and its deterministic counts.
    std::uint64_t digest = 1469598103934665603ULL;
    for (const std::string &l : labels)
        digest = fnv1a(l + "\n", digest);

    // The traced run's failed checks make the run incorrect; attempted
    // and failed describe the timed loop.
    MetricMap per_layer;
    double traced_wall = 0.0;
    std::vector<std::string> errors = timed.errors;
    std::uint64_t traced_failed = 0;
    if (opt.trace) {
        wl->teardown();
        wl->setup();
        Tracer tr;
        Pass traced = runPass(*wl, &tr);
        traced_wall = traced.wallSeconds;
        std::vector<std::string> aux_errors;
        wl->perLayer(tr, per_layer, aux_errors);
        traced_failed = traced.failed + aux_errors.size();
        for (const std::string &e : traced.errors)
            errors.push_back("traced " + e);
        for (const std::string &e : aux_errors)
            errors.push_back("traced-only pass: " + e);
        double untraced_ops = e2e["ops_per_s"].value;
        double traced_ops =
            static_cast<double>(n - traced.failed) / traced.wallSeconds;
        per_layer["trace.untraced_ops_per_s"] = {untraced_ops, "1/s"};
        per_layer["trace.traced_ops_per_s"] = {traced_ops, "1/s"};
        per_layer["trace.overhead"] = {untraced_ops / traced_ops - 1.0,
                                       "ratio"};
        per_layer["trace.self_sum_error"] = {tr.maxSelfSumError("op"),
                                             "ratio"};
        if (!opt.traceOut.empty())
            tr.writeJsonl(opt.traceOut);
    }
    wl->teardown();
    e2e["peak_rss_mb"] = {peakRssMb(), "MB"};

    std::ostringstream os;
    os << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
       << ",\"correct\":"
       << (timed.failed + traced_failed == 0 ? "true" : "false")
       << ",\"attempted\":" << n << ",\"failed\":" << timed.failed
       << ",\"end_to_end\":";
    writeMetrics(os, e2e);
    os << ",\"per_layer\":";
    writeMetrics(os, per_layer);
    os << ",\"determinism\":{\"op_list_digest\":\"" << std::hex << digest
       << std::dec << "\",\"ops\":" << n
       << ",\"queries_planned\":" << timed.queriesPlanned
       << ",\"dual_executions\":" << timed.dualExecutions
       << ",\"retired_instrs\":" << timed.retiredInstrs << "}"
       << ",\"detail\":{\"tail_percentile\":" << num(tail_p)
       << ",\"latency_samples\":" << n << ",\"p50_op\":\""
       << labelAt(timed, labels, 50) << "\",\"tail_op\":\""
       << labelAt(timed, labels, tail_p) << "\",\"timed_wall_s\":"
       << num(timed.wallSeconds) << ",\"traced_wall_s\":"
       << num(traced_wall) << ",\"setup_reps_s\":[";
    for (std::size_t i = 0; i < setup_times.size(); ++i)
        os << (i ? "," : "") << num(setup_times[i]);
    os << "],\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i)
        os << (i ? "," : "") << ldx::obs::jsonString(errors[i]);
    os << "]}}";
    std::cout << os.str() << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const auto process_start = perfbench::Clock::now();
    perfbench::Options opt = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(opt, process_start);
    } catch (const std::exception &e) {
        std::cerr << "ldxbench: " << e.what() << "\n";
        return 1;
    }
}
