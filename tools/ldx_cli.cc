/**
 * @file
 * ldx — command-line driver.
 *
 *   ldx run <prog.mc> [options]       run natively, print outputs
 *   ldx dual <prog.mc> [options]      dual-execute, print the verdict
 *   ldx taint <prog.mc> [options]     run a taint-tracking baseline
 *   ldx dump <prog.mc> [options]      print the (instrumented) IR
 *   ldx corpus                        list the built-in workloads and
 *                                     the promoted golden corpus
 *   ldx bench <workload-name>         dual-execute a built-in workload
 *   ldx explain <workload|prog.mc>    dual-execute with the flight
 *                                     recorder and print the
 *                                     divergence forensics report
 *   ldx profile <workload|prog.mc>    dual-execute with the guest
 *                                     site profiler and print the
 *                                     ldx-profile-v1 cost report
 *                                     (docs/OBSERVABILITY.md)
 *   ldx fuzz [options]                differential fuzzing: generate
 *                                     seeded programs and check the
 *                                     oracle invariants across the
 *                                     config matrix (docs/FUZZING.md)
 *   ldx campaign <workload|prog.mc>   batch causality inference: one
 *                                     baseline run enumerates sources
 *                                     and sinks, a worker pool runs
 *                                     one dual execution per (source,
 *                                     policy), and the aggregated
 *                                     causality graph is emitted as
 *                                     JSON/DOT (docs/CAMPAIGN.md)
 *
 * Exit codes (uniform across subcommands):
 *   0  clean — no causality, divergence, trap, or oracle violation
 *   1  findings — causality edges, divergence, a guest trap, or
 *      oracle violations were detected
 *   2  usage or input error (bad flags, unreadable files)
 *   3  internal error (engine invariant violation, failed queries)
 *
 * Options:
 *   --help, -h           print the usage summary on stdout, exit 0
 *   --env K=V            environment variable (repeatable)
 *   --file PATH=DATA     virtual file contents (repeatable)
 *   --host-file PATH=F   virtual file loaded from host file F
 *   --peer HOST=R1,R2    scripted peer responses (repeatable)
 *   --request DATA       inbound connection request (repeatable)
 *   --source-env NAME    mutate this env var        (dual/taint)
 *   --source-file PATH   mutate this file           (dual/taint)
 *   --source-peer HOST   mutate this peer's data    (dual/taint)
 *   --source-incoming    mutate inbound requests    (dual/taint)
 *   --offset N           mutation byte offset (default 0)
 *   --strategy S         off-by-one | zero | bit-flip | random
 *   --sinks LIST         comma list of net,file,console,ret,alloc
 *   --policy P           taintgrind | libdft | control   (taint)
 *   --threaded           two-OS-thread driver            (dual)
 *   --spin-policy S,Y,U  threaded-driver stall backoff: S cpu-relax
 *                        spins, then Y yields, then sleeps of U
 *                        microseconds (default 64,64,50)     (dual)
 *   --trace              print the alignment trace       (dual)
 *   --metrics[=json]     print the metrics registry and phase
 *                        timings; =json emits one machine-readable
 *                        object on stdout         (dual/bench)
 *   --trace-out FILE     write a structured trace (dual/bench)
 *   --trace-format F     jsonl | chrome (default jsonl)
 *   --flight-recorder[=N]  keep N events/side in the flight recorder
 *                        (default on, 8192)      (dual/bench/explain)
 *   --no-flight-recorder disable the flight recorder (dual/bench)
 *   --explain-format F   text | jsonl | chrome (default text)
 *   --explain-out FILE   write the explain report to FILE  (explain)
 *   --no-instrument      skip the counter pass      (dump)
 *   --dispatch M         interpreter dispatch: switch | threaded
 *                        (default threaded; verdicts and recorder
 *                        order are identical across modes — see
 *                        docs/PERFORMANCE.md)
 *
 * Profiler options (profile; --profile-sites also shapes the
 * campaign heat map):
 *   --profile-sites N    top sites per function in the JSON report
 *                        and per heat-map section (default 20)
 *   --profile-stalls     include the driver-dependent stall section
 *                        (the report is no longer byte-diffable)
 *   --flame-out FILE     write collapsed flamegraph stacks (one
 *                        `root;...;func;op@line:col count` line per
 *                        hot site, feedable to flamegraph.pl)
 *   --annotate FILE      write the per-line annotated MiniC source
 *                        listing (retired / sys-ticks / vs-slave)
 *
 * Fuzzing options (fuzz):
 *   --seeds N            seeds to sweep (default 100)
 *   --seed-start N       first seed (default 1); also the world seed
 *                        used by --replay FILE
 *   --time-budget SECS   stop the sweep after SECS seconds (0 = off)
 *   --matrix M           full (16 cells) | quick (4 cells)
 *   --mutations N        mutated sources per mutated cell (1..3)
 *   --artifacts-dir DIR  write seed-N.mc / seed-N.min.mc /
 *                        seed-N.violations.txt /
 *                        seed-N.divergence.jsonl for failing seeds
 *   --replay SEED|FILE   re-check one seed, or a .mc reproducer
 *   --no-shrink          skip delta-debugging failing seeds
 *   --inject-skip-cnt N  fault injection: skip every Nth CntAdd in
 *                        both VMs (oracle self-test; the sweep is
 *                        expected to fail)
 *   --inject-drop-snapshot-page N
 *                        fault injection: drop the Nth dirty memory
 *                        page from every snapshot fork's slave
 *                        restore (stale-snapshot self-test; the
 *                        sweep's snapshot-equality oracle is
 *                        expected to fail)
 *
 * Campaign options (campaign):
 *   --jobs N             worker threads (default 1)
 *   --snapshot[=off]     snapshot/fork execution (default off): run
 *                        each source's shared dual prefix once and
 *                        fork every policy from the captured state;
 *                        verdicts and graphs are byte-identical to
 *                        the full-run path (docs/CAMPAIGN.md);
 *                        incompatible with --site-profile-out
 *   --queue-cap N        max outstanding queries (default 256)
 *   --deadline-ms N      per-query deadline (default 30000)
 *   --policies LIST      comma list of off-by-one,zero,bit-flip,random
 *                        (default off-by-one,zero,bit-flip)
 *   --offset N           mutation byte offset (default: whole value)
 *   --graph-out FILE     write the causality graph JSON to FILE
 *   --dot-out FILE       write the Graphviz DOT rendering to FILE
 *   --cache-dir DIR      persist query verdicts under DIR
 *   --cache-cap N        in-memory cache entries (default 4096)
 *   --exporter-out FILE  append a JSONL metrics time-series to FILE
 *                        (one snapshot per sampling interval)
 *   --exporter-prom FILE rewrite FILE atomically with the Prometheus
 *                        text exposition every sampling interval
 *   --exporter-interval-ms N
 *                        exporter sampling interval (default 500)
 *   --progress           live progress line on stderr (done/total,
 *                        q/s, ETA, cache hit rate, active workers);
 *                        auto-disabled when stderr is not a TTY
 *   --progress=force     render the progress line even when stderr
 *                        is redirected (CI logs, pipes)
 *   --profile-out FILE   write the post-run profiler report
 *                        (ldx-campaign-profile-v2 JSON) to FILE
 *   --profile-top N      slowest queries in the profile (default 10)
 *   --site-profile-out FILE
 *                        run every query with the guest site profiler
 *                        and write the merged ldx-site-heat-v1 heat
 *                        map to FILE (bypasses the result cache so
 *                        the artifact covers every query)
 *
 * Service options (serve / submit — docs/SERVE.md):
 *   ldx serve --socket PATH [options]
 *                        run the multi-tenant causality-inference
 *                        daemon on a Unix-domain socket; campaigns
 *                        from every client share one worker pool and
 *                        one sharded verdict cache; SIGINT drains
 *   ldx submit <workload|corpus-name|prog.mc> --socket PATH
 *                        submit one job to a running daemon, stream
 *                        the verdicts, exit with the offline
 *                        `ldx campaign` code
 *   --socket PATH        Unix-domain socket path (both commands)
 *   --max-tenants N      concurrent campaigns admitted (default 4)
 *   --shards N           verdict-cache shards (default 8)
 *   --max-job-queries N  reject jobs planning more queries (0 = off)
 *   --drain-timeout-ms N wait for tenants on SIGINT before forcing
 *                        sockets closed (default 30000)
 *   --id NAME            job id echoed on every frame   (submit)
 *   --stream             print each verdict frame as it arrives
 *                        (submit; `--jobs`, `--queue-cap`,
 *                        `--cache-cap`, `--cache-dir`, `--dispatch`
 *                        and the exporter flags apply to serve)
 */
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/shrinker.h"

#include "instrument/instrument.h"
#include "ir/printer.h"
#include "lang/compiler.h"
#include "ldx/engine.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "os/kernel.h"
#include "os/sysno.h"
#include "query/campaign.h"
#include "query/profile.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/diag.h"
#include "support/strings.h"
#include "taint/tracker.h"
#include "vm/machine.h"
#include "workloads/corpus/corpus.h"
#include "workloads/workloads.h"

namespace {

using namespace ldx;

/** Project version (CMake's PROJECT_VERSION; see tools/CMakeLists). */
#ifndef LDX_VERSION
#define LDX_VERSION "0.0.0"
#endif
constexpr const char *kLdxVersion = LDX_VERSION;

struct CliOptions
{
    std::string command;
    std::string program;
    os::WorldSpec world;
    std::vector<core::SourceSpec> sources;
    std::size_t offset = 0;
    bool offsetSet = false;
    core::MutationStrategy strategy = core::MutationStrategy::OffByOne;
    core::SinkConfig sinks;
    std::string policy = "taintgrind";
    bool threaded = false;
    core::DriverConfig driver;
    bool traceAlignment = false;
    bool instrument = true;
    bool metrics = false;
    bool metricsJson = false;
    bool metricsJsonStable = false;
    std::string traceOut;
    std::string traceFormat = "jsonl";
    bool flightRecorder = true;
    std::size_t recorderCapacity = obs::FlightRecorder::kDefaultCapacity;
    std::string explainFormat = "text";
    std::string explainOut;
    vm::DispatchMode dispatch = vm::DispatchMode::Threaded;

    // campaign
    int jobs = 1;
    bool snapshot = false;
    std::size_t queueCap = 256;
    double deadlineMs = 30'000.0;
    std::vector<core::MutationStrategy> policies;
    std::string graphOut;
    std::string dotOut;
    std::string cacheDir;
    std::size_t cacheCap = 4096;
    std::string exporterOut;
    std::string exporterProm;
    int exporterIntervalMs = 500;
    bool progress = false;
    bool progressForce = false;
    std::string profileOut;
    std::size_t profileTop = 10;

    // profile
    std::size_t profileSites = 20;
    bool profileStalls = false;
    std::string flameOut;
    std::string annotateOut;
    std::string siteProfileOut;

    // serve / submit
    std::string socketPath;
    std::size_t maxTenants = 4;
    std::size_t shards = 8;
    std::size_t maxJobQueries = 0;
    std::uint64_t drainTimeoutMs = 30'000;
    std::string submitId;
    bool submitStream = false;

    // fuzz
    std::uint64_t fuzzSeeds = 100;
    std::uint64_t fuzzSeedStart = 1;
    double fuzzTimeBudget = 0.0;
    std::string fuzzMatrix = "full";
    int fuzzMutations = 1;
    std::string fuzzArtifactsDir;
    std::string fuzzReplay;
    bool fuzzShrink = true;
    std::uint64_t fuzzInjectSkipCnt = 0;
    std::uint64_t fuzzInjectDropSnapshotPage = 0;
};

const char *const kUsage =
    "usage: ldx <run|dual|taint|dump> <prog.mc> [options]\n"
    "       ldx corpus | ldx bench <workload>\n"
    "       ldx explain <workload|prog.mc> [options]\n"
    "       ldx profile <workload|prog.mc> [options]\n"
    "       ldx campaign <workload|corpus-name|prog.mc> [options]\n"
    "       ldx fuzz [options]\n"
    "       ldx serve --socket PATH [options]\n"
    "       ldx submit <workload|corpus-name|prog.mc> "
    "--socket PATH [options]\n"
    "see the file header of tools/ldx_cli.cc for options\n";

[[noreturn]] void
usage(const std::string &error = "")
{
    if (!error.empty())
        std::cerr << "error: " << error << "\n\n";
    std::cerr << kUsage;
    std::exit(2);
}

/** `--help` / `-h`: the usage text on stdout, exit 0. */
bool
isHelpFlag(const std::string &arg)
{
    return arg == "--help" || arg == "-h";
}

[[noreturn]] void
help()
{
    std::cout << kUsage;
    std::exit(0);
}

/**
 * Strict numeric flag parsing. Every numeric flag goes through these:
 * garbage ("abc", "1x", "-3", "1.5" for integers) and out-of-range
 * values are usage errors (exit 2), never silent truncation, and
 * flags with a documented floor ("--jobs 0") are rejected.
 */
std::uint64_t
parseUint(const std::string &value, const char *flag,
          std::uint64_t min_value = 0)
{
    if (value.empty())
        usage(std::string(flag) + " expects a number");
    for (char c : value)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            usage(std::string(flag) +
                  " expects a non-negative integer, got '" + value +
                  "'");
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (errno == ERANGE || end != value.c_str() + value.size())
        usage(std::string(flag) + " value out of range: " + value);
    if (parsed < min_value)
        usage(std::string(flag) + " must be >= " +
              std::to_string(min_value) + ", got " + value);
    return parsed;
}

double
parseDouble(const std::string &value, const char *flag,
            double min_value = 0.0)
{
    if (value.empty())
        usage(std::string(flag) + " expects a number");
    errno = 0;
    char *end = nullptr;
    double parsed = std::strtod(value.c_str(), &end);
    if (errno == ERANGE || end != value.c_str() + value.size())
        usage(std::string(flag) + " expects a number, got '" + value +
              "'");
    if (!(parsed >= min_value))
        usage(std::string(flag) + " must be >= " +
              std::to_string(min_value) + ", got " + value);
    return parsed;
}

core::MutationStrategy
parseStrategy(const std::string &s, const char *flag)
{
    if (s == "off-by-one")
        return core::MutationStrategy::OffByOne;
    if (s == "zero")
        return core::MutationStrategy::Zero;
    if (s == "bit-flip")
        return core::MutationStrategy::BitFlip;
    if (s == "random")
        return core::MutationStrategy::Random;
    usage(std::string(flag) + ": unknown strategy " + s);
}

std::string
readHostFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        usage("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::pair<std::string, std::string>
splitKv(const std::string &arg, const char *what)
{
    auto pos = arg.find('=');
    if (pos == std::string::npos)
        usage(std::string(what) + " expects KEY=VALUE, got " + arg);
    return {arg.substr(0, pos), arg.substr(pos + 1)};
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    if (argc < 2)
        usage();
    opt.command = argv[1];
    if (isHelpFlag(opt.command) || (argc > 2 && isHelpFlag(argv[2])))
        help();
    int i = 2;
    if (opt.command == "run" || opt.command == "dual" ||
        opt.command == "taint" || opt.command == "dump" ||
        opt.command == "bench" || opt.command == "explain" ||
        opt.command == "campaign" ||
        opt.command == "profile" || opt.command == "submit") {
        if (argc < 3)
            usage(opt.command + " needs an argument");
        opt.program = argv[2];
        i = 3;
    } else if (opt.command != "corpus" && opt.command != "fuzz" &&
               opt.command != "serve") {
        usage("unknown command " + opt.command);
    }

    auto next = [&](const char *flag) -> std::string {
        if (i >= argc)
            usage(std::string(flag) + " needs a value");
        return argv[i++];
    };

    while (i < argc) {
        std::string arg = argv[i++];
        if (isHelpFlag(arg)) {
            help();
        } else if (arg == "--env") {
            auto [k, v] = splitKv(next("--env"), "--env");
            opt.world.env[k] = v;
        } else if (arg == "--file") {
            auto [k, v] = splitKv(next("--file"), "--file");
            opt.world.files[k] = v;
        } else if (arg == "--host-file") {
            auto [k, v] = splitKv(next("--host-file"), "--host-file");
            opt.world.files[k] = readHostFile(v);
        } else if (arg == "--peer") {
            auto [k, v] = splitKv(next("--peer"), "--peer");
            for (const std::string &r : splitString(v, ','))
                opt.world.peers[k].responses.push_back(r);
        } else if (arg == "--request") {
            opt.world.incoming.push_back({next("--request")});
        } else if (arg == "--source-env") {
            opt.sources.push_back(
                core::SourceSpec::env(next("--source-env")));
        } else if (arg == "--source-file") {
            opt.sources.push_back(
                core::SourceSpec::file(next("--source-file")));
        } else if (arg == "--source-peer") {
            opt.sources.push_back(
                core::SourceSpec::peer(next("--source-peer")));
        } else if (arg == "--source-incoming") {
            opt.sources.push_back(core::SourceSpec::incoming());
        } else if (arg == "--offset") {
            opt.offset = static_cast<std::size_t>(
                parseUint(next("--offset"), "--offset"));
            opt.offsetSet = true;
        } else if (arg == "--strategy") {
            opt.strategy = parseStrategy(next("--strategy"),
                                         "--strategy");
        } else if (arg == "--sinks") {
            opt.sinks = core::SinkConfig{};
            opt.sinks.net = opt.sinks.file = opt.sinks.console = false;
            for (const std::string &s :
                 splitString(next("--sinks"), ',')) {
                if (s == "net")
                    opt.sinks.net = true;
                else if (s == "file")
                    opt.sinks.file = true;
                else if (s == "console")
                    opt.sinks.console = true;
                else if (s == "ret")
                    opt.sinks.retTokens = true;
                else if (s == "alloc")
                    opt.sinks.allocSizes = true;
                else
                    usage("unknown sink class " + s);
            }
        } else if (arg == "--policy") {
            opt.policy = next("--policy");
        } else if (arg == "--threaded") {
            opt.threaded = true;
        } else if (arg == "--spin-policy") {
            auto parts = splitString(next("--spin-policy"), ',');
            if (parts.size() != 3)
                usage("--spin-policy expects SPINS,YIELDS,SLEEP_US");
            opt.driver.spinCount = static_cast<std::uint32_t>(
                parseUint(parts[0], "--spin-policy"));
            opt.driver.yieldCount = static_cast<std::uint32_t>(
                parseUint(parts[1], "--spin-policy"));
            opt.driver.sleepMicros = static_cast<std::uint32_t>(
                parseUint(parts[2], "--spin-policy"));
        } else if (arg == "--trace") {
            opt.traceAlignment = true;
        } else if (arg == "--metrics" || arg == "--metrics=text") {
            opt.metrics = true;
        } else if (arg == "--metrics=json") {
            opt.metrics = true;
            opt.metricsJson = true;
        } else if (arg == "--metrics=json-stable") {
            opt.metrics = true;
            opt.metricsJson = true;
            opt.metricsJsonStable = true;
        } else if (arg == "--trace-out") {
            opt.traceOut = next("--trace-out");
        } else if (arg == "--trace-format") {
            opt.traceFormat = next("--trace-format");
            if (opt.traceFormat != "jsonl" && opt.traceFormat != "chrome")
                usage("unknown trace format " + opt.traceFormat +
                      " (expected jsonl or chrome)");
        } else if (arg == "--flight-recorder") {
            opt.flightRecorder = true;
        } else if (startsWith(arg, "--flight-recorder=")) {
            opt.flightRecorder = true;
            std::string n = arg.substr(sizeof("--flight-recorder=") - 1);
            opt.recorderCapacity = static_cast<std::size_t>(
                parseUint(n, "--flight-recorder", 1));
        } else if (arg == "--no-flight-recorder") {
            opt.flightRecorder = false;
        } else if (arg == "--explain-format") {
            opt.explainFormat = next("--explain-format");
            if (opt.explainFormat != "text" &&
                opt.explainFormat != "jsonl" &&
                opt.explainFormat != "chrome")
                usage("unknown explain format " + opt.explainFormat +
                      " (expected text, jsonl or chrome)");
        } else if (arg == "--explain-out") {
            opt.explainOut = next("--explain-out");
        } else if (arg == "--no-instrument") {
            opt.instrument = false;
        } else if (arg == "--dispatch") {
            std::string v = next("--dispatch");
            if (!vm::parseDispatchMode(v, opt.dispatch))
                usage("unknown dispatch mode " + v +
                      " (expected switch or threaded)");
        } else if (arg == "--seeds") {
            opt.fuzzSeeds = parseUint(next("--seeds"), "--seeds", 1);
        } else if (arg == "--seed-start") {
            opt.fuzzSeedStart =
                parseUint(next("--seed-start"), "--seed-start");
        } else if (arg == "--time-budget") {
            opt.fuzzTimeBudget =
                parseDouble(next("--time-budget"), "--time-budget");
        } else if (arg == "--matrix") {
            opt.fuzzMatrix = next("--matrix");
            if (opt.fuzzMatrix != "full" && opt.fuzzMatrix != "quick")
                usage("unknown matrix " + opt.fuzzMatrix +
                      " (expected full or quick)");
        } else if (arg == "--mutations") {
            std::uint64_t n = parseUint(next("--mutations"),
                                        "--mutations");
            if (n > 3)
                usage("--mutations expects 0..3");
            opt.fuzzMutations = static_cast<int>(n);
        } else if (arg == "--artifacts-dir") {
            opt.fuzzArtifactsDir = next("--artifacts-dir");
        } else if (arg == "--replay") {
            opt.fuzzReplay = next("--replay");
        } else if (arg == "--no-shrink") {
            opt.fuzzShrink = false;
        } else if (arg == "--inject-skip-cnt") {
            opt.fuzzInjectSkipCnt =
                parseUint(next("--inject-skip-cnt"),
                          "--inject-skip-cnt");
        } else if (arg == "--inject-drop-snapshot-page") {
            opt.fuzzInjectDropSnapshotPage =
                parseUint(next("--inject-drop-snapshot-page"),
                          "--inject-drop-snapshot-page", 1);
        } else if (arg == "--snapshot") {
            opt.snapshot = true;
        } else if (arg == "--snapshot=off") {
            opt.snapshot = false;
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<int>(
                parseUint(next("--jobs"), "--jobs", 1));
        } else if (arg == "--queue-cap") {
            opt.queueCap = static_cast<std::size_t>(
                parseUint(next("--queue-cap"), "--queue-cap", 1));
        } else if (arg == "--deadline-ms") {
            opt.deadlineMs = static_cast<double>(
                parseUint(next("--deadline-ms"), "--deadline-ms", 1));
        } else if (arg == "--policies") {
            opt.policies.clear();
            for (const std::string &s :
                 splitString(next("--policies"), ','))
                opt.policies.push_back(parseStrategy(s, "--policies"));
            if (opt.policies.empty())
                usage("--policies expects at least one policy");
        } else if (arg == "--graph-out") {
            opt.graphOut = next("--graph-out");
        } else if (arg == "--dot-out") {
            opt.dotOut = next("--dot-out");
        } else if (arg == "--cache-dir") {
            opt.cacheDir = next("--cache-dir");
        } else if (arg == "--cache-cap") {
            opt.cacheCap = static_cast<std::size_t>(
                parseUint(next("--cache-cap"), "--cache-cap", 1));
        } else if (arg == "--socket") {
            opt.socketPath = next("--socket");
        } else if (arg == "--max-tenants") {
            opt.maxTenants = static_cast<std::size_t>(
                parseUint(next("--max-tenants"), "--max-tenants", 1));
        } else if (arg == "--shards") {
            opt.shards = static_cast<std::size_t>(
                parseUint(next("--shards"), "--shards", 1));
        } else if (arg == "--max-job-queries") {
            opt.maxJobQueries = static_cast<std::size_t>(parseUint(
                next("--max-job-queries"), "--max-job-queries"));
        } else if (arg == "--drain-timeout-ms") {
            opt.drainTimeoutMs = parseUint(next("--drain-timeout-ms"),
                                           "--drain-timeout-ms", 1);
        } else if (arg == "--id") {
            opt.submitId = next("--id");
        } else if (arg == "--stream") {
            opt.submitStream = true;
        } else if (arg == "--exporter-out") {
            opt.exporterOut = next("--exporter-out");
        } else if (arg == "--exporter-prom") {
            opt.exporterProm = next("--exporter-prom");
        } else if (arg == "--exporter-interval-ms") {
            opt.exporterIntervalMs = static_cast<int>(
                parseUint(next("--exporter-interval-ms"),
                          "--exporter-interval-ms", 1));
        } else if (arg == "--progress") {
            opt.progress = true;
        } else if (arg == "--progress=force") {
            opt.progress = true;
            opt.progressForce = true;
        } else if (arg == "--profile-out") {
            opt.profileOut = next("--profile-out");
        } else if (arg == "--profile-top") {
            opt.profileTop = static_cast<std::size_t>(
                parseUint(next("--profile-top"), "--profile-top"));
        } else if (arg == "--profile-sites") {
            opt.profileSites = static_cast<std::size_t>(
                parseUint(next("--profile-sites"), "--profile-sites",
                          1));
        } else if (arg == "--profile-stalls") {
            opt.profileStalls = true;
        } else if (arg == "--flame-out") {
            opt.flameOut = next("--flame-out");
        } else if (arg == "--annotate") {
            opt.annotateOut = next("--annotate");
        } else if (arg == "--site-profile-out") {
            opt.siteProfileOut = next("--site-profile-out");
        } else {
            usage("unknown option " + arg);
        }
    }
    for (core::SourceSpec &src : opt.sources)
        src.offset = opt.offset;
    return opt;
}

/** Compile opt.program, instrumenting it when @p instrumented. */
std::unique_ptr<ir::Module>
compileProgram(const CliOptions &opt, bool instrumented,
               obs::PhaseTimer *timer = nullptr)
{
    std::unique_ptr<ir::Module> module =
        lang::compileSource(readHostFile(opt.program), timer);
    if (instrumented) {
        if (timer)
            timer->begin("instrument");
        instrument::CounterInstrumenter pass(*module);
        auto stats = pass.run();
        if (timer)
            timer->end();
        std::cerr << "[ldx] instrumented " << stats.insertedOps
                  << " counter ops (" << stats.syscallSites
                  << " syscall sites, " << stats.loops
                  << " loops, max cnt " << stats.maxStaticCnt << ")\n";
    }
    return module;
}

/**
 * Open the --trace-out sink, if requested. @p file backs the sink and
 * must outlive it.
 */
std::unique_ptr<obs::TraceSink>
openTraceSink(const CliOptions &opt, std::ofstream &file)
{
    if (opt.traceOut.empty())
        return nullptr;
    file.open(opt.traceOut, std::ios::binary);
    if (!file)
        usage("cannot write " + opt.traceOut);
    auto sink = obs::makeTraceSink(opt.traceFormat, file);
    if (!sink)
        usage("unknown trace format " + opt.traceFormat);
    return sink;
}

/** Syscall-number resolver handed to the divergence renderers. */
std::string
resolveSysName(std::int64_t no)
{
    return os::sysName(no);
}

void
printMetricsText(std::ostream &os, const core::DualResult &res,
                 const std::vector<obs::PhaseSample> &phases)
{
    os << "metrics:\n";
    res.metrics.writeText(os);
    os << "phases:\n";
    for (const obs::PhaseSample &p : phases) {
        os << "  ";
        for (int d = 0; d < p.depth; ++d)
            os << "  ";
        os << p.name << ": " << p.seconds * 1e3 << " ms\n";
    }
}

int
cmdRun(const CliOptions &opt)
{
    std::unique_ptr<ir::Module> module = compileProgram(opt, false);
    os::Kernel kernel(opt.world);
    vm::MachineConfig mcfg;
    mcfg.dispatch = opt.dispatch;
    vm::Machine machine(*module, kernel, mcfg);
    vm::StepStatus st = machine.run();
    for (const os::OutputRecord &rec : kernel.outputs()) {
        std::cout << rec.channel << ": " << escapeBytes(rec.payload, 120)
                  << "\n";
    }
    if (st == vm::StepStatus::Trapped) {
        std::cerr << "[ldx] trapped: " << machine.trap()->message
                  << "\n";
        return 1;
    }
    std::cerr << "[ldx] exit " << machine.exitCode() << " after "
              << machine.stats().instructions << " instructions\n";
    return 0;
}

int
cmdDual(const CliOptions &opt)
{
    std::ofstream trace_file;
    std::unique_ptr<obs::TraceSink> sink = openTraceSink(opt, trace_file);

    obs::PhaseTimer front(sink.get());
    std::unique_ptr<ir::Module> module = compileProgram(opt, true, &front);

    obs::Registry registry;
    core::EngineConfig cfg;
    cfg.vmConfig.dispatch = opt.dispatch;
    cfg.sources = opt.sources;
    cfg.strategy = opt.strategy;
    cfg.sinks = opt.sinks;
    cfg.threaded = opt.threaded;
    cfg.driver = opt.driver;
    cfg.recordTrace = opt.traceAlignment;
    cfg.flightRecorder = opt.flightRecorder;
    cfg.recorderCapacity = opt.recorderCapacity;
    cfg.registry = &registry;
    cfg.traceSink = sink.get();
    core::DualEngine engine(*module, opt.world, cfg);
    core::DualResult res = engine.run();
    if (sink)
        sink->flush();

    std::vector<obs::PhaseSample> phases = front.samples();
    phases.insert(phases.end(), res.phases.begin(), res.phases.end());

    // With --metrics=json, stdout carries exactly one JSON object; the
    // human-readable verdict moves to stderr.
    std::ostream &out = opt.metricsJson ? std::cerr : std::cout;

    if (opt.traceAlignment) {
        out << "alignment trace:\n";
        for (const core::TraceEvent &evt : res.trace)
            out << "  " << evt.describe() << "\n";
    }
    out << "aligned syscalls:    " << res.alignedSyscalls << "\n";
    out << "misaligned syscalls: " << res.syscallDiffs << "\n";
    out << "barrier pairings:    " << res.barrierPairings << "\n";
    if (!res.taintedResources.empty()) {
        out << "tainted resources:\n";
        for (const std::string &k : res.taintedResources)
            out << "  " << k << "\n";
    }
    if (res.causality()) {
        out << "CAUSALITY DETECTED (" << res.findings.size()
            << " finding(s)):\n";
        for (const core::Finding &f : res.findings)
            out << "  " << f.describe() << "\n";
    } else {
        out << "no causality between the sources and any sink\n";
    }
    if (res.divergence.present)
        out << "divergence: " << res.divergence.summary()
            << " (run 'ldx explain' for the full report)\n";
    if (opt.metricsJsonStable)
        std::cout << core::resultJsonStable(res) << "\n";
    else if (opt.metricsJson)
        std::cout << core::resultJson(res, phases) << "\n";
    else if (opt.metrics)
        printMetricsText(std::cout, res, phases);
    return res.causality() ? 1 : 0;
}

int
cmdTaint(const CliOptions &opt)
{
    std::unique_ptr<ir::Module> module = compileProgram(opt, false);
    taint::TaintRunOptions topt;
    if (opt.policy == "taintgrind")
        topt.policy = taint::TaintPolicy::taintgrind();
    else if (opt.policy == "libdft")
        topt.policy = taint::TaintPolicy::libdft();
    else if (opt.policy == "control")
        topt.policy = taint::TaintPolicy::controlAugmented();
    else
        usage("unknown policy " + opt.policy);
    topt.sources = opt.sources;
    core::SinkConfig sinks = opt.sinks;
    topt.sinkChannel = [sinks](const std::string &channel) {
        return sinks.matchesChannel(channel);
    };
    topt.retTokenSinks = opt.sinks.retTokens;
    topt.allocSizeSinks = opt.sinks.allocSizes;
    auto res = taint::runTaintAnalysis(*module, opt.world, topt);
    std::cout << "sink events: " << res.totalSinks << ", tainted: "
              << res.taintedSinks.size() << "\n";
    for (const auto &evt : res.taintedSinks) {
        std::cout << "  " << evt.channel << " labels=0x" << std::hex
                  << evt.labels << std::dec;
        if (evt.loc.line)
            std::cout << " line=" << evt.loc.line;
        std::cout << "\n";
    }
    return res.taintedSinks.empty() ? 0 : 1;
}

int
cmdDump(const CliOptions &opt)
{
    ir::printModule(std::cout, *compileProgram(opt, opt.instrument));
    return 0;
}

/**
 * Resolve a promoted golden-corpus entry by name ("s002") or with
 * the explicit "corpus:" prefix, for commands that accept program
 * names (src/workloads/corpus/corpus.h).
 */
const workloads::CorpusEntry *
findCorpusEntry(const std::string &name)
{
    for (const workloads::CorpusEntry &e : workloads::corpusEntries())
        if (e.name == name || "corpus:" + e.name == name)
            return &e;
    return nullptr;
}

int
cmdCorpus()
{
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        std::cout << w.name << "  [" << categoryName(w.category)
                  << "]  " << w.description << "\n";
    }
    for (const workloads::CorpusEntry &e : workloads::corpusEntries()) {
        std::cout << e.name << "  [golden]  promoted fuzzer program "
                  << "(seed " << e.seed << ", golden campaign graph "
                  << "src/workloads/corpus/" << e.name
                  << ".golden.json)\n";
    }
    return 0;
}

int
cmdBench(const CliOptions &opt)
{
    const workloads::Workload *w = workloads::findWorkload(opt.program);
    if (!w)
        usage("unknown workload " + opt.program + " (see 'ldx corpus')");
    std::ofstream trace_file;
    std::unique_ptr<obs::TraceSink> sink = openTraceSink(opt, trace_file);
    obs::Registry registry;
    core::EngineConfig cfg;
    cfg.vmConfig.dispatch = opt.dispatch;
    cfg.sinks = w->sinks;
    cfg.sources = w->sources;
    cfg.threaded = opt.threaded;
    cfg.driver = opt.driver;
    cfg.flightRecorder = opt.flightRecorder;
    cfg.recorderCapacity = opt.recorderCapacity;
    cfg.registry = &registry;
    cfg.traceSink = sink.get();
    core::DualEngine engine(workloads::workloadModule(*w, true),
                            w->world(w->defaultScale), cfg);
    auto res = engine.run();
    if (sink)
        sink->flush();
    std::ostream &out = opt.metricsJson ? std::cerr : std::cout;
    out << w->name << ": "
        << (res.causality() ? "causality detected" : "clean")
        << " (aligned " << res.alignedSyscalls << ", diffs "
        << res.syscallDiffs << ", " << res.findings.size()
        << " finding(s))\n";
    for (const core::Finding &f : res.findings)
        out << "  " << f.describe() << "\n";
    if (res.divergence.present)
        out << "divergence: " << res.divergence.summary()
            << " (run 'ldx explain' for the full report)\n";
    if (opt.metricsJsonStable)
        std::cout << core::resultJsonStable(res) << "\n";
    else if (opt.metricsJson)
        std::cout << core::resultJson(res, res.phases) << "\n";
    else if (opt.metrics)
        printMetricsText(std::cout, res, res.phases);
    return res.causality() ? 1 : 0;
}

/**
 * Dual-execute with the flight recorder forced on and render the
 * DivergenceReport. The argument is a built-in workload name (its
 * attack mutation and sinks apply) or a .mc source file (combine with
 * --source-* / --sinks as for `ldx dual`).
 */
int
cmdExplain(const CliOptions &opt)
{
    obs::Registry registry;
    core::EngineConfig cfg;
    cfg.vmConfig.dispatch = opt.dispatch;
    cfg.threaded = opt.threaded;
    cfg.driver = opt.driver;
    cfg.flightRecorder = true;
    cfg.recorderCapacity = opt.recorderCapacity;
    cfg.registry = &registry;

    std::unique_ptr<ir::Module> owned;
    const ir::Module *module = nullptr;
    os::WorldSpec world;
    const workloads::Workload *w = workloads::findWorkload(opt.program);
    if (w) {
        cfg.sinks = w->sinks;
        cfg.sources = w->sources;
        module = &workloads::workloadModule(*w, true);
        world = w->world(w->defaultScale);
    } else {
        cfg.sinks = opt.sinks;
        cfg.sources = opt.sources;
        cfg.strategy = opt.strategy;
        owned = compileProgram(opt, true);
        module = owned.get();
        world = opt.world;
    }

    core::DualEngine engine(*module, world, cfg);
    core::DualResult res = engine.run();

    std::ofstream out_file;
    std::ostream *os = &std::cout;
    if (!opt.explainOut.empty()) {
        out_file.open(opt.explainOut, std::ios::binary);
        if (!out_file)
            usage("cannot write " + opt.explainOut);
        os = &out_file;
    }

    if (!res.divergence.present) {
        // A clean run has no forensics to explain; still emit a valid
        // document so scripted consumers never see an empty file.
        if (opt.explainFormat == "text")
            *os << "clean dual execution: no divergence to explain\n";
        else if (opt.explainFormat == "jsonl")
            *os << "{\"type\":\"divergence-report\",\"present\":false}"
                << "\n";
        else
            *os << "[]\n";
        return 0;
    }

    if (opt.explainFormat == "text")
        *os << res.divergence.text(resolveSysName);
    else if (opt.explainFormat == "jsonl")
        res.divergence.writeJsonl(*os, resolveSysName);
    else
        res.divergence.writeChromeTrace(*os, resolveSysName);
    if (!opt.explainOut.empty())
        std::cerr << "[ldx] explain report written to " << opt.explainOut
                  << "\n";
    return 1; // divergence present = findings
}

/** SIGINT latch: campaign workers drain gracefully when this flips. */
std::atomic<bool> g_campaignCancel{false};

extern "C" void
campaignSigint(int)
{
    g_campaignCancel.store(true, std::memory_order_relaxed);
}

/**
 * Write @p text to @p path (usage error when unwritable) and note it
 * on stderr.
 */
void
writeArtifact(const std::string &path, const std::string &text,
              const char *what)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        usage(std::string("cannot write ") + path);
    out << text;
    std::cerr << "[ldx] " << what << " written to " << path << "\n";
}

/**
 * Dual-execute with the guest site profiler and print the
 * `ldx-profile-v1` cost report on stdout. The argument is a built-in
 * workload (its attack mutation and sinks apply) or a .mc source
 * combined with --source-* / --sinks as for `ldx dual`. --flame-out
 * and --annotate write the derived artifacts; the exit code follows
 * the uniform contract (1 when the pair found causality).
 */
int
cmdProfile(const CliOptions &opt)
{
    obs::Registry registry;
    core::EngineConfig cfg;
    cfg.vmConfig.dispatch = opt.dispatch;
    cfg.threaded = opt.threaded;
    cfg.driver = opt.driver;
    cfg.flightRecorder = opt.flightRecorder;
    cfg.recorderCapacity = opt.recorderCapacity;
    cfg.registry = &registry;

    std::unique_ptr<ir::Module> owned;
    const ir::Module *module = nullptr;
    os::WorldSpec world;
    std::string source;
    const workloads::Workload *w = workloads::findWorkload(opt.program);
    if (w) {
        cfg.sinks = w->sinks;
        cfg.sources = w->sources;
        module = &workloads::workloadModule(*w, true);
        world = w->world(w->defaultScale);
        source = w->source;
    } else {
        cfg.sinks = opt.sinks;
        cfg.sources = opt.sources;
        cfg.strategy = opt.strategy;
        source = readHostFile(opt.program);
        owned = compileProgram(opt, true);
        module = owned.get();
        world = opt.world;
    }

    // One decoded module backs both VMs and the report metadata, so
    // the counters and the site names index the same decoded streams
    // by construction.
    auto decoded = std::make_shared<vm::PredecodedModule>(*module);
    decoded->decodeAll();
    cfg.vmConfig.predecoded = decoded;

    obs::SiteCounters master, slave;
    cfg.masterSites = &master;
    cfg.slaveSites = &slave;

    core::DualEngine engine(*module, world, cfg);
    core::DualResult res = engine.run();

    obs::ProfileMeta meta =
        vm::buildProfileMeta(*decoded, opt.program, source);
    obs::ProfileReportOptions popt;
    popt.topSites = opt.profileSites;
    popt.includeStalls = opt.profileStalls;
    std::cout << obs::profileReportJson(meta, master, &slave, popt)
              << "\n";
    if (!opt.flameOut.empty())
        writeArtifact(opt.flameOut, obs::collapsedStacks(meta, master),
                      "flamegraph stacks");
    if (!opt.annotateOut.empty())
        writeArtifact(opt.annotateOut,
                      obs::annotateSource(meta, master, &slave),
                      "annotated source");
    std::cerr << "[ldx] profiled " << master.totalRetired()
              << " master / " << slave.totalRetired()
              << " slave retired instructions\n";
    return res.causality() ? 1 : 0;
}

int
cmdCampaign(const CliOptions &opt)
{
    std::ofstream trace_file;
    std::unique_ptr<obs::TraceSink> sink = openTraceSink(opt, trace_file);

    // The argument is a built-in workload (its sinks apply) or a .mc
    // source combined with --env/--file/... and --sinks.
    obs::PhaseTimer front(sink.get());
    std::unique_ptr<ir::Module> owned;
    const ir::Module *module = nullptr;
    os::WorldSpec world;
    query::CampaignConfig cfg;
    cfg.vmConfig.dispatch = opt.dispatch;
    const workloads::Workload *w = workloads::findWorkload(opt.program);
    std::unique_ptr<ir::Module> corpus_module;
    if (w) {
        cfg.sinks = w->sinks;
        module = &workloads::workloadModule(*w, true);
        world = w->world(w->defaultScale);
    } else if (const workloads::CorpusEntry *ce =
                   findCorpusEntry(opt.program)) {
        // Promoted golden-corpus program: checked-in source text, the
        // world still derived from the originating generator seed.
        cfg.sinks = opt.sinks;
        corpus_module = lang::compileSource(ce->source);
        instrument::CounterInstrumenter pass(*corpus_module);
        pass.run();
        module = corpus_module.get();
        world = fuzz::ProgramGenerator::worldFor(ce->seed);
    } else {
        cfg.sinks = opt.sinks;
        owned = compileProgram(opt, true, &front);
        module = owned.get();
        world = opt.world;
    }

    obs::Registry registry;
    if (!opt.policies.empty())
        cfg.policies = opt.policies;
    if (opt.offsetSet)
        cfg.offset = opt.offset;
    cfg.threaded = opt.threaded;
    cfg.driver = opt.driver;
    cfg.jobs = opt.jobs;
    cfg.queueCap = opt.queueCap;
    cfg.deadlineSeconds = opt.deadlineMs / 1e3;
    cfg.cacheCapacity = opt.cacheCap;
    cfg.cacheDir = opt.cacheDir;
    cfg.snapshot = opt.snapshot;
    if (opt.snapshot && !opt.siteProfileOut.empty())
        usage("--snapshot is incompatible with --site-profile-out "
              "(a fork's site counters would miss the prefix)");
    cfg.cancel = &g_campaignCancel;
    cfg.registry = &registry;
    cfg.traceSink = sink.get();

    // Site heat map: decode up front and share the streams so the
    // heat map's metadata indexes the same decoded sites the per-query
    // counters do (the campaign would otherwise predecode privately).
    std::shared_ptr<vm::PredecodedModule> decoded;
    if (!opt.siteProfileOut.empty()) {
        cfg.siteProfile = true;
        decoded = std::make_shared<vm::PredecodedModule>(*module);
        decoded->decodeAll();
        cfg.vmConfig.predecoded = decoded;
    }

    // Telemetry around the run: the exporter samples the campaign
    // registry on its own thread, the progress meter renders to
    // stderr. Both stop cleanly after the (possibly SIGINT-drained)
    // run returns, so the final registry state always lands in the
    // exporter sinks.
    obs::ExporterConfig expcfg;
    expcfg.jsonlPath = opt.exporterOut;
    expcfg.promPath = opt.exporterProm;
    expcfg.intervalMs = opt.exporterIntervalMs;
    expcfg.build.version = kLdxVersion;
    expcfg.build.dispatch = vm::dispatchModeName(opt.dispatch);
    expcfg.build.computedGoto = vm::hasThreadedDispatch();
    obs::Exporter exporter(registry, expcfg);
    if (!opt.exporterOut.empty() || !opt.exporterProm.empty())
        if (!exporter.start())
            usage(exporter.error());
    // The live line is interactive chrome: writing '\r'-overwritten
    // frames into a redirected stderr just fills logs, so a non-TTY
    // disables it unless --progress=force.
    obs::ProgressMeter progress(registry, std::cerr);
    bool show_progress =
        opt.progress && (opt.progressForce || obs::stderrIsTty());
    if (opt.progress && !show_progress)
        std::cerr << "[ldx] progress line disabled (stderr is not a "
                     "TTY; use --progress=force to override)\n";
    if (show_progress)
        progress.start();

    // The SIGINT latch stays installed through telemetry teardown: a
    // second Ctrl-C while the exporter writes its final sample or the
    // Chrome sink closes its JSON array would otherwise kill the
    // process mid-artifact.
    auto prev = std::signal(SIGINT, campaignSigint);
    query::CampaignResult res = query::runCampaign(*module, world, cfg);

    if (show_progress)
        progress.stop();
    exporter.stop();
    if (sink)
        sink->flush();
    std::signal(SIGINT, prev);

    std::ostream &out = opt.metricsJson ? std::cerr : std::cout;
    out << "baseline: " << res.baseline.totalEvents << " events, "
        << res.baseline.sources.size() << " sources ("
        << res.baseline.queryableSources().size() << " queryable), "
        << res.baseline.sinks.size() << " sinks\n";
    out << "queries: " << res.queries.size() << " ("
        << res.cacheHits << " cached, " << res.dualExecutions
        << " executed, " << res.cancelledQueries << " cancelled, "
        << res.failedQueries << " failed, " << res.timedOutQueries
        << " timed out)\n";
    if (opt.snapshot)
        out << "snapshot: " << res.snapshotPrefixRuns
            << " prefix runs, " << res.snapshotForks << " forks, "
            << res.snapshotInstrsSaved << " instrs saved\n";
    out << res.graph.summaryText();
    for (std::size_t i = 0; i < res.queries.size(); ++i)
        if (res.outcomes[i].status == query::RunStatus::Failed)
            std::cerr << "[ldx] query " << res.queries[i].sourceId
                      << " [" << core::mutationStrategyName(
                             res.queries[i].strategy)
                      << "] failed: " << res.outcomes[i].error << "\n";

    if (!opt.graphOut.empty())
        writeArtifact(opt.graphOut, res.graph.toJson(),
                      "causality graph");
    if (!opt.dotOut.empty())
        writeArtifact(opt.dotOut, res.graph.toDot(), "DOT graph");
    if (!opt.profileOut.empty()) {
        query::ProfileOptions popt;
        popt.topN = opt.profileTop;
        writeArtifact(opt.profileOut,
                      query::profileJson(res, registry.snapshot(), popt),
                      "profile report");
    }
    if (!opt.siteProfileOut.empty()) {
        obs::ProfileMeta meta = vm::buildProfileMeta(
            *decoded, opt.program, w ? w->source : std::string());
        writeArtifact(opt.siteProfileOut,
                      query::siteHeatJson(res, meta, opt.profileSites),
                      "site heat map");
    }
    if (opt.metricsJson) {
        std::cout << registry.snapshot().toJson() << "\n";
    } else if (opt.metrics) {
        std::cout << "metrics:\n";
        registry.snapshot().writeText(std::cout);
        std::vector<obs::PhaseSample> phases = front.samples();
        phases.insert(phases.end(), res.phases.begin(),
                      res.phases.end());
        std::cout << "phases:\n";
        for (const obs::PhaseSample &p : phases) {
            std::cout << "  ";
            for (int d = 0; d < p.depth; ++d)
                std::cout << "  ";
            std::cout << p.name << ": " << p.seconds * 1e3 << " ms\n";
        }
    }

    if (res.failedQueries)
        return 3;
    return res.anyCausality() ? 1 : 0;
}

/** Oracle configuration from the CLI flags. */
fuzz::OracleOptions
fuzzOracleOptions(const CliOptions &opt)
{
    fuzz::OracleOptions oopt;
    oopt.mutationSources = opt.fuzzMutations;
    oopt.fullMatrix = opt.fuzzMatrix == "full";
    oopt.chaosSkipCntAddPeriod = opt.fuzzInjectSkipCnt;
    oopt.chaosDropSnapshotPage = opt.fuzzInjectDropSnapshotPage;
    return oopt;
}

/**
 * Dump the artifacts of one failing seed: the full generated program,
 * the shrunk reproducer (when shrinking ran), the violation list, and
 * the failing cell's divergence report as JSONL.
 */
void
writeFuzzArtifacts(const CliOptions &opt, const fuzz::SeedReport &rep,
                   const std::string &minSource)
{
    if (opt.fuzzArtifactsDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(opt.fuzzArtifactsDir, ec);
    std::string base =
        opt.fuzzArtifactsDir + "/seed-" + std::to_string(rep.seed);
    std::ofstream(base + ".mc", std::ios::binary) << rep.source;
    if (!minSource.empty())
        std::ofstream(base + ".min.mc", std::ios::binary) << minSource;
    {
        std::ofstream out(base + ".violations.txt", std::ios::binary);
        for (const fuzz::Violation &v : rep.violations)
            out << v.describe() << "\n";
    }
    if (rep.hasFailingResult && rep.failingResult.divergence.present) {
        std::ofstream out(base + ".divergence.jsonl",
                          std::ios::binary);
        rep.failingResult.divergence.writeJsonl(out, resolveSysName);
    }
    std::cerr << "[ldx] artifacts written to " << base << ".*\n";
}

/**
 * Handle one failing seed: report, shrink (unless --no-shrink), dump
 * artifacts.
 */
void
handleFuzzFailure(const CliOptions &opt, const fuzz::Oracle &oracle,
                  const fuzz::SeedReport &rep)
{
    std::cerr << "[ldx] seed " << rep.seed << ": "
              << rep.violations.size() << " violation(s)\n";
    for (const fuzz::Violation &v : rep.violations)
        std::cerr << "  " << v.describe() << "\n";
    std::string min_source;
    if (opt.fuzzShrink && rep.compiled) {
        fuzz::ProgramGenerator gen(rep.seed,
                                   oracle.options().gen);
        fuzz::GenProgram prog = gen.generateProgram();
        // Only shrink what the generator produced; a replayed file
        // has no emission tree to delta-debug.
        if (prog.render() == rep.source) {
            fuzz::Shrinker shrinker(oracle);
            fuzz::ShrinkResult sr = shrinker.shrink(rep.seed, prog);
            min_source = sr.source;
            std::cerr << "[ldx] shrunk seed " << rep.seed << " ("
                      << sr.evaluations << " evaluations, "
                      << sr.removedNodes
                      << " nodes removed):\n"
                      << min_source;
        }
    }
    writeFuzzArtifacts(opt, rep, min_source);
}

int
cmdFuzz(const CliOptions &opt)
{
    fuzz::Oracle oracle(fuzzOracleOptions(opt));

    // Replay mode: one seed, or one .mc reproducer checked against
    // --seed-start's world and mutation plan.
    if (!opt.fuzzReplay.empty()) {
        bool numeric = !opt.fuzzReplay.empty();
        for (char c : opt.fuzzReplay)
            numeric = numeric &&
                      std::isdigit(static_cast<unsigned char>(c));
        fuzz::SeedReport rep =
            numeric ? oracle.run(parseUint(opt.fuzzReplay, "--replay"))
                    : oracle.runSource(opt.fuzzSeedStart,
                                       readHostFile(opt.fuzzReplay));
        if (!rep.compiled) {
            std::cerr << "[ldx] replay program does not compile\n";
            return 2;
        }
        if (rep.ok()) {
            std::cout << "replay clean: no oracle violations\n";
            return 0;
        }
        handleFuzzFailure(opt, oracle, rep);
        std::cout << "replay: " << rep.violations.size()
                  << " oracle violation(s)\n";
        return 1;
    }

    // Sweep mode.
    auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    std::uint64_t checked = 0;
    std::uint64_t failing = 0;
    std::uint64_t last = opt.fuzzSeedStart + opt.fuzzSeeds;
    for (std::uint64_t seed = opt.fuzzSeedStart; seed < last; ++seed) {
        if (opt.fuzzTimeBudget > 0.0 &&
            elapsed() > opt.fuzzTimeBudget) {
            std::cerr << "[ldx] time budget exhausted after "
                      << checked << " seeds\n";
            break;
        }
        fuzz::SeedReport rep = oracle.run(seed);
        ++checked;
        if (!rep.ok()) {
            ++failing;
            handleFuzzFailure(opt, oracle, rep);
        }
        if (checked % 50 == 0)
            std::cerr << "[ldx] " << checked << " seeds, " << failing
                      << " failing, " << elapsed() << "s\n";
    }
    std::cout << "fuzz: " << checked << " seeds checked, " << failing
              << " failing ("
              << fuzz::Oracle::matrix(oracle.options().fullMatrix)
                     .size()
              << " dual cells/seed, " << elapsed() << "s)\n";
    return failing ? 1 : 0;
}

/**
 * `ldx serve` — run the multi-tenant daemon (docs/SERVE.md) until
 * SIGINT, then drain. The exporter samples the server registry
 * (serve.* gauges and counters) for the daemon's whole lifetime and
 * takes its final sample after the drain completes, so a Prometheus
 * file always ends with the post-drain state.
 */
int
cmdServe(const CliOptions &opt)
{
    if (opt.socketPath.empty())
        usage("serve requires --socket PATH");

    obs::Registry registry;
    serve::ServeConfig cfg;
    cfg.socketPath = opt.socketPath;
    cfg.jobs = opt.jobs;
    cfg.maxTenants = opt.maxTenants;
    cfg.shards = opt.shards;
    cfg.queueCap = opt.queueCap;
    cfg.cacheCap = opt.cacheCap;
    cfg.cacheDir = opt.cacheDir;
    cfg.maxJobQueries = opt.maxJobQueries;
    cfg.drainTimeoutMs = opt.drainTimeoutMs;
    cfg.dispatch = opt.dispatch;
    cfg.version = kLdxVersion;
    cfg.registry = &registry;
    cfg.shutdown = &g_campaignCancel;

    obs::ExporterConfig expcfg;
    expcfg.jsonlPath = opt.exporterOut;
    expcfg.promPath = opt.exporterProm;
    expcfg.intervalMs = opt.exporterIntervalMs;
    expcfg.build.version = kLdxVersion;
    expcfg.build.dispatch = vm::dispatchModeName(opt.dispatch);
    expcfg.build.computedGoto = vm::hasThreadedDispatch();
    obs::Exporter exporter(registry, expcfg);
    if (!opt.exporterOut.empty() || !opt.exporterProm.empty())
        if (!exporter.start())
            usage(exporter.error());

    serve::Server server(cfg);
    std::string err;
    if (!server.start(&err)) {
        std::cerr << "error: " << err << "\n";
        return 2;
    }
    std::cerr << "[ldx] serving on " << opt.socketPath << " ("
              << opt.jobs << " worker" << (opt.jobs == 1 ? "" : "s")
              << ", " << opt.maxTenants << " tenant slots)\n";
    auto prev = std::signal(SIGINT, campaignSigint);
    int rc = server.serve();
    std::cerr << "[ldx] drained: " << server.jobsAccepted()
              << " jobs accepted, " << server.jobsRejected()
              << " rejected\n";
    exporter.stop();
    std::signal(SIGINT, prev);
    return rc;
}

/** `ldx submit` — client side; the argument resolves exactly like
 *  `ldx campaign` (workload, corpus entry, or .mc file). */
int
cmdSubmit(const CliOptions &opt)
{
    if (opt.socketPath.empty())
        usage("submit requires --socket PATH");

    serve::SubmitOptions sopt;
    sopt.socketPath = opt.socketPath;
    sopt.graphOut = opt.graphOut;
    sopt.stream = opt.submitStream;
    serve::SubmitRequest &req = sopt.request;
    req.id = opt.submitId.empty() ? opt.program : opt.submitId;
    if (workloads::findWorkload(opt.program) ||
        findCorpusEntry(opt.program)) {
        req.workload = opt.program;
    } else {
        req.source = readHostFile(opt.program);
        req.env = opt.world.env;
        req.files = opt.world.files;
    }
    for (core::MutationStrategy p : opt.policies)
        req.policies.push_back(core::mutationStrategyName(p));
    if (opt.offsetSet)
        req.offset = opt.offset;
    req.snapshot = opt.snapshot;
    req.threaded = opt.threaded;
    req.deadlineMs = static_cast<std::uint64_t>(opt.deadlineMs);
    return serve::runSubmit(sopt, std::cout, std::cerr);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        CliOptions opt = parseArgs(argc, argv);
        if (opt.command == "run")
            return cmdRun(opt);
        if (opt.command == "dual")
            return cmdDual(opt);
        if (opt.command == "taint")
            return cmdTaint(opt);
        if (opt.command == "dump")
            return cmdDump(opt);
        if (opt.command == "corpus")
            return cmdCorpus();
        if (opt.command == "bench")
            return cmdBench(opt);
        if (opt.command == "explain")
            return cmdExplain(opt);
        if (opt.command == "profile")
            return cmdProfile(opt);
        if (opt.command == "campaign")
            return cmdCampaign(opt);
        if (opt.command == "fuzz")
            return cmdFuzz(opt);
        if (opt.command == "serve")
            return cmdServe(opt);
        if (opt.command == "submit")
            return cmdSubmit(opt);
        usage();
    } catch (const ldx::FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    } catch (const ldx::PanicError &e) {
        std::cerr << "internal error: " << e.what() << "\n";
        return 3;
    }
}
