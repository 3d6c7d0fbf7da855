/**
 * @file
 * vpbench — the repository benchmark. One run measures one workload
 * for --seconds seconds and prints, as its last line, one JSON object
 * with the operations attempted and failed and the metrics: the
 * end-to-end metrics with --trace 0, the per-layer metrics (and the
 * tracing overhead) with --trace 1. See vpbench/README.md.
 *
 * Usage: vpbench --workload profile|scale|ingest --seed N
 *                --seconds S --trace 0|1 --vpd PATH
 *        vpbench --selftest --vpd PATH
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include <sys/utsname.h>
#include <unistd.h>

#include "common.hpp"
#include "compute.hpp"
#include "guests.hpp"
#include "ingest.hpp"
#include "support/strings.hpp"

namespace vpb
{

int runSelftest(const Options &opts);

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: vpbench --workload profile|scale|ingest "
                 "--seed N --seconds S --trace 0|1 --vpd PATH\n"
                 "       vpbench --selftest --vpd PATH\n");
    std::exit(2);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

struct RunInputs
{
    std::vector<Guest> guests;
    DeltaInputs deltas;
};

std::unique_ptr<RunInputs>
makeInputs(const Regime &regime, std::uint64_t seed)
{
    auto in = std::make_unique<RunInputs>();
    in->guests = makeGuests(regime.scaleGuest, seed);
    in->deltas = makeDeltaInputs(sourceSnapshots(in->guests),
                                 regime.keysPerProducer,
                                 kEntitiesPerDelta, seed);
    return in;
}

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

/** The end-to-end metrics, in the order BENCHMARK.json lists them. */
const char *const kEndToEnd[] = {
    "setup_s",          "peak_rss_mb",  "full_slowdown",
    "sampled_slowdown", "mem_slowdown", "adapt_speedup",
    "serve_cpu_us_per_entity", "sampled_invtop_err",
};

/** The serve pipeline's user-visible latencies and throughput. Their
 *  run-to-run spread on a shared host is wider than any bound the
 *  benchmark may set (see README.md), so they are reported with the
 *  per-layer metrics and not gated. */
const char *const kServe[] = {
    "ack_p50_us",     "ack_p99_us",     "query_p50_us",
    "query_p95_us",   "visible_p50_ms", "visible_p75_ms",
    "ingest_entities_per_s", "snapshot_fetch_ms",
};

int
runBench(const Options &opts, const Regime &regime)
{
    Accounting acct;
    std::vector<double> setup_cpu, setup_wall;
    std::unique_ptr<RunInputs> inputs;
    IngestBench ingest(regime, opts, acct);
    // Set up several times and report the median: each set-up
    // assembles the guests, generates the seeded inputs, starts the
    // daemons, pre-loads the key spaces and warms the leaf's fold
    // cache. It is timed on CPU clocks (this process's, and each
    // daemon's since it started) and ends before the root catches up,
    // so time spent waiting, on the host's scheduler or on the leaf's
    // relay tick, stays out of it.
    for (int i = 0; i < kSetups; ++i) {
        if (inputs)
            ingest.teardown();
        const auto t0 = Clock::now();
        const double cpu0 = procCpuSeconds(getpid());
        inputs = makeInputs(regime, opts.seed);
        ingest.setup(inputs->deltas);
        setup_cpu.push_back(procCpuSeconds(getpid()) - cpu0 +
                            ingest.daemonCpuSeconds());
        setup_wall.push_back(secondsBetween(t0, Clock::now()));
    }
    ingest.settle();

    ComputeBench compute(inputs->guests, opts.trace, acct);
    // Serve phases are spread evenly over the run: phase k starts at
    // the first cycle boundary past (k + 1/2)/P of the time; compute
    // cycles fill the rest. Cycles and phases alternate traced and untraced
    // in the traced run, so the tracing overhead is a same-run ratio.
    const unsigned phases_total = 2 * kOpenPhases;
    const auto start = Clock::now();
    const auto at = [&](double frac) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(frac *
                                                         opts.seconds));
    };
    const auto deadline = at(1.0);
    const unsigned min_cycles = opts.trace ? 2 : 1;
    unsigned cycle = 0, phase = 0;
    while (phase < phases_total || cycle < min_cycles ||
           Clock::now() < deadline) {
        if (phase < phases_total &&
            Clock::now() >= at((phase + 0.5) / phases_total)) {
            ingest.runPhase(opts.trace && (phase / 2) % 2 == 1);
            ++phase;
        } else {
            compute.runCycle(cycle, opts.trace && cycle % 2 == 1);
            ++cycle;
        }
    }
    const double measured = secondsBetween(start, Clock::now());
    ingest.finish(opts.trace);

    MetricSet e2e;
    e2e.set("setup_s", median(setup_cpu), "s");
    e2e.set("peak_rss_mb",
            static_cast<double>(procStatusKb(getpid(), "VmHWM") +
                                ingest.daemonPeakKb()) /
                1024.0,
            "MiB");
    compute.endToEnd(e2e);
    ingest.endToEnd(e2e);

    MetricSet out;
    if (!opts.trace) {
        for (const char *name : kEndToEnd)
            out.set(name, e2e.get(name), e2e.unitOf(name));
    } else {
        out.set("setup.wall_s", median(setup_wall), "s");
        compute.perLayer(out);
        ingest.perLayer(out);
        for (const char *name : kServe)
            out.set(std::string("serve.") + name, e2e.get(name),
                    e2e.unitOf(name));
        MetricSet traced, untraced;
        compute.endToEnd(traced, 1);
        compute.endToEnd(untraced, 0);
        ingest.endToEnd(traced, 1);
        ingest.endToEnd(untraced, 0);
        // Set-up, peak RSS and the Inv-Top error are not measured in
        // alternating cycles, so they have no same-run overhead.
        for (const auto &names : {std::vector<const char *>(
                                      std::begin(kEndToEnd) + 2,
                                      std::end(kEndToEnd) - 1),
                                  std::vector<const char *>(
                                      std::begin(kServe),
                                      std::end(kServe))}) {
            for (const char *name : names) {
                const double u = untraced.get(name);
                out.set(std::string("trace.overhead.") + name,
                        u != 0.0 ? traced.get(name) / u : 0.0, "x");
            }
        }
        const std::string path = vp::format(
            ".bench_run/trace-%s-%llu.json", regime.name.c_str(),
            static_cast<unsigned long long>(opts.seed));
        if (!spans().writeChromeTrace(path))
            std::fprintf(stderr, "vpbench: cannot write %s\n",
                         path.c_str());
        std::ostringstream self;
        for (const auto &[name, secs] : spans().selfSecondsByName())
            self << (self.tellp() ? ", " : "") << '"' << name
                 << "\": " << secs * 1e3;
        std::printf("span_self_ms {%s}\n", self.str().c_str());
    }

    utsname uts{};
    uname(&uts);
    std::printf(
        "provenance {\"workload\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %g, \"measured_s\": %.3f, \"trace\": %d, "
        "\"cycles\": %u, \"phases\": %u, \"git_sha\": \"%s\", "
        "\"git_dirty\": \"%s\", \"source_digest\": \"%s\", "
        "\"compiler\": \"%s\", \"flags\": \"%s\", "
        "\"build_type\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, "
        "\"kernel\": \"%s %s\"}\n",
        regime.name.c_str(), static_cast<unsigned long long>(opts.seed),
        opts.seconds, measured, opts.trace ? 1 : 0, cycle, phase,
        jsonEscape(envOr("VPBENCH_GIT_SHA", "unknown")).c_str(),
        jsonEscape(envOr("VPBENCH_GIT_DIRTY", "unknown")).c_str(),
        jsonEscape(envOr("VPBENCH_SOURCE_DIGEST", "unknown")).c_str(),
        VPBENCH_COMPILER, jsonEscape(VPBENCH_FLAGS).c_str(),
        VPBENCH_BUILD_TYPE, jsonEscape(cpuModel()).c_str(),
        std::thread::hardware_concurrency(), uts.sysname, uts.release);

    std::ostringstream att, fail;
    for (const auto &[k, v] : acct.attempted)
        att << (att.tellp() ? ", " : "") << '"' << k << "\": " << v;
    for (const auto &[k, v] : acct.failed)
        fail << (fail.tellp() ? ", " : "") << '"' << k << "\": " << v;
    MetricSet late;
    ingest.perLayer(late);
    std::printf("accounting {\"attempted\": {%s}, \"failed\": {%s}, "
                "\"generator_late_p50_us\": %.3f, "
                "\"generator_late_p99_us\": %.3f, "
                "\"host_native_ns_per_inst\": %.4f, \"samples\": \"%s\"}\n",
                att.str().c_str(), fail.str().c_str(),
                late.get("ingest.generator_late_p50_us"),
                late.get("ingest.generator_late_p99_us"),
                compute.nativeNsPerInst(), ingest.sampleReport().c_str());
    std::printf("%s\n", resultLine(acct.totalFailed() == 0, acct, out)
                            .c_str());
    std::fflush(stdout);
    return acct.totalFailed() == 0 ? 0 : 1;
}

} // namespace
} // namespace vpb

int
main(int argc, char **argv)
{
    vpb::Options opts;
    bool selftest = false;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto need = [&]() -> std::string {
            if (i + 1 >= argc)
                vpb::usage();
            return argv[++i];
        };
        if (a == "--workload") {
            opts.workload = need();
        } else if (a == "--seed") {
            const std::string v = need();
            char *end = nullptr;
            opts.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                vpb::usage();
            have_seed = true;
        } else if (a == "--seconds") {
            opts.seconds = std::atof(need().c_str());
            if (opts.seconds <= 0.0)
                vpb::usage();
            have_seconds = true;
        } else if (a == "--trace") {
            const std::string v = need();
            if (v != "0" && v != "1")
                vpb::usage();
            opts.trace = v == "1";
            have_trace = true;
        } else if (a == "--vpd") {
            opts.vpdPath = need();
        } else if (a == "--selftest") {
            selftest = true;
        } else {
            vpb::usage();
        }
    }
    if (opts.vpdPath.empty() || ::access(opts.vpdPath.c_str(), X_OK) != 0)
        vpb::usage();
    const vpb::Regime *regime = vpb::findRegime(opts.workload);
    if (!selftest && (!regime || !have_seed || !have_seconds ||
                      !have_trace))
        vpb::usage();

    opts.runDir = ".bench_run/" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::create_directories(opts.runDir, ec);
    if (ec) {
        std::fprintf(stderr, "vpbench: cannot create %s\n",
                     opts.runDir.c_str());
        return 1;
    }
    int rc = 1;
    try {
        rc = selftest ? vpb::runSelftest(opts)
                      : vpb::runBench(opts, *regime);
    } catch (const vpb::GateFailure &e) {
        std::fprintf(stderr, "vpbench: output gate failed: %s\n",
                     e.what());
        rc = 1;
    }
    std::filesystem::remove_all(opts.runDir, ec);
    return rc;
}
