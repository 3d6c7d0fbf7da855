/**
 * @file
 * The benchmark's own tests (vpbench --selftest, also a CTest of this
 * package):
 *   - the same seed regenerates byte-identical inputs, and a second
 *     seed gives different inputs of the same sizes;
 *   - each output gate fires when one of the repository's mutation
 *     canaries is turned on, and passes with every canary off.
 */

#include <cstdio>
#include <functional>
#include <string>

#include "adapt/engine.hpp"
#include "common.hpp"
#include "compute.hpp"
#include "core/profile_codec.hpp"
#include "core/tnv_table.hpp"
#include "guests.hpp"
#include "ingest.hpp"
#include "support/strings.hpp"

namespace vpb
{

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

/** The gate message `run` throws, or "" when it passes. */
std::string
gateMessage(const std::function<void()> &run)
{
    try {
        run();
    } catch (const GateFailure &e) {
        return e.what();
    }
    return "";
}

struct Inputs
{
    std::vector<Guest> guests;
    DeltaInputs deltas;

    std::string
    bytes() const
    {
        std::string out;
        for (const auto &g : guests)
            out += g.source;
        return out + deltas.bytes();
    }
};

Inputs
inputsFor(bool scale, std::uint64_t seed)
{
    Inputs in;
    ScaleShape small;
    small.locations = 4096;
    in.guests = makeGuests(scale, seed, small);
    in.deltas = makeDeltaInputs(sourceSnapshots(in.guests), 2048,
                                64, seed);
    return in;
}

bool
sameSizes(const Inputs &a, const Inputs &b)
{
    if (a.guests.size() != b.guests.size())
        return false;
    for (std::size_t i = 0; i < a.guests.size(); ++i)
        if (a.guests[i].program.code.size() !=
            b.guests[i].program.code.size())
            return false;
    for (std::size_t p = 0; p < 2; ++p) {
        if (a.deltas.preload[p].size() != b.deltas.preload[p].size() ||
            a.deltas.pool[p].size() != b.deltas.pool[p].size())
            return false;
        for (std::size_t i = 0; i < a.deltas.pool[p].size(); ++i)
            if (a.deltas.pool[p][i].size() != b.deltas.pool[p][i].size())
                return false;
    }
    return true;
}

/** One compute cycle of a regime's guests with `canary` flipped. */
std::string
computeGate(bool scale, const std::function<void(bool)> &canary)
{
    Accounting acct;
    ScaleShape small;
    small.locations = 4096;
    auto guests = makeGuests(scale, 1, small);
    ComputeBench bench(guests, false, acct);
    canary(true);
    const std::string msg = gateMessage([&] { bench.runCycle(0, false); });
    canary(false);
    return msg;
}

} // namespace

int
runSelftest(const Options &opts)
{
    for (const bool scale : {false, true}) {
        const char *which = scale ? "scale" : "profile";
        const Inputs a = inputsFor(scale, 7);
        const Inputs b = inputsFor(scale, 7);
        const Inputs c = inputsFor(scale, 8);
        check(a.bytes() == b.bytes(),
              vp::format("%s: seed 7 regenerates byte-identical inputs",
                         which));
        check(a.bytes() != c.bytes() && sameSizes(a, c),
              vp::format("%s: seed 8 gives different inputs of the same "
                         "sizes",
                         which));
    }

    const auto none = [](bool) {};
    check(computeGate(false, none).empty(),
          "profile: compute gates pass with every canary off");
    check(computeGate(true, none).empty(),
          "scale: compute gates pass with every canary off");

    const std::string record = computeGate(false, [](bool on) {
        core::TnvTable::setRecordCanaryForTest(on);
    });
    check(record.find("full-mode record") != std::string::npos,
          "TnvTable record canary trips the full-mode count gate: " +
              record);

    const std::string stale = computeGate(false, [](bool on) {
        adapt::AdaptiveEngine::setStaleGuardCanaryForTest(on);
    });
    check(stale.find("phase_shift: adaptive output differs") !=
              std::string::npos,
          "adapt stale-guard canary trips the output gate on "
          "phase_shift: " + stale);

    const std::string compress = computeGate(true, [](bool on) {
        core::codec::testing::setCompressCanaryForTest(on);
    });
    check(compress.find("fixed point") != std::string::npos,
          "codec compress canary trips the save/load/save gate: " +
              compress);

    // The ingest gate: a canary'd encoder ships wrong counts, so the
    // daemons' aggregates stop matching the serial fold.
    for (const bool canary : {false, true}) {
        Regime tiny = *findRegime("profile");
        tiny.keysPerProducer = 512;
        Accounting acct;
        const Inputs in = inputsFor(false, 3);
        const std::string msg = gateMessage([&] {
            IngestBench ingest(tiny, opts, acct);
            ingest.setup(in.deltas);
            ingest.settle();
            core::codec::testing::setCompressCanaryForTest(canary);
            ingest.runPhase(false);
            ingest.runPhase(false);
            ingest.finish(false);
        });
        core::codec::testing::setCompressCanaryForTest(false);
        if (canary)
            check(msg.find("serial fold") != std::string::npos,
                  "codec compress canary trips the ingest fold gate: " +
                      msg);
        else
            check(msg.empty(), "ingest gate passes with every canary "
                               "off" + (msg.empty() ? "" : ": " + msg));
    }

    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace vpb
