/**
 * @file
 * Compute cells. Cpu::reset() and input injection are set-up and stay
 * outside the timed region; the timed region is Cpu::run(), plus
 * snapshot build and v2 encode to memory for the profiling cells.
 */

#include "compute.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>

#include <malloc.h>

#include "adapt/engine.hpp"
#include "core/instruction_profiler.hpp"
#include "core/memory_profiler.hpp"
#include "core/profile_codec.hpp"
#include "core/snapshot.hpp"
#include "instrument/image.hpp"
#include "instrument/manager.hpp"
#include "specialize/specializer.hpp"
#include "support/strings.hpp"

namespace vpb
{

namespace
{

/** Consumes every register-write event and does nothing with it: the
 *  event-delivery rung of the ladder. */
class DeliveryTool : public instr::Tool
{
  public:
    bool wantsEventBlocks() const override { return true; }
    void
    onEventBlock(const vpsim::ExecEvent *events, std::size_t n,
                 const std::uint64_t *) override
    {
        for (std::size_t i = 0; i < n; ++i)
            if (events[i].kind == vpsim::ExecEvent::Kind::InstWrote)
                sink ^= events[i].value;
    }
    void
    onInstValue(std::uint32_t, const vpsim::Inst &,
                std::uint64_t value) override
    {
        sink ^= value;
    }
    std::uint64_t sink = 0;
};

/** Adaptive-engine shape: converges within ~200 calls, so adaptation
 *  latency is a small share of every guest's run. */
adapt::AdaptConfig
adaptConfig()
{
    adapt::AdaptConfig cfg;
    cfg.invariance = 0.90;
    cfg.minCalls = 32;
    cfg.deoptWindow = 32;
    cfg.deoptMissRate = 0.5;
    cfg.blacklistAfter = 4;
    cfg.sampler.burstSize = 16;
    cfg.sampler.initialSkip = 16;
    cfg.sampler.convergeRounds = 2;
    cfg.sampler.maxSkip = 256;
    return cfg;
}

core::InstProfilerConfig
instConfig(Cell cell)
{
    core::InstProfilerConfig cfg;
    if (cell == kSampled)
        cfg.mode = core::ProfileMode::Sampled;
    if (cell == kTnv) {
        cfg.profile.trackLastValue = false;
        cfg.profile.trackDistinct = false;
    }
    if (cell == kLvp)
        cfg.profile.trackDistinct = false;
    return cfg;
}

const char *const kCellNames[kNumCells] = {
    "native", "delivery", "tnv", "lvp",
    "full", "sampled", "mem", "adaptive",
};

/** Timer over the calling thread's CPU clock. */
struct CpuTimer
{
    double t0 = threadCpuSeconds();
    double
    lap()
    {
        const double now = threadCpuSeconds();
        const double d = now - t0;
        t0 = now;
        return d;
    }
};

/** Bytes the allocator has handed out and not taken back. */
std::size_t
heapInUse()
{
    const struct mallinfo2 mi = ::mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

/** Two summaries carry the same values, bit for bit. */
bool
sameSummary(const core::EntitySummary &a, const core::EntitySummary &b)
{
    const auto bits = [](double d) {
        std::uint64_t u = 0;
        std::memcpy(&u, &d, sizeof u);
        return u;
    };
    return a.totalExecutions == b.totalExecutions &&
           a.profiledExecutions == b.profiledExecutions &&
           a.distinct == b.distinct && a.topValues == b.topValues &&
           bits(a.invTop) == bits(b.invTop) &&
           bits(a.invAll) == bits(b.invAll) && bits(a.lvp) == bits(b.lvp) &&
           bits(a.zeroFraction) == bits(b.zeroFraction);
}

/** Output gate of the snapshot path: v2 save -> load -> save is a byte
 *  fixed point, and what loads back equals the snapshot built. */
void
checkSnapshotFixedPoint(const std::string &who,
                        const core::ProfileSnapshot &built)
{
    std::ostringstream first;
    built.save(first);
    std::istringstream in(first.str());
    core::ProfileSnapshot back;
    std::string error;
    if (!core::ProfileSnapshot::tryLoad(in, back, error))
        throw GateFailure(who + ": saved snapshot does not load: " +
                          error);
    std::ostringstream second;
    back.save(second);
    if (second.str() != first.str())
        throw GateFailure(who + ": v2 save/load/save is not a byte "
                                "fixed point");
    bool same = back.size() == built.size() &&
                back.droppedStores == built.droppedStores &&
                back.droppedLoads == built.droppedLoads;
    auto b = built.entities.begin();
    for (auto a = back.entities.cbegin();
         same && a != back.entities.cend(); ++a, ++b)
        same = a->first == b->first && sameSummary(a->second, b->second);
    if (!same)
        throw GateFailure(who + ": loaded snapshot differs from the one "
                                "built");
}

void
requireExit(const Guest &g, const char *cell, const vpsim::RunResult &r)
{
    if (!r.exited() || r.exitCode != 0)
        throw GateFailure(vp::format(
            "%s/%s: guest did not exit cleanly (reason %d, code %lld)",
            g.name.c_str(), cell, static_cast<int>(r.reason),
            static_cast<long long>(r.exitCode)));
}

} // namespace

ComputeBench::ComputeBench(std::vector<Guest> &guests_, bool ladder_,
                           Accounting &acct_)
    : guests(guests_), ladder(ladder_), acct(acct_),
      nativeOutput(guests_.size()), insts(guests_.size()),
      accesses(guests_.size()), adaptiveInsts(guests_.size())
{}

void
ComputeBench::runCycle(unsigned cycle, bool traced)
{
    spans().setEnabled(traced);
    vp::stats::setEnabled(traced);
    Span span("compute.cycle", std::to_string(cycle));
    std::vector<GuestCycle> row(guests.size());
    for (std::size_t gi = 0; gi < guests.size(); ++gi)
        runGuest(cycle, gi, traced, row[gi], span.index());
    cycles.push_back(std::move(row));
    cycleTraced.push_back(traced);
    vp::stats::setEnabled(false);
}

void
ComputeBench::runGuest(unsigned cycle, std::size_t gi, bool traced,
                       GuestCycle &out, int parent)
{
    const Guest &g = guests[gi];
    const bool suite_like = g.kind != Guest::Kind::E20;
    std::vector<Cell> cells{kNative};
    if (suite_like) {
        if (ladder)
            cells.insert(cells.end(), {kDelivery, kTnv, kLvp});
        cells.insert(cells.end(), {kFull, kSampled, kMem});
    }
    if (g.adaptive())
        cells.push_back(kAdaptive);

    vpsim::Cpu cpu(g.program);
    core::ProfileSnapshot full_snap;
    for (const Cell cell : cells) {
        const std::string id = vp::format("%u/%s/%s", cycle,
                                          g.name.c_str(),
                                          kCellNames[cell]);
        Span span(kCellNames[cell], id, parent);
        acct.attempt("guest_runs");

        if (cell == kAdaptive) {
            // The engine grows its program: give it a private copy.
            vpsim::Program prog = g.program;
            instr::Image image(prog);
            instr::InstrumentManager mgr(image);
            vpsim::Cpu acpu(prog);
            adapt::AdaptiveEngine engine(prog, mgr, acpu, adaptConfig());
            mgr.attach(acpu);
            CpuTimer timer;
            const vpsim::RunResult r = acpu.run();
            out.total[cell] = out.run[cell] = timer.lap();
            requireExit(g, "adaptive", r);
            if (acpu.output() != nativeOutput[gi])
                throw GateFailure(g.name + ": adaptive output differs "
                                           "from the native run");
            if (engine.installs() == 0)
                throw GateFailure(g.name + ": engine never specialized");
            out.adaptiveInsts = r.dynamicInsts;
            for (const auto &[entry, site] : engine.sites())
                out.adaptiveCalls += site.calls;
            if (cycle == 0) {
                adaptiveInsts[gi] = r.dynamicInsts;
                installs += engine.installs();
                deopts += engine.deopts();
                guardHits += engine.guardHits();
                guardMisses += engine.guardMisses();
            }
            continue;
        }

        cpu.reset();
        g.inject(cpu);
        instr::Image image(g.program);
        instr::InstrumentManager mgr(image);
        DeliveryTool delivery;
        std::unique_ptr<core::InstructionProfiler> iprof;
        std::unique_ptr<core::MemoryProfiler> mprof;
        std::unique_ptr<vp::stats::ScopedRegistry> scope;
        if (cell == kDelivery) {
            mgr.instrumentInsts(image.regWritingInsts(), &delivery);
        } else if (cell == kTnv || cell == kLvp || cell == kFull ||
                   cell == kSampled) {
            iprof = std::make_unique<core::InstructionProfiler>(
                image, instConfig(cell));
            iprof->profileAllWrites(mgr);
        } else if (cell == kMem) {
            core::MemProfilerConfig mcfg;
            mcfg.profileLoads = true;
            mprof = std::make_unique<core::MemoryProfiler>(mcfg);
            mprof->instrument(mgr);
        }
        if (cell != kNative)
            mgr.attach(cpu);
        if (traced && cell == kFull)
            scope = std::make_unique<vp::stats::ScopedRegistry>(fullStats);
        if (traced && cell == kSampled)
            scope = std::make_unique<vp::stats::ScopedRegistry>(
                sampledStats);
        const std::size_t heap0 = cell == kMem ? heapInUse() : 0;

        CpuTimer timer;
        const vpsim::RunResult r = cpu.run();
        out.run[cell] = timer.lap();
        core::ProfileSnapshot snap;
        std::vector<std::uint8_t> bytes;
        if (iprof && (cell == kFull || cell == kSampled)) {
            snap = core::ProfileSnapshot::fromInstructionProfiler(*iprof);
            core::codec::encodeEntityBlock(snap, bytes);
            out.total[cell] = out.run[cell] + timer.lap();
        } else if (mprof) {
            snap = core::ProfileSnapshot::fromMemoryProfiler(*mprof);
            out.buildSec = timer.lap();
            core::codec::encodeEntityBlock(snap, bytes);
            out.encodeSec = timer.lap();
            out.total[cell] =
                out.run[cell] + out.buildSec + out.encodeSec;
            out.memEntities = snap.size();
            out.memBytes = bytes.size();
            out.memLocations = mprof->numLocations();
            out.memHeapBytes = static_cast<std::int64_t>(heapInUse()) -
                               static_cast<std::int64_t>(heap0);
        } else {
            out.total[cell] = out.run[cell];
        }
        scope.reset();
        if (cell != kNative)
            mgr.detach(cpu);

        requireExit(g, kCellNames[cell], r);
        if (cell == kNative) {
            if (cycle == 0) {
                nativeOutput[gi] = cpu.output();
                insts[gi] = r.dynamicInsts;
                accesses[gi] = r.dynamicLoads + r.dynamicStores;
            }
            if (cpu.output() != nativeOutput[gi] ||
                r.dynamicInsts != insts[gi])
                throw GateFailure(g.name + ": native run is not "
                                           "deterministic");
            continue;
        }
        if (cpu.output() != nativeOutput[gi])
            throw GateFailure(vp::format(
                "%s/%s: profiled output differs from the native run",
                g.name.c_str(), kCellNames[cell]));

        if (cell == kFull) {
            // Every execution is recorded, and no table holds more
            // counts than it recorded.
            for (const auto &rec : iprof->records()) {
                const auto &prof = rec.profile;
                if (prof.executions() != rec.totalExecutions ||
                    prof.tnv().coveredCount() > prof.executions())
                    throw GateFailure(vp::format(
                        "%s: full-mode record at pc %u recorded %llu "
                        "counts over %llu executions",
                        g.name.c_str(), rec.pc,
                        static_cast<unsigned long long>(
                            prof.tnv().coveredCount()),
                        static_cast<unsigned long long>(
                            rec.totalExecutions)));
            }
            if (traced)
                fullProfiled += iprof->profiledExecutions();
            if (cycle == 0)
                full_snap = std::move(snap);
        } else if (cell == kSampled) {
            if (traced)
                sampledProfiledTraced += iprof->profiledExecutions();
            if (cycle == 0) {
                sampledProfiled += iprof->profiledExecutions();
                sampledExecuted += iprof->totalExecutions();
                for (const auto &[key, f] : full_snap.entities) {
                    const auto it = snap.entities.find(key);
                    const double s =
                        it == snap.entities.end() ? 0.0 : it->second.invTop;
                    const double w =
                        static_cast<double>(f.totalExecutions);
                    invTopErrNum += w * std::fabs(f.invTop - s);
                    invTopErrDen += w;
                }
            }
        } else if (cell == kMem && cycle == 0) {
            checkSnapshotFixedPoint(g.name, snap);
        }
        if (cell == kMem && traced) {
            CpuTimer t;
            core::ProfileSnapshot decoded;
            std::size_t pos = 0;
            std::string error;
            if (!core::codec::decodeEntityBlock(
                    bytes.data(), bytes.size(), &pos, UINT64_MAX, true,
                    &decoded, error))
                throw GateFailure(g.name + ": memory snapshot does not "
                                           "decode: " + error);
            out.decodeSec = t.lap();
            decoded.merge(snap);
            out.mergeSec = t.lap();
        }
    }
}

double
ComputeBench::cloneMicros(const Guest &g) const
{
    std::vector<double> us;
    for (int rep = 0; rep < 5; ++rep) {
        vpsim::Program prog = g.program;
        specialize::CloneOptions opts;
        opts.retargetCalls = false;
        opts.assumeAbi = false;
        opts.labelSuffix = "_bench";
        const auto t0 = Clock::now();
        specialize::appendGuardedClone(
            prog, "kernel", {{vpsim::regA0, g.config}}, opts);
        us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
    }
    return median(us);
}

void
ComputeBench::endToEnd(MetricSet &out, int which) const
{
    std::vector<double> full, sampled, mem, adapt;
    for (std::size_t c = 0; c < cycles.size(); ++c) {
        if (which >= 0 && cycleTraced[c] != (which == 1))
            continue;
        std::vector<double> f, s, m, a;
        for (std::size_t gi = 0; gi < guests.size(); ++gi) {
            const GuestCycle &gc = cycles[c][gi];
            const double native = gc.total[kNative];
            if (guests[gi].kind != Guest::Kind::E20) {
                f.push_back(gc.total[kFull] / native);
                s.push_back(gc.total[kSampled] / native);
                m.push_back(gc.total[kMem] / native);
            }
            if (guests[gi].adaptive())
                a.push_back(native / gc.total[kAdaptive]);
        }
        full.push_back(geomean(f));
        sampled.push_back(geomean(s));
        mem.push_back(geomean(m));
        adapt.push_back(geomean(a));
    }
    out.set("full_slowdown", median(full), "x");
    out.set("sampled_slowdown", median(sampled), "x");
    out.set("mem_slowdown", median(mem), "x");
    out.set("adapt_speedup", median(adapt), "x");
    out.set("sampled_invtop_err",
            invTopErrDen > 0.0 ? invTopErrNum / invTopErrDen : 0.0,
            "fraction");
}

double
ComputeBench::nativeNsPerInst() const
{
    std::vector<double> ns;
    for (const auto &row : cycles) {
        double secs = 0.0, n = 0.0;
        for (std::size_t gi = 0; gi < guests.size(); ++gi) {
            secs += row[gi].run[kNative];
            n += static_cast<double>(insts[gi]);
        }
        ns.push_back(secs / n * 1e9);
    }
    return median(ns);
}

void
ComputeBench::perLayer(MetricSet &out) const
{
    // Ladder rungs and per-access costs sum over the profiled guests
    // (not the E20 guests), per cycle, then take the median.
    std::uint64_t sum_insts = 0, sum_access = 0, all_insts = 0;
    for (std::size_t gi = 0; gi < guests.size(); ++gi) {
        all_insts += insts[gi];
        if (guests[gi].kind == Guest::Kind::E20)
            continue;
        sum_insts += insts[gi];
        sum_access += accesses[gi];
    }
    const double ni = static_cast<double>(sum_insts);
    std::vector<double> native, delivery, tnv, lvp, distinct, sampler,
        mem_access, build, encode, decode, merge, bytes, rss,
        engine_ns;
    for (std::size_t c = 0; c < cycles.size(); ++c) {
        std::array<double, kNumCells> sum{};
        double b = 0, e = 0, d = 0, m = 0, ents = 0, by = 0, locs = 0,
               heap = 0, eng = 0, calls = 0;
        for (std::size_t gi = 0; gi < guests.size(); ++gi) {
            const GuestCycle &gc = cycles[c][gi];
            if (guests[gi].adaptive() && insts[gi]) {
                const double ns_per =
                    gc.run[kNative] / static_cast<double>(insts[gi]);
                eng += gc.run[kAdaptive] -
                       static_cast<double>(gc.adaptiveInsts) * ns_per;
                calls += static_cast<double>(gc.adaptiveCalls);
            }
            if (guests[gi].kind == Guest::Kind::E20)
                continue;
            for (unsigned k = 0; k < kNumCells; ++k)
                sum[k] += gc.run[k];
            b += gc.buildSec;
            e += gc.encodeSec;
            d += gc.decodeSec;
            m += gc.mergeSec;
            ents += static_cast<double>(gc.memEntities);
            by += static_cast<double>(gc.memBytes);
            locs += static_cast<double>(gc.memLocations);
            heap += static_cast<double>(gc.memHeapBytes);
        }
        native.push_back(sum[kNative] / ni * 1e9);
        if (ladder) {
            delivery.push_back((sum[kDelivery] - sum[kNative]) / ni * 1e9);
            tnv.push_back((sum[kTnv] - sum[kDelivery]) / ni * 1e9);
            lvp.push_back((sum[kLvp] - sum[kTnv]) / ni * 1e9);
            distinct.push_back((sum[kFull] - sum[kLvp]) / ni * 1e9);
            sampler.push_back((sum[kSampled] - sum[kDelivery]) / ni *
                              1e9);
        }
        mem_access.push_back((sum[kMem] - sum[kNative]) /
                             static_cast<double>(sum_access) * 1e9);
        build.push_back(b / ents * 1e9);
        encode.push_back(e / ents * 1e9);
        bytes.push_back(by / ents);
        if (d > 0.0) {
            decode.push_back(d / ents * 1e9);
            merge.push_back(m / ents * 1e9);
        }
        rss.push_back(heap / locs);
        if (calls > 0)
            engine_ns.push_back(eng / calls * 1e9);
    }
    out.set("vpsim.native_ns_per_inst", median(native), "ns");
    out.set("vpsim.insts", static_cast<double>(all_insts), "count");
    out.set("instrument.delivery_ns_per_inst", median(delivery), "ns");
    out.set("core.tnv_ns_per_inst", median(tnv), "ns");
    out.set("core.lvp_ns_per_inst", median(lvp), "ns");
    out.set("core.distinct_ns_per_inst", median(distinct), "ns");
    out.set("core.sampler_ns_per_inst", median(sampler), "ns");
    out.set("core.fraction_profiled",
            sampledExecuted ? static_cast<double>(sampledProfiled) /
                                  static_cast<double>(sampledExecuted)
                            : 0.0,
            "fraction");
    out.set("core.mem_ns_per_access", median(mem_access), "ns");
    out.set("core.rss_bytes_per_location", median(rss), "B");
    out.set("core.snapshot_build_ns_per_entity", median(build), "ns");
    out.set("core.encode_ns_per_entity", median(encode), "ns");
    out.set("core.bytes_per_entity", median(bytes), "B");
    out.set("core.decode_ns_per_entity", median(decode), "ns");
    out.set("core.merge_ns_per_entity", median(merge), "ns");

    using vp::stats::Cid;
    const auto per_kinst = [](std::uint64_t n, std::uint64_t profiled) {
        return profiled ? static_cast<double>(n) * 1000.0 /
                              static_cast<double>(profiled)
                        : 0.0;
    };
    out.set("core.tnv.inserts_per_kinst",
            per_kinst(fullStats.counter(Cid::TnvInserts), fullProfiled),
            "count");
    out.set("core.tnv.evictions_per_kinst",
            per_kinst(fullStats.counter(Cid::TnvEvictions), fullProfiled),
            "count");
    out.set("core.tnv.clears_per_kinst",
            per_kinst(fullStats.counter(Cid::TnvClears), fullProfiled),
            "count");
    out.set("core.sampler.bursts_per_kinst",
            per_kinst(sampledStats.counter(Cid::SamplerBursts),
                      sampledProfiledTraced),
            "count");
    out.set("core.sampler.convergences_per_kinst",
            per_kinst(sampledStats.counter(Cid::SamplerConvergences),
                      sampledProfiledTraced),
            "count");
    out.set("core.sampler.retriggers_per_kinst",
            per_kinst(sampledStats.counter(Cid::SamplerRetriggers),
                      sampledProfiledTraced),
            "count");

    std::vector<double> inst_speedup, clone_us;
    for (std::size_t gi = 0; gi < guests.size(); ++gi) {
        if (!guests[gi].adaptive() || !adaptiveInsts[gi])
            continue;
        inst_speedup.push_back(static_cast<double>(insts[gi]) /
                               static_cast<double>(adaptiveInsts[gi]));
        clone_us.push_back(cloneMicros(guests[gi]));
    }
    out.set("adapt.inst_speedup", geomean(inst_speedup), "x");
    out.set("adapt.engine_ns_per_call", median(engine_ns), "ns");
    out.set("adapt.installs", static_cast<double>(installs), "count");
    out.set("adapt.deopts", static_cast<double>(deopts), "count");
    out.set("adapt.guard_hit_rate",
            guardHits + guardMisses
                ? static_cast<double>(guardHits) /
                      static_cast<double>(guardHits + guardMisses)
                : 0.0,
            "fraction");
    out.set("specialize.clone_us", median(clone_us), "us");
}

} // namespace vpb
