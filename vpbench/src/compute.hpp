/**
 * @file
 * The compute block: every cycle runs each guest natively and under
 * each profiling configuration, once each, in one fixed interleaved
 * order, timing only the measured call on the thread's CPU clock.
 */

#ifndef VPBENCH_COMPUTE_HPP
#define VPBENCH_COMPUTE_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "guests.hpp"
#include "support/stats_registry.hpp"

namespace vpb
{

/** One configuration a guest runs under. */
enum Cell : unsigned
{
    kNative,   ///< no listener attached
    kDelivery, ///< no-op tool on every register write (ladder rung)
    kTnv,      ///< TNV table only: no last-value, no distinct set
    kLvp,      ///< TNV + last value
    kFull,     ///< full instruction profiling (+ snapshot + encode)
    kSampled,  ///< convergent sampling (+ snapshot + encode)
    kMem,      ///< MemoryProfiler, stores and loads (+ snapshot + encode)
    kAdaptive, ///< AdaptiveEngine attached
    kNumCells,
};

/** What one guest's cells measured in one cycle. */
struct GuestCycle
{
    /** Measured seconds: the run, plus snapshot build and encode for
     *  the profiling cells (the end-to-end cost). */
    std::array<double, kNumCells> total{};
    /** The run alone (the ladder subtracts these). */
    std::array<double, kNumCells> run{};
    std::uint64_t adaptiveInsts = 0;
    std::uint64_t adaptiveCalls = 0;
    double buildSec = 0.0;    ///< memory snapshot build
    double encodeSec = 0.0;   ///< memory snapshot v2 encode
    double decodeSec = 0.0;   ///< traced cycles only
    double mergeSec = 0.0;    ///< traced cycles only
    std::uint64_t memEntities = 0;
    std::uint64_t memBytes = 0;
    std::uint64_t memLocations = 0;
    /** Heap bytes the live memory profiler and its snapshot hold. */
    std::int64_t memHeapBytes = 0;
};

class ComputeBench
{
  public:
    ComputeBench(std::vector<Guest> &guests, bool ladder,
                 Accounting &acct);

    /** Run one cycle; `traced` turns on spans and stats counters. */
    void runCycle(unsigned cycle, bool traced);

    /** End-to-end metrics over the cycles whose traced flag matches
     *  (all cycles when `which` is -1). */
    void endToEnd(MetricSet &out, int which = -1) const;
    /** Per-layer metrics (traced run). */
    void perLayer(MetricSet &out) const;

    /** Median native ns per guest instruction: the host's speed
     *  during this run, recorded with every result. */
    double nativeNsPerInst() const;

  private:
    void runGuest(unsigned cycle, std::size_t gi, bool traced,
                  GuestCycle &out, int parent);
    double cloneMicros(const Guest &g) const;

    std::vector<Guest> &guests;
    bool ladder;
    Accounting &acct;

    std::vector<std::vector<GuestCycle>> cycles;
    std::vector<bool> cycleTraced;

    // Per guest, from the first cycle.
    std::vector<std::string> nativeOutput;
    std::vector<std::uint64_t> insts;
    std::vector<std::uint64_t> accesses;
    std::vector<std::uint64_t> adaptiveInsts;
    std::uint64_t sampledProfiled = 0;
    std::uint64_t sampledExecuted = 0;
    /** Sampled-vs-full Inv-Top error of the first cycle, as an
     *  execution-weighted sum and its weight. */
    double invTopErrNum = 0.0;
    double invTopErrDen = 0.0;
    std::uint64_t installs = 0, deopts = 0, guardHits = 0,
                  guardMisses = 0;

    /** Counters of the traced cycles' full and sampled cells. */
    vp::stats::Registry fullStats;
    vp::stats::Registry sampledStats;
    std::uint64_t fullProfiled = 0;
    std::uint64_t sampledProfiledTraced = 0;
};

} // namespace vpb

#endif // VPBENCH_COMPUTE_HPP
