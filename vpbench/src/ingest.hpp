/**
 * @file
 * The serve phases: a leaf -> root tree of real vpd processes, driven
 * by one generator thread over four connections (two producer wire
 * connections and one /top HTTP connection to the leaf, one parked
 * /watch on the root). Open-loop phases (constant delta and query
 * rates, timed from each request's due time) alternate in a fixed
 * order with closed-loop saturation phases; snapshot fetches of the
 * root run between phases.
 */

#ifndef VPBENCH_INGEST_HPP
#define VPBENCH_INGEST_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common.hpp"
#include "core/snapshot.hpp"

namespace vpb
{

/** One vpd process, stopped (SIGTERM, then SIGKILL) by the destructor.
 *  Its standard output is a pipe; standard error goes to a log file. */
class Daemon
{
  public:
    Daemon(std::string name, std::vector<std::string> argv,
           const std::string &log_path);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Block until the daemon prints its first line ("vpd: listening
     *  on ...", printed once every listener is bound). @return false
     *  if it exits first or stays silent for `timeout_s`. */
    bool waitReady(double timeout_s);
    pid_t pid() const { return child; }
    bool alive() const { return child > 0; }
    /** Ask the daemon to exit and wait for it. @return its exit
     *  status was 0. */
    bool stop();

  private:
    std::string name;
    pid_t child = -1;
    int out = -1; ///< read end of the daemon's standard output
};

/** The seeded delta inputs of one run. */
struct DeltaInputs
{
    /** Per producer: the preload deltas covering its key range, then a
     *  pool the timed phases cycle through. */
    std::vector<std::vector<core::ProfileSnapshot>> preload;
    std::vector<std::vector<core::ProfileSnapshot>> pool;

    /** The inputs as bytes (v2), for the seed self-test. */
    std::string bytes() const;
};

/**
 * Re-key summaries from `sources` into two half-overlapping key
 * ranges of `keys` entities each, `per_delta` entities per delta,
 * skewed toward the low end of each range. Same seed, same inputs.
 */
DeltaInputs makeDeltaInputs(const std::vector<core::ProfileSnapshot> &sources,
                            std::size_t keys, std::size_t per_delta,
                            std::uint64_t seed);

class IngestBench
{
  public:
    IngestBench(const Regime &regime, const Options &opts,
                Accounting &acct);
    ~IngestBench();

    /** Start the tree, pre-load each producer's key space and warm
     *  the leaf's fold cache with one /top. Returns once every
     *  pre-load delta is acked and the /top has answered. */
    void setup(const DeltaInputs &inputs);
    /** Wait until the root shows every acked delta (the leaf relays
     *  on its forward-interval tick). */
    void settle();
    /** Stop the daemons (used between repeated set-ups). */
    void teardown();
    /** CPU time both daemons have used since they started, seconds. */
    double daemonCpuSeconds() const;

    /** Run the next phase in the fixed order, then the fetches. */
    void runPhase(bool traced);

    /** Drain, check the output gate, collect daemon stats, stop. */
    void finish(bool replay_layers);

    void endToEnd(MetricSet &out, int which = -1) const;
    void perLayer(MetricSet &out) const;
    /** Peak RSS of both daemons, KiB (valid after finish()). */
    std::uint64_t daemonPeakKb() const { return peakKb; }
    /** Sample counts behind the percentiles, for the report line. */
    std::string sampleReport() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
    std::uint64_t peakKb = 0;
};

} // namespace vpb

#endif // VPBENCH_INGEST_HPP
