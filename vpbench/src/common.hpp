/**
 * @file
 * Shared types of the repository benchmark: options, regimes, clocks,
 * order statistics, the span log of the traced run, and the metric
 * sink that prints the result line. See vpbench/README.md.
 */

#ifndef VPBENCH_COMMON_HPP
#define VPBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/types.h>

namespace vpb
{

using Clock = std::chrono::steady_clock;

/** Seconds of CPU time the calling thread has used. */
double threadCpuSeconds();

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** What one workload puts into a run. Every workload runs the same
 *  schedule (compute cycles, with serve phases spread evenly between
 *  them); the regime decides the inputs and the offered load. */
struct Regime
{
    std::string name;
    /** Compute guests: the ten bundled programs plus the three E20
     *  guests, or the seeded scale guest alone. */
    bool scaleGuest = false;
    /** Distinct keys each producer streams into (they half overlap). */
    std::size_t keysPerProducer = 8192;
    /** Open-loop `/top?n=20` rate (a constant, never adapted per run). */
    double queriesPerSec = 100.0;
    /** Closed-loop saturation window per producer connection. */
    unsigned closedWindow = 8;
};

/** Serve-phase shape shared by every regime. */
constexpr std::size_t kEntitiesPerDelta = 64;
constexpr double kDeltasPerSecPerProducer = 200.0;
/** Open-loop phases per run, each followed by a closed-loop one:
 *  medians over phases need at least three. */
constexpr unsigned kOpenPhases = 3;
constexpr double kOpenPhaseSec = 3.5;
/** The unsampled start of each open phase, after the tree sat idle
 *  through a compute cycle. */
constexpr double kLeadInSec = 0.5;
constexpr double kClosedPhaseSec = 2.0;
constexpr unsigned kFetchesPerGap = 3;
/** The leaf's relay tick (vpd --forward-interval, seconds). */
constexpr double kForwardIntervalSec = 0.05;

/** The three workloads (see README.md for why each exists). */
const Regime *findRegime(const std::string &name);
const std::vector<Regime> &allRegimes();

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string vpdPath;
    /** Per-run scratch directory (relative to the working directory). */
    std::string runDir;
};

// --- order statistics ----------------------------------------------------

/** Linear-interpolated quantile of `v` (copied, sorted); 0 if empty. */
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}
double geomean(const std::vector<double> &v);

// --- process probes ------------------------------------------------------

/** A /proc/<pid>/status field in KiB ("VmHWM", "VmRSS"); 0 on error. */
std::uint64_t procStatusKb(pid_t pid, const char *field);
/** CPU time (utime + stime) a process has used, in seconds; 0 on
 *  error. Read from its process CPU clock, to the nanosecond. */
double procCpuSeconds(pid_t pid);

// --- spans (traced run) --------------------------------------------------

/**
 * In-memory span log of the traced run: one record per call the
 * benchmark makes into a layer, with its parent span and an id
 * (cycle/cell, producer:seq, or an index). Written as Chrome-trace
 * JSON at exit through vp::trace.
 */
class SpanLog
{
  public:
    void setEnabled(bool on) { enabled = on; }

    /** Open a span; returns its index, or -1 when disabled. */
    int begin(const char *name, std::string id, int parent = -1);
    void end(int idx);
    /** Record an already-measured span. */
    void add(const char *name, std::string id, int parent,
             Clock::time_point t0, Clock::time_point t1);

    /** Sum of self time (duration minus children) per span name. */
    std::map<std::string, double> selfSecondsByName() const;

    std::size_t size() const { return spans.size(); }
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::string id;
        int parent;
        Clock::time_point t0, t1;
    };
    bool enabled = false;
    Clock::time_point epoch = Clock::now();
    std::vector<Span> spans;
};

SpanLog &spans();

/** RAII span over the global log. */
class Span
{
  public:
    Span(const char *name, std::string id, int parent = -1)
        : idx(spans().begin(name, std::move(id), parent))
    {}
    ~Span() { spans().end(idx); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    int index() const { return idx; }

  private:
    int idx;
};

// --- results -------------------------------------------------------------

/** Operations attempted and failed, by kind. */
struct Accounting
{
    std::map<std::string, std::uint64_t> attempted;
    std::map<std::string, std::uint64_t> failed;

    void attempt(const std::string &kind, std::uint64_t n = 1)
    {
        attempted[kind] += n;
    }
    void fail(const std::string &kind, std::uint64_t n = 1)
    {
        failed[kind] += n;
    }
    std::uint64_t totalAttempted() const;
    std::uint64_t totalFailed() const;
};

/** Named metrics with units, in insertion order. */
class MetricSet
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    bool has(const std::string &name) const;
    double get(const std::string &name) const;
    const std::vector<std::string> &names() const { return order; }
    const std::string &unitOf(const std::string &name) const;

  private:
    std::vector<std::string> order;
    std::map<std::string, std::pair<double, std::string>> values;
};

/** Print `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. */
std::string resultLine(bool correct, const Accounting &acct,
                       const MetricSet &metrics);

/** An output gate failed: the run prints no metrics and exits 1. */
struct GateFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

} // namespace vpb

#endif // VPBENCH_COMMON_HPP
