/**
 * @file
 * Clocks, order statistics, /proc probes, the span log and the
 * result-line writer shared by every part of the benchmark.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>

#include <unistd.h>

#include "common.hpp"
#include "support/trace.hpp"

namespace vpb
{

const std::vector<Regime> &
allRegimes()
{
    static const std::vector<Regime> regimes = {
        // Cache-resident guests; small partials.
        {"profile", false, 4096, 150.0, 8},
        // One guest whose location records overflow the L2; the
        // largest partials, from its memory profile.
        {"scale", true, 16384, 100.0, 8},
        // The profile guests, with a mid-size key space of mixed
        // instruction and memory summaries and a wider closed loop.
        {"ingest", false, 8192, 150.0, 16},
    };
    return regimes;
}

const Regime *
findRegime(const std::string &name)
{
    for (const auto &r : allRegimes())
        if (r.name == name)
            return &r;
    return nullptr;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return frac == 0.0 ? v[lo] : v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

std::uint64_t
procStatusKb(pid_t pid, const char *field)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    const std::size_t flen = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, flen, field) == 0 && line.size() > flen &&
            line[flen] == ':')
            return std::strtoull(line.c_str() + flen + 1, nullptr, 10);
    }
    return 0;
}

double
procCpuSeconds(pid_t pid)
{
    // The process CPU clock: every thread's utime + stime, in ns.
    clockid_t clock{};
    timespec ts{};
    if (clock_getcpuclockid(pid, &clock) != 0 ||
        clock_gettime(clock, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- spans -----------------------------------------------------------------

SpanLog &
spans()
{
    static SpanLog log;
    return log;
}

int
SpanLog::begin(const char *name, std::string id, int parent)
{
    if (!enabled)
        return -1;
    spans.push_back(Span{name, std::move(id), parent, Clock::now(), {}});
    return static_cast<int>(spans.size() - 1);
}

void
SpanLog::end(int idx)
{
    if (idx >= 0)
        spans[static_cast<std::size_t>(idx)].t1 = Clock::now();
}

void
SpanLog::add(const char *name, std::string id, int parent,
             Clock::time_point t0, Clock::time_point t1)
{
    if (enabled)
        spans.push_back(Span{name, std::move(id), parent, t0, t1});
}

std::map<std::string, double>
SpanLog::selfSecondsByName() const
{
    std::vector<double> child(spans.size(), 0.0);
    for (const auto &s : spans)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] +=
                secondsBetween(s.t0, s.t1);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] +=
            secondsBetween(spans[i].t0, spans[i].t1) - child[i];
    return out;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    vp::trace::TraceCollector collector;
    collector.setEnabled(true);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        vp::trace::TraceEvent e;
        e.name = s.name;
        e.tsUs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                s.t0 - epoch)
                .count());
        e.durUs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                s.t1 - s.t0)
                .count());
        e.args = {{"span", std::to_string(i)},
                  {"parent", std::to_string(s.parent)},
                  {"id", s.id}};
        collector.addComplete(std::move(e));
    }
    std::ofstream out(path);
    if (!out)
        return false;
    collector.writeJson(out);
    return static_cast<bool>(out);
}

// --- results ---------------------------------------------------------------

std::uint64_t
Accounting::totalAttempted() const
{
    std::uint64_t n = 0;
    for (const auto &[kind, count] : attempted)
        n += count;
    return n;
}

std::uint64_t
Accounting::totalFailed() const
{
    std::uint64_t n = 0;
    for (const auto &[kind, count] : failed)
        n += count;
    return n;
}

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit)
{
    if (!values.count(name))
        order.push_back(name);
    values[name] = {value, unit};
}

bool
MetricSet::has(const std::string &name) const
{
    return values.count(name) != 0;
}

double
MetricSet::get(const std::string &name) const
{
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second.first;
}

const std::string &
MetricSet::unitOf(const std::string &name) const
{
    static const std::string none;
    const auto it = values.find(name);
    return it == values.end() ? none : it->second.second;
}

std::string
resultLine(bool correct, const Accounting &acct,
           const MetricSet &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << acct.totalAttempted()
       << ", \"failed\": " << acct.totalFailed() << ", \"metrics\": {";
    bool first = true;
    for (const auto &name : metrics.names()) {
        double v = metrics.get(name);
        if (!std::isfinite(v))
            v = 0.0;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.12g", v);
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << buf << ", \"unit\": \"" << metrics.unitOf(name) << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace vpb
