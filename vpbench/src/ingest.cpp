/**
 * @file
 * Serve phases against real vpd processes. The generator speaks only
 * the wire protocol (serve/wire.hpp) and HTTP/1.1 to the daemons; the
 * in-process replays of the traced run call the same public serve and
 * core functions on this run's own inputs after the timed phases.
 */

#include "ingest.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/query.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"
#include "support/strings.hpp"

namespace vpb
{

// --- daemons ---------------------------------------------------------------

namespace
{

/** Daemons not yet stopped; killed at exit if a fatal error skips
 *  the destructors. */
std::set<pid_t> &
liveDaemons()
{
    static std::set<pid_t> pids;
    return pids;
}

void
killLiveDaemons()
{
    for (const pid_t pid : liveDaemons()) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
    }
    liveDaemons().clear();
}

} // namespace

Daemon::Daemon(std::string name_, std::vector<std::string> argv,
               const std::string &log_path)
    : name(std::move(name_))
{
    std::vector<char *> args;
    for (auto &a : argv)
        args.push_back(a.data());
    args.push_back(nullptr);
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0)
        throw GateFailure("pipe failed for " + name);
    child = ::fork();
    if (child < 0) {
        ::close(pipe_fds[0]);
        ::close(pipe_fds[1]);
        throw GateFailure("fork failed for " + name);
    }
    if (child == 0) {
        ::dup2(pipe_fds[1], 1);
        const int fd = ::open(log_path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, 2);
            ::close(fd);
        }
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    ::close(pipe_fds[1]);
    out = pipe_fds[0];
    static const bool hooked = std::atexit(killLiveDaemons) == 0;
    (void)hooked;
    liveDaemons().insert(child);
}

Daemon::~Daemon() { stop(); }

namespace
{

/** Read `fd` until a newline (`line`) or end of file (`!line`), or
 *  until `deadline`. @return false on timeout or error. */
bool
readUntil(int fd, bool line, Clock::time_point deadline)
{
    char buf[256];
    while (true) {
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline - Clock::now());
        pollfd pfd{fd, POLLIN, 0};
        const int rc = ::poll(
            &pfd, 1, static_cast<int>(std::max<long long>(0, left.count())));
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc <= 0)
            return false;
        const ssize_t n = ::read(fd, buf, line ? 1 : sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            return false;
        if (n == 0)
            return !line;
        if (line && buf[0] == '\n')
            return true;
    }
}

Clock::time_point
after(double secs)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(secs));
}

} // namespace

bool
Daemon::waitReady(double timeout_s)
{
    return readUntil(out, true, after(timeout_s));
}

bool
Daemon::stop()
{
    if (child <= 0)
        return true;
    liveDaemons().erase(child);
    ::kill(child, SIGTERM);
    // The daemon's standard output reaches end of file when it exits;
    // the read end stays open until then, so its last lines never
    // meet a closed pipe.
    const bool exited = readUntil(out, false, after(15.0));
    if (!exited)
        ::kill(child, SIGKILL);
    int status = 0;
    const pid_t r = ::waitpid(child, &status, 0);
    ::close(out);
    out = -1;
    child = -1;
    return exited && r > 0 && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
}

// --- seeded inputs ---------------------------------------------------------

DeltaInputs
makeDeltaInputs(const std::vector<core::ProfileSnapshot> &sources,
                std::size_t keys, std::size_t per_delta,
                std::uint64_t seed)
{
    std::vector<const core::EntitySummary *> src;
    for (const auto &snap : sources)
        for (const auto &[key, summary] : snap.entities)
            src.push_back(&summary);
    if (src.empty())
        throw GateFailure("no source summaries for the delta inputs");

    vp::Rng rng(seed ^ 0xDE17A5EEDull);
    const std::uint64_t base = 0x10000000 + rng.below(1u << 20) * 8;
    const std::uint64_t mul = rng.next() | 1;
    const std::uint64_t off = rng.next();
    const auto summary_for = [&](std::uint64_t i) {
        return *src[((i * mul) ^ off) % src.size()];
    };

    DeltaInputs in;
    constexpr std::size_t kPool = 512;
    for (std::size_t p = 0; p < 2; ++p) {
        const std::uint64_t lo = p * keys / 2;
        std::vector<core::ProfileSnapshot> pre;
        for (std::uint64_t i = 0; i < keys; i += per_delta) {
            core::ProfileSnapshot d;
            for (std::uint64_t j = i; j < std::min<std::uint64_t>(
                                              keys, i + per_delta);
                 ++j)
                d.entities[base + 8 * (lo + j)] = summary_for(lo + j);
            pre.push_back(std::move(d));
        }
        std::vector<core::ProfileSnapshot> pool;
        for (std::size_t n = 0; n < kPool; ++n) {
            core::ProfileSnapshot d;
            while (d.entities.size() < per_delta) {
                const double u =
                    static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
                const auto j = static_cast<std::uint64_t>(
                    u * u * static_cast<double>(keys));
                d.entities[base + 8 * (lo + j)] = summary_for(lo + j);
            }
            pool.push_back(std::move(d));
        }
        in.preload.push_back(std::move(pre));
        in.pool.push_back(std::move(pool));
    }
    return in;
}

std::string
DeltaInputs::bytes() const
{
    std::ostringstream os;
    for (const auto *set : {&preload, &pool})
        for (const auto &per_producer : *set)
            for (const auto &d : per_producer)
                d.save(os);
    return os.str();
}

// --- connections -----------------------------------------------------------

namespace
{

using vp::serve::Frame;
using vp::serve::MsgType;

double
toUs(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

/** Non-blocking stream socket with a write buffer. */
struct Conn
{
    vp::net::FdGuard fd;
    std::string out;
    std::size_t outPos = 0;

    bool
    open(const std::string &addr)
    {
        vp::net::Address a;
        std::string error;
        if (!vp::net::parseAddress(addr, a, error))
            return false;
        fd.reset(vp::net::connectTo(a, error));
        return fd.valid() && vp::net::setNonBlocking(fd.get(), error);
    }

    void
    queue(const void *data, std::size_t n)
    {
        out.append(static_cast<const char *>(data), n);
        flush();
    }

    bool
    flush()
    {
        while (outPos < out.size()) {
            const ssize_t n =
                ::send(fd.get(), out.data() + outPos, out.size() - outPos,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return errno == EAGAIN || errno == EWOULDBLOCK;
            }
            outPos += static_cast<std::size_t>(n);
        }
        out.clear();
        outPos = 0;
        return true;
    }

    bool pendingOut() const { return outPos < out.size(); }

    /** Append whatever is readable to `in`. @return false on close. */
    bool
    readInto(std::string &in)
    {
        char buf[64 * 1024];
        while (true) {
            const ssize_t n = ::recv(fd.get(), buf, sizeof buf,
                                     MSG_DONTWAIT);
            if (n > 0) {
                in.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0)
                return false;
            if (errno == EINTR)
                continue;
            return errno == EAGAIN || errno == EWOULDBLOCK;
        }
    }
};

/** Take one complete HTTP response off the front of `buf`. Bodies
 *  below vpd's chunking threshold (64 KiB) carry a Content-Length; the
 *  /top?n=20 and /watch replies always do. */
bool
takeResponse(std::string &buf, int &status, std::string &body)
{
    const auto he = buf.find("\r\n\r\n");
    if (he == std::string::npos)
        return false;
    std::string head = buf.substr(0, he);
    for (auto &c : head)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    status = head.size() > 12 ? std::atoi(head.c_str() + 9) : 0;
    const auto cl = head.find("content-length:");
    const std::size_t len =
        cl == std::string::npos
            ? 0
            : std::strtoull(head.c_str() + cl + 15, nullptr, 10);
    if (buf.size() < he + 4 + len)
        return false;
    body = buf.substr(he + 4, len);
    buf.erase(0, he + 4 + len);
    return true;
}

std::string
httpGet(const std::string &target)
{
    return "GET " + target + " HTTP/1.1\r\nHost: vpd\r\n\r\n";
}

/** `"key": number` (or `"key":number`) in JSON text; -1 if absent. */
double
jsonNumber(const std::string &text, const std::string &key,
           std::size_t from = 0)
{
    const auto k = text.find("\"" + key + "\"", from);
    if (k == std::string::npos)
        return -1.0;
    const auto colon = text.find(':', k);
    return std::strtod(text.c_str() + colon + 1, nullptr);
}

/** A distribution field (p50/p99) of a --stats-out file; 0 if absent. */
double
statsDist(const std::string &text, const std::string &dist,
          const std::string &field)
{
    const auto k = text.find("\"" + dist + "\": {");
    if (k == std::string::npos)
        return 0.0;
    return std::max(0.0, jsonNumber(text, field, k));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

std::string
saved(const core::ProfileSnapshot &s)
{
    std::ostringstream os;
    s.save(os);
    return os.str();
}

} // namespace

// --- the bench -------------------------------------------------------------

struct IngestBench::Impl
{
    struct Producer
    {
        std::uint64_t id = 0;
        Conn conn;
        vp::serve::FrameReader reader;
        std::string inbuf;
        std::uint64_t sent = 0;   ///< highest seq sent
        std::uint64_t acked = 0;  ///< highest seq acked
        std::uint64_t rootSeq = 0; ///< highest seq visible at the root
        /** Per seq (index seq-1): due time (closed loop: send time),
         *  whether it was open-loop, and the delta sent. */
        std::vector<Clock::time_point> due;
        std::vector<char> open;
        std::vector<const core::ProfileSnapshot *> snap;
        std::vector<int> span;
    };

    struct PhaseRecord
    {
        bool open = true;
        bool traced = false;
        std::vector<double> ackUs, queryUs, visibleMs, lateUs;
        /** Entities in the deltas acked so far in the phase. */
        std::uint64_t entities = 0;
        /** Over the phase's timed window: entities acked per second,
         *  and the leaf's and root's CPU per entity acked. */
        double entitiesPerSec = 0.0;
        double leafCpuUs = 0.0, rootCpuUs = 0.0;
    };

    struct Fetch
    {
        bool traced = false;
        double waitMs = 0.0, decodeMs = 0.0;
    };

    const Regime &regime;
    const Options &opts;
    Accounting &acct;
    const DeltaInputs *inputs = nullptr;

    std::string leafAddr, rootAddr, leafHttp, rootHttp;
    std::unique_ptr<Daemon> root, leaf;
    Producer prod[2];
    Conn top, watch;
    std::string topIn, watchIn;
    std::vector<Clock::time_point> topDue; ///< FIFO of in-flight queries
    std::vector<int> topSpan;
    std::uint64_t watchSeq = 0;
    bool watchArmed = false;
    Clock::time_point watchSent{};

    std::vector<PhaseRecord> phases;
    PhaseRecord *cur = nullptr;
    std::vector<Fetch> fetches;
    unsigned phaseIndex = 0;
    /** Open-loop requests due before this are sent but not sampled:
     *  the lead-in of each phase after the tree sat idle. */
    Clock::time_point sampleFrom{};
    std::uint64_t rootUpdates = 0;
    double leafCpu = 0.0, rootCpu = 0.0, busyWall = 0.0;

    // Filled by finish().
    std::string leafStats, rootStats;
    core::ProfileSnapshot partial[2];
    core::ProfileSnapshot oracle;
    std::vector<double> replayDecodeUs, replayMergeUs, replayFoldUs,
        replayRenderUs, replayRelayMs, replayFullFoldMs;
    double relayKib = 0.0; ///< one relayed partial, encoded

    Impl(const Regime &r, const Options &o, Accounting &a)
        : regime(r), opts(o), acct(a)
    {
        leafAddr = "unix:" + opts.runDir + "/vpd-leaf.sock";
        rootAddr = "unix:" + opts.runDir + "/vpd-root.sock";
        leafHttp = "unix:" + opts.runDir + "/vpd-leaf.http";
        rootHttp = "unix:" + opts.runDir + "/vpd-root.http";
        prod[0].id = 1;
        prod[1].id = 2;
    }

    void
    start()
    {
        const std::string &d = opts.runDir;
        root = std::make_unique<Daemon>(
            "root",
            std::vector<std::string>{opts.vpdPath, "--listen", rootAddr,
                                     "--http", rootHttp, "--stats-out",
                                     d + "/vpd-root.stats.json"},
            d + "/vpd-root.log");
        if (!root->waitReady(10.0))
            throw GateFailure("root vpd did not come up (see " + d +
                              "/vpd-root.log)");
        leaf = std::make_unique<Daemon>(
            "leaf",
            std::vector<std::string>{
                opts.vpdPath, "--listen", leafAddr, "--http", leafHttp,
                "--forward", rootAddr, "--forward-id", "1000",
                "--forward-interval",
                vp::format("%g", kForwardIntervalSec), "--stats-out",
                d + "/vpd-leaf.stats.json"},
            d + "/vpd-leaf.log");
        if (!leaf->waitReady(10.0))
            throw GateFailure("leaf vpd did not come up (see " + d +
                              "/vpd-leaf.log)");
        for (auto &p : prod)
            if (!p.conn.open(leafAddr))
                throw GateFailure("cannot connect a producer to the leaf");
        if (!top.open(leafHttp) || !watch.open(rootHttp))
            throw GateFailure("cannot open the HTTP connections");
    }

    // --- sending ---------------------------------------------------------

    void
    sendDelta(Producer &p, Clock::time_point due, bool open_loop,
              const core::ProfileSnapshot &snap)
    {
        vp::serve::Delta d;
        d.producerId = p.id;
        d.seq = ++p.sent;
        d.entities = snap;
        const int span = spans().begin(
            "serve.delta", vp::format("%llu:%llu",
                                      static_cast<unsigned long long>(p.id),
                                      static_cast<unsigned long long>(d.seq)));
        const auto frame = vp::serve::encodeDelta(d);
        p.due.push_back(due);
        p.open.push_back(open_loop);
        p.snap.push_back(&snap);
        p.span.push_back(span);
        acct.attempt("deltas_sent");
        p.conn.queue(frame.data(), frame.size());
        if (open_loop && cur && due >= sampleFrom)
            cur->lateUs.push_back(toUs(Clock::now() - due));
    }

    const core::ProfileSnapshot &
    poolDelta(std::size_t pi, std::uint64_t seq) const
    {
        const auto &pool = inputs->pool[pi];
        return pool[seq % pool.size()];
    }

    void
    sendQuery(Clock::time_point due)
    {
        const std::string req = httpGet("/top?n=20");
        topDue.push_back(due);
        topSpan.push_back(spans().begin(
            "serve.query", std::to_string(acct.attempted["http_requests"])));
        acct.attempt("http_requests");
        top.queue(req.data(), req.size());
        if (cur && due >= sampleFrom)
            cur->lateUs.push_back(toUs(Clock::now() - due));
    }

    void
    armWatch()
    {
        const std::string req = httpGet(
            "/watch?since=" + std::to_string(watchSeq));
        watch.queue(req.data(), req.size());
        watchArmed = true;
        watchSent = Clock::now();
    }

    // --- receiving -------------------------------------------------------

    void
    onFrames(Producer &p, std::size_t pi, bool closed_loop)
    {
        if (!p.conn.readInto(p.inbuf)) {
            acct.fail("connections_lost");
            throw GateFailure("the leaf closed a producer connection");
        }
        p.reader.append(reinterpret_cast<const std::uint8_t *>(
                            p.inbuf.data()),
                        p.inbuf.size());
        p.inbuf.clear();
        Frame f;
        std::string error;
        while (true) {
            const auto st = p.reader.next(f, error);
            if (st == vp::serve::DecodeStatus::NeedMore)
                break;
            if (st == vp::serve::DecodeStatus::Corrupt)
                throw GateFailure("corrupt reply from the leaf: " + error);
            if (f.type == MsgType::Error) {
                acct.fail("deltas_errored");
                throw GateFailure("leaf refused a delta: " +
                                  vp::serve::payloadText(f.payload));
            }
            std::uint64_t seq = 0;
            if (f.type != MsgType::Ack ||
                !vp::serve::decodeAck(f.payload, seq, error))
                throw GateFailure("unexpected reply on a producer "
                                  "connection");
            const auto now = Clock::now();
            for (std::uint64_t s = p.acked + 1; s <= seq && s <= p.sent;
                 ++s) {
                const std::size_t i = s - 1;
                spans().end(p.span[i]);
                if (!cur)
                    continue;
                cur->entities += p.snap[i]->size();
                if (p.open[i] && p.due[i] >= sampleFrom)
                    cur->ackUs.push_back(toUs(now - p.due[i]));
            }
            p.acked = std::max(p.acked, seq);
            if (closed_loop)
                while (p.sent - p.acked < regime.closedWindow)
                    sendDelta(p, Clock::now(), false,
                              poolDelta(pi, p.sent + 1));
        }
    }

    void
    onTop()
    {
        if (!top.readInto(topIn))
            throw GateFailure("the leaf closed the /top connection");
        int status = 0;
        std::string body;
        while (!topDue.empty() && takeResponse(topIn, status, body)) {
            const auto now = Clock::now();
            spans().end(topSpan.front());
            // A failed request misses every latency limit: it enters
            // the distribution as an infinite sample, never a dropped one.
            if (status != 200)
                acct.fail("http_requests");
            if (cur && topDue.front() >= sampleFrom)
                cur->queryUs.push_back(
                    status == 200
                        ? toUs(now - topDue.front())
                        : std::numeric_limits<double>::infinity());
            topDue.erase(topDue.begin());
            topSpan.erase(topSpan.begin());
        }
    }

    void
    onWatch()
    {
        if (!watch.readInto(watchIn))
            throw GateFailure("the root closed the /watch connection");
        int status = 0;
        std::string body;
        while (takeResponse(watchIn, status, body)) {
            const auto now = Clock::now();
            watchArmed = false;
            acct.attempt("watch_wakes");
            if (status != 200) {
                acct.fail("watch_wakes");
                armWatch();
                continue;
            }
            const double seq = jsonNumber(body, "seq");
            if (seq >= 0)
                watchSeq = static_cast<std::uint64_t>(seq);
            // The newest delta this update made visible.
            bool have = false;
            Clock::time_point newest{};
            bool newest_open = false;
            const auto plist = body.find("\"producers\":[");
            for (std::size_t pos = plist; pos != std::string::npos;) {
                pos = body.find("{\"id\":", pos);
                if (pos == std::string::npos)
                    break;
                const auto id = static_cast<std::uint64_t>(
                    jsonNumber(body, "id", pos));
                const auto last = static_cast<std::uint64_t>(
                    jsonNumber(body, "last_seq", pos));
                pos += 6;
                for (auto &p : prod) {
                    if (p.id != id || last <= p.rootSeq ||
                        last > p.due.size())
                        continue;
                    p.rootSeq = last;
                    const auto due = p.due[last - 1];
                    if (!have || due > newest) {
                        newest = due;
                        newest_open = p.open[last - 1];
                        have = true;
                    }
                }
            }
            if (have) {
                ++rootUpdates;
                spans().add("serve.visible", std::to_string(watchSeq), -1,
                            newest, now);
                if (newest_open && cur && newest >= sampleFrom)
                    cur->visibleMs.push_back(toUs(now - newest) / 1000.0);
            }
            armWatch();
        }
    }

    /**
     * The generator loop: send what falls due, poll the four
     * connections until the next due time, handle replies. Returns
     * when `until` passes or `done()` holds.
     */
    template <typename Done>
    void
    pump(Clock::time_point until, bool open_loop, bool closed_loop,
         Clock::time_point t0, Done done)
    {
        const double delta_gap = 1.0 / kDeltasPerSecPerProducer;
        const double query_gap = 1.0 / regime.queriesPerSec;
        std::uint64_t ndelta[2] = {0, 0}, nquery = 0;
        const auto at = [&](double sec) {
            return t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(sec));
        };
        if (closed_loop)
            for (std::size_t pi = 0; pi < 2; ++pi)
                while (prod[pi].sent - prod[pi].acked < regime.closedWindow)
                    sendDelta(prod[pi], Clock::now(), false,
                              poolDelta(pi, prod[pi].sent + 1));
        while (true) {
            auto now = Clock::now();
            if (now >= until || done())
                return;
            auto next = until;
            if (open_loop) {
                for (std::size_t pi = 0; pi < 2; ++pi) {
                    // Producers are staggered by half a gap.
                    auto due = at((static_cast<double>(ndelta[pi]) +
                                   0.5 * static_cast<double>(pi)) *
                                  delta_gap);
                    while (due <= now) {
                        sendDelta(prod[pi], due, true,
                                  poolDelta(pi, prod[pi].sent + 1));
                        ++ndelta[pi];
                        due = at((static_cast<double>(ndelta[pi]) +
                                  0.5 * static_cast<double>(pi)) *
                                 delta_gap);
                    }
                    next = std::min(next, due);
                }
                auto qdue = at((static_cast<double>(nquery) + 0.25) *
                               query_gap);
                while (qdue <= now) {
                    sendQuery(qdue);
                    ++nquery;
                    qdue = at((static_cast<double>(nquery) + 0.25) *
                              query_gap);
                }
                next = std::min(next, qdue);
            }
            pollfd fds[4];
            Conn *conns[4] = {&prod[0].conn, &prod[1].conn, &top, &watch};
            for (int i = 0; i < 4; ++i) {
                fds[i].fd = conns[i]->fd.get();
                fds[i].events = static_cast<short>(
                    POLLIN | (conns[i]->pendingOut() ? POLLOUT : 0));
                fds[i].revents = 0;
            }
            // The generator busy-polls through an open-loop phase: a
            // sleeping generator adds its own wake-up latency to every
            // due time and every ack it observes. Elsewhere it sleeps
            // until a reply or the next due time.
            now = Clock::now();
            const auto wait = next > now ? next - now : Clock::duration(0);
            const auto ns = open_loop
                                ? 0
                                : std::chrono::duration_cast<
                                      std::chrono::nanoseconds>(wait)
                                      .count();
            timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                        static_cast<long>(ns % 1'000'000'000)};
            const int rc = ::ppoll(fds, 4, &ts, nullptr);
            if (rc < 0 && errno != EINTR)
                throw GateFailure("poll failed");
            if (rc <= 0)
                continue;
            for (int i = 0; i < 4; ++i) {
                if (fds[i].revents & POLLOUT)
                    conns[i]->flush();
                if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;
                if (i < 2)
                    onFrames(prod[i], static_cast<std::size_t>(i),
                             closed_loop);
                else if (i == 2)
                    onTop();
                else
                    onWatch();
            }
        }
    }

    bool
    drained() const
    {
        return prod[0].acked == prod[0].sent &&
               prod[1].acked == prod[1].sent && topDue.empty();
    }

    bool
    rootCaughtUp() const
    {
        return prod[0].rootSeq == prod[0].acked &&
               prod[1].rootSeq == prod[1].acked;
    }

    void
    settle(const char *what)
    {
        const auto now = Clock::now();
        pump(now + std::chrono::seconds(30), false, false, now,
             [&] { return drained() && rootCaughtUp(); });
        if (!drained() || !rootCaughtUp())
            throw GateFailure(std::string("the tree did not settle ") +
                              what);
    }

    void
    fetch(bool traced)
    {
        Span span("serve.snapshot_fetch", std::to_string(fetches.size()));
        acct.attempt("snapshot_fetches");
        Fetch f;
        f.traced = traced;
        Frame frame;
        std::string error;
        const auto t0 = Clock::now();
        bool ok = vp::serve::request(rootAddr, MsgType::Snapshot, frame,
                                     error);
        const auto t1 = Clock::now();
        core::ProfileSnapshot snap;
        ok = ok && vp::serve::decodeSnapshotReply(frame, snap, error);
        const auto t2 = Clock::now();
        spans().add("serve.snapshot_wait", "", span.index(), t0, t1);
        spans().add("serve.snapshot_decode", "", span.index(), t1, t2);
        if (!ok) {
            acct.fail("snapshot_fetches");
            return;
        }
        f.waitMs = toUs(t1 - t0) / 1000.0;
        f.decodeMs = toUs(t2 - t1) / 1000.0;
        fetches.push_back(f);
    }
};

IngestBench::IngestBench(const Regime &regime, const Options &opts,
                         Accounting &acct)
    : impl(std::make_unique<Impl>(regime, opts, acct))
{}

IngestBench::~IngestBench() = default;

void
IngestBench::setup(const DeltaInputs &inputs)
{
    Impl &m = *impl;
    m.inputs = &inputs;
    m.start();
    m.armWatch();
    // Pre-load each producer's key space in a closed loop, so partial
    // sizes hold steady through the timed phases.
    const auto now = Clock::now();
    std::size_t next[2] = {0, 0};
    const auto refill = [&] {
        for (std::size_t pi = 0; pi < 2; ++pi) {
            auto &p = m.prod[pi];
            const auto &pre = inputs.preload[pi];
            while (next[pi] < pre.size() &&
                   p.sent - p.acked < m.regime.closedWindow)
                m.sendDelta(p, Clock::now(), false, pre[next[pi]++]);
        }
        return next[0] == inputs.preload[0].size() &&
               next[1] == inputs.preload[1].size() && m.drained();
    };
    m.pump(now + std::chrono::seconds(60), false, false, now, refill);
    if (!refill())
        throw GateFailure("pre-loading the key spaces timed out");
    // One /top warms the leaf's fold cache: every later delta then
    // re-folds its keys across the partials, in every phase alike.
    m.sendQuery(Clock::now());
    const auto t = Clock::now();
    m.pump(t + std::chrono::seconds(30), false, false, t,
           [&] { return m.drained(); });
    if (!m.drained())
        throw GateFailure("the warm-up /top did not answer");
}

void
IngestBench::settle()
{
    impl->settle("after set-up");
}

double
IngestBench::daemonCpuSeconds() const
{
    return procCpuSeconds(impl->leaf->pid()) +
           procCpuSeconds(impl->root->pid());
}

void
IngestBench::teardown()
{
    Impl &m = *impl;
    if (m.leaf)
        m.leaf->stop();
    if (m.root)
        m.root->stop();
    const Regime &regime = m.regime;
    const Options &opts = m.opts;
    Accounting &acct = m.acct;
    impl = std::make_unique<Impl>(regime, opts, acct);
}

void
IngestBench::runPhase(bool traced)
{
    Impl &m = *impl;
    spans().setEnabled(traced);
    const bool open = m.phaseIndex % 2 == 0;
    const double secs =
        open ? kOpenPhaseSec : kClosedPhaseSec;
    Span span(open ? "serve.open_phase" : "serve.closed_phase",
              std::to_string(m.phaseIndex));
    m.phases.emplace_back();
    m.cur = &m.phases.back();
    m.cur->open = open;
    m.cur->traced = traced;

    const double leaf0 = procCpuSeconds(m.leaf->pid());
    const double root0 = procCpuSeconds(m.root->pid());
    const auto t0 = Clock::now();
    m.sampleFrom = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                open ? kLeadInSec : 0.0));
    const auto until =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(secs));
    m.pump(until, open, !open, t0, [] { return false; });
    const double wall = secondsBetween(t0, Clock::now());
    const double leaf = procCpuSeconds(m.leaf->pid()) - leaf0;
    const double root = procCpuSeconds(m.root->pid()) - root0;
    m.leafCpu += leaf;
    m.rootCpu += root;
    m.busyWall += wall;
    const auto entities = static_cast<double>(m.cur->entities);
    m.cur->entitiesPerSec = entities / wall;
    m.cur->leafCpuUs = entities > 0 ? leaf * 1e6 / entities : 0.0;
    m.cur->rootCpuUs = entities > 0 ? root * 1e6 / entities : 0.0;

    // Let the phase's in-flight work land: acks, replies and root
    // updates that arrive now are still samples of this phase. Then
    // fetch the root.
    m.settle("between phases");
    m.cur = nullptr;
    for (unsigned i = 0; i < kFetchesPerGap; ++i)
        m.fetch(traced);
    ++m.phaseIndex;
    spans().setEnabled(false);
}

void
IngestBench::finish(bool replay_layers)
{
    Impl &m = *impl;
    m.settle("at the end of the run");
    for (const auto &p : m.prod)
        if (p.acked != p.sent)
            m.acct.fail("deltas_unacked", p.sent - p.acked);

    // Output gate: both aggregates are byte-identical to a serial fold
    // of every acked delta (per producer in seq order, then producers
    // in ascending id order, as vpd folds them).
    for (std::size_t pi = 0; pi < 2; ++pi) {
        m.partial[pi] = core::ProfileSnapshot{};
        const auto &p = m.prod[pi];
        for (std::uint64_t s = 0; s < p.acked; ++s)
            m.partial[pi].merge(*p.snap[s]);
    }
    m.oracle = m.partial[0];
    m.oracle.merge(m.partial[1]);
    const std::string want = saved(m.oracle);
    for (const auto *addr : {&m.leafAddr, &m.rootAddr}) {
        core::ProfileSnapshot got;
        std::string error;
        if (!vp::serve::requestSnapshot(*addr, got, error))
            throw GateFailure("snapshot of " + *addr + " failed: " +
                              error);
        if (saved(got) != want)
            throw GateFailure(*addr + ": aggregate differs from the "
                                      "serial fold of the acked deltas");
    }

    if (m.leaf && m.leaf->alive())
        peakKb += procStatusKb(m.leaf->pid(), "VmHWM");
    if (m.root && m.root->alive())
        peakKb += procStatusKb(m.root->pid(), "VmHWM");
    if (!m.leaf->stop() || !m.root->stop())
        throw GateFailure("a vpd process did not exit cleanly");
    m.leafStats = readFile(m.opts.runDir + "/vpd-leaf.stats.json");
    m.rootStats = readFile(m.opts.runDir + "/vpd-root.stats.json");

    if (!replay_layers)
        return;
    // In-process replays of this run's own inputs through the public
    // serve and core functions the daemons run per delta and per wake.
    const auto &pool = m.inputs->pool[0];
    core::ProfileSnapshot merged = m.partial[0];
    core::ProfileSnapshot agg = m.oracle;
    for (std::size_t i = 0; i < std::min<std::size_t>(pool.size(), 256);
         ++i) {
        vp::serve::Delta d;
        d.producerId = 1;
        d.seq = i + 1;
        d.entities = pool[i];
        const auto bytes = vp::serve::encodeDelta(d);
        auto t0 = Clock::now();
        Frame frame;
        std::size_t used = 0;
        std::string error;
        vp::serve::Delta back;
        if (vp::serve::tryDecode(bytes.data(), bytes.size(), frame, used,
                                 error) != vp::serve::DecodeStatus::Ok ||
            !vp::serve::decodeDelta(frame, back, error))
            throw GateFailure("replayed delta does not decode: " + error);
        auto t1 = Clock::now();
        m.replayDecodeUs.push_back(toUs(t1 - t0));
        merged.merge(back.entities);
        auto t2 = Clock::now();
        m.replayMergeUs.push_back(toUs(t2 - t1));
        for (const auto &[key, ignored] : back.entities.entities) {
            core::EntitySummary folded;
            bool have = false;
            for (const auto &part : m.partial) {
                const auto it = part.entities.find(key);
                if (it == part.entities.end())
                    continue;
                if (!have)
                    folded = it->second;
                else
                    folded.merge(it->second);
                have = true;
            }
            agg.entities[key] = std::move(folded);
        }
        m.replayFoldUs.push_back(toUs(Clock::now() - t2));
    }
    vp::serve::ServerView view;
    view.aggregate = &m.oracle;
    vp::serve::HttpRequest req;
    req.method = "GET";
    req.target = "/top?n=20";
    req.path = "/top";
    req.query["n"] = "20";
    for (int i = 0; i < 21; ++i) {
        const auto t0 = Clock::now();
        const auto resp = vp::serve::handleQuery(req, view);
        if (resp.status != 200)
            throw GateFailure("replayed /top render failed");
        m.replayRenderUs.push_back(toUs(Clock::now() - t0));
    }
    for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t pi = 0; pi < 2; ++pi) {
            vp::serve::Delta d;
            d.producerId = m.prod[pi].id;
            d.seq = m.prod[pi].acked;
            d.entities = m.partial[pi];
            const auto t0 = Clock::now();
            const auto bytes = vp::serve::encodeDelta(d);
            m.replayRelayMs.push_back(toUs(Clock::now() - t0) / 1000.0);
            m.relayKib = static_cast<double>(bytes.size()) / 1024.0;
        }
        const auto t0 = Clock::now();
        core::ProfileSnapshot fold = m.partial[0];
        fold.merge(m.partial[1]);
        m.replayFullFoldMs.push_back(toUs(Clock::now() - t0) / 1000.0);
    }
}

void
IngestBench::endToEnd(MetricSet &out, int which) const
{
    const Impl &m = *impl;
    // Every percentile is taken per open phase (each has at least ten
    // samples beyond it), then the median over phases: a phase the
    // host disturbed moves the result no more than a slow cycle moves
    // a slowdown.
    std::vector<double> eps, cpu, fetch_ms, ack50, ack99, query50, query95,
        visible50, visible75;
    for (const auto &ph : m.phases) {
        if (which >= 0 && ph.traced != (which == 1))
            continue;
        if (!ph.open) {
            eps.push_back(ph.entitiesPerSec);
            continue;
        }
        // Daemon CPU per entity at the open loop's fixed offered mix
        // (deltas, /top queries and relay ticks in constant
        // proportion): the host's scheduler can delay this work but
        // not add to it.
        cpu.push_back(ph.leafCpuUs + ph.rootCpuUs);
        ack50.push_back(quantile(ph.ackUs, 0.50));
        ack99.push_back(quantile(ph.ackUs, 0.99));
        query50.push_back(quantile(ph.queryUs, 0.50));
        query95.push_back(quantile(ph.queryUs, 0.95));
        visible50.push_back(quantile(ph.visibleMs, 0.50));
        visible75.push_back(quantile(ph.visibleMs, 0.75));
    }
    for (const auto &f : m.fetches)
        if (which < 0 || f.traced == (which == 1))
            fetch_ms.push_back(f.waitMs + f.decodeMs);
    out.set("ack_p50_us", median(ack50), "us");
    out.set("ack_p99_us", median(ack99), "us");
    out.set("query_p50_us", median(query50), "us");
    out.set("query_p95_us", median(query95), "us");
    out.set("visible_p50_ms", median(visible50), "ms");
    out.set("visible_p75_ms", median(visible75), "ms");
    out.set("ingest_entities_per_s", median(eps), "entities/s");
    out.set("serve_cpu_us_per_entity", median(cpu), "us");
    out.set("snapshot_fetch_ms", median(fetch_ms), "ms");
}

std::string
IngestBench::sampleReport() const
{
    const Impl &m = *impl;
    // The fewest samples any open phase contributed to each metric.
    std::size_t acks = SIZE_MAX, queries = SIZE_MAX, visible = SIZE_MAX,
                open = 0;
    for (const auto &ph : m.phases) {
        if (!ph.open)
            continue;
        ++open;
        acks = std::min(acks, ph.ackUs.size());
        queries = std::min(queries, ph.queryUs.size());
        visible = std::min(visible, ph.visibleMs.size());
    }
    return vp::format("open_phases=%zu per-phase minimum: acks=%zu "
                      "queries=%zu visible=%zu; root_updates=%llu "
                      "fetches=%zu",
                      open, open ? acks : 0, open ? queries : 0,
                      open ? visible : 0,
                      static_cast<unsigned long long>(m.rootUpdates),
                      m.fetches.size());
}

void
IngestBench::perLayer(MetricSet &out) const
{
    const Impl &m = *impl;
    std::vector<double> wait, decode, late;
    for (const auto &f : m.fetches) {
        wait.push_back(f.waitMs);
        decode.push_back(f.decodeMs);
    }
    for (const auto &ph : m.phases)
        late.insert(late.end(), ph.lateUs.begin(), ph.lateUs.end());
    out.set("serve.delta_decode_us", median(m.replayDecodeUs), "us");
    out.set("serve.delta_merge_us", median(m.replayMergeUs), "us");
    out.set("serve.fold_update_us", median(m.replayFoldUs), "us");
    out.set("serve.top_render_us", median(m.replayRenderUs), "us");
    out.set("serve.relay_encode_ms", median(m.replayRelayMs), "ms");
    out.set("serve.full_fold_ms", median(m.replayFullFoldMs), "ms");
    out.set("serve.relay_kib", m.relayKib, "KiB");
    out.set("serve.snapshot_wait_ms", median(wait), "ms");
    out.set("serve.snapshot_decode_ms", median(decode), "ms");
    std::vector<double> leaf_open, root_open, cpu_closed;
    for (const auto &ph : m.phases) {
        if (ph.open) {
            leaf_open.push_back(ph.leafCpuUs);
            root_open.push_back(ph.rootCpuUs);
        } else {
            cpu_closed.push_back(ph.leafCpuUs + ph.rootCpuUs);
        }
    }
    out.set("serve.leaf_cpu_us_per_entity", median(leaf_open), "us");
    out.set("serve.root_cpu_us_per_entity", median(root_open), "us");
    out.set("serve.saturated_cpu_us_per_entity", median(cpu_closed), "us");
    out.set("serve.leaf_busy", m.busyWall > 0 ? m.leafCpu / m.busyWall : 0,
            "fraction");
    out.set("serve.root_busy", m.busyWall > 0 ? m.rootCpu / m.busyWall : 0,
            "fraction");
    // Each daemon's own share of the pipeline: the leaf merges deltas
    // and relays partials, the root applies relays and wakes /watch.
    struct DaemonStats
    {
        const char *daemon;
        const std::string &text;
        std::vector<const char *> counters;
        std::vector<const char *> dists;
    };
    const DaemonStats daemons[] = {
        {"leaf", m.leafStats,
         {"serve.deltas_merged", "serve.forward_partials",
          "serve.http.requests", "serve.bytes_in"},
         {"serve.merge_us", "serve.ack_us"}},
        {"root", m.rootStats,
         {"serve.forward_applied", "serve.http.requests",
          "serve.http.watch_wakeups", "serve.bytes_in"},
         {"serve.ack_us"}},
    };
    for (const auto &d : daemons) {
        for (const auto *c : d.counters)
            out.set(std::string(d.daemon) + "." + c,
                    std::max(0.0, jsonNumber(d.text, c)), "count");
        for (const auto *dist : d.dists)
            for (const auto *field : {"p50", "p99"})
                out.set(vp::format("%s.%s_%s", d.daemon, dist, field),
                        statsDist(d.text, dist, field), "us");
    }
    out.set("ingest.generator_late_p50_us", quantile(late, 0.5), "us");
    out.set("ingest.generator_late_p99_us", quantile(late, 0.99), "us");
}

} // namespace vpb
