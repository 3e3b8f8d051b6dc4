#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

/** Open spans of the calling thread, innermost last (one tracer per
 *  process). */
thread_local std::vector<int> open_spans;

void
jsonEscape(std::string &out, const std::string &s)
{
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
}

} // namespace

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

Percentile
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        throw std::invalid_argument("percentile of an empty sample");
    if (!(p > 0.0 && p <= 100.0))
        throw std::invalid_argument("percentile rank must be in (0, 100]");
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    // p * n is exact for the integral ranks used here; the epsilon
    // keeps a representation error from bumping the rank up by one.
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return {samples[rank - 1], n, n - rank};
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0).value;
}

std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t lo = 0, hi = 0;
    bool open = false;
    for (const auto &[a, b] : intervals) {
        if (b <= a)
            continue;
        if (open && a <= hi) {
            hi = std::max(hi, b);
            continue;
        }
        if (open)
            covered += hi - lo;
        lo = a;
        hi = b;
        open = true;
    }
    if (open)
        covered += hi - lo;
    return covered;
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }

    std::vector<std::int64_t> self(spans.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        cover.clear();
        for (const std::size_t c : children[i])
            cover.emplace_back(std::max(spans[c].start_ns, s.start_ns),
                               std::min(spans[c].end_ns, s.end_ns));
        self[i] = (s.end_ns - s.start_ns) - unionLength(cover);
    }
    return self;
}

std::map<std::string, double>
selfSecondsByName(const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
    return out;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Tracer::begin(const std::string &name, int run, int tid)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.run = run;
    s.tid = tid;
    s.parent = open_spans.empty() ? -1 : open_spans.back();
    int id = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = static_cast<int>(spans_.size());
        s.id = id;
        s.start_ns = nowNs();
        spans_.push_back(std::move(s));
    }
    open_spans.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const std::int64_t t = nowNs();
    if (!open_spans.empty() && open_spans.back() == id)
        open_spans.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
}

void
Tracer::record(const std::string &name, Clock::time_point start,
               Clock::time_point end, int run, int tid)
{
    if (!enabled_)
        return;
    auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                    origin_)
            .count();
    };
    Span s;
    s.name = name;
    s.run = run;
    s.tid = tid;
    s.start_ns = ns(start);
    s.end_ns = ns(end);
    std::lock_guard<std::mutex> lock(mu_);
    s.id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[160];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        out += "{\"name\":\"";
        jsonEscape(out, s.name);
        std::snprintf(buf, sizeof(buf),
                      "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,"
                      "\"run\":%d}}",
                      s.tid, static_cast<double>(s.start_ns) * 1e-3,
                      static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                      s.id, s.parent, s.run);
        out += buf;
        out += i + 1 < all.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << out;
    if (!f)
        throw std::runtime_error("cannot write trace file " + path);
}

double
calibrationLoopSeconds()
{
    constexpr std::uint32_t kTableBits = 19; // 2^19 words: 2 MiB
    static std::vector<std::uint32_t> table(std::size_t{1} << kTableBits);
    auto loop = [&] {
        std::uint32_t x = 12345, acc = 0;
        double f = 1.0;
        for (int i = 0; i < 200000; ++i) {
            x = x * 1664525u + 1013904223u;
            std::uint32_t &slot =
                table[(x >> 8) & ((1u << kTableBits) - 1)];
            slot += x;
            acc ^= slot;
            f = f * 1.0000001 + static_cast<double>(acc & 7u);
        }
        volatile double sink = f + acc; // keeps the loop
        (void)sink;
    };
    // The first round reloads the table into the caches, whatever ran
    // before. Of the timed rounds that follow, the fastest is kept: a
    // sustained slowdown slows all of them, an interrupt only one.
    loop();
    double best = 0.0;
    for (int round = 0; round < 3; ++round) {
        const Clock::time_point t0 = Clock::now();
        loop();
        const double s = secondsBetween(t0, Clock::now());
        best = round == 0 ? s : std::min(best, s);
    }
    return best;
}

double
peakRssMb()
{
    // getrusage's ru_maxrss survives execve, so under a launcher it
    // reports the launcher's footprint whenever that was larger. The
    // VmHWM line of /proc/self/status belongs to this image alone.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // KiB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
