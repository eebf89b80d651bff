/**
 * @file
 * Outcome reporting and order statistics of the benchmark.
 */

#include "bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <malloc.h>

namespace pb {

void
Outcome::op(bool ok, const std::string &what)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
}

void
Outcome::metric(const std::string &name, double value,
                const std::string &unit)
{
    std::lock_guard<std::mutex> lk(mu_);
    metrics_[name] = {value, unit};
}

bool
Outcome::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return metrics_.count(name) != 0;
}

bool
Outcome::correct() const
{
    std::lock_guard<std::mutex> lk(mu_);
    if (attempted_ == 0 || failed_ != 0)
        return false;
    for (const auto &[name, m] : metrics_) {
        if (!std::isfinite(m.first))
            return false;
    }
    return true;
}

std::string
Outcome::json() const
{
    const bool ok = correct();
    std::lock_guard<std::mutex> lk(mu_);
    std::ostringstream os;
    os << "{\"correct\": " << (ok ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": "
       << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics_) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m.first) ? m.first : 0.0);
        os << (first ? "" : ", ") << "\"" << name
           << "\": {\"value\": " << num << ", \"unit\": \"" << m.second
           << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

double
tail(const std::vector<double> &v, double q)
{
    if ((double)v.size() * (1.0 - q) < 10.0)
        return std::nan("");
    return quantile(v, q);
}

NarrowTarget
narrowTarget(const edb::trace::Trace &t,
             const std::vector<std::size_t> &writes, Rng &rng)
{
    const std::size_t i = writes[pick(rng, writes.size())];
    const std::uint64_t half = std::max<std::size_t>(1, t.events.size() / 100);
    const edb::Addr a = t.events[i].begin & ~edb::Addr(63);
    NarrowTarget n;
    n.line = edb::AddrRange(a, a + 64);
    n.first = i > half ? i - half : 0;
    n.last = std::min<std::uint64_t>(t.events.size(), i + half);
    return n;
}

std::uint64_t
goldenChecksum(std::string_view name)
{
    static const std::map<std::string_view, std::uint64_t> golden = {
        {"gcc", 14758836357597218434ull},
        {"ctex", 18297361343946838804ull},
        {"spice", 18442630420084628716ull},
        {"qcd", 6859864721970818314ull},
        {"bps", 4446620642456196254ull},
    };
    const auto it = golden.find(name);
    if (it == golden.end())
        throw std::runtime_error("no golden checksum for " +
                                 std::string(name));
    return it->second;
}

std::uint64_t
traceDigest(const edb::trace::Trace &t)
{
    std::uint64_t h = t.registry.objectCount();
    for (const edb::trace::Event &e : t.events) {
        for (std::uint64_t x : {(std::uint64_t)e.begin, (std::uint64_t)e.size,
                                (std::uint64_t)e.aux, (std::uint64_t)e.kind})
            h = (h ^ x) * 0x100000001b3ull;
    }
    return h;
}

Tally
tally(const edb::trace::Trace &t, const std::vector<edb::AddrRange> &mons)
{
    using edb::Addr;
    using edb::AddrRange;
    Tally r;
    r.perMonitor.assign(mons.size(), 0);
    for (const edb::trace::Event &e : t.events) {
        if (e.kind != edb::trace::EventKind::Write)
            continue;
        const AddrRange w = e.range();
        auto it = std::lower_bound(
            mons.begin(), mons.end(), w.begin,
            [](const AddrRange &m, Addr a) { return m.end <= a; });
        bool hit = false;
        for (; it != mons.end() && it->begin < w.end; ++it) {
            if (it->intersects(w)) {
                ++r.perMonitor[(std::size_t)(it - mons.begin())];
                hit = true;
            }
        }
        r.hits += hit ? 1 : 0;
    }
    return r;
}

std::vector<edb::AddrRange>
monitorPool(const edb::trace::Trace &t)
{
    using edb::Addr;
    using edb::AddrRange;
    std::vector<AddrRange> cands;
    for (const edb::trace::Event &e : t.events) {
        if (e.kind == edb::trace::EventKind::InstallMonitor && e.size > 0)
            cands.emplace_back(e.begin & ~Addr(3),
                               (e.begin + e.size + 3) & ~Addr(3));
    }
    std::sort(cands.begin(), cands.end(),
              [](const AddrRange &a, const AddrRange &b) {
                  return a.begin < b.begin ||
                         (a.begin == b.begin && a.end < b.end);
              });
    std::vector<AddrRange> disjoint;
    for (const AddrRange &r : cands) {
        if (disjoint.empty() || r.begin >= disjoint.back().end)
            disjoint.push_back(r);
    }
    const std::vector<std::uint64_t> hitsOf = tally(t, disjoint).perMonitor;
    std::vector<std::pair<std::uint64_t, AddrRange>> pool;
    for (std::size_t i = 0; i < disjoint.size(); ++i) {
        if (hitsOf[i] >= 8 && hitsOf[i] <= 4096)
            pool.emplace_back(hitsOf[i], disjoint[i]);
    }
    std::sort(pool.begin(), pool.end(), [](const auto &a, const auto &b) {
        return a.first < b.first ||
               (a.first == b.first && a.second.begin < b.second.begin);
    });
    std::vector<AddrRange> out;
    for (const auto &[hits, r] : pool)
        out.push_back(r);
    return out;
}

unsigned
oracleThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

void
resetPeakRss()
{
    // Hand freed set-up memory back first, so the mark starts from
    // what is live.
    ::malloc_trim(0);
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    const bool ok = f && std::fputs("5", f) >= 0;
    if (!f || std::fclose(f) != 0 || !ok)
        throw std::runtime_error("cannot reset the peak RSS mark");
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // KiB
    }
    return std::nan("");
}

} // namespace pb
