/**
 * @file
 * The traced run's span recorder: spans stay in memory while the run
 * measures and are written out once, when it ends.
 */

#include "bench.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace pb {

Spans::Scope::Scope(Spans &s, const char *name, const char *layer)
    : s_(s), id_(0), t0_(Clock::now())
{
    if (!s_.on_)
        return;
    id_ = s_.spans_.size();
    const std::int64_t parent =
        s_.open_.empty() ? -1 : (std::int64_t)s_.open_.back();
    const std::size_t op =
        parent < 0 ? id_ : s_.spans_[(std::size_t)parent].op;
    s_.spans_.push_back(
        {name, layer,
         std::chrono::duration_cast<std::chrono::nanoseconds>(
             t0_ - s_.epoch_)
             .count(),
         0, parent, op});
    s_.open_.push_back(id_);
}

Spans::Scope::~Scope()
{
    if (!s_.on_)
        return;
    s_.spans_[id_].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - s_.epoch_)
            .count();
    s_.open_.pop_back();
}

std::vector<std::int64_t>
Spans::childNs(std::size_t from) const
{
    // Children are strictly nested in their parent and never overlap
    // each other (one thread), so covered time is a plain sum.
    std::vector<std::int64_t> ns(spans_.size(), 0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.parent >= (std::int64_t)from)
            ns[(std::size_t)s.parent] += s.endNs - s.beginNs;
    }
    return ns;
}

std::map<std::string, double>
Spans::selfMs(std::size_t from) const
{
    const std::vector<std::int64_t> child = childNs(from);
    std::map<std::string, double> self;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (std::strcmp(spans_[s.op].layer, "op") != 0)
            continue; // probes outside any end-to-end op
        self[s.layer] += (double)(s.endNs - s.beginNs - child[i]) / 1e6;
    }
    return self;
}

double
Spans::coverage(std::size_t from) const
{
    const std::vector<std::int64_t> child = childNs(from);
    std::vector<double> shares;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.parent < 0 && std::strcmp(s.layer, "op") == 0 &&
            s.endNs > s.beginNs)
            shares.push_back((double)child[i] /
                             (double)(s.endNs - s.beginNs));
    }
    return median(shares);
}

std::vector<double>
Spans::durationsMs(const std::string &name, std::size_t from) const
{
    std::vector<double> ms;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        if (name == spans_[i].name)
            ms.push_back((double)(spans_[i].endNs - spans_[i].beginNs) /
                         1e6);
    }
    return ms;
}

double
Spans::totalMs(const std::string &name, std::size_t from) const
{
    double ms = 0;
    for (double d : durationsMs(name, from))
        ms += d;
    return ms;
}

void
printSelfTimes(const std::string &workload,
               const std::vector<std::map<std::string, double>> &reps)
{
    std::map<std::string, std::vector<double>> byLayer;
    for (const auto &r : reps) {
        for (const auto &[layer, ms] : r)
            byLayer[layer];
    }
    for (const auto &r : reps) {
        for (auto &[layer, xs] : byLayer)
            xs.push_back(r.count(layer) ? r.at(layer) : 0.0);
    }
    std::printf("%s: self ms per repetition (median) by layer:",
                workload.c_str());
    for (const auto &[layer, xs] : byLayer)
        std::printf(" %s=%.3f", layer.c_str(), median(xs));
    std::printf("\n");
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char line[512];
        std::snprintf(line, sizeof line,
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"id\":%zu,\"parent\":%lld,\"op\":%zu}}",
                      i ? "," : "", s.name, s.layer,
                      (double)s.beginNs / 1e3,
                      (double)(s.endNs - s.beginNs) / 1e3, i,
                      (long long)s.parent, s.op);
        os << line;
    }
    os << "\n]}\n";
    return (bool)os;
}

} // namespace pb
