/**
 * @file
 * Prometheus text-exposition writer: name mangling, label escaping,
 * metric-family grouping, and log2-bucket histogram conversion.
 */

#include "telemetry/prom.h"

#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/obs.h"

namespace edb::telemetry {

#if EDB_OBS_ENABLED

namespace {

/** Mangle an instrument name to the Prometheus metric grammar:
 *  `edb_` prefix, [a-zA-Z0-9_] body (everything else becomes '_'). */
std::string
promName(const std::string &name)
{
    std::string out = "edb_";
    out.reserve(name.size() + 4);
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

/** Escape one label value (backslash, quote, newline). */
std::string
promEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

/** Render `{k="v", ...}` (empty string when no labels), with an
 *  optional extra pair appended (the histogram `le` bound). */
std::string
labelBlock(const std::vector<obs::Label> &labels,
           const std::string &extraKey = "",
           const std::string &extraValue = "")
{
    if (labels.empty() && extraKey.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const obs::Label &l : labels) {
        if (!first)
            out += ",";
        out += promName(l.key).substr(4); // mangle, drop edb_ prefix
        out += "=\"";
        out += promEscape(l.value);
        out += "\"";
        first = false;
    }
    if (!extraKey.empty()) {
        if (!first)
            out += ",";
        out += extraKey;
        out += "=\"";
        out += extraValue;
        out += "\"";
    }
    out += "}";
    return out;
}

/** One metric family: TYPE plus its sample lines, in collect()
 *  order. */
struct Family
{
    std::string type;
    std::string help;
    std::vector<std::string> lines;
};

void
addHistogram(Family &f, const std::string &name,
             const obs::SeriesValue &s)
{
    const obs::HistogramValue &h = s.hist;
    const std::vector<obs::Label> &labels = s.labels;
    // Cumulative buckets up to the last occupied log2 bucket; bucket
    // b > 0 covers values of bit length b, upper bound 2^b - 1.
    std::size_t last = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        if (h.buckets[b] != 0)
            last = b + 1;
    }
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < last; ++b) {
        cum += h.buckets[b];
        const std::uint64_t bound =
            b == 0 ? 0
                   : (b >= 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << b) - 1);
        f.lines.push_back(
            name + "_bucket" +
            labelBlock(labels, "le", std::to_string(bound)) + " " +
            std::to_string(cum));
    }
    f.lines.push_back(name + "_bucket" +
                      labelBlock(labels, "le", "+Inf") + " " +
                      std::to_string(h.count));
    f.lines.push_back(name + "_sum" + labelBlock(labels) + " " +
                      std::to_string(h.sum));
    f.lines.push_back(name + "_count" + labelBlock(labels) + " " +
                      std::to_string(h.count));
}

} // namespace

void
writePrometheus(std::ostream &os)
{
    // Keyed by mangled name: two raw names that mangle alike share
    // one family rather than announcing it twice.
    std::map<std::string, Family> families;
    for (const obs::SeriesValue &s : obs::collect()) {
        const std::string name = promName(s.name);
        Family &f = families[name];
        const bool hist = s.kind == obs::Kind::Histogram;
        if (f.type.empty()) {
            f.type = obs::kindName(s.kind);
            f.help = "edb::obs " + f.type + " '" + s.name + "'" +
                     (hist ? " (ns)" : "");
        }
        if (hist) {
            addHistogram(f, name, s);
        } else {
            f.lines.push_back(name + labelBlock(s.labels) + " " +
                              std::to_string(s.value));
        }
    }

    for (const auto &[name, family] : families) {
        os << "# HELP " << name << " " << family.help << "\n";
        os << "# TYPE " << name << " " << family.type << "\n";
        for (const std::string &line : family.lines)
            os << line << "\n";
    }
}

#else // !EDB_OBS_ENABLED

void
writePrometheus(std::ostream &os)
{
    // Empty-but-valid: scrapers parse a comment-only exposition.
    os << "# edb telemetry disabled (built with EDB_OBS=OFF)\n";
}

#endif // EDB_OBS_ENABLED

std::string
prometheusText()
{
    std::ostringstream os;
    writePrometheus(os);
    return os.str();
}

} // namespace edb::telemetry
