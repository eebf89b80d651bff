/**
 * @file
 * Out-of-line parts of the software (CodePatch) WMS.
 */

#include "wms/software_wms.h"

#include <algorithm>
#include <bit>

namespace edb::wms {

SoftwareWms::SoftwareWms(Addr page_bytes) : index_(page_bytes)
{
}

void
SoftwareWms::installMonitor(const AddrRange &r)
{
    index_.install(r);
    ++stats_.installs;
}

void
SoftwareWms::removeMonitor(const AddrRange &r)
{
    index_.remove(r);
    ++stats_.removes;
}

std::uint64_t
SoftwareWms::checkWrites(const Addr *begin, const std::uint32_t *size,
                         const std::uint32_t *pc, std::size_t n)
{
    std::uint64_t hits = 0;
    Addr end[64];
    for (std::size_t w = 0; w < n; w += 64) {
        const std::size_t m = std::min<std::size_t>(64, n - w);
        for (std::size_t k = 0; k < m; ++k)
            end[k] = begin[w + k] + size[w + k];
        std::uint64_t lanes = index_.lookupRangesBatch(begin + w, end, m);
        const auto h = (std::uint64_t)std::popcount(lanes);
        hits += h;
        stats_.hits += h;
        stats_.misses += m - h;
        if (!handler_)
            continue;
        for (; lanes != 0; lanes &= lanes - 1) {
            const std::size_t k = w + (std::size_t)std::countr_zero(lanes);
            handler_(Notification{AddrRange(begin[k], begin[k] + size[k]),
                                  pc[k]});
        }
    }
    return hits;
}

void
SoftwareWms::setNotificationHandler(NotificationHandler handler)
{
    handler_ = std::move(handler);
}

} // namespace edb::wms
