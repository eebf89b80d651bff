/**
 * @file
 * The per-event live-RUN oracle for edb-served tests.
 *
 * Tenant::runLive walks a static block plan, decodes the surviving
 * blocks in column form and screens their writes in batches. This
 * oracle keeps the plain loop it replaced: decode every block into
 * Events, hand each write to the engine's checkWrite one at a time,
 * and attribute each notification to the enabled monitors it
 * intersects, in monitor-id order. Installs, enables and disables
 * reach the engine in the same order as in a Tenant, so a tenant and
 * an oracle driven through the same calls must agree on every
 * counter, the RESUME batch, the EVT sequence and the engine stats.
 */

#ifndef EDB_TESTS_TESTING_LIVE_ORACLE_H
#define EDB_TESTS_TESTING_LIVE_ORACLE_H

#include <map>
#include <memory>
#include <vector>

#include "served/registry.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "wms/adaptive_wms.h"
#include "wms/software_wms.h"

namespace edb::testgen {

/**
 * An EVT stream in constant memory, so the five workloads' streams
 * (millions of events under dense monitor sets) stay affordable under
 * the sanitizers: the event count, a chained xxh64 of every field of
 * every event in order, and the first kHead events verbatim for
 * diagnostics.
 */
struct EventLog
{
    static constexpr std::size_t kHead = 256;

    std::uint64_t count = 0;
    std::uint64_t digest = 0;
    std::vector<served::EventOut> head;

    void
    add(const served::EventOut &e)
    {
        const std::uint64_t fields[] = {e.seq, e.monitorId,
                                        e.written.begin, e.written.end,
                                        e.pc};
        digest = trace::xxh64((const unsigned char *)fields,
                              sizeof fields, digest);
        if (count++ < kHead)
            head.push_back(e);
    }
};

class LiveOracle
{
  public:
    explicit LiveOracle(served::Engine engine,
                        std::size_t max_pending = served::Quotas{}
                                                      .maxPendingHits)
        : max_pending_(max_pending)
    {
        const wms::NotificationHandler handler =
            [this](const wms::Notification &n) { onNotification(n); };
        if (engine == served::Engine::Adaptive) {
            wms::AdaptiveOptions opts;
            opts.initial = wms::AdaptiveBackend::CodePatch;
            adaptive_ = std::make_unique<wms::AdaptiveWms>(opts);
            adaptive_->setNotificationHandler(handler);
        } else {
            software_.setNotificationHandler(handler);
        }
    }

    std::uint32_t
    install(const AddrRange &r)
    {
        arm(r, true);
        monitors_.emplace(next_monitor_, Monitor{r, true});
        return next_monitor_++;
    }

    void
    disable(std::uint32_t id)
    {
        Monitor &m = monitors_.at(id);
        if (m.enabled) {
            m.enabled = false;
            arm(m.range, false);
        }
    }

    void
    enable(std::uint32_t id)
    {
        Monitor &m = monitors_.at(id);
        if (!m.enabled) {
            m.enabled = true;
            arm(m.range, true);
        }
    }

    /** The per-event live loop. */
    served::LiveRunResult
    run(const trace::MappedTrace &trace)
    {
        const std::uint64_t before = notifications_;
        served::LiveRunResult res;
        std::vector<trace::Event> buf(trace.largestBlockEvents());
        for (std::size_t b = 0; b < trace.blockCount(); ++b) {
            trace.decodeBlock(b, buf.data());
            for (std::uint64_t i = 0; i < trace.block(b).events; ++i) {
                const trace::Event &e = buf[i];
                if (e.kind != trace::EventKind::Write)
                    continue;
                ++res.writes;
                const bool hit =
                    adaptive_ ? adaptive_->checkWrite(e.range(), e.aux)
                              : software_.checkWrite(e.range(), e.aux);
                res.hits += hit ? 1 : 0;
            }
        }
        res.notifications = notifications_ - before;
        return res;
    }

    served::ResumeBatch
    resume()
    {
        served::ResumeBatch batch;
        for (const auto &[id, hit] : pending_)
            batch.hits.push_back(hit);
        batch.dropped = dropped_;
        pending_.clear();
        dropped_ = 0;
        return batch;
    }

    served::Tenant::EngineStats
    engineStats() const
    {
        served::Tenant::EngineStats s;
        s.software = software_.stats();
        if (adaptive_)
            s.adaptive = adaptive_->stats();
        return s;
    }

    /** The EventOuts a subscribed tenant would have streamed. */
    EventLog events;

  private:
    struct Monitor
    {
        AddrRange range;
        bool enabled = true;
    };

    void
    arm(const AddrRange &r, bool on)
    {
        if (adaptive_)
            on ? adaptive_->installMonitor(r) : adaptive_->removeMonitor(r);
        else
            on ? software_.installMonitor(r) : software_.removeMonitor(r);
    }

    void
    onNotification(const wms::Notification &n)
    {
        for (const auto &[id, mon] : monitors_) {
            if (!mon.enabled || !mon.range.intersects(n.written))
                continue;
            ++notifications_;
            const AddrRange part = n.written.intersection(mon.range);
            auto it = pending_.find(id);
            if (it != pending_.end()) {
                it->second.count++;
                it->second.last = part;
            } else if (pending_.size() < max_pending_) {
                pending_.emplace(id, served::PendingHit{id, part, 1});
            } else {
                ++dropped_;
            }
            events.add(served::EventOut{next_seq_++, id, part, n.pc});
        }
    }

    std::size_t max_pending_;
    wms::SoftwareWms software_;
    std::unique_ptr<wms::AdaptiveWms> adaptive_;
    std::map<std::uint32_t, Monitor> monitors_;
    std::uint32_t next_monitor_ = 1;
    std::map<std::uint32_t, served::PendingHit> pending_;
    std::uint64_t dropped_ = 0;
    std::uint64_t notifications_ = 0;
    std::uint64_t next_seq_ = 1;
};

} // namespace edb::testgen

#endif // EDB_TESTS_TESTING_LIVE_ORACLE_H
