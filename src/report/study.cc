/**
 * @file
 * Implementation of the experiment driver.
 */

#include "report/study.h"

#include "obs/obs.h"
#include "sim/parallel_sim.h"
#include "util/logging.h"

namespace edb::report {

ProgramStudy
studyTrace(const trace::Trace &trace, const model::TimingProfile &timing,
           double base_us, unsigned jobs)
{
    ProgramStudy study;
    study.program = trace.program;
    study.totalWrites = trace.totalWrites;
    study.baseUs = base_us > 0
                       ? base_us
                       : model::derivedBaseUs(trace.estimatedInstructions,
                                              timing);
    EDB_ASSERT(study.baseUs > 0,
               "no base time available: pass base_us or use a profile "
               "with an execution rate");

    {
        EDB_OBS_SPAN("study.enumerate");
        study.sessions = session::SessionSet::enumerate(trace);
    }
    {
        EDB_OBS_SPAN("study.simulate");
        if (jobs == 1) {
            study.sim = sim::simulate(trace, study.sessions);
        } else {
            sim::ParallelOptions opts;
            opts.jobs = jobs;
            study.sim =
                sim::parallelSimulate(trace, study.sessions, opts);
        }
    }

    // Keep only sessions with at least one hit (Section 8).
    for (session::SessionId id = 0; id < study.sessions.size(); ++id) {
        if (study.sim.counters[id].hits == 0)
            continue;
        study.activeSessions.push_back(id);
        ++study.activeByType[(std::size_t)study.sessions.session(id)
                                 .type];
    }

    // Session shapes + advisor recommendations (DESIGN.md section 8).
    // The shape pass only touches install/remove events, so it is
    // cheap next to the simulation itself.
    model::StrategyAdvisor advisor(timing);
    std::vector<model::SessionShape> all_shapes =
        model::computeSessionShapes(trace, study.sessions);

    // Table 3 means and Table 4 populations.
    const double n = (double)study.activeSessions.size();
    for (auto &v : study.relativeOverheads)
        v.reserve(study.activeSessions.size());
    study.shapes.reserve(study.activeSessions.size());
    study.advice.reserve(study.activeSessions.size());
    study.adaptiveRelativeOverheads.reserve(study.activeSessions.size());

    for (session::SessionId id : study.activeSessions) {
        const auto &c = study.sim.counters[id];
        const std::uint64_t misses = study.sim.misses(id);

        study.meanCounters.installs += (double)c.installs / n;
        study.meanCounters.removes += (double)c.removes / n;
        study.meanCounters.hits += (double)c.hits / n;
        study.meanCounters.misses += (double)misses / n;
        for (std::size_t i = 0; i < sim::vmPageSizeCount; ++i) {
            study.meanCounters.vmProtects[i] +=
                (double)c.vm[i].protects / n;
            study.meanCounters.vmUnprotects[i] +=
                (double)c.vm[i].unprotects / n;
            study.meanCounters.vmActivePageMisses[i] +=
                (double)c.vm[i].activePageMisses / n;
        }

        for (std::size_t s = 0; s < model::allStrategies.size(); ++s) {
            model::Overhead o = model::overheadFor(
                model::allStrategies[s], c, misses, timing);
            study.relativeOverheads[s].push_back(
                model::relativeOverhead(o, study.baseUs));
        }

        const model::SessionShape &shape = all_shapes[id];
        model::Advice advice = advisor.advise(c, misses, shape);
        study.adaptiveRelativeOverheads.push_back(
            model::relativeOverhead(advice.pickedOverhead(),
                                    study.baseUs));
        ++study.pickCounts[(std::size_t)advice.pick];
        if (advisor.hardwareFeasible(shape))
            ++study.hwFeasibleSessions;
        study.shapes.push_back(shape);
        study.advice.push_back(std::move(advice));
    }

    for (std::size_t s = 0; s < model::allStrategies.size(); ++s)
        study.overheadStats[s] = summarize(study.relativeOverheads[s]);
    study.adaptiveStats = summarize(study.adaptiveRelativeOverheads);

    return study;
}

} // namespace edb::report
