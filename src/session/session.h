/**
 * @file
 * Monitor sessions: the paper's program-independent debugging
 * scenarios (Section 5).
 *
 * "A monitor session characterizes the write monitor activity with
 * respect to one run of the program." The study defines five
 * program-independent session *types* and instantiates every instance
 * of each type found in a program:
 *
 *  - OneLocalAuto    — one local automatic variable (all of its
 *                      instantiations belong to the same session)
 *  - AllLocalInFunc  — all locals of one function, including local
 *                      statics
 *  - OneGlobalStatic — one global static variable
 *  - OneHeap         — one heap object
 *  - AllHeapInFunc   — all heap objects created by a function f and by
 *                      functions executing in the dynamic context of f
 *
 * SessionSet enumerates every instance from a trace's object registry
 * and builds the object-to-sessions inverted index the one-pass
 * simulator needs.
 */

#ifndef EDB_SESSION_SESSION_H
#define EDB_SESSION_SESSION_H

#include <array>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace edb::session {

using trace::FunctionId;
using trace::ObjectId;

/** Index of a session within a SessionSet. */
using SessionId = std::uint32_t;

/** The five monitor-session types of the paper's Section 5. */
enum class SessionType : std::uint8_t {
    OneLocalAuto = 0,
    AllLocalInFunc = 1,
    OneGlobalStatic = 2,
    OneHeap = 3,
    AllHeapInFunc = 4,
};

constexpr std::size_t sessionTypeCount = 5;

const char *sessionTypeName(SessionType type);

/** One enumerated monitor session instance. */
struct SessionInfo
{
    SessionId id = 0;
    SessionType type = SessionType::OneLocalAuto;
    /** The monitored object, for the One* session types. */
    ObjectId object = trace::invalidObject;
    /** The defining function, for the All*InFunc session types. */
    FunctionId function = trace::invalidFunction;
};

/**
 * Every monitor-session instance discovered in one trace, plus the
 * object -> sessions inverted index.
 */
class SessionSet
{
  public:
    /** Enumerate all session instances for a trace. */
    static SessionSet enumerate(const trace::Trace &trace);

    /**
     * Enumerate from a registry alone. Sessions are defined entirely
     * by the static object table, so a mapped trace can enumerate
     * them from its header without materializing the events.
     */
    static SessionSet enumerate(const trace::ObjectRegistry &registry);

    std::size_t size() const { return sessions_.size(); }

    const SessionInfo &
    session(SessionId id) const
    {
        EDB_ASSERT(id < sessions_.size(), "session id %u out of range",
                   id);
        return sessions_[id];
    }

    const std::vector<SessionInfo> &sessions() const { return sessions_; }

    /**
     * Sessions whose monitored set contains the given object. Installs
     * and removes of the object, and hits on it, are attributed to
     * exactly these sessions.
     */
    const std::vector<SessionId> &
    sessionsOf(ObjectId obj) const
    {
        EDB_ASSERT(obj < object_sessions_.size(),
                   "object id %u out of range", obj);
        return object_sessions_[obj];
    }

    /** Number of objects the inverted index covers (== registry's). */
    std::size_t objectCount() const { return object_sessions_.size(); }

    /** Number of sessions of each type. */
    const std::array<std::size_t, sessionTypeCount> &
    countsByType() const
    {
        return counts_;
    }

    /**
     * A SessionSet restricted to the given sessions of this set,
     * renumbered densely in `keep` order: session keep[i] of this set
     * becomes session i of the result, and the inverted index drops
     * every other membership (an object monitored only by dropped
     * sessions ends up with an empty sessionsOf()). Counters computed
     * under the subset are positionally comparable to the full run:
     * subset counters[i] == full counters[keep[i]]. This is how a
     * study replays a handful of sessions of interest without paying
     * for the whole enumeration — and what makes the v2 block-skip
     * fast path profitable, since sparse monitored sets skip most
     * blocks.
     */
    SessionSet subset(const std::vector<SessionId> &keep) const;

    /** Human-readable description of a session, for reports. */
    std::string describe(SessionId id, const trace::Trace &trace) const;

  private:
    std::vector<SessionInfo> sessions_;
    /** object id -> session ids containing it (sorted). */
    std::vector<std::vector<SessionId>> object_sessions_;
    std::array<std::size_t, sessionTypeCount> counts_{};
};

/**
 * Per-object session membership as sparse bitset chunks.
 *
 * The simulator's write path unions the session sets of every object
 * a write touches, then deduplicates. Walking sessionsOf() vectors
 * with per-session epoch marks costs a dependent load per session;
 * this table stores each object's set as (word index, 64-bit mask)
 * chunks over the SessionId space, so union and dedup become a few
 * OR/AND-NOT word operations and members enumerate by ctz.
 *
 * Chunks are flattened into one arena (offsets_ + chunks_) so a
 * whole object's set usually lives in a single cache line.
 */
class SessionMaskTable
{
  public:
    /** One 64-session chunk of an object's membership set. */
    struct Chunk
    {
        /** Index of the 64-bit word within the session-id space. */
        std::uint32_t word;
        /** Bit b set = session word*64+b contains the object. */
        std::uint64_t mask;
    };

    explicit SessionMaskTable(const SessionSet &set);

    /** Words needed for a dense mask over every session. */
    std::size_t maskWords() const { return mask_words_; }

    /** The object's membership chunks (ascending word index). */
    const Chunk *
    chunksOf(ObjectId obj) const
    {
        EDB_ASSERT(obj + 1 < offsets_.size(),
                   "object id %u out of range", obj);
        return chunks_.data() + offsets_[obj];
    }

    std::size_t
    chunkCount(ObjectId obj) const
    {
        EDB_ASSERT(obj + 1 < offsets_.size(),
                   "object id %u out of range", obj);
        return offsets_[obj + 1] - offsets_[obj];
    }

  private:
    std::size_t mask_words_ = 0;
    /** object id -> first chunk index; size = object count + 1. */
    std::vector<std::uint32_t> offsets_;
    std::vector<Chunk> chunks_;
};

} // namespace edb::session

#endif // EDB_SESSION_SESSION_H
