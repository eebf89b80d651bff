/**
 * @file
 * Wire protocol of the `edb-served` write-monitor daemon
 * (docs/PROTOCOL.md is the normative spec).
 *
 * Framing is deliberately minimal: every message is one frame,
 *
 *     u32le bodyBytes | u8 opcode | body[bodyBytes]
 *
 * so a reader always knows how much to buffer before touching a
 * payload byte. Body integers are fixed-width little-endian (the
 * trace container's LEB128 varints buy nothing at these sizes and
 * cost decode branches on the request path); strings and blobs are a
 * u32 length followed by raw bytes, with hard caps so a corrupt
 * length can never drive an allocation.
 *
 * Robustness contract (ISSUE 7 satellite): malformed, truncated or
 * oversized frames and unknown opcodes are *recoverable*. The
 * decoder reports them as ProtocolError — carrying a typed ErrCode
 * and the absolute stream byte offset of the offending field,
 * mirroring trace::TraceError's offset convention — and keeps enough
 * state to resynchronize at the next frame boundary, so a server can
 * answer with a typed ERR reply and keep the connection alive
 * instead of crashing or dropping the client.
 */

#ifndef EDB_SERVED_PROTOCOL_H
#define EDB_SERVED_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/addr.h"

namespace edb::served {

/** Protocol revision; HELLO carries it and the server enforces it.
 *  v2: OPEN_TRACE and STATS trace rows gained a trailing `indexed`
 *  byte reporting whether the mapping carries a .edbi sidecar.
 *  v3: METRICS JSON and binary reports carry live values only: the
 *  interval, sample count and per-series rate fields are gone. */
constexpr std::uint32_t protocolVersion = 3;

/** Bytes before the body: u32 length + u8 opcode. */
constexpr std::size_t frameHeaderBytes = 5;

/** Cap on one string field (tenant names, paths, error messages). */
constexpr std::size_t maxStringBytes = 4096;

/** Default cap on one frame body (quotas may lower it). */
constexpr std::size_t defaultMaxFrameBytes = 1u << 20;

/** Request opcodes (client -> server). */
enum class Op : std::uint8_t {
    Hello = 0x01,     ///< version + tenant name; must be first
    OpenTrace = 0x02, ///< map a v2 trace, shared across tenants
    Install = 0x03,   ///< install an address-range monitor
    Remove = 0x04,    ///< remove a monitor by id
    Enable = 0x05,    ///< re-arm a disabled monitor
    Disable = 0x06,   ///< keep the monitor but stop notifications
    Resume = 0x07,    ///< drain the batched pending-hit set
    Run = 0x08,       ///< replay a trace (live monitors or sessions)
    Query = 0x09,     ///< edb::query aggregation over a trace
    Subscribe = 0x0a, ///< toggle streaming EVT notifications
    Stats = 0x0b,     ///< obs snapshot JSON + registry counts
    Bye = 0x0c,       ///< orderly goodbye; server closes after OK
    Metrics = 0x0d,   ///< live metrics report / Prometheus exposition
                      ///< (allowed before HELLO, like STATS)

    // Reply opcodes (server -> client).
    Ok = 0x80,    ///< body: u8 echoed request op + per-request data
    Err = 0x81,   ///< body: u8 request op, u16 code, u64 offset, msg
    Event = 0x82, ///< streamed notification (after Subscribe)
};

/** METRICS body formats (the one-byte request body; the OK reply
 *  echoes the format before the payload). */
enum class MetricsFormat : std::uint8_t {
    Prometheus = 0, ///< text exposition 0.0.4 as one blob
    Json = 1,       ///< edb-metrics-v2 JSON as one blob
    Binary = 2,     ///< structured rows (what `edb-trace top` decodes)
};

/** True for opcodes a client may legally send. */
constexpr bool
isRequestOp(std::uint8_t op)
{
    return op >= (std::uint8_t)Op::Hello &&
           op <= (std::uint8_t)Op::Metrics;
}

/** Stable name of an opcode, for diagnostics ("?" when unknown). */
const char *opName(std::uint8_t op);

/** Typed error codes carried by ERR replies and ProtocolError. */
enum class ErrCode : std::uint16_t {
    None = 0,
    BadFrame = 1,         ///< framing unusable (short header at close)
    FrameTooLarge = 2,    ///< body length above the negotiated cap
    UnknownOpcode = 3,    ///< request opcode outside the table
    MalformedPayload = 4, ///< body too short/long or a bad field
    BadVersion = 5,       ///< HELLO with an unsupported version
    NotHello = 6,         ///< command before a successful HELLO
    AlreadyHello = 7,     ///< second HELLO on one connection
    QuotaExceeded = 8,    ///< admission control rejected the request
    UnknownTrace = 9,     ///< trace id not opened by this tenant
    UnknownMonitor = 10,  ///< monitor id not installed
    TraceLoadFailed = 11, ///< OPEN_TRACE path unreadable/corrupt
    BadSession = 12,      ///< RUN session id out of range
    BadQuery = 13,        ///< QUERY spec rejected by validateSpec
    ShuttingDown = 14,    ///< server is draining; try again elsewhere
    Internal = 15,        ///< unexpected server-side failure
};

/** Stable name of an error code, for diagnostics. */
const char *errCodeName(ErrCode code);

/**
 * A protocol-layer failure: framing or payload decode. Carries the
 * typed code and the absolute stream offset of the offending byte
 * (the trace::TraceError convention), so an ERR reply can point at
 * the exact field.
 */
class ProtocolError : public std::runtime_error
{
  public:
    ProtocolError(ErrCode code, std::uint64_t offset,
                  const std::string &what)
        : std::runtime_error(what), code_(code), offset_(offset)
    {
    }

    ErrCode code() const { return code_; }
    std::uint64_t offset() const { return offset_; }

  private:
    ErrCode code_;
    std::uint64_t offset_;
};

/** One decoded frame. `opcode` is the raw byte: unknown values are
 *  delivered (not rejected) so dispatch can answer them typed. */
struct Frame
{
    std::uint8_t opcode = 0;
    std::vector<std::uint8_t> body;
    /** Absolute stream offset of the frame's length field. */
    std::uint64_t offset = 0;
};

/**
 * Incremental frame splitter with resynchronization.
 *
 * feed() appends raw socket bytes; next() pops complete frames. An
 * oversized body length throws ProtocolError(FrameTooLarge) exactly
 * once and then *discards* that body as its bytes arrive, so the
 * stream re-aligns at the following frame and the connection
 * survives (the server replies with a typed ERR in between).
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(std::size_t max_body = defaultMaxFrameBytes)
        : max_body_(max_body)
    {
    }

    /** Append raw bytes from the transport. */
    void feed(const void *data, std::size_t n);

    /**
     * Pop the next complete frame into `out`. Returns false when more
     * bytes are needed. Throws ProtocolError (once per bad frame) on
     * an oversized length; the decoder keeps consuming afterwards.
     */
    bool next(Frame &out);

    /** Absolute offset of the next unparsed stream byte. */
    std::uint64_t consumed() const { return consumed_; }

    /** True when a partial frame is buffered (truncation detection:
     *  EOF while mid-frame means the peer died mid-message). */
    bool midFrame() const
    {
        return !buf_.empty() || discard_left_ > 0;
    }

  private:
    std::size_t max_body_;
    std::deque<std::uint8_t> buf_;
    std::uint64_t consumed_ = 0;
    /** Body bytes still to throw away after an oversized header. */
    std::uint64_t discard_left_ = 0;
};

/** Serialize one frame (header + body) onto `out`. */
void encodeFrame(std::vector<std::uint8_t> &out, Op op,
                 const std::vector<std::uint8_t> &body);

/**
 * Body builder: fixed-width little-endian fields plus length-prefixed
 * strings/blobs.
 */
class PayloadWriter
{
  public:
    void
    putU8(std::uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    putU16(std::uint16_t v)
    {
        for (int i = 0; i < 2; ++i)
            bytes_.push_back((std::uint8_t)(v >> (8 * i)));
    }

    void
    putU32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back((std::uint8_t)(v >> (8 * i)));
    }

    void
    putU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back((std::uint8_t)(v >> (8 * i)));
    }

    /** u32 length + raw bytes; asserts the maxStringBytes cap. */
    void putString(const std::string &s);

    /** u32 length + raw bytes, for large fields (STATS JSON). */
    void putBlob(const std::string &s);

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Body parser. Every getter throws
 * ProtocolError(MalformedPayload, offset) on overrun, where offset
 * is the *absolute stream offset* of the missing/bad byte — the
 * reader is constructed with the frame's body offset so errors point
 * into the connection byte stream, not the frame.
 */
class PayloadReader
{
  public:
    PayloadReader(const std::vector<std::uint8_t> &body,
                  std::uint64_t body_offset)
        : data_(body.data()), size_(body.size()), base_(body_offset)
    {
    }

    std::uint8_t getU8();
    std::uint16_t getU16();
    std::uint32_t getU32();
    std::uint64_t getU64();
    /** Length-prefixed string, capped at maxStringBytes. */
    std::string getString();
    /** Length-prefixed blob, capped at `cap`. */
    std::string getBlob(std::size_t cap);
    /** An AddrRange as two u64s; throws on an inverted range. */
    AddrRange getRange();

    std::size_t remaining() const { return size_ - pos_; }

    /** Absolute stream offset of the next unread body byte. */
    std::uint64_t offset() const { return base_ + pos_; }

    /** Throw MalformedPayload unless the body is fully consumed —
     *  trailing garbage is an error, not padding. */
    void requireEnd() const;

  private:
    void need(std::size_t n, const char *what) const;

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::uint64_t base_;
};

} // namespace edb::served

#endif // EDB_SERVED_PROTOCOL_H
