// Query service daemon: warm-session serving over a Unix-domain socket —
// step 4 of the ROADMAP serving story.  One long-lived process owns ONE
// warm Study_session (+ its Result_cache and in-memory memos) and
// multiplexes many clients onto it, so corner searches, surrogate
// calibrations, compiled SPICE workspaces, and whole query results
// amortize across REQUESTS instead of across one process's lifetime.  A
// repeated query is served from the daemon's result memo (or the on-disk
// cache) in well under a millisecond of compute.
//
// ## Protocol specification (version `service_protocol_version`)
//
// Transport: a Unix-domain stream socket, line-delimited JSON — every
// request and every response is exactly one canonical-JSON object
// (util::Json) terminated by '\n'.  A connection may pipeline any number
// of requests; responses to EXECUTED requests arrive in request order
// (busy rejections are emitted immediately at admission time, so they may
// overtake the response of an earlier queued request).
//
// ### Requests
//
//     {"v":1, "op":"query", "query":{...}, "id":...}
//     {"v":1, "op":"status", "id":...}
//     {"v":1, "op":"cache_stats", "id":...}
//     {"v":1, "op":"shutdown", "id":...}
//
//   - `v` (required): the protocol version.  The versioning rule: `v`
//     bumps whenever any request or response field changes meaning or
//     disappears (additive response fields do not bump it); a daemon
//     rejects any other version with error code `bad_version`, so a stale
//     client fails loudly instead of misparsing.
//   - `op` (required): one of the four operations above.
//   - `id` (optional): any JSON value; echoed verbatim in the response so
//     pipelining clients can correlate.
//   - `query` (op:query only): a core::Query encoded by json_of_query
//     (core/serialize.h) — the wire format IS the persistence round-trip,
//     verbatim.  The runner is execution policy and is not part of the
//     encoding; the daemon applies its own Service_options::runner.
//
// ### Responses
//
// Success envelope — always `"ok":true`, the echoed `op`/`id`, plus:
//
//   op:query        `"result"`: the Result_table encoded by
//                   json_of_result_table — bitwise identical to an
//                   in-process Study_session::run of the same query (the
//                   canonical-hash + thread-determinism contracts;
//                   `cmp` of the dumped bytes is the CI gate) — and
//                   `"serve"`, the per-request serve metadata:
//                     query_hash      hex16 canonical hash (query_key)
//                     memo_hit        served from the daemon's result memo
//                     cache_hits/_misses/_stores   on-disk cache deltas
//                     corner_searches / surface_fits  session work deltas
//                     wall_ms         service-side wall time (diagnostic
//                                     only — never part of a result)
//                     queue_depth     requests still queued behind this one
//   op:status       `"status"`: daemon + session counters (requests,
//                   queries, memo_hits, memo_entries, memo_evictions,
//                   errors, busy,
//                   queue_depth, max_pending, session query_runs /
//                   corner_searches / surface_fits, cache_mode,
//                   config_fingerprint, protocol + serialization versions).
//   op:cache_stats  `"cache_stats"`: the session's on-disk cache counters
//                   and the process-wide aggregate (process_cache_stats).
//   op:shutdown     `"draining"`: the number of queued requests that will
//                   still be answered before the daemon exits.
//
// Error envelope — `"ok":false`, the echoed `id` when recoverable, and
// `"error":{"code","message"}`.  Codes:
//
//   malformed       not JSON, not an object, missing v/op/query, or an
//                   undecodable query payload (including a query naming
//                   a `solver`: the accuracy picks the Newton solver)
//   bad_version     `v` differs from service_protocol_version
//   unsupported_op  unknown `op`
//   busy            the bounded request queue is full; the request was
//                   NOT executed (backpressure, emitted immediately)
//   failed          the query raised during execution (e.g. a surrogate
//                   fit missing its held-out budget); the daemon stays up
//
// A connection streaming more than Service_options::max_line_bytes
// without a newline is answered with one `malformed` envelope (no `id` —
// the line never completed, so there is nothing to salvage) and then
// disconnected: the daemon's per-client line buffer is bounded, so an
// unterminated byte stream can never exhaust its memory.
//
// A protocol error NEVER terminates the daemon: every request produces
// exactly one response envelope, and client I/O failures just drop that
// client.
//
// ### Lifecycle
//
// serve() binds the socket (refusing to usurp a live daemon on the same
// path — see util::Unix_listener), then loops: poll listener + clients,
// admit complete lines into the bounded request queue (overflow →
// immediate `busy`), execute queued requests in admission order on the
// shared warm session.  A client that half-closes (shutdown(SHUT_WR))
// after pipelining requests still receives every queued response: EOF'd
// clients are only reaped after the requests they admitted have been
// answered.  op:shutdown is graceful by construction — the ack is sent,
// every request already admitted is drained (executed and answered),
// new reads and connections are refused, the socket file is unlinked,
// and serve() returns 0.
//
// ## Determinism contract
//
// The daemon serializes query execution (one at a time, admission order)
// on a session whose run() is itself safe for concurrent callers — the
// serialization is queueing policy, not a safety requirement.  Because a
// result is a pure function of its canonical key material (core/
// serialize.h) and bitwise identical at any thread count, the bytes a
// daemon serves are the bytes an in-process run produces, cold or warm,
// whatever Service_options::runner says.
#ifndef MPSRAM_CORE_SERVICE_H
#define MPSRAM_CORE_SERVICE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <string>
#include <string_view>

#include "core/runner.h"
#include "core/session.h"
#include "util/json.h"

namespace mpsram::core {

/// Version of the wire protocol above.  Bump on any incompatible request
/// or response change; requests carrying any other `v` are rejected with
/// `bad_version`.
inline constexpr std::uint64_t service_protocol_version = 1;

struct Service_options {
    /// Filesystem path of the Unix-domain socket to serve on.
    std::string socket_path;
    /// Bounded request queue: requests admitted while this many are
    /// already queued are rejected with an immediate `busy` envelope
    /// (backpressure, never a hang).
    std::size_t max_pending = 64;
    /// Connection bound; connections beyond it are accepted and closed.
    std::size_t max_clients = 64;
    /// Per-client line-buffer bound: a connection holding more than this
    /// many unterminated bytes gets a `malformed` envelope and is
    /// disconnected (memory backpressure, never unbounded growth).
    std::size_t max_line_bytes = 16u << 20;
    /// Result-memo bound: at most this many encoded Result_tables are
    /// retained, least-recently-served evicted first.  0 disables the
    /// memo entirely (the on-disk Result_cache still applies).
    std::size_t max_memo_entries = 1024;
    /// Idle poll tick of the serve loop [ms].
    int poll_interval_ms = 100;
    /// Send stall budget per client write [ms]; a slower client is
    /// dropped.
    int write_timeout_ms = 30000;
    /// Execution backend applied to every served query (query.runner and
    /// query.mc.runner — the wire format carries no runner).  Results are
    /// bitwise identical at any thread count, so this is pure policy.
    Runner_options runner;
};

/// Monotonic daemon counters (op:status reports them).
struct Service_stats {
    std::uint64_t requests = 0;   ///< lines received (busy ones included)
    std::uint64_t queries = 0;    ///< op:query executed successfully
    std::uint64_t memo_hits = 0;  ///< queries served from the result memo
    std::uint64_t memo_evictions = 0;  ///< LRU entries dropped at the bound
    std::uint64_t errors = 0;     ///< error envelopes other than busy
    std::uint64_t busy = 0;       ///< backpressure rejections
};

/// The daemon engine.  Construct over a (warm) Study_session, then either
/// call serve() to run the socket loop, or drive the protocol directly
/// through handle_line() — the socket-free seam the unit tests use.
class Query_service {
public:
    Query_service(const Study_session& session, Service_options opts);

    const Service_options& options() const { return opts_; }
    const Service_stats& stats() const { return stats_; }
    bool shutdown_requested() const { return shutdown_; }
    std::size_t memo_entries() const { return memo_.size(); }

    /// Handle one request line (no trailing newline) and return the
    /// response line (no trailing newline).  Never throws on protocol
    /// errors — they come back as error envelopes.
    std::string handle_line(const std::string& line);

    /// Structured form of handle_line for callers that already parsed.
    util::Json handle_request(const util::Json& request);

    /// The backpressure envelope for a request that was NOT admitted
    /// (queue full).  Salvages `id` from the line when it parses.
    std::string busy_line(const std::string& line);

    /// Run the daemon loop on options().socket_path until a shutdown
    /// request completes its drain.  Returns 0 on graceful shutdown.
    /// Protocol errors and client I/O failures never exit the loop;
    /// socket-setup failures throw.  `on_listening`, when set, is called
    /// once the socket is bound and listening — the readiness signal
    /// for whoever waits to connect.
    int serve(const std::function<void()>& on_listening = {});

private:
    util::Json error_json(std::string_view code, std::string_view message,
                          const util::Json* id);
    util::Json ok_json(std::string_view op, const util::Json* id);
    util::Json op_query(const util::Json& request, const util::Json* id);
    util::Json op_status(const util::Json* id);
    util::Json op_cache_stats(const util::Json* id);

    const Study_session& session_;
    Service_options opts_;
    Service_stats stats_;
    bool shutdown_ = false;
    std::size_t queue_depth_ = 0;  ///< behind the request being executed

    /// Daemon-lifetime result memo: canonical query hash -> encoded
    /// Result_table.  This is what turns a repeated query into a
    /// sub-millisecond response even with the on-disk cache off; entries
    /// are sound to share across clients because results are pure
    /// functions of their canonical key material.  Bounded at
    /// Service_options::max_memo_entries with least-recently-served
    /// eviction (memo_lru_ front = most recent), so a long-lived daemon
    /// serving varied queries stays memory-flat.
    struct Memo_entry {
        util::Json table;
        std::list<std::uint64_t>::iterator lru;
    };
    std::map<std::uint64_t, Memo_entry> memo_;
    std::list<std::uint64_t> memo_lru_;
};

} // namespace mpsram::core

#endif // MPSRAM_CORE_SERVICE_H
