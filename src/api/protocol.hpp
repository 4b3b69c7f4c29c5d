// Versioned JSON wire protocol for rsp::api::Service.
//
// v2 (current) — one request per JSON object, designed for NDJSON streams:
//
//   {"protocol_version": 2, "id": "r1", "op": "eval", "kernel": "SAD"}
//
// `protocol_version` and `id` are mandatory; `id` (a string or number) is
// echoed verbatim in the response so clients can match responses that
// complete out of order. Unknown fields are rejected — a typo'd field
// silently ignored would look like a successful request. Responses:
//
//   {"protocol_version": 2, "id": "r1", "op": "eval", "ok": true, ...}
//   {"protocol_version": 2, "id": "r1", "ok": false, "error": "..."}
//
// v1 (compatibility) — the PR-2 batch document: a JSON array of bare
// {"op": "eval"|"dse", ...} objects, no envelope, positional results.
// `run_v1_batch` executes one concurrently over a Service and reassembles
// a "results" array byte-identical to the original serial batch runner
// (the "runtime" counters are scheduling-dependent).
//
// The full schema reference lives in docs/PROTOCOL.md.
#pragma once

#include <string>

#include "api/service.hpp"
#include "util/json.hpp"

namespace rsp::api {

inline constexpr int kProtocolVersion = 2;

/// Decodes a v2 request object (envelope + payload, strict field checking).
/// Throws InvalidArgumentError/NotFoundError with a message suitable for an
/// in-band error response.
Request decode_v2_request(const util::Json& doc);

/// Decodes one element of a v1 batch array ("eval" and "dse" only, lenient
/// about unknown top-level fields — exactly the PR-2 rules and messages).
Request decode_v1_request(const util::Json& doc);

/// Response-body renderers: {"op": ..., "ok": true, <payload>}. The body
/// carries no envelope; serve adds one, the v1 shim appends the positional
/// "request" index instead.
util::Json to_body(const ListResponse&);
util::Json to_body(const EvalResponse&);
util::Json to_body(const DseResponse&);
util::Json to_body(const MapResponse&);
util::Json to_body(const SimulateResponse&);
util::Json to_body(const SimulateBatchResponse&);
util::Json to_body(const LintResponse&);
util::Json to_body(const RtlResponse&);
util::Json to_body(const DotResponse&);
util::Json to_body(const VcdResponse&);
util::Json to_body(const BitstreamResponse&);
util::Json to_body(const CacheStatsResponse&);
util::Json to_body(const CacheSaveResponse&);
util::Json to_body(const CacheLoadResponse&);
util::Json to_body(const PingResponse&);
util::Json to_body(const DseShardResponse&);
util::Json to_body(const WorkerInfoResponse&);

/// Inverse of the "config" payload parser: renders `config` as the wire
/// object `dse`/`dse_shard` decode accepts, with every field explicit —
/// how the coordinator pins one run's exact configuration across workers
/// instead of trusting their defaults to match.
util::Json encode_dse_config(const dse::ExplorerConfig& config);

/// {"ok": false, "error": message} — the in-band failure body.
util::Json error_body(const std::string& message);

/// Wraps a body in the v2 envelope: protocol_version and the echoed `id`
/// first, then the body's fields in order (moved, not copied — rtl/vcd
/// bodies carry the whole generated text).
util::Json encode_v2_response(const util::Json& id, util::Json body);

/// The v1 compatibility shim: executes a v1 batch document (JSON array of
/// requests) over `service`, scheduling independent requests concurrently
/// on the service's pools, and reassembles the positional response
/// document:
///
///   {"results": [{..., "request": i}, ...], "runtime": {...}}
///
/// Per-request failures are reported in-band in their result slot; only a
/// non-array input throws (InvalidArgumentError). The "results" array is
/// byte-identical to the original serial batch runner for every valid
/// document and for its tested error paths (a request carrying several
/// independent errors may report a different one of them, since config
/// validation moved to decode time); the "runtime" hit/miss counters are
/// scheduling-dependent under concurrent dispatch.
util::Json run_v1_batch(const util::Json& requests, Service& service);

}  // namespace rsp::api
