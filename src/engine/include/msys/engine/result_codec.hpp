// Byte codec between CompiledResult and the persistent schedule store.
//
// A CompiledResult is a web of non-owning pointers into its own
// application/schedule (round plans, placements), so serialising it
// structurally would be both large and fragile.  Instead the codec
// persists the *decisions* — winning rung, RF, retained set, release
// policy, the attempt chain, diagnostics and the full predicted cost —
// and decode replays the deterministic Figure-4 planning walk against the
// caller's identical Job to rebuild the heavy product.  The store key is
// the canonical content hash of the job, so the replay inputs are
// guaranteed semantically identical to the originals; the recomputed
// cost breakdown is then compared field-for-field against the stored one
// as an end-to-end fingerprint.  Any mismatch — framing fine but replay
// disagrees — means the entry is stale or corrupt: decode returns nullptr
// and the caller quarantines and recomputes, mirroring the store's
// handling of checksum failures.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "msys/engine/job.hpp"

namespace msys::engine {

/// Whether `result` is worth persisting.  Cancelled (deadline/cancel) and
/// internal-error results are not: they describe *this run's* budget or a
/// bug, not the job's semantics, and must not be replayed onto later runs.
[[nodiscard]] bool persistable(const CompiledResult& result);

/// Encodes the scheduling decisions of `result` (see file comment).
/// Requires persistable(result).
[[nodiscard]] std::string encode_result(const CompiledResult& result);

/// Rebuilds a CompiledResult for `job` from an encoded payload by
/// replaying the planning walk.  Returns nullptr when the payload does not
/// parse, the replay fails, or the recomputed cost fingerprint disagrees
/// with the stored one — the caller treats all three as corruption.
[[nodiscard]] std::shared_ptr<const CompiledResult> decode_result(
    std::string_view payload, const Job& job);

}  // namespace msys::engine
