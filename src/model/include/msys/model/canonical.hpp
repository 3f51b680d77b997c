// Canonical content fingerprints for the model types — the "content" half
// of the engine's content-addressed ScheduleCache.
//
// Two applications that describe the same kernel/data DAG must hash equal
// even when they were assembled in different declaration orders (builder
// calls interleaved differently, or a round trip through the appdsl text
// format): ids are dense handles in declaration order, so the encoding
// never feeds ids into the hash.  Instead objects and kernels contribute in
// *name-sorted* order, and every cross-reference (producer, consumer,
// input, output, cluster member) is the referenced item's rank in that
// order.  Names are unique per Application, so the encoding is injective:
// any semantic difference — a name, a size, a latency, an edge, an
// iteration count, a final-result flag — lands in the digest.
//
// The digest runs a word at a time (WordHasher): a name is its length and
// its bytes packed eight to a word, every fixed-width field one step.
// The tags carry the encoding's version (v2), so a cache key made under
// another version never aliases one made under this one.
//
// Within-kernel input/output order IS semantic (it is preserved by the
// builder and the DSL) and is hashed in declaration order.
#pragma once

#include <cstdint>

#include "msys/common/hash.hpp"
#include "msys/model/application.hpp"
#include "msys/model/schedule.hpp"

namespace msys::model {

/// Appends the application's canonical encoding (declaration-order
/// independent, see file comment) to `h`.
void hash_append(WordHasher& h, const Application& app);

/// Appends the schedule's canonical encoding: the application's encoding
/// followed by the cluster partition as kernel-rank lists in execution
/// order (cluster order and within-cluster order are both semantic; the
/// FB-set binding is implied by cluster position).
void hash_append(WordHasher& h, const KernelSchedule& sched);

[[nodiscard]] std::uint64_t canonical_hash(const Application& app);
[[nodiscard]] std::uint64_t canonical_hash(const KernelSchedule& sched);

}  // namespace msys::model
