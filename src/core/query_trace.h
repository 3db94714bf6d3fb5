// Per-query stage trace: where did this query's wall time go?
//
// The paper's evaluation (vChain §8) breaks SP cost into window lookup,
// clause matching and disjointness proving — QueryTrace reproduces that
// breakdown from a live server. QueryProcessor::TimeWindowQuery fills
// one when handed a non-null pointer; the api::Service wraps the call to
// add serialization and total time, aggregates stages into histograms, and
// the wire layer surfaces the trace as JSON in an `X-Vchain-Trace`
// response header when the request opts in.
//
// Two invariants:
//   * Tracing never touches query semantics — it reads clocks and bumps
//     counters, so VO bytes are bit-identical with tracing on or off
//     (asserted in tests/net/net_e2e_test.cc).
//   * The primary stages are non-overlapping and cover the whole
//     processor+serialize path, so their sum tracks total_ns to within
//     scheduling noise (the acceptance bound is ~10%). msm_ns always
//     reads 0 (see its field doc).
//
// All times are monotonic-clock nanoseconds (metrics::MonotonicNanos).
//
// Since the introspection plane, the stage fields are a *projection* of the
// causal span tree (`spans`, common/span.h): the processor and api tiers
// open/close spans, and ProjectSpans() folds them back into the flat fields
// above so histograms, warn logs, and the trace header all read one
// measurement. Callers that hand the processor a bare QueryTrace without a
// tree get one auto-created (EnsureSpans), so the flat numbers never vanish.

#ifndef VCHAIN_CORE_QUERY_TRACE_H_
#define VCHAIN_CORE_QUERY_TRACE_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/span.h"

namespace vchain::core {

struct QueryTrace {
  // --- Non-overlapping wall-time stages (ns). Sum ≈ total_ns. ---
  /// Query validation, keyword→element mapping, processor setup.
  uint64_t setup_ns = 0;
  /// Height-range resolution for [ts, te] (timestamp index or binary
  /// search over headers).
  uint64_t window_lookup_ns = 0;
  /// The block walk: per-node clause matching, result collection,
  /// mismatch recording, skip-step attempts.
  uint64_t match_walk_ns = 0;
  /// FlushAggregates: per-clause aggregate proving (cache probe or
  /// ProveDisjoint over the summed multiset).
  uint64_t aggregate_ns = 0;
  /// ResolveDeferredProofs: batch disjointness proving on the pool.
  uint64_t prove_ns = 0;
  /// Response serialization to canonical VO bytes (filled by api tier).
  uint64_t serialize_ns = 0;

  /// Whole server-side call, measured around everything above (api tier).
  uint64_t total_ns = 0;

  /// Always 0: the SP runs no MSM to find a cached proof (the cache is
  /// keyed by content, core/proof_cache.h). Retained, with its "msm_ns"
  /// ToJson key, for the published trace format.
  uint64_t msm_ns = 0;

  // --- Work counts. ---
  uint64_t blocks_walked = 0;
  uint64_t skips_taken = 0;       // skip-list hops that replaced block walks
  uint64_t nodes_visited = 0;     // intra-block tree nodes examined
  uint64_t results_matched = 0;   // objects returned
  uint64_t proofs_computed = 0;   // ProveDisjoint executions (cache misses)
  uint64_t proof_cache_hits = 0;
  uint64_t proof_cache_misses = 0;

  /// The causal span tree this trace's stage fields are projected from.
  /// Shared so the retention ring can outlive the QueryTrace.
  std::shared_ptr<trace::SpanTree> spans;

  /// The tree, creating it (rooted at `root`, started now) on first use.
  trace::SpanTree* EnsureSpans(const char* root = "query") {
    if (spans == nullptr) spans = std::make_shared<trace::SpanTree>(root);
    return spans.get();
  }

  /// Fold the span tree back into the flat stage fields. Inline "prove"
  /// spans nested under the walk are subtracted from match_walk_ns so the
  /// primary stages stay non-overlapping; when the tree overflowed
  /// (DroppedSpans > 0) un-subtracted prove time simply stays inside the
  /// walk, preserving the sum invariant. No-op without a tree.
  void ProjectSpans() {
    if (spans == nullptr) return;
    const trace::SpanTree& t = *spans;
    setup_ns = t.SumDurationsNs("setup");
    window_lookup_ns = t.SumDurationsNs("window_lookup");
    const uint64_t walk = t.SumDurationsNs("match_walk");
    const uint64_t inline_prove =
        t.SumDurationsUnderNs("prove", "match_walk");
    match_walk_ns = walk > inline_prove ? walk - inline_prove : 0;
    aggregate_ns = t.SumDurationsNs("aggregate");
    prove_ns = t.SumDurationsNs("prove");
    serialize_ns = t.SumDurationsNs("serialize");
    if (t.RootDurationNs() > 0) total_ns = t.RootDurationNs();
  }

  /// Sum of the non-overlapping stages — the number the ~10%-of-total
  /// acceptance bound is checked against.
  uint64_t StageSumNs() const {
    return setup_ns + window_lookup_ns + match_walk_ns + aggregate_ns +
           prove_ns + serialize_ns;
  }

  /// Spans emitted into the ToJson header payload at most — keeps the
  /// X-Vchain-Trace header comfortably under the client's 16 KB
  /// response-head cap even for pathological walks.
  static constexpr size_t kMaxJsonSpans = 64;

  /// Compact single-line JSON — header-safe (ASCII, no CR/LF), hand
  /// rolled so core does not depend on the net tier's codec. When a span
  /// tree is attached it is appended as "spans" (capped at kMaxJsonSpans,
  /// with "spans_dropped" counting tree-level drops).
  std::string ToJson() const {
    char buf[832];
    std::snprintf(
        buf, sizeof(buf),
        "{\"total_ns\":%" PRIu64 ",\"setup_ns\":%" PRIu64
        ",\"window_lookup_ns\":%" PRIu64 ",\"match_walk_ns\":%" PRIu64
        ",\"aggregate_ns\":%" PRIu64 ",\"prove_ns\":%" PRIu64
        ",\"serialize_ns\":%" PRIu64 ",\"msm_ns\":%" PRIu64
        ",\"blocks_walked\":%" PRIu64 ",\"skips_taken\":%" PRIu64
        ",\"nodes_visited\":%" PRIu64 ",\"results_matched\":%" PRIu64
        ",\"proofs_computed\":%" PRIu64 ",\"proof_cache_hits\":%" PRIu64
        ",\"proof_cache_misses\":%" PRIu64,
        total_ns, setup_ns, window_lookup_ns, match_walk_ns, aggregate_ns,
        prove_ns, serialize_ns, msm_ns, blocks_walked, skips_taken,
        nodes_visited, results_matched, proofs_computed, proof_cache_hits,
        proof_cache_misses);
    std::string out = buf;
    if (spans != nullptr) {
      std::snprintf(buf, sizeof(buf), ",\"spans_dropped\":%" PRIu64
                    ",\"spans\":", spans->DroppedSpans());
      out.append(buf);
      spans->AppendJson(&out, kMaxJsonSpans);
    }
    out.push_back('}');
    return out;
  }
};

}  // namespace vchain::core

#endif  // VCHAIN_CORE_QUERY_TRACE_H_
