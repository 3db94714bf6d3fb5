// Per-stage query cost breakdown from the live trace (core/query_trace.h):
// where does a server-side query's wall time actually go, per engine?
// Reproduces the paper's SP cost decomposition (vChain §8) as medians of
// the traced stages rather than ad-hoc stopwatch calls, so this bench and
// the production /metrics histograms can never disagree on definitions.
//
//   total            : Service::Query end to end (serialization included)
//   setup            : validation + keyword mapping + processor setup
//   window_lookup    : [ts, te] -> height range
//   match_walk       : block walk, clause matching, skip attempts
//   aggregate        : per-clause aggregate proving (cache probe or prove)
//   prove            : deferred disjointness proving
//   serialize        : canonical response encoding
//
// The service runs with ServiceOptions::tracing = false, so a plain
// Query(q) takes the true zero-instrumentation path while Query(q, &trace)
// is traced. Each iteration is one traced/untraced pair on the same warm
// service, in alternating order, both wall-clocked from outside:
// `total_untraced-<e>` is the untraced median and `trace_overhead_pct-<e>`
// the median per-pair difference relative to it — the introspection
// plane's cost, with an acceptance bound of <= 3%.
//
// Emits BENCH_query_stages.json. `--quick` shrinks the workload for CI
// smoke; absolute numbers come from full runs.

#include <iterator>

#include "core/query_trace.h"
#include "harness.h"

using namespace vchain;
using namespace vchain::bench;

namespace {

double Median(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  return (*samples)[samples->size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  Scale scale = GetScale();
  const size_t blocks = quick ? 8 : scale.window_blocks.back();
  const size_t iters = quick ? 3 : 101;

  DatasetProfile profile = workload::ProfileFor(workload::DatasetKind::k4SQ,
                                                scale.objects_per_block);

  std::printf("# query stages — per-stage server-side cost from the trace "
              "(%zu blocks, %zu iters%s)\n",
              blocks, iters, quick ? ", quick" : "");
  std::printf("%-16s %-18s %14s %9s\n", "stage", "engine", "median_ns",
              "share");
  BenchJson json("query_stages");

  for (api::EngineKind kind :
       {api::EngineKind::kMockAcc2, api::EngineKind::kAcc2}) {
    const char* engine_name = api::EngineKindName(kind);

    api::ServiceOptions opts;
    opts.engine = kind;
    opts.config = ConfigFor(profile, IndexMode::kBoth);
    opts.oracle = SharedOracle();
    opts.prover_mode = ProverMode::kTrustedFast;
    opts.tracing = false;  // traced only when a QueryTrace is passed
    auto svc = api::Service::Open(opts).TakeValue();

    DatasetGenerator gen(profile, /*seed=*/1234);
    for (size_t b = 0; b < blocks; ++b) {
      auto objs = gen.NextBlock();
      uint64_t ts = objs.front().timestamp;
      if (!svc->Append(std::move(objs), ts).ok()) std::abort();
    }

    auto headers = svc->Headers(0, blocks - 1).TakeValue();
    DatasetGenerator qgen(profile, /*seed=*/1234);
    core::Query q = qgen.MakeQuery(profile.default_selectivity,
                                   profile.default_clause_size,
                                   headers[blocks / 2].timestamp,
                                   headers.back().timestamp);

    struct StageSamples {
      const char* name;
      std::vector<double> ns;
    };
    StageSamples stages[] = {{"total"},   {"setup"},     {"window_lookup"},
                             {"match_walk"}, {"aggregate"}, {"prove"},
                             {"serialize"}};
    // One untimed query first, so every pair sees the same warm caches.
    if (!svc->Query(q).ok()) std::abort();
    std::vector<double> untraced_ns, overhead_ns;
    for (size_t i = 0; i < iters; ++i) {
      core::QueryTrace t;
      double traced_wall = 0, untraced_wall = 0;
      // Alternate which half of the pair runs first so order effects cancel.
      for (bool traced : {i % 2 == 0, i % 2 != 0}) {
        uint64_t t0 = metrics::MonotonicNanos();
        bool ok = traced ? svc->Query(q, &t).ok() : svc->Query(q).ok();
        if (!ok) std::abort();
        double wall = static_cast<double>(metrics::MonotonicNanos() - t0);
        (traced ? traced_wall : untraced_wall) = wall;
      }
      untraced_ns.push_back(untraced_wall);
      overhead_ns.push_back(traced_wall - untraced_wall);
      double vals[] = {static_cast<double>(t.total_ns),
                       static_cast<double>(t.setup_ns),
                       static_cast<double>(t.window_lookup_ns),
                       static_cast<double>(t.match_walk_ns),
                       static_cast<double>(t.aggregate_ns),
                       static_cast<double>(t.prove_ns),
                       static_cast<double>(t.serialize_ns)};
      for (size_t s = 0; s < std::size(stages); ++s) {
        stages[s].ns.push_back(vals[s]);
      }
    }

    double total_median = Median(&stages[0].ns);
    for (auto& stage : stages) {
      double median = Median(&stage.ns);
      double share = total_median > 0 ? median / total_median : 0;
      std::printf("%-16s %-18s %14.0f %8.1f%%\n", stage.name, engine_name,
                  median, share * 100);
      json.Add(std::string(stage.name) + "-" + engine_name, blocks, median,
               median > 0 ? 1e9 / median : 0);
    }
    double untraced_median = Median(&untraced_ns);
    double overhead_pct =
        untraced_median > 0 ? Median(&overhead_ns) / untraced_median * 100 : 0;
    std::printf("%-16s %-18s %14.0f %8s\n", "total_untraced", engine_name,
                untraced_median, "-");
    std::printf("%-16s %-18s %13.1f%% %8s\n", "trace_overhead", engine_name,
                overhead_pct, "-");
    json.Add(std::string("total_untraced-") + engine_name, blocks,
             untraced_median, untraced_median > 0 ? 1e9 / untraced_median : 0);
    json.Add(std::string("trace_overhead_pct-") + engine_name, blocks,
             overhead_pct, 0);
  }
  return 0;
}
