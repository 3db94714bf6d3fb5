// perfbench — the end-to-end benchmark of the vChain service provider.
//
// One process runs one workload against a production-configured
// vchain::Service (acc2 engine, honest prover, durable store, every other
// ServiceOptions field at its default) and checks every answer against a
// brute-force oracle evaluated over the objects this program generated
// itself. Workloads (README.md has the why of each):
//
//   recent-hot        a dashboard re-asking a small, pre-answered pool of
//                     predicates about the most recent blocks (in process)
//   history-cold      an auditor asking fresh predicates over windows at
//                     seeded positions across a chain 4x the block cache
//                     (in process)
//   ingest-subscribe  blocks appended on a fixed schedule under 200
//                     standing queries registered over the wire, a sample
//                     of wire subscribers polling and verifying every
//                     notification, and one wire reader re-reading a warm
//                     window every few ms (loopback HTTP)
//
// Usage (perfbench/run.py builds this and supplies --store):
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --store DIR
//
// Everything printed before the last line is a "# " header. The last line
// is one JSON object {correct, attempted, failed, metrics}: with --trace 0
// the end-to-end metrics, with --trace 1 the per-layer metrics. The timed
// run calls only public entry points and adds no spans; the traced run
// reads only what the program already exposes (QueryTrace, Service::Stats,
// the metrics registry, the X-Vchain-Trace header) and decodes answers with
// the typed layer to count disjointness checks.

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "accum/acc2.h"
#include "api/service.h"
#include "common/metrics.h"
#include "core/vo.h"
#include "net/sp_client.h"
#include "net/sp_server.h"
#include "sub/sub_serde.h"
#include "workload/datasets.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vchain;
using Clock = std::chrono::steady_clock;
using chain::Object;
using core::Query;

// --- sizes -------------------------------------------------------------------
// Every workload is a fixed, seeded list of operations. The sizes below set
// how much work one run measures; README.md records how they were chosen.

// setup_s is the median of this many set-ups in one run; the timed phase
// uses the last. Ingest set-up is short and fsync-bound, so it gets more.
constexpr int kQuerySetupRepeats = 3;
constexpr int kIngestSetupRepeats = 5;

struct RecentHotSize {
  size_t objects_per_block = 8;
  size_t blocks = 128;        // fits the 256-block decoded-block cache
  size_t window_blocks = 32;  // the pool asks about the last 32 blocks
  size_t pool = 4;            // predicates, answered once before timing
};

struct HistoryColdSize {
  size_t objects_per_block = 4;
  size_t blocks = 1024;       // 4x ChainConfig::block_cache_blocks
  size_t window_blocks = 8;
  double selectivity = 0.10;  // narrow amount ranges
};

// Registration is fsync-bound (every Subscribe writes and fsyncs a
// checkpoint of the whole registry), and fsync latency on a shared disk
// swings 2x over minutes. 200 subscriptions on a 256-block chain keep
// set-up mostly CPU-bound mining; at 1000 subscriptions on 64 blocks the
// median set-up moved 2x between two sets of runs of the same code.
struct IngestSize {
  size_t objects_per_block = 4;
  size_t initial_blocks = 256;
  size_t interests = 20;        // distinct standing predicates
  size_t subscriptions = 200;   // registered over POST /subscribe
  size_t sampled = 8;           // wire subscribers polled and verified
  size_t read_window_blocks = 4;
  double interval_ms = 1500;    // open-loop append schedule
};

// --- small helpers -----------------------------------------------------------

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fflush(stdout);
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return r.TakeValue();
}

void MustOk(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

/// A sample of one quantity. Quantiles interpolate linearly between order
/// statistics (the same rule as numpy's default).
class Samples {
 public:
  void Add(double x) { v_.push_back(x); }
  size_t size() const { return v_.size(); }
  double Quantile(double p) const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    double pos = p * static_cast<double>(s.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  double Median() const { return Quantile(0.5); }
  double Mean() const {
    if (v_.empty()) return 0;
    double t = 0;
    for (double x : v_) t += x;
    return t / static_cast<double>(v_.size());
  }

 private:
  std::vector<double> v_;
};

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

/// Sum of every sample of each family in the process-wide registry's text
/// exposition, keyed by series name without labels (histograms appear as
/// their _sum and _count series).
std::map<std::string, double> ScrapeRegistry() {
  std::map<std::string, double> out;
  std::istringstream in(metrics::Registry::Default().WriteText());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    std::string name = line.substr(0, std::min(line.find('{'), sp));
    out[name] += std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

double Delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

/// Numeric field of a flat JSON object (the X-Vchain-Trace header).
double JsonNumber(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

// --- the brute-force oracle --------------------------------------------------
// Evaluated on raw attribute values only; shares no code with the SP's
// transformed-multiset matching.

bool OracleMatches(const Object& o, const Query& q) {
  for (const core::RangePredicate& r : q.ranges) {
    if (r.dim >= o.numeric.size()) return false;
    uint64_t v = o.numeric[r.dim];
    if (v < r.lo || v > r.hi) return false;
  }
  for (const auto& clause : q.keyword_cnf) {
    bool any = false;
    for (const std::string& kw : clause) {
      if (std::find(o.keywords.begin(), o.keywords.end(), kw) !=
          o.keywords.end()) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

/// The objects this program generated, by block, plus an id index.
struct GeneratedChain {
  std::vector<std::vector<Object>> blocks;
  std::unordered_map<uint64_t, const Object*> by_id;

  void Index() {
    by_id.clear();
    for (const auto& b : blocks) {
      for (const Object& o : b) by_id[o.id] = &o;
    }
  }
};

struct OracleTally {
  uint64_t answers = 0;
  uint64_t mismatches = 0;
  /// Returned objects that fail the predicate on raw values: the accumulator
  /// folds elements into a 2^16 universe, so a rare mapped collision makes
  /// the SP return (and prove) an object the user filters out locally.
  uint64_t false_positives = 0;
};

/// Check one answer. [from_height, to_height] are the blocks the query
/// covers; `window` additionally filters by the query's time window. The
/// answer must contain every object the oracle selects, be a genuine
/// generated object, hold no duplicates, and equal the oracle's set after
/// the user's local post-filter.
bool CheckAgainstOracle(const GeneratedChain& gen, uint64_t from_height,
                        uint64_t to_height, const Query& q, bool window,
                        const std::vector<Object>& got, OracleTally* tally) {
  ++tally->answers;
  std::set<uint64_t> expected;
  for (uint64_t h = from_height; h <= to_height && h < gen.blocks.size();
       ++h) {
    for (const Object& o : gen.blocks[h]) {
      if (window && (o.timestamp < q.time_start || o.timestamp > q.time_end)) {
        continue;
      }
      if (OracleMatches(o, q)) expected.insert(o.id);
    }
  }
  std::set<uint64_t> filtered;
  std::set<uint64_t> seen;
  bool ok = true;
  for (const Object& o : got) {
    auto it = gen.by_id.find(o.id);
    if (it == gen.by_id.end() || !(*it->second == o) ||
        !seen.insert(o.id).second) {
      ok = false;
      continue;
    }
    if (window && (o.timestamp < q.time_start || o.timestamp > q.time_end)) {
      ok = false;
      continue;
    }
    if (OracleMatches(o, q)) {
      filtered.insert(o.id);
    } else {
      ++tally->false_positives;
    }
  }
  if (filtered != expected) ok = false;
  if (!ok) ++tally->mismatches;
  return ok;
}

// --- typed decoding (traced run and tamper checks) ----------------------------

size_t ChecksInResponse(const accum::Acc2Engine& engine, const Bytes& bytes) {
  ByteReader r(ByteSpan(bytes.data(), bytes.size()));
  core::QueryResponse<accum::Acc2Engine> resp;
  if (!core::DeserializeResponse(engine, &r, &resp).ok()) return 0;
  size_t checks = resp.vo.aggregated.size();
  for (const auto& step : resp.vo.steps) {
    if (const auto* b = std::get_if<core::BlockVO<accum::Acc2Engine>>(&step)) {
      for (const auto& n : b->nodes) {
        if (n.kind == core::VoKind::kMismatch && n.proof) ++checks;
      }
    } else if (std::get<core::SkipVO<accum::Acc2Engine>>(step).proof) {
      ++checks;
    }
  }
  return checks;
}

size_t ChecksInNotification(const accum::Acc2Engine& engine,
                            const Bytes& bytes) {
  ByteReader r(ByteSpan(bytes.data(), bytes.size()));
  sub::SubNotification<accum::Acc2Engine> n;
  if (!sub::DeserializeSubNotification(engine, &r, &n).ok()) return 0;
  size_t checks = 0;
  for (const auto& node : n.nodes) {
    if (node.kind == core::VoKind::kMismatch) checks += node.exclusions.size();
  }
  return checks;
}

/// The same answer with one result object removed (object references past
/// it renumbered so the bytes still decode).
Bytes DropOneObject(const accum::Acc2Engine& engine, const Bytes& bytes,
                    size_t victim) {
  ByteReader r(ByteSpan(bytes.data(), bytes.size()));
  core::QueryResponse<accum::Acc2Engine> resp;
  if (!core::DeserializeResponse(engine, &r, &resp).ok() ||
      resp.objects.empty()) {
    return {};
  }
  victim %= resp.objects.size();
  resp.objects.erase(resp.objects.begin() + static_cast<ptrdiff_t>(victim));
  for (auto& step : resp.vo.steps) {
    if (auto* b = std::get_if<core::BlockVO<accum::Acc2Engine>>(&step)) {
      for (auto& n : b->nodes) {
        if (n.kind == core::VoKind::kMatch && n.object_ref > victim) {
          --n.object_ref;
        }
      }
    }
  }
  ByteWriter w;
  core::SerializeResponse(engine, resp, &w);
  return w.TakeBytes();
}

// --- the run -----------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string store;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      f.workload = v;
    } else if (k == "--seed") {
      f.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      f.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      f.trace = v == "1";
    } else if (k == "--store") {
      f.store = v;
    } else {
      Die("unknown flag " + k);
    }
  }
  if (f.workload.empty() || f.store.empty() || f.seconds <= 0) {
    Die("usage: perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --store DIR");
  }
  return f;
}

/// What one run reports. `e2e` holds (value, unit) per end-to-end metric,
/// `layer` the per-layer values; `notes` are extra header lines.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> notes;

  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, {value, unit}});
  }
  void Note(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    notes.push_back(buf);
  }
};

/// Every per-layer metric with its unit, in a fixed order; a layer the
/// workload does not exercise reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"core.setup_ms", "ms"},
    {"core.window_lookup_ms", "ms"},
    {"core.match_walk_ms", "ms"},
    {"core.aggregate_ms", "ms"},
    {"core.msm_ms", "ms"},
    {"core.prove_ms", "ms"},
    {"core.serialize_ms", "ms"},
    {"core.blocks_walked", "count"},
    {"core.skips_taken", "count"},
    {"core.nodes_visited", "count"},
    {"core.results", "count"},
    {"core.proofs_computed", "count"},
    {"core.proof_cache_hit_ratio", "ratio"},
    {"accum.prove_ms_per_proof", "ms"},
    {"accum.checks_per_answer", "count"},
    {"accum.verify_ms_per_check", "ms"},
    {"api.query_ms", "ms"},
    {"api.decode_ms", "ms"},
    {"api.verify_ms", "ms"},
    {"api.append_ms", "ms"},
    {"api.subscribe_ms", "ms"},
    {"api.events_ms", "ms"},
    {"api.lock_wait_ms", "ms"},
    {"store.block_cache_hit_ratio", "ratio"},
    {"store.block_cache_misses_per_query", "count"},
    {"store.checkpoint_writes_per_subscribe", "count"},
    {"chain.mine_ms", "ms"},
    {"chain.header_sync_ms", "ms"},
    {"sub.match_ms", "ms"},
    {"sub.candidates_per_block", "count"},
    {"sub.notified_per_block", "count"},
    {"net.poll_ms", "ms"},
    {"net.delivery_ms", "ms"},
    {"net.read_overhead_ms", "ms"},
    {"net.read_qps", "1/s"},
    {"trace.overhead_ms", "ms"},
};

/// Stage and work counters of traced queries (QueryTrace or the wire's
/// X-Vchain-Trace JSON), reduced to the core.* medians.
struct CoreStages {
  Samples setup, window, walk, aggregate, msm, prove, serialize, blocks, skips,
      nodes, results, proofs, lock_wait;
  double hits = 0, misses = 0;
  double prove_ns = 0, proofs_total = 0;

  void Add(const core::QueryTrace& t) {
    AddValues(static_cast<double>(t.setup_ns),
              static_cast<double>(t.window_lookup_ns),
              static_cast<double>(t.match_walk_ns),
              static_cast<double>(t.aggregate_ns),
              static_cast<double>(t.msm_ns), static_cast<double>(t.prove_ns),
              static_cast<double>(t.serialize_ns),
              static_cast<double>(t.total_ns),
              static_cast<double>(t.blocks_walked),
              static_cast<double>(t.skips_taken),
              static_cast<double>(t.nodes_visited),
              static_cast<double>(t.results_matched),
              static_cast<double>(t.proofs_computed),
              static_cast<double>(t.proof_cache_hits),
              static_cast<double>(t.proof_cache_misses));
  }
  void AddJson(const std::string& j) {
    AddValues(JsonNumber(j, "setup_ns"), JsonNumber(j, "window_lookup_ns"),
              JsonNumber(j, "match_walk_ns"), JsonNumber(j, "aggregate_ns"),
              JsonNumber(j, "msm_ns"), JsonNumber(j, "prove_ns"),
              JsonNumber(j, "serialize_ns"), JsonNumber(j, "total_ns"),
              JsonNumber(j, "blocks_walked"), JsonNumber(j, "skips_taken"),
              JsonNumber(j, "nodes_visited"), JsonNumber(j, "results_matched"),
              JsonNumber(j, "proofs_computed"),
              JsonNumber(j, "proof_cache_hits"),
              JsonNumber(j, "proof_cache_misses"));
  }
  void AddValues(double s, double w, double mw, double ag, double ms,
                 double pr, double se, double total, double bw, double sk,
                 double nv, double rs, double pc, double h, double m) {
    setup.Add(s / 1e6);
    window.Add(w / 1e6);
    walk.Add(mw / 1e6);
    aggregate.Add(ag / 1e6);
    msm.Add(ms / 1e6);
    prove.Add(pr / 1e6);
    serialize.Add(se / 1e6);
    double stage_sum = s + w + mw + ag + pr + se;
    lock_wait.Add(std::max(0.0, total - stage_sum) / 1e6);
    blocks.Add(bw);
    skips.Add(sk);
    nodes.Add(nv);
    results.Add(rs);
    proofs.Add(pc);
    hits += h;
    misses += m;
    // acc2 proves aggregated clauses inside the aggregate stage (its MSM
    // sub-stage is the digest); skip-entry proofs get "prove" spans.
    prove_ns += std::max(0.0, ag - ms) + pr;
    proofs_total += pc;
  }
  void Into(Report* r) const {
    auto& l = r->layer;
    l["core.setup_ms"] = setup.Median();
    l["core.window_lookup_ms"] = window.Median();
    l["core.match_walk_ms"] = walk.Median();
    l["core.aggregate_ms"] = aggregate.Median();
    l["core.msm_ms"] = msm.Median();
    l["core.prove_ms"] = prove.Median();
    l["core.serialize_ms"] = serialize.Median();
    l["core.blocks_walked"] = blocks.Median();
    l["core.skips_taken"] = skips.Median();
    l["core.nodes_visited"] = nodes.Median();
    l["core.results"] = results.Median();
    l["core.proofs_computed"] = proofs.Median();
    l["core.proof_cache_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    l["accum.prove_ms_per_proof"] =
        proofs_total > 0 ? prove_ns / 1e6 / proofs_total : 0;
    // A mean, not a median: only the few reads that arrive while an Append
    // holds the lock wait at all, so the median reads ~0.
    l["api.lock_wait_ms"] = lock_wait.Mean();
  }
};

api::ServiceOptions ProductionOptions(const workload::DatasetProfile& p,
                                      const std::string& dir) {
  api::ServiceOptions opts;  // every field not set here stays at its default
  opts.engine = api::EngineKind::kAcc2;
  opts.prover_mode = accum::ProverMode::kHonest;
  opts.config.schema = p.schema;
  opts.store_dir = dir;
  return opts;
}

std::unique_ptr<api::Service> OpenService(const workload::DatasetProfile& p,
                                          const std::string& dir) {
  std::filesystem::remove_all(dir);
  auto svc = Must(api::Service::Open(ProductionOptions(p, dir)),
                  "Service::Open");
  const api::ServiceOptions& o = svc->options();
  if (o.engine != api::EngineKind::kAcc2 ||
      o.prover_mode != accum::ProverMode::kHonest || o.store_dir.empty()) {
    Die("refusing to run: the benchmark measures acc2 with the honest "
        "prover over a durable store");
  }
  return svc;
}

/// Append `blocks` to `svc`, timing each Append into `mine_ms`.
void Mine(api::Service* svc, const std::vector<std::vector<Object>>& blocks,
          size_t from, size_t to, Samples* mine_ms) {
  for (size_t h = from; h < to; ++h) {
    auto t = Clock::now();
    MustOk(svc->Append(blocks[h], blocks[h].front().timestamp), "Append");
    if (mine_ms != nullptr) mine_ms->Add(MsSince(t));
  }
}

/// Predicate `index` of a workload's predicate list, over [ts, te]. Each
/// predicate comes from a generator of its own with a fixed seed, so the
/// list is the same in every run: --seed varies the chain's objects and
/// where windows fall, not which predicates are asked. A run asks only a
/// handful of distinct predicates, and their mix (a generator anchors its
/// ranges near a few cluster centres) moved whole runs by up to 2x when it
/// was drawn from --seed.
Query Predicate(const workload::DatasetProfile& profile, uint64_t index,
                double selectivity, uint64_t ts, uint64_t te) {
  constexpr uint64_t kPredicateSeed = 20190630;
  workload::DatasetGenerator g(profile, kPredicateSeed + index);
  return g.MakeQuery(selectivity, profile.default_clause_size, ts, te);
}

GeneratedChain Generate(workload::DatasetGenerator* gen, size_t blocks) {
  GeneratedChain c;
  for (size_t b = 0; b < blocks; ++b) c.blocks.push_back(gen->NextBlock());
  c.Index();
  return c;
}

/// One timed in-process query: Query -> DecodeResult -> Verify.
struct QueryOp {
  Query q;
  uint64_t from = 0, to = 0;  // heights the window covers
};

/// Timed closed loop over `ops` (whole rounds of `round` ops) shared by the
/// two in-process workloads; fills the query end-to-end metrics, checks
/// every answer, and, when tracing, the core/accum/api/store layers.
void RunQueryLoop(api::Service* svc, const GeneratedChain& gen,
                  const std::vector<QueryOp>& ops, size_t round,
                  const Flags& flags, const chain::LightClient& light,
                  Report* rep) {
  accum::Acc2Engine engine(svc->options().oracle, accum::ProverMode::kHonest);
  Samples op_ms, sp_ms, user_ms, decode_ms, verify_ms, vo_kib, checks,
      verify_per_check, traced_op, untraced_op;
  CoreStages stages;
  OracleTally tally;
  api::ServiceStats before = svc->Stats();

  auto start = Clock::now();
  size_t i = 0;
  size_t sampled_for_tamper = ops.size();
  api::QueryResult tamper_result;
  while (true) {
    if (i % round == 0 && MsSince(start) >= flags.seconds * 1e3) break;
    const QueryOp& op = ops[i % ops.size()];
    // In the traced run every other round hands the service a QueryTrace;
    // the rest run exactly as in the timed run, which gives the overhead.
    const bool traced = flags.trace && ((i / round) % 2 == 1);
    core::QueryTrace trace;
    ++rep->attempted;
    auto t0 = Clock::now();
    auto res = svc->Query(op.q, traced ? &trace : nullptr);
    auto t1 = Clock::now();
    if (!res.ok()) {
      ++rep->failed;
      ++i;
      continue;
    }
    auto decoded = svc->DecodeResult(res.value().response_bytes);
    auto t2 = Clock::now();
    Status vs = decoded.ok() ? svc->Verify(op.q, decoded.value(), light)
                             : decoded.status();
    auto t3 = Clock::now();
    if (!vs.ok()) {
      ++rep->failed;
      ++i;
      continue;
    }
    auto ms = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    op_ms.Add(ms(t0, t3));
    sp_ms.Add(ms(t0, t1));
    user_ms.Add(ms(t1, t3));
    decode_ms.Add(ms(t1, t2));
    verify_ms.Add(ms(t2, t3));
    vo_kib.Add(static_cast<double>(decoded.value().vo_bytes) / 1024.0);
    if (!CheckAgainstOracle(gen, op.from, op.to, op.q, /*window=*/true,
                            decoded.value().objects, &tally)) {
      rep->correct = false;
    }
    if (sampled_for_tamper == ops.size() &&
        !decoded.value().objects.empty()) {
      sampled_for_tamper = i;
      tamper_result = decoded.value();
    }
    if (flags.trace) {
      (traced ? traced_op : untraced_op).Add(ms(t0, t3));
      if (traced) {
        stages.Add(trace);
        size_t c = ChecksInResponse(engine, decoded.value().response_bytes);
        checks.Add(static_cast<double>(c));
        if (c > 0) verify_per_check.Add(ms(t2, t3) / static_cast<double>(c));
      }
    }
    ++i;
  }
  const double elapsed_s = MsSince(start) / 1e3;
  api::ServiceStats after = svc->Stats();

  // Tamper checks on one sampled answer: a dropped result object and a
  // flipped VO byte must each be rejected.
  if (sampled_for_tamper == ops.size()) {
    rep->correct = false;
    rep->Note("tamper: no answer with a result object was sampled");
  } else {
    const QueryOp& op = ops[sampled_for_tamper % ops.size()];
    Rng rng(flags.seed ^ 0x7A3BE5ULL);
    auto rejected = [&](const Bytes& bytes) {
      auto d = svc->DecodeResult(bytes);
      return !d.ok() || !svc->Verify(op.q, d.value(), light).ok();
    };
    Bytes dropped = DropOneObject(engine, tamper_result.response_bytes,
                                  rng.Below(tamper_result.objects.size()));
    Bytes flipped = tamper_result.response_bytes;
    size_t vo_start = flipped.size() - tamper_result.vo_bytes;
    // Invert a whole byte: a single bit could land on a spare bit of a
    // point encoding that the decoder is free to ignore.
    flipped[vo_start + rng.Below(tamper_result.vo_bytes)] ^= 0xFF;
    bool drop_ok = !dropped.empty() && rejected(dropped);
    bool flip_ok = rejected(flipped);
    if (!drop_ok || !flip_ok) rep->correct = false;
    rep->Note("tamper: dropped-object answer %s, flipped-VO-byte answer %s",
              drop_ok ? "rejected" : "ACCEPTED",
              flip_ok ? "rejected" : "ACCEPTED");
  }
  if (tally.mismatches > 0) rep->correct = false;
  rep->Note("oracle: %" PRIu64 " answers checked, %" PRIu64
            " mismatched, %" PRIu64 " collision false positives filtered",
            tally.answers, tally.mismatches, tally.false_positives);
  rep->Note("samples: %zu queries in %.2f s (%zu distinct)", op_ms.size(),
            elapsed_s, std::min(ops.size(), op_ms.size()));
  rep->Note("query_ms p50 %.4f p90 %.4f, sp_ms p50 %.4f, user_ms p50 %.4f "
            "(n=%zu)",
            op_ms.Median(), op_ms.Quantile(0.9), sp_ms.Median(),
            user_ms.Median(), op_ms.size());

  rep->E2e("op_ms_mean", op_ms.Mean(), "ms");
  rep->E2e("sp_ms_mean", sp_ms.Mean(), "ms");
  rep->E2e("user_ms_mean", user_ms.Mean(), "ms");
  rep->E2e("answer_kib_mean", vo_kib.Mean(), "KiB");

  if (flags.trace) {
    stages.Into(rep);
    auto& l = rep->layer;
    l["accum.checks_per_answer"] = checks.Mean();
    l["accum.verify_ms_per_check"] = verify_per_check.Median();
    l["api.query_ms"] = sp_ms.Median();
    l["api.decode_ms"] = decode_ms.Median();
    l["api.verify_ms"] = verify_ms.Median();
    const double hits =
        static_cast<double>(after.block_cache.hits - before.block_cache.hits);
    const double misses = static_cast<double>(after.block_cache.misses -
                                              before.block_cache.misses);
    l["store.block_cache_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    l["store.block_cache_misses_per_query"] =
        op_ms.size() > 0 ? misses / static_cast<double>(op_ms.size()) : 0;
    l["trace.overhead_ms"] = traced_op.Median() - untraced_op.Median();
  }
}

// --- recent-hot ----------------------------------------------------------------

void RecentHot(const Flags& flags, Report* rep) {
  const RecentHotSize size;
  workload::DatasetProfile profile =
      workload::ProfileETH(size.objects_per_block);
  workload::DatasetGenerator gen(profile, flags.seed);
  GeneratedChain chain = Generate(&gen, size.blocks);
  const uint64_t from = size.blocks - size.window_blocks;
  const uint64_t to = size.blocks - 1;
  std::vector<QueryOp> pool;
  for (size_t k = 0; k < size.pool; ++k) {
    pool.push_back({Predicate(profile, k, profile.default_selectivity,
                              gen.TimestampOfBlock(from),
                              gen.TimestampOfBlock(to)),
                    from, to});
  }
  rep->Note("input: ETH profile, %zu objects/block, %zu blocks (block cache "
            "256), pool of %zu predicates over the last %zu blocks, "
            "selectivity %.2f, clause of %zu keywords",
            size.objects_per_block, size.blocks, size.pool,
            size.window_blocks, profile.default_selectivity,
            profile.default_clause_size);

  Samples setup_s, mine_ms, sync_ms;
  std::unique_ptr<api::Service> svc;
  chain::LightClient light;
  for (int r = 0; r < kQuerySetupRepeats; ++r) {
    svc.reset();
    light = chain::LightClient();
    auto t = Clock::now();
    svc = OpenService(profile, flags.store + "/svc-" + std::to_string(r));
    Mine(svc.get(), chain.blocks, 0, chain.blocks.size(), &mine_ms);
    MustOk(svc->Sync(), "Sync");
    auto ts = Clock::now();
    MustOk(svc->SyncLightClient(&light), "SyncLightClient");
    sync_ms.Add(MsSince(ts));
    // Answer and verify the pool once: proofs land in the SP's proof cache
    // and the clause key powers in the verifier's memo.
    for (const QueryOp& op : pool) {
      auto warm = Must(svc->Query(op.q), "warm-up Query");
      MustOk(svc->Verify(op.q, warm, light), "warm-up Verify");
    }
    setup_s.Add(MsSince(t) / 1e3);
  }
  rep->E2e("setup_s", setup_s.Median(), "s");
  rep->Note("setup: median of %zu set-ups, %.4f s (min %.4f, max %.4f)",
            setup_s.size(), setup_s.Median(), setup_s.Quantile(0),
            setup_s.Quantile(1));
  RunQueryLoop(svc.get(), chain, pool, pool.size(), flags, light, rep);
  if (flags.trace) {
    rep->layer["chain.mine_ms"] = mine_ms.Median();
    rep->layer["chain.header_sync_ms"] = sync_ms.Median();
  }
}

// --- history-cold --------------------------------------------------------------

void HistoryCold(const Flags& flags, Report* rep) {
  const HistoryColdSize size;
  workload::DatasetProfile profile =
      workload::ProfileETH(size.objects_per_block);
  workload::DatasetGenerator gen(profile, flags.seed);
  GeneratedChain chain = Generate(&gen, size.blocks);
  // Predicate k of the fixed list over a window at a seeded position: every
  // query is fresh to the SP's proof cache and to the verifier's memoized
  // key powers, and its blocks come from all over a chain 4x the block
  // cache. A run never gets near the end of the list.
  Rng pos_rng(flags.seed ^ 0xC01DULL);
  std::vector<QueryOp> ops;
  for (size_t k = 0; k < 512; ++k) {
    uint64_t from = pos_rng.Below(size.blocks - size.window_blocks + 1);
    uint64_t to = from + size.window_blocks - 1;
    ops.push_back({Predicate(profile, k, size.selectivity,
                             gen.TimestampOfBlock(from),
                             gen.TimestampOfBlock(to)),
                   from, to});
  }
  rep->Note("input: ETH profile, %zu objects/block, %zu blocks (block cache "
            "256), a fresh predicate per query over %zu-block windows at "
            "seeded positions, selectivity %.2f, clause of %zu keywords",
            size.objects_per_block, size.blocks, size.window_blocks,
            size.selectivity, profile.default_clause_size);

  Samples setup_s, mine_ms, sync_ms;
  std::unique_ptr<api::Service> svc;
  chain::LightClient light;
  for (int r = 0; r < kQuerySetupRepeats; ++r) {
    svc.reset();
    light = chain::LightClient();
    auto t = Clock::now();
    svc = OpenService(profile, flags.store + "/svc-" + std::to_string(r));
    Mine(svc.get(), chain.blocks, 0, chain.blocks.size(), &mine_ms);
    MustOk(svc->Sync(), "Sync");
    auto ts = Clock::now();
    MustOk(svc->SyncLightClient(&light), "SyncLightClient");
    sync_ms.Add(MsSince(ts));
    setup_s.Add(MsSince(t) / 1e3);
  }
  rep->E2e("setup_s", setup_s.Median(), "s");
  rep->Note("setup: median of %zu set-ups, %.4f s (min %.4f, max %.4f)",
            setup_s.size(), setup_s.Median(), setup_s.Quantile(0),
            setup_s.Quantile(1));
  RunQueryLoop(svc.get(), chain, ops, 1, flags, light, rep);
  if (flags.trace) {
    rep->layer["chain.mine_ms"] = mine_ms.Median();
    rep->layer["chain.header_sync_ms"] = sync_ms.Median();
  }
}

// --- ingest-subscribe ------------------------------------------------------------

/// Loops one fixed, already-answered wire query until told to stop and
/// checks that every answer carries the verified reference bytes.
struct WireReader {
  net::SpClient* client = nullptr;
  Query q;
  Bytes expected;
  bool trace = false;
  std::atomic<bool> stop{false};
  std::atomic<bool> counting{false};
  uint64_t reads = 0;      // completed while counting
  uint64_t attempted = 0;  // while counting
  uint64_t failed = 0;
  uint64_t wrong = 0;
  Samples traced_ms, untraced_ms, server_ms, overhead_ms;
  CoreStages stages;

  void Run() {
    // A dashboard re-reading every few ms rather than a closed loop: a
    // reader spinning on two cores (its own and the server worker's) made
    // the main thread's timings swing with the machine's other load.
    const auto think_time = std::chrono::milliseconds(5);
    uint64_t k = 0;
    while (!stop.load()) {
      const bool counted = counting.load();
      // Traced runs alternate X-Vchain-Trace on and off: the difference of
      // the two medians is the tracing overhead on a wire read.
      const bool traced = trace && (k++ % 2 == 1);
      std::string trace_json;
      std::this_thread::sleep_for(think_time);
      auto t = Clock::now();
      auto res = client->Query(q, traced ? &trace_json : nullptr);
      double ms = MsSince(t);
      if (!counted) continue;
      ++attempted;
      if (!res.ok()) {
        ++failed;
        continue;
      }
      if (res.value().response_bytes != expected) ++wrong;
      ++reads;
      if (trace) {
        (traced ? traced_ms : untraced_ms).Add(ms);
        if (traced) {
          stages.AddJson(trace_json);
          const double server = JsonNumber(trace_json, "total_ns") / 1e6;
          server_ms.Add(server);
          overhead_ms.Add(ms - server);
        }
      }
    }
  }
};

void IngestSubscribe(const Flags& flags, Report* rep) {
  const IngestSize size;
  workload::DatasetProfile profile =
      workload::ProfileETH(size.objects_per_block);
  workload::DatasetGenerator gen(profile, flags.seed);
  // Blocks for the initial chain and for the timed schedule (a run never
  // appends more than one block per interval).
  const size_t timed_capacity =
      static_cast<size_t>(flags.seconds * 1e3 / size.interval_ms) + 2;
  GeneratedChain chain =
      Generate(&gen, size.initial_blocks + timed_capacity);
  std::vector<Query> interests;
  for (size_t k = 0; k < size.interests; ++k) {
    interests.push_back(
        Predicate(profile, k, profile.default_selectivity, 0, UINT64_MAX));
  }
  const uint64_t read_to = size.initial_blocks - 1;
  const uint64_t read_from = read_to + 1 - size.read_window_blocks;
  Query read_q = Predicate(profile, size.interests,
                           profile.default_selectivity,
                           gen.TimestampOfBlock(read_from),
                           gen.TimestampOfBlock(read_to));
  rep->Note("input: ETH profile, %zu objects/block, %zu initial blocks, "
            "%zu subscriptions over %zu distinct interests (%zu sampled), "
            "one block every %.0f ms, reader window of %zu blocks",
            size.objects_per_block, size.initial_blocks, size.subscriptions,
            size.interests, size.sampled, size.interval_ms,
            size.read_window_blocks);

  Samples setup_s, mine_ms, sync_ms, subscribe_ms, ckpt_per_sub;
  std::unique_ptr<api::Service> svc;
  std::unique_ptr<net::SpServer> server;
  std::unique_ptr<net::SpClient> client, reader_client;
  std::vector<net::SpClient::SubscriptionHandle> handles;
  chain::LightClient light;
  Bytes read_expected;
  OracleTally tally;
  for (int r = 0; r < kIngestSetupRepeats; ++r) {
    handles.clear();
    reader_client.reset();
    client.reset();
    if (server) server->Stop();
    server.reset();
    svc.reset();
    Samples sub_ms;
    auto t = Clock::now();
    svc = OpenService(profile, flags.store + "/svc-" + std::to_string(r));
    Mine(svc.get(), chain.blocks, 0, size.initial_blocks, &mine_ms);
    MustOk(svc->Sync(), "Sync");
    net::SpServer::Options sopts;
    // One worker beside the event-loop thread: with the appending thread and
    // the reader, the process runs four threads of load.
    sopts.http.num_threads = 1;
    server = Must(net::SpServer::Start(svc.get(), sopts), "SpServer::Start");
    net::SpClient::Options copts;
    copts.port = server->port();
    copts.verify = svc->options();  // public parameters only
    copts.verify.store_dir.clear();
    client = Must(net::SpClient::Connect(copts), "SpClient::Connect");
    reader_client = Must(net::SpClient::Connect(copts), "SpClient::Connect");
    light = client->NewLightClient();
    auto ts = Clock::now();
    MustOk(client->SyncHeaders(&light), "SyncHeaders");
    sync_ms.Add(MsSince(ts));
    auto ckpt_before = ScrapeRegistry();
    for (size_t s = 0; s < size.subscriptions; ++s) {
      auto ts_sub = Clock::now();
      auto h = Must(client->Subscribe(interests[s % interests.size()]),
                    "Subscribe");
      sub_ms.Add(MsSince(ts_sub));
      if (s < size.sampled) handles.push_back(std::move(h));
    }
    auto ckpt_after = ScrapeRegistry();
    ckpt_per_sub.Add(
        Delta(ckpt_after, ckpt_before, "vchain_sub_checkpoint_writes_total") /
        static_cast<double>(size.subscriptions));
    auto warm = Must(reader_client->Query(read_q), "reader warm-up Query");
    MustOk(reader_client->Verify(read_q, warm, light), "reader Verify");
    if (!CheckAgainstOracle(chain, read_from, read_to, read_q, true,
                            warm.objects, &tally)) {
      rep->correct = false;
    }
    read_expected = warm.response_bytes;
    setup_s.Add(MsSince(t) / 1e3);
    subscribe_ms = sub_ms;
  }
  rep->E2e("setup_s", setup_s.Median(), "s");
  rep->Note("setup: median of %zu set-ups, %.4f s (min %.4f, max %.4f)",
            setup_s.size(), setup_s.Median(), setup_s.Quantile(0),
            setup_s.Quantile(1));

  accum::Acc2Engine engine(svc->options().oracle, accum::ProverMode::kHonest);
  WireReader reader;
  reader.client = reader_client.get();
  reader.q = read_q;
  reader.expected = read_expected;
  reader.trace = flags.trace;
  std::thread reader_thread([&reader] { reader.Run(); });

  Samples notify_ms, append_ms, user_ms, notif_kib, poll_ms, delivery_ms,
      events_ms, checks, verify_per_check, lateness_ms;
  uint64_t blocks_appended = 0;
  auto reg_before = ScrapeRegistry();
  auto start = Clock::now();
  reader.counting.store(true);
  for (size_t k = 0;; ++k) {
    const double due_ms = static_cast<double>(k) * size.interval_ms;
    if (due_ms >= flags.seconds * 1e3) break;
    const double now_ms = MsSince(start);
    if (now_ms < due_ms) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(due_ms - now_ms));
    }
    lateness_ms.Add(std::max(0.0, MsSince(start) - due_ms));
    const size_t h = size.initial_blocks + k;
    rep->attempted += 1 + handles.size();
    auto t_append = Clock::now();
    Status as = svc->Append(chain.blocks[h], chain.blocks[h].front().timestamp);
    append_ms.Add(MsSince(t_append));
    if (!as.ok()) {
      rep->failed += 1 + handles.size();
      continue;
    }
    ++blocks_appended;
    for (auto& handle : handles) {
      std::vector<api::SubscriptionEvent> got;
      auto t_poll = Clock::now();
      // Long-poll until this block's notification arrives (verified by the
      // handle against the light client before it is returned).
      while (got.empty() && MsSince(t_append) < 30000) {
        auto ev = handle.Poll(&light, /*wait_ms=*/2000);
        if (!ev.ok()) break;
        got = std::move(ev.value());
      }
      const double poll = MsSince(t_poll);
      if (got.size() != 1 || got[0].height != h) {
        ++rep->failed;
        rep->correct = false;
        continue;
      }
      notify_ms.Add(MsSince(t_append));
      poll_ms.Add(poll);
      const api::SubscriptionEvent& ev = got[0];
      notif_kib.Add(static_cast<double>(ev.notification_bytes.size()) /
                    1024.0);
      // The user's cost, re-timed on the bytes that arrived.
      auto t_user = Clock::now();
      auto decoded = svc->DecodeNotification(ev.notification_bytes);
      Status vs = decoded.ok()
                      ? svc->VerifyNotification(handle.query(),
                                                decoded.value(), light)
                      : decoded.status();
      const double user = MsSince(t_user);
      if (!vs.ok()) {
        ++rep->failed;
        rep->correct = false;
        continue;
      }
      user_ms.Add(user);
      delivery_ms.Add(poll - user);
      if (!CheckAgainstOracle(chain, h, h, handle.query(), /*window=*/false,
                              ev.objects, &tally)) {
        rep->correct = false;
      }
      if (flags.trace) {
        size_t c = ChecksInNotification(engine, ev.notification_bytes);
        checks.Add(static_cast<double>(c));
        if (c > 0) verify_per_check.Add(user / static_cast<double>(c));
      }
    }
    if (flags.trace && !handles.empty()) {
      auto t_ev = Clock::now();
      auto batch = svc->EventsSince(handles[0].id(), h, 64);
      events_ms.Add(MsSince(t_ev));
      if (!batch.ok()) rep->correct = false;
    }
  }
  reader.counting.store(false);
  const double elapsed_s = MsSince(start) / 1e3;
  auto reg_after = ScrapeRegistry();
  reader.stop.store(true);
  reader_thread.join();
  rep->attempted += reader.attempted;
  rep->failed += reader.failed;
  if (reader.wrong > 0) rep->correct = false;

  // Tamper checks: a reader answer with a dropped object and with a flipped
  // VO byte, and a notification with a flipped byte, must all be rejected.
  {
    Rng rng(flags.seed ^ 0x7A3BE5ULL);
    auto warm = Must(svc->DecodeResult(read_expected), "DecodeResult");
    auto rejected = [&](const Bytes& bytes) {
      auto d = svc->DecodeResult(bytes);
      return !d.ok() || !svc->Verify(read_q, d.value(), light).ok();
    };
    bool drop_ok = true;
    if (!warm.objects.empty()) {
      Bytes dropped = DropOneObject(engine, read_expected,
                                    rng.Below(warm.objects.size()));
      drop_ok = !dropped.empty() && rejected(dropped);
    }
    Bytes flipped = read_expected;
    flipped[flipped.size() - warm.vo_bytes + rng.Below(warm.vo_bytes)] ^=
        0xFF;
    bool flip_ok = rejected(flipped);
    bool notif_ok = true;
    auto last = svc->EventsSince(handles[0].id(),
                                 size.initial_blocks + blocks_appended - 1, 1);
    if (last.ok() && !last.value().events.empty()) {
      // Past the leading u32 query id: VerifyNotification checks the
      // notification against the caller's query, not against that id, so
      // an altered id is accepted.
      Bytes nb = last.value().events[0].notification_bytes;
      nb[4 + rng.Below(nb.size() - 4)] ^= 0xFF;
      auto d = svc->DecodeNotification(nb);
      notif_ok = !d.ok() ||
                 !svc->VerifyNotification(handles[0].query(), d.value(), light)
                      .ok();
    } else {
      notif_ok = false;
    }
    if (!drop_ok || !flip_ok || !notif_ok) rep->correct = false;
    rep->Note("tamper: dropped-object answer %s%s, flipped-VO-byte answer "
              "%s, flipped notification %s",
              drop_ok ? "rejected" : "ACCEPTED",
              warm.objects.empty() ? " (no objects; skipped)" : "",
              flip_ok ? "rejected" : "ACCEPTED",
              notif_ok ? "rejected" : "ACCEPTED");
  }
  if (tally.mismatches > 0) rep->correct = false;
  const uint64_t expected_notifs = blocks_appended * handles.size();
  if (notify_ms.size() != expected_notifs) rep->correct = false;
  rep->Note("oracle: %" PRIu64 " answers/notifications checked, %" PRIu64
            " mismatched, %" PRIu64 " collision false positives filtered",
            tally.answers, tally.mismatches, tally.false_positives);
  rep->Note("samples: %" PRIu64 " blocks appended in %.2f s, %zu of %" PRIu64
            " verified notifications, %" PRIu64 " wire reads, %zu subscribe "
            "round trips",
            blocks_appended, elapsed_s, notify_ms.size(), expected_notifs,
            reader.reads, subscribe_ms.size());
  rep->Note("open loop: lateness p50 %.3f ms, max %.3f ms",
            lateness_ms.Median(), lateness_ms.Quantile(1.0));
  rep->Note("read_qps %.2f (wire reads per second while blocks are "
            "ingested)",
            static_cast<double>(reader.reads) / elapsed_s);
  rep->Note("notify_ms p50 %.4f p90 %.4f, user_ms p50 %.4f (n=%zu); "
            "append_ms p50 %.4f (n=%zu); subscribe_ms p50 %.4f (n=%zu)",
            notify_ms.Median(), notify_ms.Quantile(0.9), user_ms.Median(),
            notify_ms.size(), append_ms.Median(), append_ms.size(),
            subscribe_ms.Median(), subscribe_ms.size());

  rep->E2e("op_ms_mean", notify_ms.Mean(), "ms");
  rep->E2e("sp_ms_mean", append_ms.Mean(), "ms");
  rep->E2e("user_ms_mean", user_ms.Mean(), "ms");
  rep->E2e("answer_kib_mean", notif_kib.Mean(), "KiB");

  if (flags.trace) {
    auto& l = rep->layer;
    reader.stages.Into(rep);
    const double blocks = std::max<double>(1, blocks_appended);
    l["accum.prove_ms_per_proof"] = 0;  // notification proving is not
                                        // exposed apart from matching
    l["accum.checks_per_answer"] = checks.Mean();
    l["accum.verify_ms_per_check"] = verify_per_check.Median();
    l["api.query_ms"] = reader.server_ms.Median();
    l["api.append_ms"] = append_ms.Median();
    l["api.subscribe_ms"] = subscribe_ms.Median();
    l["api.events_ms"] = events_ms.Median();
    l["store.checkpoint_writes_per_subscribe"] = ckpt_per_sub.Median();
    l["chain.mine_ms"] = mine_ms.Median();
    l["chain.header_sync_ms"] = sync_ms.Median();
    l["sub.match_ms"] =
        Delta(reg_after, reg_before, "vchain_sub_match_seconds_sum") * 1e3 /
        blocks;
    l["sub.candidates_per_block"] =
        Delta(reg_after, reg_before, "vchain_sub_candidates_total") / blocks;
    l["sub.notified_per_block"] =
        Delta(reg_after, reg_before, "vchain_sub_notified_total") / blocks;
    l["net.poll_ms"] = poll_ms.Median();
    l["net.delivery_ms"] = delivery_ms.Median();
    l["net.read_overhead_ms"] = reader.overhead_ms.Median();
    l["net.read_qps"] = static_cast<double>(reader.reads) / elapsed_s;
    l["trace.overhead_ms"] =
        reader.traced_ms.Median() - reader.untraced_ms.Median();
  }

  handles.clear();
  reader_client.reset();
  client.reset();
  server->Stop();
  server.reset();
}

void PrintJsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
#ifndef NDEBUG
  Die("refusing to run: assertions are enabled (not a Release build)");
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    Die(std::string("refusing to run: build type is ") + PERFBENCH_BUILD_TYPE +
        ", not Release");
  }
  std::filesystem::create_directories(flags.store);

  std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              flags.workload.c_str(), flags.seed, flags.seconds,
              flags.trace ? 1 : 0);
  std::printf("# config: engine=acc2 prover=honest build=%s nproc=%u "
              "store_fs=%s flush=batched (sync_every_append=false, one "
              "Sync() at the end of setup)\n",
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              FilesystemOf(flags.store).c_str());

  Report rep;
  for (const LayerMetric& m : kLayerMetrics) rep.layer[m.name] = 0;
  if (flags.workload == "recent-hot") {
    RecentHot(flags, &rep);
  } else if (flags.workload == "history-cold") {
    HistoryCold(flags, &rep);
  } else if (flags.workload == "ingest-subscribe") {
    IngestSubscribe(flags, &rep);
  } else {
    Die("unknown workload " + flags.workload);
  }
  rep.E2e("peak_rss_mib", PeakRssMib(), "MiB");
  std::filesystem::remove_all(flags.store);

  for (const std::string& n : rep.notes) std::printf("# %s\n", n.c_str());
  std::printf("# ops: attempted=%" PRIu64 " failed=%" PRIu64 " correct=%s\n",
              rep.attempted, rep.failed, rep.correct ? "true" : "false");
  for (const auto& [name, vu] : rep.e2e) {
    std::printf("# e2e %-16s %14.4f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              rep.correct ? "true" : "false", rep.attempted, rep.failed);
  bool first = true;
  auto emit = [&](const std::string& name, double v, const std::string& u) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    PrintJsonNumber(v);
    std::printf(", \"unit\": \"%s\"}", u.c_str());
    first = false;
  };
  if (flags.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      emit(m.name, rep.layer[m.name], m.unit);
    }
  } else {
    for (const auto& [name, vu] : rep.e2e) emit(name, vu.first, vu.second);
  }
  std::printf("}}\n");
  return 0;
}
