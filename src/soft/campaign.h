// Shared campaign types: what a fuzzing run (SOFT or a baseline) reports.
#ifndef SRC_SOFT_CAMPAIGN_H_
#define SRC_SOFT_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/database.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace soft {

// Periodic campaign progress record: the journal's `checkpoint` event and the
// worker pipe's checkpoint lines (docs/ROBUSTNESS.md). Fuzzer execution loops
// emit one every CampaignOptions::checkpoint_every executed statements. The
// rng_fingerprint and dedup_digest exist so --resume can *verify* that its
// deterministic replay retraced the interrupted campaign rather than trusting
// the journal blindly.
struct CampaignCheckpoint {
  int every = 0;            // the cadence the producer was running with
  int shard = 0;
  int cases_completed = 0;  // statements executed when this was taken
  int sql_errors = 0;
  int crashes_observed = 0;
  int false_positives = 0;
  int watchdog_timeouts = 0;
  int unique_bugs = 0;
  uint64_t rng_fingerprint = 0;  // Rng::StateFingerprint() at emission
  uint64_t dedup_digest = 0;     // FNV-1a over found bug ids, discovery order

  bool operator==(const CampaignCheckpoint&) const = default;
};

// FNV-1a step folding one found bug id into the dedup-set digest.
inline uint64_t DedupDigestStep(uint64_t digest, int bug_id) {
  const uint64_t v = static_cast<uint64_t>(bug_id);
  for (int shift = 0; shift < 64; shift += 8) {
    digest ^= (v >> shift) & 0xFFu;
    digest *= 0x100000001B3ull;
  }
  return digest;
}
inline constexpr uint64_t kDedupDigestSeed = 0xCBF29CE484222325ull;

struct CampaignOptions {
  uint64_t seed = 1;
  // Statement budget standing in for the paper's wall-clock budgets (all
  // tools are compared under identical budgets).
  int max_statements = 20000;
  // Stop early once every injected bug of the dialect has been found
  // (benches turn this off to measure coverage at full budget).
  bool stop_when_all_bugs_found = false;

  // Case-partitioned sharding (ShardMode::kPartitionCases in
  // src/soft/parallel_runner.h): when shard_count > 1, a fuzzer with a
  // finite generated case pool executes only the global case indices below
  // max_statements with index % shard_count == shard_index, all derived
  // from the same base seed. The union over shards is then exactly the
  // serial campaign's executed prefix — identical bug set and coverage by
  // construction. Fuzzers that generate statements on the fly (the
  // baselines) ignore these fields and are sharded by budget split instead.
  int shard_index = 0;
  int shard_count = 1;

  // Crash realization (src/fault/fault.h). kReal is honoured by the sharded
  // runner, which dispatches each shard to a forked worker whose supervisor
  // decodes the death; calling Fuzzer::Run directly under kReal would kill
  // the calling process at the first triggered bug.
  CrashRealism crash_realism = CrashRealism::kSimulated;

  // Statement-watchdog budgets, applied to the campaign database at Run
  // start. Statements killed by the deadline count as watchdog_timeouts;
  // fuel/row kills surface as kResourceExhausted (false positives).
  StatementLimits statement_limits;

  // Checkpointing: with checkpoint_every > 0 and a sink installed, the
  // execution loop invokes the sink every checkpoint_every executed
  // statements. Campaign runs ignore the sink's cost — it must not perturb
  // determinism (write-only). The sink returns false when it can no longer
  // persist checkpoints (journal stream went bad, pipe broke): the campaign
  // then *continues without the sink* and latches
  // CampaignResult::journal_degraded rather than crashing or silently
  // pretending the journal is intact (docs/ROBUSTNESS.md).
  int checkpoint_every = 0;
  std::function<bool(const CampaignCheckpoint&)> checkpoint_sink;

  // Span tracing (src/telemetry/trace.h): 0 disables tracing (the default —
  // campaigns carry an empty trace); N ≥ 1 records a statement span with
  // stage children for every N-th executed statement (1 = all). Strictly
  // observational — bug sets, coverage, and outcome digests are identical at
  // every setting. Exposed as find_bugs --trace-sample=N.
  int trace_sample = 0;

  // Logic-bug oracles ("eet", "diff", "norec", "tlp", "all" — see
  // src/soft/logic_oracle.h). Non-empty switches the campaign into
  // wrong-result mode: the database arms its seeded LogicBugSpec corpus
  // after prerequisites, every seeded bug's PoC is queued ahead of the
  // generated pool, and each successfully executed SELECT is examined by
  // every listed oracle. Requires CrashRealism::kSimulated — a forked kReal
  // worker cannot host the differential siblings.
  std::vector<std::string> logic_oracles;
};

struct FoundBug {
  CrashInfo crash;
  std::string poc_sql;
  // SOFT: the boundary-value-generation pattern that produced the PoC
  // ("P1.2", ...); baselines: the tool name.
  std::string found_by;
  int statements_until_found = 0;
  // Shard that found this witness (0 for serial campaigns). Sharded merges
  // keep the lowest (shard, statements_until_found) witness per bug so
  // attribution is independent of thread scheduling.
  int shard = 0;
  // Wall-clock nanoseconds from campaign start to this first witness,
  // stamped when telemetry is recording. Observational only — exported to
  // the NDJSON journal, never part of the determinism contract and never
  // compared by the bit-identical-merge tests. `wall_recorded` says whether
  // a collector was actually recording: a 0 with wall_recorded == true is a
  // genuine sub-nanosecond-resolution hit, a 0 with wall_recorded == false
  // means "no telemetry" (journal `first_witness` events carry this as the
  // `recorded` field so the two are distinguishable offline).
  int64_t found_wall_ns = 0;
  bool wall_recorded = false;
};

// One detected wrong-result bug (campaign logic-oracle mode). The verdict
// came from result comparison alone; `info` is the ground-truth spec the
// engine recorded when it perturbed the value, attached afterwards so tests
// can assert detection completeness.
struct FoundLogicBug {
  LogicBugInfo info;
  std::string oracle;   // first oracle that flagged it ("eet", "diff", ...)
  std::string poc_sql;  // the campaign statement whose result diverged
  std::string witness;  // variant SQL / sibling dialect / reference predicate
  std::string detail;
  // Global case index of the flagging statement — shard-invariant under
  // partition sharding, unlike statements_until_found (shard-local).
  int case_index = 0;
  int statements_until_found = 0;
  int shard = 0;
};

struct CampaignResult {
  std::string tool;
  std::string dialect;
  int statements_executed = 0;
  int sql_errors = 0;
  int crashes_observed = 0;        // crash events incl. duplicates
  int false_positives = 0;         // resource-limit kills (REPEAT(...,1e10) class)
  int watchdog_timeouts = 0;       // statement-deadline kills (kTimeout)
  std::vector<FoundBug> unique_bugs;

  // Wrong-result detection (CampaignOptions::logic_oracles). Counters and
  // bug set are shard-invariant: each case is examined exactly once, in
  // whichever shard executes it, against a database (and differential
  // siblings) that replayed exactly that shard's side effects.
  std::vector<FoundLogicBug> logic_bugs;  // sorted by (case_index, bug_id)
  int logic_checks = 0;           // oracle examinations that were in scope
  int logic_divergences = 0;      // examinations that flagged a divergence
  int logic_false_positives = 0;  // divergences with no recorded fault hit

  // Coverage snapshot after the campaign (Table 5 / Table 6 quantities).
  size_t functions_triggered = 0;
  size_t branches_covered = 0;

  // Sharding record (see src/soft/parallel_runner.h). Serial campaigns keep
  // shards == 1 and an empty per-shard breakdown; merged sharded campaigns
  // report the shard count and each shard's statements_executed.
  int shards = 1;
  std::vector<int> shard_statements;

  // True when the telemetry/checkpoint sink failed mid-campaign and the run
  // continued without it (graceful degradation — the campaign outcome is
  // still complete and deterministic, but the streamed journal is not).
  // Sharded merges OR the per-shard flags. Exported as `journal_degraded`
  // on the journal's campaign_finish event.
  bool journal_degraded = false;

  // Observability snapshot (src/telemetry): stage-latency histograms and
  // per-pattern counters recorded during this campaign. Serial campaigns
  // fill `telemetry` directly; merged sharded campaigns carry the
  // shard-index-ordered per-shard snapshots in `shard_telemetry` and their
  // deterministic sum in `telemetry`. Empty in -DSOFT_TELEMETRY=OFF builds
  // or under telemetry::SetRuntimeEnabled(false).
  telemetry::CampaignTelemetry telemetry;
  std::vector<telemetry::CampaignTelemetry> shard_telemetry;

  // Causal span trace (src/telemetry/trace.h). Empty unless
  // CampaignOptions::trace_sample > 0. Serial in-process runs carry their
  // statement spans; the sharded runner adds shard/worker-run structure and
  // the campaign root at merge (shard-index order, deterministic). Strictly
  // observational — excluded from the outcome digest and the bit-identity
  // comparisons.
  trace::TraceData trace;

  // Flight records for every worker death in a kReal campaign, shard-index
  // ordered (src/telemetry/trace.h). Exported as `crash_flight` journal
  // events. Empty for simulated campaigns.
  std::vector<trace::CrashFlightRecord> crash_flights;
};

inline CampaignCheckpoint MakeCheckpoint(const CampaignOptions& options,
                                         const CampaignResult& result,
                                         uint64_t rng_fingerprint, uint64_t dedup_digest) {
  CampaignCheckpoint cp;
  cp.every = options.checkpoint_every;
  cp.shard = options.shard_index;
  cp.cases_completed = result.statements_executed;
  cp.sql_errors = result.sql_errors;
  cp.crashes_observed = result.crashes_observed;
  cp.false_positives = result.false_positives;
  cp.watchdog_timeouts = result.watchdog_timeouts;
  cp.unique_bugs = static_cast<int>(result.unique_bugs.size());
  cp.rng_fingerprint = rng_fingerprint;
  cp.dedup_digest = dedup_digest;
  return cp;
}

// The statement bookkeeping every Fuzzer::Run shares, so SOFT and the three
// baselines are counted by the same rules. For its lifetime it stamps
// result.tool/dialect, installs the telemetry collector, span tracer and
// (kReal) flight recorder on `result`, and applies the statement limits to
// `db`. Per statement: Execute (flight entry, span, outcome counters,
// first-witness FoundBug), then Close (span end, due checkpoint). SOFT runs
// its logic oracles in between, while the span is open.
class CampaignRecorder {
 public:
  CampaignRecorder(CampaignResult& result, std::string tool, Database& db,
                   const CampaignOptions& options);
  CampaignRecorder(const CampaignRecorder&) = delete;
  CampaignRecorder& operator=(const CampaignRecorder&) = delete;

  // `label` keys telemetry and spans and becomes FoundBug::found_by (SOFT:
  // the pattern; baselines: the tool name).
  StatementResult Execute(const std::string& sql, const std::string& label);
  // "ok", "crash", "timeout", "resource_exhausted" or "sql_error".
  std::string_view outcome() const { return outcome_; }
  bool all_bugs_found() const { return found_ids_.size() >= expected_bugs_; }
  // `rng_fingerprint` (Rng::StateFingerprint()) goes into the checkpoint. A
  // failed sink or the campaign.checkpoint_sink failpoint latches
  // result.journal_degraded; the campaign continues without checkpoints.
  void Close(uint64_t rng_fingerprint);
  // Execute + Close for a baseline's on-the-fly statement: generated ==
  // executed, labelled with the tool name.
  void Record(const std::string& sql, uint64_t rng_fingerprint);
  // The closing coverage snapshot.
  void Finish();

 private:
  CampaignResult& result_;
  Database& db_;
  const CampaignOptions& options_;
  const telemetry::ScopedCollector collector_;
  const trace::ScopedStatementTracer tracer_;
  const trace::ScopedFlightRecorder flight_;
  const size_t expected_bugs_;
  std::set<int> found_ids_;
  uint64_t dedup_digest_ = kDedupDigestSeed;
  std::string_view outcome_ = "ok";
};

// Common interface so the comparison benches can run the four tools
// uniformly.
class Fuzzer {
 public:
  virtual ~Fuzzer() = default;
  virtual std::string name() const = 0;
  // Runs one campaign against `db`. The fuzzer owns nothing: the database's
  // coverage tracker accumulates, and its tables may be created/dropped.
  virtual CampaignResult Run(Database& db, const CampaignOptions& options) = 0;
};

}  // namespace soft

#endif  // SRC_SOFT_CAMPAIGN_H_
