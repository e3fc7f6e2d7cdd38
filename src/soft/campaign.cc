#include "src/soft/campaign.h"

#include "src/failpoint/failpoint.h"

namespace soft {

CampaignRecorder::CampaignRecorder(CampaignResult& result, std::string tool,
                                   Database& db, const CampaignOptions& options)
    : result_(result),
      db_(db),
      options_(options),
      // Observational only: no RNG draw or control-flow decision reads them,
      // so results are bit-identical with recording on or off.
      collector_(&result.telemetry),
      tracer_(options.trace_sample > 0 ? &result.trace : nullptr, db.config().name,
              options.shard_index, options.trace_sample),
      flight_(options.crash_realism == CrashRealism::kReal),
      expected_bugs_(db.faults().bug_count()) {
  result.tool = std::move(tool);
  result.dialect = db.config().name;
  db.set_statement_limits(options.statement_limits);
}

StatementResult CampaignRecorder::Execute(const std::string& sql,
                                          const std::string& label) {
  ++result_.statements_executed;
  telemetry::CountExecuted(label);
  // Flight ring entry and (sampled) statement span open before Execute: a
  // real-signal crash inside Execute leaves exactly this context for the
  // announcement to flush.
  trace::FlightBeginStatement(result_.statements_executed, label, sql);
  trace::BeginStatement(result_.statements_executed, label);
  StatementResult r = db_.Execute(sql);
  if (r.crashed()) {
    outcome_ = "crash";
    ++result_.crashes_observed;
    telemetry::CountCrash(label);
    trace::AnnotateStatement("bug_id", std::to_string(r.crash->bug_id));
    if (found_ids_.insert(r.crash->bug_id).second) {
      telemetry::CountBugDeduped(label);
      dedup_digest_ = DedupDigestStep(dedup_digest_, r.crash->bug_id);
      trace::AnnotateStatement("first_witness", "1");
      FoundBug bug;
      bug.crash = *r.crash;
      bug.poc_sql = sql;
      bug.found_by = label;
      bug.statements_until_found = result_.statements_executed;
      bug.found_wall_ns = static_cast<int64_t>(telemetry::WallSinceCollectorStartNs());
      bug.wall_recorded = telemetry::CollectorInstalled();
      result_.unique_bugs.push_back(std::move(bug));
    }
  } else if (r.status.code() == StatusCode::kTimeout) {
    // The statement watchdog killed the query at its deadline: a clean
    // termination, counted separately from crashes and false positives.
    outcome_ = "timeout";
    ++result_.watchdog_timeouts;
    telemetry::CountTimeout(label);
  } else if (r.status.code() == StatusCode::kResourceExhausted) {
    // A resource-limit kill: flagged as a crash by the detector, triaged as
    // a false positive (Section 7.3's REPEAT('a', 9999999999) class).
    outcome_ = "resource_exhausted";
    ++result_.false_positives;
    telemetry::CountFalsePositive(label);
  } else if (!r.ok()) {
    outcome_ = "sql_error";
    ++result_.sql_errors;
    telemetry::CountSqlError(label);
  } else {
    outcome_ = "ok";
  }
  return r;
}

void CampaignRecorder::Close(uint64_t rng_fingerprint) {
  trace::EndStatement(outcome_);
  trace::FlightEndStatement(outcome_);
  if (options_.checkpoint_every <= 0 || !options_.checkpoint_sink ||
      result_.journal_degraded ||
      result_.statements_executed % options_.checkpoint_every != 0) {
    return;
  }
  // campaign.checkpoint_sink: chaos campaigns kill the sink here to prove
  // the run continues (degraded, not dead) with an identical outcome.
  const bool sink_ok =
      !SOFT_FAILPOINT_HIT("campaign.checkpoint_sink") &&
      options_.checkpoint_sink(
          MakeCheckpoint(options_, result_, rng_fingerprint, dedup_digest_));
  if (!sink_ok) {
    result_.journal_degraded = true;
  }
}

void CampaignRecorder::Record(const std::string& sql, uint64_t rng_fingerprint) {
  telemetry::CountGenerated(result_.tool, 1);
  Execute(sql, result_.tool);
  Close(rng_fingerprint);
}

void CampaignRecorder::Finish() {
  result_.functions_triggered = db_.coverage().TriggeredFunctionCount();
  result_.branches_covered = db_.coverage().CoveredBranchCount();
}

}  // namespace soft
