#include "src/soft/resume.h"

#include "src/dialects/dialects.h"
#include "src/telemetry/journal.h"

namespace soft {

Result<ResumeSpec> LoadResumeSpec(const std::string& journal_path) {
  SOFT_ASSIGN_OR_RETURN(telemetry::JournalReplay replay,
                        telemetry::ReplayJournalFile(journal_path));
  ResumeSpec spec;
  spec.tool = replay.tool;
  spec.dialect = replay.dialect;
  spec.seed = replay.seed;
  spec.budget = replay.budget;
  spec.shards = replay.shards;
  spec.finished = replay.finished;
  if (!replay.checkpoints.empty()) {
    spec.has_checkpoint = true;
    spec.last_checkpoint = replay.checkpoints.back();
  }
  for (const telemetry::JournalLeaseEvent& event : replay.lease_events) {
    if (event.action == "complete" || event.action == "resume") {
      spec.completed[event.unit] = event.unit_digest;
    }
  }
  return spec;
}

Result<CampaignResult> ResumeSoftCampaign(const ResumeSpec& spec,
                                          const CampaignOptions& base_options,
                                          const SoftOptions& soft_options) {
  if (spec.tool != "SOFT") {
    return InvalidArgument("--resume only replays SOFT journals (journal tool: '" +
                           spec.tool + "')");
  }
  if (spec.shards != 1) {
    return InvalidArgument("--resume supports single-shard journals only (journal has " +
                           std::to_string(spec.shards) + " shards)");
  }
  if (MakeDialect(spec.dialect) == nullptr) {
    return InvalidArgument("unknown dialect in journal: '" + spec.dialect + "'");
  }

  CampaignOptions options = base_options;
  options.seed = spec.seed;
  options.max_statements = spec.budget;
  if (spec.has_checkpoint) {
    // Replay on the interrupted run's cadence so the verification checkpoint
    // is emitted at exactly the journal's cases_completed.
    options.checkpoint_every = spec.last_checkpoint.every;
  }

  bool verified = false;
  CampaignCheckpoint replayed;  // the replay's checkpoint at the anchor cases
  bool mismatch = false;
  const auto original_sink = base_options.checkpoint_sink;
  options.checkpoint_sink = [&, original_sink](const CampaignCheckpoint& cp) {
    if (spec.has_checkpoint &&
        cp.cases_completed == spec.last_checkpoint.cases_completed) {
      if (cp.rng_fingerprint == spec.last_checkpoint.rng_fingerprint &&
          cp.dedup_digest == spec.last_checkpoint.dedup_digest) {
        verified = true;
      } else {
        replayed = cp;
        mismatch = true;
      }
    }
    return original_sink ? original_sink(cp) : true;
  };

  CampaignResult result =
      RunShardedSoftCampaign(spec.dialect, options, /*shards=*/1, soft_options);
  if (mismatch) {
    return InvalidArgument(
        "resume verification failed: replay diverged from the journal's last "
        "checkpoint at " +
        std::to_string(spec.last_checkpoint.cases_completed) + " cases — " +
        telemetry::DescribeCheckpointDivergence(spec.last_checkpoint, replayed) +
        " (journal corrupt, or campaign knobs differ from the "
        "interrupted run)");
  }
  if (spec.has_checkpoint && !verified &&
      result.statements_executed >= spec.last_checkpoint.cases_completed) {
    return InvalidArgument(
        "resume verification failed: replay never emitted the journal's last "
        "checkpoint (checkpoint cadence mismatch)");
  }
  return result;
}

}  // namespace soft
