// Checkpoint/resume for interrupted campaigns (docs/ROBUSTNESS.md).
//
// A streamed campaign journal (docs/OBSERVABILITY.md) carries periodic
// `checkpoint` records: cases completed, counters, the RNG state fingerprint
// and the dedup-set digest at that point. Because campaigns are
// deterministic, resuming does not need to serialize fuzzer state — it
// re-runs the campaign from case 0 with the journal's (tool, dialect, seed,
// budget) and *verifies* the replay against the journal's last checkpoint:
// when the replay reaches the same cases_completed, its RNG fingerprint and
// dedup digest must match, or the resume fails loudly instead of silently
// producing a different campaign. The final result is therefore bit-identical
// to the uninterrupted run by construction — including after a kill -9
// mid-campaign, which is what tests/worker_harness_test.cc exercises.
#ifndef SRC_SOFT_RESUME_H_
#define SRC_SOFT_RESUME_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/soft/soft_fuzzer.h"

namespace soft {

// What a --resume=<journal> replay needs from the interrupted run: a
// single-shard campaign's checkpoints, or a fleet coordinator's completed
// units.
struct ResumeSpec {
  std::string tool;
  std::string dialect;
  uint64_t seed = 0;
  int budget = 0;
  int shards = 1;  // a fleet journal's unit count
  // Whether the journal already holds a campaign_finish event (resuming a
  // finished journal is legal but pointless; callers may warn).
  bool finished = false;
  // The journal's last checkpoint — the verification anchor. A journal
  // killed before its first checkpoint resumes as a plain re-run.
  bool has_checkpoint = false;
  CampaignCheckpoint last_checkpoint;
  // unit → journaled unit-result digest, from fleet lease complete/resume
  // events (last record wins). A fleet resume re-admits only spooled unit
  // results matching these digests.
  std::map<int, uint64_t> completed;
};

// Parses `journal_path` into a ResumeSpec. Fails on unparseable journals.
Result<ResumeSpec> LoadResumeSpec(const std::string& journal_path);

// Re-runs the SOFT campaign described by `spec` deterministically and
// verifies the replay against the journal's last checkpoint as described
// above. `base_options` contributes the knobs the journal does not record
// (statement limits, crash realism, stop_when_all_bugs_found, checkpoint
// sink — which also receives the verification checkpoints); seed, budget and
// checkpoint cadence come from the spec. Real-crash resumes run under the
// forked-worker harness exactly like fresh campaigns. Fails on multi-shard
// journals: per-shard checkpoint streams interleave, so this replay is
// defined for single-shard campaigns only (a fleet journal resumes through
// its coordinator's spool instead).
Result<CampaignResult> ResumeSoftCampaign(const ResumeSpec& spec,
                                          const CampaignOptions& base_options,
                                          const SoftOptions& soft_options = SoftOptions());

}  // namespace soft

#endif  // SRC_SOFT_RESUME_H_
