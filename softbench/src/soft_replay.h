// The serial SOFT campaign rebuilt from the program's public calls, one call
// at a time, so the benchmark can put a span around each: MakeDialect,
// SeedSuiteFor, CollectCorpus, MakeLogicOracles, PatternEngine::GenerateAll,
// ParseStatement, Database::Execute, LogicOracle::Check /
// ObserveSideEffect and MergeShardResults.
//
// The replay copies SoftFuzzer::Run's pool order and statement loop. Its
// result must digest bit-identically to RunShardedSoftCampaign(dialect,
// options, 1); the benchmark checks that on every traced run, which is what
// catches the copy drifting from the program.
#ifndef SOFTBENCH_SRC_SOFT_REPLAY_H_
#define SOFTBENCH_SRC_SOFT_REPLAY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"
#include "src/soft/campaign.h"
#include "src/soft/logic_oracle.h"
#include "src/soft/patterns.h"

namespace softbench {

// Everything SoftFuzzer::Run builds before its first campaign statement.
struct CasePool {
  std::unique_ptr<soft::Database> db;
  std::vector<std::unique_ptr<soft::LogicOracle>> oracles;
  std::vector<soft::GeneratedCase> cases;
  size_t generated = 0;  // cases before deduplication by statement text
  size_t expected_bugs = 0;
};

// The set-up half: dialect, corpus, prerequisites, oracle siblings, and the
// deduplicated, shuffled case pool. `telemetry` (may be null) collects what
// the engine records meanwhile, as the campaign's collector would.
CasePool BuildCasePool(const std::string& dialect, const soft::CampaignOptions& options,
                       SpanRecorder* recorder,
                       soft::telemetry::CampaignTelemetry* telemetry);

// Counts the replay sees that the campaign result does not carry.
struct ReplayInfo {
  size_t generated = 0;
  size_t pool_cases = 0;
  // Per oracle: Check calls, and how many of them were in the oracle's scope.
  std::map<std::string, std::pair<uint64_t, uint64_t>> oracle_checks;
};

// The whole serial campaign: BuildCasePool, the statement loop (with an
// extra ParseStatement per statement that prices parsing on its own), and
// the one-shard merge.
soft::CampaignResult ReplaySoftCampaign(const std::string& dialect,
                                        const soft::CampaignOptions& options,
                                        SpanRecorder* recorder, ReplayInfo* info);

}  // namespace softbench

#endif  // SOFTBENCH_SRC_SOFT_REPLAY_H_
