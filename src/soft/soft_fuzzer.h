// SOFT: the pattern-based SQL-function fuzzer (Section 7).
//
// Pipeline per campaign: (1) collect function expressions from the dialect's
// documentation and regression suite, (2) generate test cases with the 10
// boundary-value-generation patterns (1 and 2 build the SoftCasePool), (3)
// execute them and watch for crashes, deduplicating bugs and logging PoCs.
// Resource-limit kills (REPEAT('a', 9999999999)-style) are counted as false
// positives, matching Section 7.3.
#ifndef SRC_SOFT_SOFT_FUZZER_H_
#define SRC_SOFT_SOFT_FUZZER_H_

#include <memory>

#include "src/soft/campaign.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/patterns.h"

namespace soft {

struct SoftOptions {
  PatternOptions patterns;
  // Restrict generation to a subset of patterns (empty = all ten families).
  // Used by the ablation benches.
  std::vector<std::string> only_patterns;
  // Use the extremes-only literal pool instead of the digit sweep (the
  // strategy Section 6 calls insufficient); ablation knob.
  bool extremes_only_pool = false;

  bool operator==(const SoftOptions&) const = default;
};

// Steps 1 and 2 of a campaign: a pure function of (dialect, seed, logic
// mode, SoftOptions), read-only once built, so the partition shards, fleet
// units and real-crash restarts of one campaign can share one instance.
struct SoftCasePool {
  std::string dialect;  // the inputs it was built from
  uint64_t seed = 0;
  bool logic_mode = false;
  SoftOptions soft_options;

  std::vector<std::string> prerequisites;  // corpus CREATE TABLE / INSERT
  // Deduplicated: the corpus-replay prefix ("logic-seed", then "seed"), then
  // the generated tail shuffled with the campaign RNG.
  std::vector<GeneratedCase> cases;
  uint64_t rng_fingerprint = 0;  // that RNG after the shuffle (checkpoints)

  // True when a campaign with these inputs would build exactly this pool.
  bool BuiltFor(const std::string& dialect, const CampaignOptions& options,
                const SoftOptions& soft_options) const;
};

// Reads only `db`'s registry and seeded fault specs; executes nothing. The
// second form uses a fresh `dialect` instance (nullptr for an unknown name).
std::shared_ptr<const SoftCasePool> BuildSoftCasePool(const Database& db,
                                                      const CampaignOptions& options,
                                                      const SoftOptions& soft_options);
std::shared_ptr<const SoftCasePool> BuildSoftCasePool(const std::string& dialect,
                                                      const CampaignOptions& options,
                                                      const SoftOptions& soft_options);

class SoftFuzzer : public Fuzzer {
 public:
  // Run executes `pool` when it was built for that Run's inputs and builds
  // its own otherwise, so a mismatched pool never changes a campaign.
  explicit SoftFuzzer(SoftOptions options = SoftOptions(),
                      std::shared_ptr<const SoftCasePool> pool = nullptr);

  std::string name() const override { return "SOFT"; }
  CampaignResult Run(Database& db, const CampaignOptions& options) override;

 private:
  SoftOptions soft_options_;
  std::shared_ptr<const SoftCasePool> pool_;
};

// Runs one SOFT campaign split across `shards` parallel threads, each shard
// against a fresh instance of `dialect` (see src/soft/parallel_runner.h for
// the shard/merge semantics). SOFT generates a finite case pool, so the
// default mode partitions the serial campaign's case order across shards —
// the merged run finds the identical bug set and coverage as the serial
// reference at any budget. Pass ShardMode::kSplitBudget to get the
// decorrelated per-shard-seed sampling used for the baselines instead.
// shards == 1 is bit-identical to SoftFuzzer::Run against
// MakeDialect(dialect) in either mode. Partition shards share one case pool,
// built before any shard starts (and so before any real-crash fork).
CampaignResult RunShardedSoftCampaign(const std::string& dialect,
                                      const CampaignOptions& options, int shards,
                                      SoftOptions soft_options = SoftOptions(),
                                      ShardMode mode = ShardMode::kPartitionCases);

}  // namespace soft

#endif  // SRC_SOFT_SOFT_FUZZER_H_
