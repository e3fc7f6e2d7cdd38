// Determinism contract of the sharded campaign runner: a K-shard parallel
// SOFT campaign must be bit-identical to the serial sum of the same K shards
// run sequentially (thread scheduling must never leak into results), two
// parallel runs of the same plan must be bit-identical to each other, and a
// 1-shard run must reproduce the plain serial campaign exactly. Run these
// under ThreadSanitizer (-DSOFT_SANITIZE=thread) to validate the
// per-thread-instance model; see README "Parallel campaigns".
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/dialects/dialects.h"
#include "src/soft/chaos.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/soft_fuzzer.h"
#include "src/util/rng.h"

namespace soft {
namespace {

ParallelCampaignRunner SoftRunner(const std::string& dialect) {
  return ParallelCampaignRunner([] { return std::make_unique<SoftFuzzer>(); },
                                [dialect] { return MakeDialect(dialect); });
}

void ExpectBitIdentical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.tool, b.tool);
  EXPECT_EQ(a.dialect, b.dialect);
  EXPECT_EQ(a.statements_executed, b.statements_executed);
  EXPECT_EQ(a.sql_errors, b.sql_errors);
  EXPECT_EQ(a.crashes_observed, b.crashes_observed);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.functions_triggered, b.functions_triggered);
  EXPECT_EQ(a.branches_covered, b.branches_covered);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.shard_statements, b.shard_statements);
  ASSERT_EQ(a.unique_bugs.size(), b.unique_bugs.size());
  for (size_t i = 0; i < a.unique_bugs.size(); ++i) {
    EXPECT_EQ(a.unique_bugs[i].crash.bug_id, b.unique_bugs[i].crash.bug_id);
    EXPECT_EQ(a.unique_bugs[i].poc_sql, b.unique_bugs[i].poc_sql);
    EXPECT_EQ(a.unique_bugs[i].found_by, b.unique_bugs[i].found_by);
    EXPECT_EQ(a.unique_bugs[i].statements_until_found,
              b.unique_bugs[i].statements_until_found);
    EXPECT_EQ(a.unique_bugs[i].shard, b.unique_bugs[i].shard);
  }
}

class ParallelCampaignTest : public testing::TestWithParam<std::string> {};

// The load-bearing property: parallel execution of the shard plan yields the
// same unique-bug set, coverage counts, and per-shard statement counts as
// running the K shards sequentially and merging.
TEST_P(ParallelCampaignTest, ParallelRunMatchesSerialShardSum) {
  const ParallelCampaignRunner runner = SoftRunner(GetParam());
  CampaignOptions options;
  options.seed = 11;
  options.max_statements = 4000;
  const CampaignResult parallel = runner.Run(options, 4);
  const CampaignResult serial = runner.RunSerial(options, 4);
  ExpectBitIdentical(parallel, serial);
  EXPECT_EQ(parallel.shards, 4);
  EXPECT_EQ(parallel.statements_executed, options.max_statements);
}

INSTANTIATE_TEST_SUITE_P(AllDialects, ParallelCampaignTest,
                         testing::ValuesIn(AllDialectNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(ParallelCampaign, TwoEightShardRunsAreBitIdentical) {
  const ParallelCampaignRunner runner = SoftRunner("mariadb");
  CampaignOptions options;
  options.seed = 5;
  options.max_statements = 8000;
  const CampaignResult first = runner.Run(options, 8);
  const CampaignResult second = runner.Run(options, 8);
  ExpectBitIdentical(first, second);
  ASSERT_EQ(first.shard_statements.size(), 8u);
}

// shards == 1 must reproduce the plain serial campaign bit-for-bit (the
// runner is a drop-in replacement, not a different campaign).
TEST(ParallelCampaign, OneShardMatchesPlainSerialCampaign) {
  CampaignOptions options;
  options.seed = 7;
  options.max_statements = 5000;

  auto db = MakeDialect("duckdb");
  SoftFuzzer fuzzer;
  const CampaignResult plain = fuzzer.Run(*db, options);

  const CampaignResult sharded = RunShardedSoftCampaign("duckdb", options, 1);
  EXPECT_EQ(sharded.shards, 1);
  EXPECT_EQ(plain.statements_executed, sharded.statements_executed);
  EXPECT_EQ(plain.sql_errors, sharded.sql_errors);
  EXPECT_EQ(plain.crashes_observed, sharded.crashes_observed);
  EXPECT_EQ(plain.false_positives, sharded.false_positives);
  EXPECT_EQ(plain.functions_triggered, sharded.functions_triggered);
  EXPECT_EQ(plain.branches_covered, sharded.branches_covered);
  ASSERT_EQ(plain.unique_bugs.size(), sharded.unique_bugs.size());
  for (size_t i = 0; i < plain.unique_bugs.size(); ++i) {
    EXPECT_EQ(plain.unique_bugs[i].crash.bug_id, sharded.unique_bugs[i].crash.bug_id);
    EXPECT_EQ(plain.unique_bugs[i].poc_sql, sharded.unique_bugs[i].poc_sql);
    EXPECT_EQ(plain.unique_bugs[i].found_by, sharded.unique_bugs[i].found_by);
  }
}

TEST(ParallelCampaign, ShardPlanSplitsBudgetExactly) {
  CampaignOptions options;
  options.seed = 42;
  options.max_statements = 10007;
  const std::vector<ShardPlan> plans = PlanShards(options, 8);
  ASSERT_EQ(plans.size(), 8u);
  int total = 0;
  std::set<uint64_t> seeds;
  for (const ShardPlan& plan : plans) {
    EXPECT_TRUE(plan.options.max_statements == 1250 ||
                plan.options.max_statements == 1251);
    total += plan.options.max_statements;
    seeds.insert(plan.options.seed);
  }
  EXPECT_EQ(total, options.max_statements);
  // Shard 0 keeps the base seed (1-shard == serial invariant); all shard
  // seed streams are pairwise distinct.
  EXPECT_EQ(plans[0].options.seed, options.seed);
  EXPECT_EQ(seeds.size(), plans.size());
  // The derivation is a pure function of (base seed, shard).
  EXPECT_EQ(SeedForShard(42, 3), SeedForShard(42, 3));
  EXPECT_NE(SeedForShard(42, 3), SeedForShard(43, 3));
}

// Partition-mode plans keep the base seed and the full budget and instead
// stripe the global case order across shards.
TEST(ParallelCampaign, PartitionPlanCarriesBaseSeedAndFullBudget) {
  CampaignOptions options;
  options.seed = 42;
  options.max_statements = 10007;
  const std::vector<ShardPlan> plans =
      PlanShards(options, 8, ShardMode::kPartitionCases);
  ASSERT_EQ(plans.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const ShardPlan& plan = plans[static_cast<size_t>(i)];
    EXPECT_EQ(plan.options.seed, options.seed);
    EXPECT_EQ(plan.options.max_statements, options.max_statements);
    EXPECT_EQ(plan.options.shard_index, i);
    EXPECT_EQ(plan.options.shard_count, 8);
  }
}

// The partition mode's defining property: because the K shards execute the
// exact interleave of the serial campaign's case order, the merged run
// reproduces the serial campaign's bug set, coverage, and statement totals
// at ANY budget — work is divided, not resampled.
TEST(ParallelCampaign, PartitionModeReproducesSerialCampaignExactly) {
  CampaignOptions options;
  options.seed = 1;
  options.max_statements = 9000;

  auto db = MakeDialect("virtuoso");
  SoftFuzzer fuzzer;
  const CampaignResult serial = fuzzer.Run(*db, options);

  const CampaignResult merged = RunShardedSoftCampaign(
      "virtuoso", options, 8, SoftOptions(), ShardMode::kPartitionCases);
  EXPECT_EQ(merged.shards, 8);
  EXPECT_EQ(merged.statements_executed, serial.statements_executed);
  EXPECT_EQ(merged.sql_errors, serial.sql_errors);
  EXPECT_EQ(merged.crashes_observed, serial.crashes_observed);
  EXPECT_EQ(merged.false_positives, serial.false_positives);
  EXPECT_EQ(merged.functions_triggered, serial.functions_triggered);
  EXPECT_EQ(merged.branches_covered, serial.branches_covered);

  std::set<int> serial_ids, merged_ids;
  for (const FoundBug& bug : serial.unique_bugs) {
    serial_ids.insert(bug.crash.bug_id);
  }
  for (const FoundBug& bug : merged.unique_bugs) {
    merged_ids.insert(bug.crash.bug_id);
  }
  EXPECT_EQ(merged_ids, serial_ids);
}

// Partition-mode parallel execution obeys the same determinism contract as
// budget splitting: bit-identical to its sequential shard sum.
TEST(ParallelCampaign, PartitionParallelRunMatchesSerialShardSum) {
  const ParallelCampaignRunner runner = SoftRunner("clickhouse");
  CampaignOptions options;
  options.seed = 9;
  options.max_statements = 6000;
  const CampaignResult parallel =
      runner.Run(options, 4, ShardMode::kPartitionCases);
  const CampaignResult serial =
      runner.RunSerial(options, 4, ShardMode::kPartitionCases);
  ExpectBitIdentical(parallel, serial);
  EXPECT_EQ(parallel.shards, 4);
}

// Partition shards sharing one prebuilt case pool (RunShardedSoftCampaign's
// path) run concurrently against the read-only pool and still match the
// sequential shard sum of shards that each built their own.
TEST(ParallelCampaign, SharedPoolPartitionRunMatchesSerialShardSum) {
  CampaignOptions options;
  options.seed = 9;
  options.max_statements = 6000;
  const std::shared_ptr<const SoftCasePool> pool =
      BuildSoftCasePool("clickhouse", options, SoftOptions());
  ASSERT_NE(pool, nullptr);
  const ParallelCampaignRunner shared(
      [pool] { return std::make_unique<SoftFuzzer>(SoftOptions(), pool); },
      [] { return MakeDialect("clickhouse"); });
  const CampaignResult parallel = shared.Run(options, 4, ShardMode::kPartitionCases);
  const CampaignResult serial =
      SoftRunner("clickhouse").RunSerial(options, 4, ShardMode::kPartitionCases);
  ExpectBitIdentical(parallel, serial);
  EXPECT_EQ(DigestCampaignResult(parallel), DigestCampaignResult(serial));
}

// A pool is only used by the campaign it was built for: handed to a Run with
// another seed, it is ignored and the Run builds its own.
TEST(ParallelCampaign, MismatchedPoolNeverChangesACampaign) {
  CampaignOptions seed1;
  seed1.seed = 1;
  seed1.max_statements = 3000;
  CampaignOptions seed2 = seed1;
  seed2.seed = 2;
  const std::shared_ptr<const SoftCasePool> pool =
      BuildSoftCasePool("virtuoso", seed1, SoftOptions());
  ASSERT_NE(pool, nullptr);
  EXPECT_TRUE(pool->BuiltFor("virtuoso", seed1, SoftOptions()));
  EXPECT_FALSE(pool->BuiltFor("virtuoso", seed2, SoftOptions()));

  auto fresh_db = MakeDialect("virtuoso");
  const CampaignResult fresh = SoftFuzzer().Run(*fresh_db, seed2);
  auto pooled_db = MakeDialect("virtuoso");
  const CampaignResult pooled = SoftFuzzer(SoftOptions(), pool).Run(*pooled_db, seed2);
  EXPECT_EQ(DigestCampaignResult(pooled), DigestCampaignResult(fresh));
}

// The merged witness for each bug must carry the lowest
// (shard, statements_until_found) pair among all shard witnesses, making
// found_by attribution independent of which thread finished first.
TEST(ParallelCampaign, MergeKeepsLowestWitnessPerBug) {
  const ParallelCampaignRunner runner = SoftRunner("mysql");
  CampaignOptions options;
  options.seed = 3;
  options.max_statements = 6000;
  const CampaignResult merged = runner.Run(options, 4);

  std::set<int> merged_ids;
  for (const FoundBug& bug : merged.unique_bugs) {
    merged_ids.insert(bug.crash.bug_id);
  }
  const std::vector<ShardPlan> plans = PlanShards(options, 4);
  std::set<int> union_ids;
  for (const ShardPlan& plan : plans) {
    auto db = MakeDialect("mysql");
    SoftFuzzer fuzzer;
    const CampaignResult shard = fuzzer.Run(*db, plan.options);
    for (const FoundBug& bug : shard.unique_bugs) {
      union_ids.insert(bug.crash.bug_id);
      // A merged witness for this bug can never be later than this shard's.
      for (const FoundBug& kept : merged.unique_bugs) {
        if (kept.crash.bug_id == bug.crash.bug_id && kept.shard == plan.shard) {
          EXPECT_LE(kept.statements_until_found, bug.statements_until_found);
        }
      }
    }
  }
  EXPECT_EQ(merged_ids, union_ids);
}

// Outcome digests (DigestCampaignResult) pinned by running each campaign on
// the SoftFuzzer::Run that still built its case pool and counted its
// statements inline. The refactored pipeline (shared SoftCasePool,
// CampaignRecorder) must reproduce every one of them exactly.
std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

CampaignOptions PinnedOptions(int budget) {
  CampaignOptions options;
  options.seed = 1;
  options.max_statements = budget;
  return options;
}

struct PinnedCampaign {
  std::string name;
  std::function<CampaignResult()> run;
  std::string digest;
};

void PrintTo(const PinnedCampaign& campaign, std::ostream* os) { *os << campaign.name; }

class PinnedCampaignTest : public testing::TestWithParam<PinnedCampaign> {};

TEST_P(PinnedCampaignTest, OutcomeDigestIsPinned) {
  EXPECT_EQ(Hex(DigestCampaignResult(GetParam().run())), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    Campaigns, PinnedCampaignTest,
    testing::Values(
        PinnedCampaign{"VirtuosoSerial",
                       [] {
                         auto db = MakeDialect("virtuoso");
                         return SoftFuzzer().Run(*db, PinnedOptions(6000));
                       },
                       "0xe698406c44ddd40a"},
        PinnedCampaign{"VirtuosoFourPartitionShards",
                       [] { return RunShardedSoftCampaign("virtuoso", PinnedOptions(6000), 4); },
                       "0x520a7ce471ac326a"},
        PinnedCampaign{"VirtuosoTwoSplitBudgetShards",
                       [] {
                         return RunShardedSoftCampaign("virtuoso", PinnedOptions(6000), 2,
                                                       SoftOptions(),
                                                       ShardMode::kSplitBudget);
                       },
                       "0x48ca5a2665bf8d43"},
        PinnedCampaign{"DuckdbLogicMode",
                       [] {
                         CampaignOptions options = PinnedOptions(2000);
                         options.logic_oracles = {"all"};
                         auto db = MakeDialect("duckdb");
                         return SoftFuzzer().Run(*db, options);
                       },
                       "0x8657b023c5170e9c"}),
    [](const testing::TestParamInfo<PinnedCampaign>& info) { return info.param.name; });

// The checkpoint stream of a SOFT campaign, pinned the same way: the
// fingerprint is the campaign RNG after the pool shuffle, so journals written
// before the pool split still --resume.
TEST(PinnedCampaign, SoftCheckpointStreamIsPinned) {
  CampaignOptions options = PinnedOptions(6000);
  options.checkpoint_every = 1500;
  std::vector<std::string> stream;
  options.checkpoint_sink = [&stream](const CampaignCheckpoint& cp) {
    stream.push_back(std::to_string(cp.cases_completed) + " " + Hex(cp.rng_fingerprint) +
                     " " + Hex(cp.dedup_digest));
    return true;
  };
  auto db = MakeDialect("virtuoso");
  SoftFuzzer().Run(*db, options);
  EXPECT_EQ(stream, (std::vector<std::string>{
                        "1500 0x436d712e98fbb15c 0x98a37eb6ffc92b59",
                        "3000 0x436d712e98fbb15c 0x4497b34164874a78",
                        "4500 0x436d712e98fbb15c 0xf3a318d8ef98628d",
                        "6000 0x436d712e98fbb15c 0x14eb01c5f73e123f",
                    }));
}

}  // namespace
}  // namespace soft
