// Telemetry determinism contract (docs/OBSERVABILITY.md):
//
//   * a K-shard merged CampaignTelemetry is bit-identical to summing the
//     run's own shard snapshots in shard index order — for both shard modes;
//   * partition-sharded pattern counters match the serial campaign's, except
//     `generated`, which is exactly K× the serial pool (each shard generates
//     the full pool);
//   * recording is observational: disabling telemetry at runtime changes no
//     campaign outcome;
//   * an NDJSON journal replay reconstructs the exact bug set and per-bug
//     first witnesses.
//
// Run under ThreadSanitizer together with the parallel-runner tests:
// `ctest -R 'Parallel|GoldenPoc|Telemetry'` in a -DSOFT_SANITIZE=thread tree.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/dialects/dialects.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/resume.h"
#include "src/soft/soft_fuzzer.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/telemetry.h"

namespace soft {
namespace {

using telemetry::CampaignTelemetry;
using telemetry::LatencyHistogram;
using telemetry::PatternCounters;

TEST(LatencyHistogramTest, BucketBoundariesArePowersOfTwoMicroseconds) {
  EXPECT_EQ(LatencyHistogram::BucketFor(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(999), 0u);           // < 1 µs
  EXPECT_EQ(LatencyHistogram::BucketFor(1000), 1u);          // [1, 2) µs
  EXPECT_EQ(LatencyHistogram::BucketFor(1999), 1u);
  EXPECT_EQ(LatencyHistogram::BucketFor(2000), 2u);          // [2, 4) µs
  EXPECT_EQ(LatencyHistogram::BucketFor(3999), 2u);
  EXPECT_EQ(LatencyHistogram::BucketFor(4000), 3u);          // [4, 8) µs
  EXPECT_EQ(LatencyHistogram::BucketFor(8192 * 1000ull), 14u);
  EXPECT_EQ(LatencyHistogram::BucketFor(16384 * 1000ull), 15u);   // overflow bucket
  EXPECT_EQ(LatencyHistogram::BucketFor(uint64_t{1} << 62), 15u);
  for (size_t bucket = 1; bucket < LatencyHistogram::kBucketCount; ++bucket) {
    const uint64_t lower_us = LatencyHistogram::BucketLowerBoundUs(bucket);
    EXPECT_EQ(LatencyHistogram::BucketFor(lower_us * 1000), bucket);
    EXPECT_EQ(LatencyHistogram::BucketFor(lower_us * 1000 - 1), bucket - 1);
  }
}

TEST(LatencyHistogramTest, RecordAndMergeArePerBucketSums) {
  LatencyHistogram a;
  a.Record(500);      // bucket 0
  a.Record(1500);     // bucket 1
  a.Record(1500);
  EXPECT_EQ(a.samples, 3u);
  EXPECT_EQ(a.total_ns, 3500u);
  EXPECT_EQ(a.max_ns, 1500u);
  EXPECT_EQ(a.buckets[0], 1u);
  EXPECT_EQ(a.buckets[1], 2u);

  LatencyHistogram b;
  b.Record(2500);     // bucket 2
  b.Record(20'000'000);  // 20 ms → overflow bucket

  LatencyHistogram merged = a;
  merged.MergeFrom(b);
  EXPECT_EQ(merged.samples, 5u);
  EXPECT_EQ(merged.total_ns, a.total_ns + b.total_ns);
  EXPECT_EQ(merged.max_ns, 20'000'000u);
  EXPECT_EQ(merged.buckets[0], 1u);
  EXPECT_EQ(merged.buckets[1], 2u);
  EXPECT_EQ(merged.buckets[2], 1u);
  EXPECT_EQ(merged.buckets[15], 1u);
  EXPECT_DOUBLE_EQ(a.MeanUs(), 3500.0 / 3.0 / 1000.0);
}

TEST(CampaignTelemetryTest, MergeSumsStagesAndPatterns) {
  CampaignTelemetry a;
  a.stage_latency[0].Record(1000);
  a.patterns["P1.1"].executed = 10;
  a.patterns["P1.1"].crashes = 1;
  CampaignTelemetry b;
  b.stage_latency[0].Record(3000);
  b.stage_latency[2].Record(500);
  b.patterns["P1.1"].executed = 5;
  b.patterns["P2.2"].generated = 7;

  CampaignTelemetry merged = a;
  merged.MergeFrom(b);
  EXPECT_EQ(merged.stage_latency[0].samples, 2u);
  EXPECT_EQ(merged.stage_latency[2].samples, 1u);
  EXPECT_EQ(merged.patterns.at("P1.1").executed, 15u);
  EXPECT_EQ(merged.patterns.at("P1.1").crashes, 1u);
  EXPECT_EQ(merged.patterns.at("P2.2").generated, 7u);
  EXPECT_FALSE(merged.empty());
  EXPECT_TRUE(CampaignTelemetry{}.empty());
}

// Totals a counter field across every pattern of a snapshot.
uint64_t Total(const CampaignTelemetry& t, uint64_t PatternCounters::*field) {
  uint64_t sum = 0;
  for (const auto& [pattern, counters] : t.patterns) {
    sum += counters.*field;
  }
  return sum;
}

CampaignOptions TestOptions(uint64_t seed, int budget) {
  CampaignOptions options;
  options.seed = seed;
  options.max_statements = budget;
  return options;
}

#ifdef SOFT_TELEMETRY_ENABLED

// The campaign loop's counters must reconcile exactly with the campaign
// result they annotate — same events, counted twice, once per view.
TEST(TelemetryCampaignTest, CountersReconcileWithCampaignResult) {
  std::unique_ptr<Database> db = MakeDialect("mariadb");
  SoftFuzzer fuzzer;
  const CampaignResult result = fuzzer.Run(*db, TestOptions(11, 4000));

  const CampaignTelemetry& t = result.telemetry;
  EXPECT_EQ(Total(t, &PatternCounters::executed),
            static_cast<uint64_t>(result.statements_executed));
  EXPECT_EQ(Total(t, &PatternCounters::crashes),
            static_cast<uint64_t>(result.crashes_observed));
  EXPECT_EQ(Total(t, &PatternCounters::bugs_deduped), result.unique_bugs.size());
  EXPECT_EQ(Total(t, &PatternCounters::sql_errors),
            static_cast<uint64_t>(result.sql_errors));
  EXPECT_EQ(Total(t, &PatternCounters::false_positives),
            static_cast<uint64_t>(result.false_positives));
  // Every executed statement entered the parse stage.
  EXPECT_GE(t.stage_latency[0].samples,
            static_cast<uint64_t>(result.statements_executed));
  // Stage sample counts shrink monotonically along the pipeline.
  EXPECT_GE(t.stage_latency[0].samples, t.stage_latency[1].samples);
  EXPECT_GE(t.stage_latency[1].samples, t.stage_latency[2].samples);
}

// Partition-sharded counters match the serial campaign's except `generated`:
// every shard counts the full shared pool, so merged generation is exactly K×.
TEST(TelemetryCampaignTest, PartitionShardCountersMatchSerialExceptGenerated) {
  const CampaignOptions options = TestOptions(11, 4000);
  const int kShards = 4;
  const CampaignResult serial =
      RunShardedSoftCampaign("mariadb", options, 1, SoftOptions(),
                             ShardMode::kPartitionCases);
  const CampaignResult sharded =
      RunShardedSoftCampaign("mariadb", options, kShards, SoftOptions(),
                             ShardMode::kPartitionCases);

  ASSERT_FALSE(serial.telemetry.patterns.empty());
  for (const auto& [pattern, counters] : serial.telemetry.patterns) {
    ASSERT_TRUE(sharded.telemetry.patterns.count(pattern)) << pattern;
    const PatternCounters& merged = sharded.telemetry.patterns.at(pattern);
    EXPECT_EQ(merged.executed, counters.executed) << pattern;
    EXPECT_EQ(merged.crashes, counters.crashes) << pattern;
    EXPECT_EQ(merged.sql_errors, counters.sql_errors) << pattern;
    EXPECT_EQ(merged.false_positives, counters.false_positives) << pattern;
    EXPECT_EQ(merged.generated, counters.generated * kShards) << pattern;
  }
  // Shard-local dedup can witness one bug in several shards, so the merged
  // first-witness count is bounded below by the global unique-bug count.
  EXPECT_GE(Total(sharded.telemetry, &PatternCounters::bugs_deduped),
            sharded.unique_bugs.size());
}

// Turning recording off at runtime must change no campaign outcome.
TEST(TelemetryCampaignTest, DisablingTelemetryChangesNoCampaignOutcome) {
  const CampaignOptions options = TestOptions(3, 5000);
  const CampaignResult lit =
      RunShardedSoftCampaign("virtuoso", options, 2, SoftOptions(),
                             ShardMode::kPartitionCases);
  telemetry::SetRuntimeEnabled(false);
  const CampaignResult dark =
      RunShardedSoftCampaign("virtuoso", options, 2, SoftOptions(),
                             ShardMode::kPartitionCases);
  telemetry::SetRuntimeEnabled(true);

  EXPECT_FALSE(lit.telemetry.empty());
  EXPECT_TRUE(dark.telemetry.empty());
  EXPECT_EQ(lit.statements_executed, dark.statements_executed);
  EXPECT_EQ(lit.sql_errors, dark.sql_errors);
  EXPECT_EQ(lit.crashes_observed, dark.crashes_observed);
  EXPECT_EQ(lit.false_positives, dark.false_positives);
  EXPECT_EQ(lit.functions_triggered, dark.functions_triggered);
  EXPECT_EQ(lit.branches_covered, dark.branches_covered);
  EXPECT_EQ(lit.shard_statements, dark.shard_statements);
  ASSERT_EQ(lit.unique_bugs.size(), dark.unique_bugs.size());
  for (size_t i = 0; i < lit.unique_bugs.size(); ++i) {
    EXPECT_EQ(lit.unique_bugs[i].crash.bug_id, dark.unique_bugs[i].crash.bug_id);
    EXPECT_EQ(lit.unique_bugs[i].poc_sql, dark.unique_bugs[i].poc_sql);
    EXPECT_EQ(lit.unique_bugs[i].found_by, dark.unique_bugs[i].found_by);
    EXPECT_EQ(lit.unique_bugs[i].statements_until_found,
              dark.unique_bugs[i].statements_until_found);
    EXPECT_EQ(lit.unique_bugs[i].shard, dark.unique_bugs[i].shard);
  }
}

TEST(TelemetryNamedLatencyTest, RecordedNamesAppearInSnapshot) {
  telemetry::RecordNamedLatency("telemetry_test_probe", 1500);
  telemetry::RecordNamedLatency("telemetry_test_probe", 2500);
  const auto snapshot = telemetry::NamedLatencySnapshot();
  ASSERT_TRUE(snapshot.count("telemetry_test_probe"));
  EXPECT_GE(snapshot.at("telemetry_test_probe").samples, 2u);
}

#endif  // SOFT_TELEMETRY_ENABLED

class TelemetryMergeTest : public testing::TestWithParam<ShardMode> {};

// The merged snapshot is the shard-index-ordered sum of the run's own shard
// snapshots — bit-identical, both shard modes, on a single run (histogram
// contents vary across runs with wall time; the merge must not).
TEST_P(TelemetryMergeTest, MergedTelemetryIsShardIndexOrderedSum) {
  const CampaignResult sharded = RunShardedSoftCampaign(
      "postgresql", TestOptions(7, 3000), 4, SoftOptions(), GetParam());
  ASSERT_EQ(sharded.shard_telemetry.size(), 4u);
  CampaignTelemetry summed;
  for (const CampaignTelemetry& shard : sharded.shard_telemetry) {
    summed.MergeFrom(shard);
  }
  EXPECT_EQ(sharded.telemetry, summed);
}

INSTANTIATE_TEST_SUITE_P(BothModes, TelemetryMergeTest,
                         testing::Values(ShardMode::kPartitionCases,
                                         ShardMode::kSplitBudget),
                         [](const testing::TestParamInfo<ShardMode>& info) {
                           return info.param == ShardMode::kPartitionCases
                                      ? "partition"
                                      : "split";
                         });

// Journal round trip: replaying the NDJSON stream reconstructs the exact bug
// set, per-bug first witnesses, and campaign totals.
TEST(TelemetryJournalTest, ReplayReconstructsExactBugSet) {
  const CampaignOptions options = TestOptions(5, 6000);
  const CampaignResult result = RunShardedSoftCampaign(
      "mariadb", options, 3, SoftOptions(), ShardMode::kPartitionCases);
  ASSERT_FALSE(result.unique_bugs.empty());

  std::stringstream stream;
  telemetry::WriteCampaignJournal(stream, options, result, 123456789);
  const Result<telemetry::JournalReplay> replayed =
      telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();

  EXPECT_EQ(replayed->tool, result.tool);
  EXPECT_EQ(replayed->dialect, result.dialect);
  EXPECT_EQ(replayed->seed, options.seed);
  EXPECT_EQ(replayed->budget, options.max_statements);
  EXPECT_EQ(replayed->shards, result.shards);
  EXPECT_EQ(replayed->shard_statements, result.shard_statements);
  EXPECT_EQ(replayed->statements_executed, result.statements_executed);
  EXPECT_EQ(replayed->functions_triggered, result.functions_triggered);
  EXPECT_EQ(replayed->branches_covered, result.branches_covered);
  EXPECT_TRUE(replayed->finished);
  EXPECT_DOUBLE_EQ(replayed->wall_ms, 123.457);  // %.3f of 123456789 ns

  std::set<int> expected_ids;
  ASSERT_EQ(replayed->witnesses.size(), result.unique_bugs.size());
  for (size_t i = 0; i < result.unique_bugs.size(); ++i) {
    const FoundBug& bug = result.unique_bugs[i];
    const telemetry::JournalWitness& witness = replayed->witnesses[i];
    EXPECT_EQ(witness.bug_id, bug.crash.bug_id);
    EXPECT_EQ(witness.pattern, bug.found_by);
    EXPECT_EQ(witness.statement_index, bug.statements_until_found);
    EXPECT_EQ(witness.shard, bug.shard);
    expected_ids.insert(bug.crash.bug_id);
  }
  EXPECT_EQ(replayed->BugIds(), expected_ids);
}

// wall_ms alone is ambiguous: 0 can mean "telemetry was off" or "sub-
// millisecond hit". The recorded flag disambiguates and must survive the
// round trip for both values.
TEST(TelemetryJournalTest, WitnessRecordedFlagRoundTrips) {
  CampaignResult result;
  result.tool = "SOFT";
  result.dialect = "duckdb";
  result.statements_executed = 10;
  result.shards = 1;
  result.shard_statements = {10};

  FoundBug instant;  // genuine sub-millisecond witness: wall 0 but recorded
  instant.crash.bug_id = 1;
  instant.found_by = "P1.1";
  instant.statements_until_found = 3;
  instant.found_wall_ns = 0;
  instant.wall_recorded = true;
  FoundBug dark;  // telemetry off: wall 0 and NOT recorded
  dark.crash.bug_id = 2;
  dark.found_by = "P2.1";
  dark.statements_until_found = 7;
  dark.found_wall_ns = 0;
  dark.wall_recorded = false;
  result.unique_bugs = {instant, dark};

  std::stringstream stream;
  telemetry::WriteCampaignJournal(stream, CampaignOptions(), result, 0);
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  ASSERT_EQ(replayed->witnesses.size(), 2u);
  EXPECT_DOUBLE_EQ(replayed->witnesses[0].wall_ms, 0.0);
  EXPECT_TRUE(replayed->witnesses[0].recorded);
  EXPECT_DOUBLE_EQ(replayed->witnesses[1].wall_ms, 0.0);
  EXPECT_FALSE(replayed->witnesses[1].recorded);
}

// Journals written before the recorded flag existed replay with the old
// inference: nonzero wall_ms means recorded.
TEST(TelemetryJournalTest, LegacyWitnessLinesInferRecordedFromWallMs) {
  std::stringstream legacy(
      "{\"event\":\"campaign_start\",\"tool\":\"SOFT\",\"dialect\":\"duckdb\","
      "\"seed\":1,\"budget\":10,\"shards\":1}\n"
      "{\"event\":\"first_witness\",\"bug_id\":1,\"pattern\":\"P1.1\","
      "\"statement_index\":3,\"shard\":0,\"wall_ms\":1.500}\n"
      "{\"event\":\"first_witness\",\"bug_id\":2,\"pattern\":\"P2.1\","
      "\"statement_index\":7,\"shard\":0,\"wall_ms\":0.000}\n");
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(legacy);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  ASSERT_EQ(replayed->witnesses.size(), 2u);
  EXPECT_TRUE(replayed->witnesses[0].recorded);
  EXPECT_FALSE(replayed->witnesses[1].recorded);
}

TEST(TelemetryJournalTest, ReplayRejectsMalformedStreams) {
  {
    std::stringstream empty;
    EXPECT_FALSE(telemetry::ReplayJournal(empty).ok());
  }
  {
    std::stringstream unknown(
        "{\"event\":\"campaign_start\",\"tool\":\"t\",\"dialect\":\"d\","
        "\"seed\":1,\"budget\":10,\"shards\":1}\n"
        "{\"event\":\"warp_drive\"}\n");
    EXPECT_FALSE(telemetry::ReplayJournal(unknown).ok());
  }
  {
    std::stringstream no_event("{\"foo\":1}\n");
    EXPECT_FALSE(telemetry::ReplayJournal(no_event).ok());
  }
  {
    std::stringstream missing_field(
        "{\"event\":\"campaign_start\",\"tool\":\"t\"}\n");
    EXPECT_FALSE(telemetry::ReplayJournal(missing_field).ok());
  }
}

CampaignCheckpoint TestCheckpoint(int cases, int bugs) {
  CampaignCheckpoint cp;
  cp.every = 10;
  cp.cases_completed = cases;
  cp.sql_errors = cases / 3;
  cp.unique_bugs = bugs;
  cp.rng_fingerprint = 0xABCDull + static_cast<uint64_t>(cases);
  cp.dedup_digest = 0x1234ull + static_cast<uint64_t>(bugs);
  return cp;
}

TEST(TelemetryJournalTest, CampaignFinishCarriesJournalDegraded) {
  const CampaignOptions options = TestOptions(5, 3000);
  CampaignResult result = RunShardedSoftCampaign("mariadb", options, 1);
  result.journal_degraded = true;

  std::stringstream stream;
  telemetry::WriteCampaignJournal(stream, options, result, 0);
  EXPECT_NE(stream.str().find("\"journal_degraded\":1"), std::string::npos);
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_TRUE(replayed->journal_degraded);
}

TEST(TelemetryJournalTest, TornTailIsDroppedNotFatal) {
  const CampaignOptions options = TestOptions(1, 100);
  std::stringstream stream;
  telemetry::WriteCampaignStart(stream, options, "SOFT", "mariadb", 1);
  telemetry::WriteCheckpointRecord(stream, TestCheckpoint(10, 1));
  telemetry::WriteCheckpointRecord(stream, TestCheckpoint(20, 2));
  const std::string full = stream.str();
  ASSERT_EQ(full.back(), '\n');

  // Kill -9 mid-write of the second checkpoint: the record loses its tail.
  std::stringstream torn(full.substr(0, full.size() - 7));
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(torn);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_TRUE(replayed->torn_tail);
  EXPECT_FALSE(replayed->finished);
  ASSERT_EQ(replayed->checkpoints.size(), 1u);
  EXPECT_EQ(replayed->checkpoints[0], TestCheckpoint(10, 1));

  // A '\n'-terminated but unparseable line is still a hard error — the
  // torn-tail tolerance applies only to the final unterminated record.
  std::stringstream corrupt(full + "{\"event\":\"checkpoint\"\n");
  EXPECT_FALSE(telemetry::ReplayJournal(corrupt).ok());
}

TEST(TelemetryJournalTest, TruncationAtEveryByteOffsetReplaysIntactPrefix) {
  const CampaignOptions options = TestOptions(1, 100);
  std::stringstream stream;
  telemetry::WriteCampaignStart(stream, options, "SOFT", "mariadb", 1);
  std::vector<CampaignCheckpoint> written;
  for (int i = 1; i <= 3; ++i) {
    written.push_back(TestCheckpoint(10 * i, i));
    telemetry::WriteCheckpointRecord(stream, written.back());
  }
  const std::string full = stream.str();

  std::vector<size_t> line_ends;  // offset one past each '\n'
  for (size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '\n') {
      line_ends.push_back(i + 1);
    }
  }
  ASSERT_EQ(line_ends.size(), 4u);

  for (size_t len = 0; len <= full.size(); ++len) {
    std::stringstream in(full.substr(0, len));
    const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(in);
    if (len < line_ends.front()) {
      // campaign_start itself is torn away: nothing to replay from.
      EXPECT_FALSE(replayed.ok()) << "offset " << len;
      continue;
    }
    ASSERT_TRUE(replayed.ok()) << "offset " << len << ": "
                               << replayed.status().message();
    size_t complete_lines = 0;
    for (const size_t end : line_ends) {
      complete_lines += end <= len ? 1 : 0;
    }
    // Exactly the fully-written checkpoints survive, in order.
    ASSERT_EQ(replayed->checkpoints.size(), complete_lines - 1) << "offset " << len;
    for (size_t i = 0; i < replayed->checkpoints.size(); ++i) {
      EXPECT_EQ(replayed->checkpoints[i], written[i]) << "offset " << len;
    }
    EXPECT_EQ(replayed->torn_tail, full[len - 1] != '\n') << "offset " << len;
    EXPECT_FALSE(replayed->finished);
  }
}

TEST(TelemetryJournalTest, ReplayAcceptsChaosMarker) {
  const CampaignOptions options = TestOptions(1, 100);
  std::stringstream stream;
  telemetry::WriteCampaignStart(stream, options, "SOFT", "mariadb", 1);
  telemetry::WriteChaosMarker(stream, "io.write=error,eval.enter=after:50");
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  ASSERT_EQ(replayed->chaos_specs.size(), 1u);
  EXPECT_EQ(replayed->chaos_specs[0], "io.write=error,eval.enter=after:50");
}

TEST(TelemetryJournalTest, ResumeFromTornJournalMatchesUninterruptedRun) {
  CampaignOptions options = TestOptions(7, 4000);
  options.checkpoint_every = 500;
  std::stringstream stream;
  telemetry::WriteCampaignStart(stream, options, "SOFT", "mariadb", 1);
  options.checkpoint_sink = [&stream](const CampaignCheckpoint& cp) {
    telemetry::WriteCheckpointRecord(stream, cp);
    return stream.good();
  };
  const CampaignResult uninterrupted = RunShardedSoftCampaign("mariadb", options, 1);
  const std::string full = stream.str();
  ASSERT_GT(full.size(), 40u);

  // The producer dies mid-record: keep the intact prefix plus a torn tail.
  const std::string journal_path =
      "torn_resume_" + std::to_string(::getpid()) + ".ndjson";
  {
    std::ofstream out(journal_path, std::ios::trunc);
    out << full.substr(0, full.size() - 25);
  }

  const Result<ResumeSpec> spec = LoadResumeSpec(journal_path);
  std::remove(journal_path.c_str());
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_TRUE(spec->has_checkpoint);
  EXPECT_FALSE(spec->finished);

  CampaignOptions resume_base;
  const Result<CampaignResult> resumed = ResumeSoftCampaign(*spec, resume_base);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->statements_executed, uninterrupted.statements_executed);
  ASSERT_EQ(resumed->unique_bugs.size(), uninterrupted.unique_bugs.size());
  for (size_t i = 0; i < resumed->unique_bugs.size(); ++i) {
    EXPECT_EQ(resumed->unique_bugs[i].crash.bug_id,
              uninterrupted.unique_bugs[i].crash.bug_id);
    EXPECT_EQ(resumed->unique_bugs[i].poc_sql, uninterrupted.unique_bugs[i].poc_sql);
  }
}

TEST(TelemetryJournalTest, ToJsonCarriesStagesAndPatterns) {
  CampaignTelemetry t;
  t.stage_latency[0].Record(1000);
  t.patterns["P1.1"].executed = 3;
  const std::string json = t.ToJson();
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"optimize\""), std::string::npos);
  EXPECT_NE(json.find("\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"P1.1\""), std::string::npos);
  EXPECT_NE(json.find("\"executed\":3"), std::string::npos);
}

TEST(TelemetryJournalTest, ToJsonCarriesLogicOracleCounters) {
  CampaignTelemetry t;
  t.patterns["logic-seed"].logic_checks = 5;
  t.patterns["logic-seed"].logic_bugs = 2;
  const std::string json = t.ToJson();
  EXPECT_NE(json.find("\"logic_checks\":5"), std::string::npos);
  EXPECT_NE(json.find("\"logic_bugs\":2"), std::string::npos);
}

// A logic (--oracle) campaign's journal replays to the exact wrong-result
// bug set with attribution, alongside the crash-bug witness stream.
TEST(TelemetryJournalTest, LogicBugEventsReplayToExactBugSet) {
  CampaignOptions options = TestOptions(5, 400);
  options.stop_when_all_bugs_found = false;
  options.logic_oracles = {"all"};
  const CampaignResult result = RunShardedSoftCampaign("mysql", options, 1);
  ASSERT_FALSE(result.logic_bugs.empty());

  std::stringstream stream;
  telemetry::WriteCampaignJournal(stream, options, result, 0);
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();

  ASSERT_EQ(replayed->logic_bugs.size(), result.logic_bugs.size());
  std::set<int> expected_ids;
  for (size_t i = 0; i < result.logic_bugs.size(); ++i) {
    const FoundLogicBug& bug = result.logic_bugs[i];
    const telemetry::JournalLogicBug& event = replayed->logic_bugs[i];
    EXPECT_EQ(event.bug_id, bug.info.bug_id);
    EXPECT_EQ(event.oracle, bug.oracle);
    EXPECT_EQ(event.function, bug.info.function);
    EXPECT_EQ(event.effect, LogicEffectName(bug.info.effect));
    EXPECT_EQ(event.scope, LogicScopeName(bug.info.scope));
    EXPECT_EQ(event.case_index, bug.case_index);
    EXPECT_EQ(event.statement_index, bug.statements_until_found);
    EXPECT_EQ(event.shard, bug.shard);
    EXPECT_EQ(event.poc, bug.poc_sql);
    EXPECT_EQ(event.witness, bug.witness);
    expected_ids.insert(bug.info.bug_id);
  }
  EXPECT_EQ(replayed->LogicBugIds(), expected_ids);
  EXPECT_EQ(replayed->logic_checks, result.logic_checks);
  EXPECT_EQ(replayed->logic_divergences, result.logic_divergences);
  EXPECT_EQ(replayed->logic_false_positives, result.logic_false_positives);
}

// Tearing the final record (the campaign_finish line) must not lose the
// logic_bug events written before it.
TEST(TelemetryJournalTest, LogicBugEventsSurviveTornTail) {
  CampaignResult result;
  result.tool = "SOFT";
  result.dialect = "duckdb";
  result.statements_executed = 9;
  result.shards = 1;
  result.shard_statements = {9};
  result.logic_checks = 4;
  result.logic_divergences = 1;
  FoundLogicBug bug;
  bug.info.bug_id = 501;
  bug.info.function = "LENGTH";
  bug.oracle = "eet";
  bug.poc_sql = "SELECT LENGTH('abc')";
  bug.witness = "SELECT COALESCE(LENGTH('abc'), LENGTH('abc'))";
  bug.case_index = 2;
  result.logic_bugs.push_back(bug);

  std::stringstream intact;
  telemetry::WriteCampaignJournal(intact, CampaignOptions(), result, 0);
  const std::string full = intact.str();
  std::stringstream torn(full.substr(0, full.size() - 7));
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(torn);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_TRUE(replayed->torn_tail);
  EXPECT_FALSE(replayed->finished);
  ASSERT_EQ(replayed->logic_bugs.size(), 1u);
  EXPECT_EQ(replayed->logic_bugs[0].bug_id, 501);
  EXPECT_EQ(replayed->logic_bugs[0].oracle, "eet");
  EXPECT_EQ(replayed->logic_bugs[0].case_index, 2);
}

TEST(TelemetryJournalTest, ReplayRejectsMalformedLogicBug) {
  std::stringstream missing_oracle(
      "{\"event\":\"campaign_start\",\"tool\":\"SOFT\",\"dialect\":\"duckdb\","
      "\"seed\":1,\"budget\":10,\"shards\":1}\n"
      "{\"event\":\"logic_bug\",\"bug_id\":501,\"function\":\"LENGTH\","
      "\"effect\":\"truncate\",\"scope\":\"top_level_call\",\"case_index\":0,"
      "\"statement_index\":1,\"shard\":0,\"poc\":\"SELECT 1\",\"witness\":\"w\"}\n");
  EXPECT_FALSE(telemetry::ReplayJournal(missing_oracle).ok());
}

// Journals written before the logic oracles existed replay with zeroed
// logic counters and no logic_bug events.
TEST(TelemetryJournalTest, LegacyFinishLinesReplayWithZeroLogicCounters) {
  std::stringstream legacy(
      "{\"event\":\"campaign_start\",\"tool\":\"SOFT\",\"dialect\":\"duckdb\","
      "\"seed\":1,\"budget\":10,\"shards\":1}\n"
      "{\"event\":\"campaign_finish\",\"statements\":10,\"sql_errors\":2,"
      "\"crashes_observed\":0,\"false_positives\":0,\"unique_bugs\":0,"
      "\"functions_triggered\":3,\"branches_covered\":4,\"wall_ms\":1.000}\n");
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(legacy);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_TRUE(replayed->finished);
  EXPECT_TRUE(replayed->logic_bugs.empty());
  EXPECT_EQ(replayed->logic_checks, 0);
  EXPECT_EQ(replayed->logic_divergences, 0);
  EXPECT_EQ(replayed->logic_false_positives, 0);
}

// ---------------------------------------------------------------------------
// Every event kind, written from fixed inputs whose strings carry the
// boundary bytes a journal must survive.
// ---------------------------------------------------------------------------

constexpr uint64_t kU64Max = UINT64_MAX;

// Control bytes, an escaped newline, quotes and backslashes, braces and
// brackets, a key lookalike, and non-ASCII UTF-8 (é, €). `tag` keeps the
// values distinct so a swapped field cannot replay as a match.
std::string Boundary(const std::string& tag) {
  return tag + "\x01" + "\t\r\n\"\\{}[],:" + "\"bug_id\":9," + "\xc3\xa9\xe2\x82\xac";
}

CampaignCheckpoint EveryEventCheckpoint() {
  CampaignCheckpoint cp;
  cp.every = 500;
  cp.shard = 1;
  cp.cases_completed = 1000;
  cp.sql_errors = 20;
  cp.crashes_observed = 3;
  cp.false_positives = 1;
  cp.watchdog_timeouts = 2;
  cp.unique_bugs = 1;
  cp.rng_fingerprint = kU64Max;
  cp.dedup_digest = kU64Max - 1;
  return cp;
}

CampaignResult EveryEventResult() {
  CampaignResult r;
  r.tool = Boundary("tool");
  r.dialect = Boundary("dialect");
  r.statements_executed = 1234;
  r.sql_errors = 56;
  r.crashes_observed = 7;
  r.false_positives = 8;
  r.watchdog_timeouts = 9;
  r.logic_checks = 10;
  r.logic_divergences = 11;
  r.logic_false_positives = 12;
  r.functions_triggered = 13;
  r.branches_covered = 14;
  r.shards = 2;
  r.shard_statements = {600, 634};
  r.journal_degraded = true;

  FoundBug bug;
  bug.crash.bug_id = 42;
  bug.found_by = Boundary("pattern");
  bug.statements_until_found = 77;
  bug.shard = 1;
  bug.found_wall_ns = 1500000;  // 1.500 ms: exact at the journal's precision
  bug.wall_recorded = true;
  r.unique_bugs = {bug};

  FoundLogicBug logic;
  logic.info.bug_id = 501;
  logic.info.function = Boundary("function");
  logic.info.effect = LogicEffect::kTruncate;
  logic.info.scope = LogicScope::kConstArgs;
  logic.oracle = Boundary("oracle");
  logic.poc_sql = "SELECT '" + Boundary("poc") + "'";
  logic.witness = Boundary("witness");
  logic.case_index = 3;
  logic.statements_until_found = 4;
  logic.shard = 1;
  r.logic_bugs = {logic};

  trace::CrashFlightRecord flight;
  flight.shard = 1;
  flight.worker_run = 2;
  flight.announced = true;
  flight.bug_id = 42;
  flight.last_checkpoint_cases = 500;
  flight.entries = {
      {76, Boundary("entry"), "SELECT {" + Boundary("sql") + "}", Boundary("stage"),
       Boundary("outcome")},
      {77, "P1.1", "SELECT 1", "execute", "crash"}};
  r.crash_flights = {flight};
  return r;
}

telemetry::JournalLeaseEvent EveryEventLease() {
  telemetry::JournalLeaseEvent lease;
  lease.action = Boundary("action");
  lease.unit = 3;
  lease.worker = 2;
  lease.cases = 99;
  lease.unit_digest = kU64Max;
  return lease;
}

telemetry::JournalWorkerDeath EveryEventDeath() {
  telemetry::JournalWorkerDeath death;
  death.worker = 2;
  death.pid = INT64_MAX;
  death.units_completed = 5;
  death.reason = Boundary("reason");
  return death;
}

std::vector<telemetry::JournalNetEvent> EveryEventNet() {
  std::vector<telemetry::JournalNetEvent> events;
  const char* kinds[] = {"session", "disconnect", "redeliver", "dup_result"};
  for (int i = 0; i < 4; ++i) {
    telemetry::JournalNetEvent net;
    net.kind = kinds[i];
    net.detail = Boundary("detail" + std::to_string(i));
    net.session = Boundary("session" + std::to_string(i));
    net.worker = i;
    net.unit = i - 1;
    events.push_back(net);
  }
  return events;
}

telemetry::JournalHealthEvent EveryEventHealth() {
  telemetry::JournalHealthEvent health;
  health.state = Boundary("state");
  health.reason = Boundary("health-reason");
  health.statements_per_s = 1234.5;
  health.units_per_s = 0.25;
  health.bugs_per_s = 0.125;
  health.reclaims_per_s = 2.0;
  health.redeliveries_per_s = 0.5;
  health.wall_ms = 1500.75;
  return health;
}

telemetry::JournalMetricsSnapshot EveryEventSnapshot() {
  telemetry::JournalMetricsSnapshot snap;
  snap.series = kU64Max;
  snap.statements = kU64Max - 1;
  snap.units_done = kU64Max - 2;
  snap.health = Boundary("snapshot-health");
  snap.wall_ms = 250.5;
  return snap;
}

telemetry::JournalFleetFinish EveryEventFleetFinish() {
  telemetry::JournalFleetFinish fin;
  fin.units = kU64Max;
  fin.workers_spawned = kU64Max - 1;
  fin.worker_deaths = kU64Max - 2;
  fin.leases_granted = kU64Max - 3;
  fin.leases_reclaimed = kU64Max - 4;
  fin.leases_stolen = kU64Max - 5;
  fin.heartbeats = kU64Max - 6;
  fin.units_completed = kU64Max - 7;
  fin.units_run_locally = kU64Max - 8;
  fin.units_resumed = kU64Max - 9;
  fin.units_spool_diverged = kU64Max - 10;
  fin.degraded_to_local = true;
  return fin;
}

constexpr uint64_t kEveryEventWallNs = 2500000000;  // 2500.000 ms

// One line of each of the 18 event kinds, in a fixed order.
void WriteEveryEvent(std::ostream& out) {
  const CampaignResult result = EveryEventResult();
  CampaignOptions options;
  options.seed = kU64Max;
  options.max_statements = 250000;
  telemetry::WriteCampaignStart(out, options, result.tool, result.dialect, result.shards);
  telemetry::WriteCheckpointRecord(out, EveryEventCheckpoint());
  telemetry::WriteResumeMarker(out, 1000);
  telemetry::WriteChaosMarker(out, Boundary("spec"));
  telemetry::WriteLeaseEvent(out, EveryEventLease());
  telemetry::WriteWorkerDeathEvent(out, EveryEventDeath());
  for (const telemetry::JournalNetEvent& net : EveryEventNet()) {
    telemetry::WriteNetEvent(out, net);
  }
  telemetry::WriteHealthEvent(out, EveryEventHealth());
  telemetry::WriteMetricsSnapshotEvent(out, EveryEventSnapshot());
  telemetry::WriteFleetFinishEvent(out, EveryEventFleetFinish());
  telemetry::WriteCampaignTail(out, result, kEveryEventWallNs);
}

// The writers' exact bytes. CI greps journal lines, --resume reads them
// back, and journals already on disk were written with them, so a change
// here is a format change, not a refactor.
constexpr char kEveryEventGolden[] = R"golden({"event":"campaign_start","tool":"tool\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","dialect":"dialect\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","seed":18446744073709551615,"budget":250000,"shards":2}
{"event":"checkpoint","every":500,"shard":1,"cases_completed":1000,"sql_errors":20,"crashes_observed":3,"false_positives":1,"watchdog_timeouts":2,"unique_bugs":1,"rng_fingerprint":18446744073709551615,"dedup_digest":18446744073709551614}
{"event":"campaign_resume","from_cases":1000}
{"event":"chaos","spec":"spec\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€"}
{"event":"lease","action":"action\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","unit":3,"worker":2,"cases":99,"unit_digest":18446744073709551615}
{"event":"worker_death","worker":2,"pid":9223372036854775807,"units_completed":5,"reason":"reason\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€"}
{"event":"net_session","detail":"detail0\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","session":"session0\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","worker":0,"unit":-1}
{"event":"net_disconnect","detail":"detail1\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","session":"session1\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","worker":1,"unit":0}
{"event":"net_redeliver","detail":"detail2\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","session":"session2\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","worker":2,"unit":1}
{"event":"net_dup_result","detail":"detail3\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","session":"session3\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","worker":3,"unit":2}
{"event":"health","state":"state\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","reason":"health-reason\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","statements_per_s":1234.500000,"units_per_s":0.250000,"bugs_per_s":0.125000,"reclaims_per_s":2.000000,"redeliveries_per_s":0.500000,"wall_ms":1500.750000}
{"event":"metrics_snapshot","series":18446744073709551615,"statements":18446744073709551614,"units_done":18446744073709551613,"health":"snapshot-health\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","wall_ms":250.500000}
{"event":"fleet_finish","units":18446744073709551615,"workers_spawned":18446744073709551614,"worker_deaths":18446744073709551613,"leases_granted":18446744073709551612,"leases_reclaimed":18446744073709551611,"leases_stolen":18446744073709551610,"heartbeats":18446744073709551609,"units_completed":18446744073709551608,"units_run_locally":18446744073709551607,"units_resumed":18446744073709551606,"units_spool_diverged":18446744073709551605,"degraded_to_local":1}
{"event":"shard_merge","shard":0,"statements":600}
{"event":"shard_merge","shard":1,"statements":634}
{"event":"first_witness","bug_id":42,"pattern":"pattern\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","statement_index":77,"shard":1,"wall_ms":1.500,"recorded":true}
{"event":"logic_bug","bug_id":501,"oracle":"oracle\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","function":"function\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","effect":"truncate","scope":"const_args","case_index":3,"statement_index":4,"shard":1,"poc":"SELECT 'poc\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€'","witness":"witness\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€"}
{"event":"crash_flight","shard":1,"worker_run":2,"announced":true,"bug_id":42,"last_checkpoint_cases":500,"entries":[{"index":76,"pattern":"entry\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","stage":"stage\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","outcome":"outcome\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€","sql":"SELECT {sql\u0001\t\r\n\"\\{}[],:\"bug_id\":9,é€}"},{"index":77,"pattern":"P1.1","stage":"execute","outcome":"crash","sql":"SELECT 1"}]}
{"event":"campaign_finish","statements":1234,"sql_errors":56,"crashes_observed":7,"false_positives":8,"watchdog_timeouts":9,"unique_bugs":1,"logic_checks":10,"logic_divergences":11,"logic_false_positives":12,"logic_bugs":1,"functions_triggered":13,"branches_covered":14,"journal_degraded":1,"wall_ms":2500.000}
)golden";

TEST(TelemetryJournalTest, WritersEmitPinnedBytes) {
  std::stringstream stream;
  WriteEveryEvent(stream);
  EXPECT_EQ(stream.str(), kEveryEventGolden);
}

// Every field of every event kind replays exactly: control bytes decode back
// from \u00XX, a string holding a key lookalike or braces cannot shadow a
// real field, and 64-bit digests keep all their bits. Cut at any byte, the
// same stream still replays its intact prefix.
TEST(TelemetryJournalTest, EveryEventKindRoundTripsBoundaryStrings) {
  std::stringstream stream;
  WriteEveryEvent(stream);
  const std::string full = stream.str();
  const Result<telemetry::JournalReplay> replayed = telemetry::ReplayJournal(stream);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  const CampaignResult result = EveryEventResult();

  EXPECT_EQ(replayed->tool, result.tool);
  EXPECT_EQ(replayed->dialect, result.dialect);
  EXPECT_EQ(replayed->seed, kU64Max);
  EXPECT_EQ(replayed->budget, 250000);
  EXPECT_EQ(replayed->shards, result.shards);
  EXPECT_EQ(replayed->checkpoints, std::vector{EveryEventCheckpoint()});
  EXPECT_EQ(replayed->resume_markers, 1);
  EXPECT_EQ(replayed->chaos_specs, std::vector{Boundary("spec")});
  EXPECT_EQ(replayed->lease_events, std::vector{EveryEventLease()});
  EXPECT_EQ(replayed->worker_deaths, std::vector{EveryEventDeath()});
  EXPECT_EQ(replayed->net_events, EveryEventNet());
  EXPECT_EQ(replayed->health_events, std::vector{EveryEventHealth()});
  EXPECT_EQ(replayed->metrics_snapshots, std::vector{EveryEventSnapshot()});
  EXPECT_TRUE(replayed->fleet_finished);
  EXPECT_EQ(replayed->fleet, EveryEventFleetFinish());
  EXPECT_EQ(replayed->shard_statements, result.shard_statements);

  const FoundBug& bug = result.unique_bugs[0];
  telemetry::JournalWitness witness;
  witness.bug_id = bug.crash.bug_id;
  witness.pattern = bug.found_by;
  witness.statement_index = bug.statements_until_found;
  witness.shard = bug.shard;
  witness.wall_ms = 1.5;
  witness.recorded = true;
  EXPECT_EQ(replayed->witnesses, std::vector{witness});

  const FoundLogicBug& logic = result.logic_bugs[0];
  telemetry::JournalLogicBug logic_event;
  logic_event.bug_id = logic.info.bug_id;
  logic_event.oracle = logic.oracle;
  logic_event.function = logic.info.function;
  logic_event.effect = "truncate";
  logic_event.scope = "const_args";
  logic_event.case_index = logic.case_index;
  logic_event.statement_index = logic.statements_until_found;
  logic_event.shard = logic.shard;
  logic_event.poc = logic.poc_sql;
  logic_event.witness = logic.witness;
  EXPECT_EQ(replayed->logic_bugs, std::vector{logic_event});
  EXPECT_EQ(replayed->crash_flights, result.crash_flights);

  EXPECT_TRUE(replayed->finished);
  EXPECT_FALSE(replayed->torn_tail);
  EXPECT_EQ(replayed->statements_executed, result.statements_executed);
  EXPECT_EQ(replayed->sql_errors, result.sql_errors);
  EXPECT_EQ(replayed->crashes_observed, result.crashes_observed);
  EXPECT_EQ(replayed->false_positives, result.false_positives);
  EXPECT_EQ(replayed->watchdog_timeouts, result.watchdog_timeouts);
  EXPECT_EQ(replayed->unique_bug_count, 1);
  EXPECT_EQ(replayed->logic_checks, result.logic_checks);
  EXPECT_EQ(replayed->logic_divergences, result.logic_divergences);
  EXPECT_EQ(replayed->logic_false_positives, result.logic_false_positives);
  EXPECT_EQ(replayed->logic_bug_count, 1);
  EXPECT_EQ(replayed->functions_triggered, result.functions_triggered);
  EXPECT_EQ(replayed->branches_covered, result.branches_covered);
  EXPECT_TRUE(replayed->journal_degraded);
  EXPECT_DOUBLE_EQ(replayed->wall_ms, 2500.0);

  const size_t first_line_end = full.find('\n') + 1;
  for (size_t len = first_line_end; len <= full.size(); ++len) {
    std::stringstream in(full.substr(0, len));
    const Result<telemetry::JournalReplay> prefix = telemetry::ReplayJournal(in);
    ASSERT_TRUE(prefix.ok()) << "offset " << len << ": " << prefix.status().message();
    EXPECT_EQ(prefix->torn_tail, full[len - 1] != '\n') << "offset " << len;
  }
}

}  // namespace
}  // namespace soft
